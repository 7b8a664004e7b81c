"""The library imports numpy only: scipy is a test dependency."""

import os
import subprocess
import sys
from pathlib import Path

import choreo

MODULES = ("groups", "action", "homotopy", "estimates", "reference_tables")


def test_library_imports_without_scipy():
    code = (
        "import sys\n"
        + "".join(f"import choreo.{name}\n" for name in MODULES)
        + "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(choreo.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
