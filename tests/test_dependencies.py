"""The library imports numpy only: scipy is a test dependency."""

import os
import subprocess
import sys
from pathlib import Path

import choreo

# Every module of the package, read from its directory so that a new module
# is covered without editing this list.
MODULES = sorted(
    "choreo" if path.stem == "__init__" else f"choreo.{path.stem}"
    for path in Path(choreo.__file__).parent.glob("*.py")
)


def test_library_imports_without_scipy():
    assert {"choreo", "choreo.estimates", "choreo.reference_tables"} <= set(MODULES)
    code = (
        "import sys\n"
        + "".join(f"import {name}\n" for name in MODULES)
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
