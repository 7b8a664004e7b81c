"""Seeded benchmark of the ``choreo`` library.

Importing this package puts the checkout's ``src`` directory first on the
module path and refuses a ``choreo`` found anywhere else, so a run always
measures the code of the checkout it sits in.  Without ``src/choreo`` the
import fails, and the command-line entry point exits without a result.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import choreo  # noqa: E402

if Path(choreo.__file__).resolve().parent != SRC / "choreo":
    raise ImportError(f"choreo was imported from {choreo.__file__}, not from {SRC}")
