"""Make the harness modules and the program under test importable."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent
for path in (ROOT / "src", PERFBENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
