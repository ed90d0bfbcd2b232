"""Self-tests of the system benchmark: ``pytest benchmarks/system``.

Not part of the tier-1 suite (``testpaths = ["tests"]``); they check the
benchmark's own arithmetic and contract, not the program under test.
"""

import sys
from pathlib import Path

SYSTEM = Path(__file__).resolve().parents[1]
REPO = SYSTEM.parents[1]
for entry in (str(REPO / "src"), str(SYSTEM)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
