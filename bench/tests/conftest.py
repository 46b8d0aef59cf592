"""Harness tests: ``python -m pytest bench/tests -q`` from the repository root.

They live outside tier-1's ``testpaths`` and test the benchmark's own
helpers, never the program.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
