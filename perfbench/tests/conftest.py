"""Make the benchmark modules and the program importable from the tests.

Run from the repository root with `python3 -m pytest perfbench/tests -q`.
"""

import os
import sys
from pathlib import Path

# As in a benchmark run: one BLAS thread, so no idle BLAS helper spins
# beside the code under test.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
