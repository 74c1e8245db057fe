#!/usr/bin/env python3
"""Entry point of the polygauss benchmark.

    python3 perfbench/run.py --workload search-b2 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Runs from the root of a source tree and imports polygauss from its src/
directory; it exits with status 2 before printing any result when that tree
is not there.  See README.md next to this file for the metrics.
"""

import os
import sys
from pathlib import Path

# Pin BLAS and OpenMP pools to one thread before numpy is imported, here and
# in every process this one starts, so that the numbers measure polygauss
# and not the scheduler.
for var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[var] = "1"

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    if not (SRC / "polygauss" / "__init__.py").is_file():
        print(f"polygauss sources not found under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import bench

    raise SystemExit(bench.main())
