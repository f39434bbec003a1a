"""Run one workload of the survtower benchmark.

    python3 perfbench/run.py --workload desk_train --seed 1 --seconds 30 --trace 0

See perfbench/README.md for the workloads, the metrics and the output.
"""

import os
import sys

# BLAS threads are pinned before numpy loads: epoch times move by a
# quarter between 1 and 2 OpenBLAS threads, so results are comparable
# only at one fixed count
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    import bench

    sys.exit(bench.main())
