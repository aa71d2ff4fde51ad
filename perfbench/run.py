"""Benchmark entry point.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {dense-sectors,large-torus,winding} \
        --seed N --seconds S --trace {0,1}

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the environment,
the sample count and (with --trace 1) the span tree.  BLAS and OpenMP are
pinned to one thread before numpy is imported.
"""

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def pin_and_locate():
    """Pin BLAS/OpenMP to one thread and put the checkout's sources on the path.

    Must run before numpy is imported.  Returns False when the directory
    above this one holds no torusdimer sources.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    if not os.path.isfile(os.path.join(src, "torusdimer", "__init__.py")):
        print("error: no torusdimer sources at %s; run from the root of a checkout"
              % src, file=sys.stderr)
        return False
    sys.path[:0] = [here, src]
    return True


def main():
    if not pin_and_locate():
        return 2
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
