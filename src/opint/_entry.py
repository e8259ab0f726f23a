"""Console-script launcher and the BLAS thread cap.

OPINT_THREADS, when set, seeds the BLAS thread-pool variables; OpenBLAS
reads them once, when numpy loads, so the package seeds them before its
first numpy import.  Absence means the implementation default.
"""

import os
import sys


def seed_thread_env():
    """Seed OMP_NUM_THREADS and friends from OPINT_THREADS, keeping any
    value already set."""
    threads = os.environ.get("OPINT_THREADS")
    if threads:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, threads)


def main(argv=None):
    seed_thread_env()
    from .cli import main as cli_main
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
