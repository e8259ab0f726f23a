"""Operator Stieltjes integrals with respect to the spectral measure of
a normal matrix, the E-norm, and spectral-integral solvers with
existence certificates for Sylvester and Riccati matrix equations."""

__version__ = "0.1.0"


def _seed_thread_env():
    """Seed OMP_NUM_THREADS and friends from OPINT_THREADS, keeping any
    value already set.  OpenBLAS reads them once, when numpy loads, so
    this runs before the package's first numpy import; unset means the
    implementation default."""
    import os

    threads = os.environ.get("OPINT_THREADS")
    if threads:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, threads)


_seed_thread_env()

from .errors import *
from .linalg import *
from .spectral import *
from .stieltjes import *
from .enorm import *
from .sylvester import *
from .riccati import *
