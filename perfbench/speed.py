"""Machine-speed probe used to put report times on a fixed scale.

The shared 2-vCPU host this benchmark was sized on runs a fixed piece of
work 15-25 % faster or slower from one few-second window to the next,
whatever else the benchmark does.  A small fixed kernel run between
reports slows down and speeds up with it, so a report time multiplied by
PROBE_NOMINAL_S / (the probe time around that report) keeps its size and
loses most of the drift.  Interleaved with three kinds of opint call
over 80 s, the quartile spread of 3 s window medians was 21-29 % for
the plain times and 2-6 % for the scaled ones.  The probe is plain numpy on data fixed here, so no
change to opint can change it.
"""

import statistics
import time

import numpy as np
import scipy.linalg

# The probe's median time on the reference box (a 2-vCPU 2.1 GHz VM,
# one BLAS thread).  Normalised times read as seconds on that box.
PROBE_NOMINAL_S = 0.004
PROBES_PER_REPORT = 2
WINDOW = 3  # reports on each side whose probes set one report's speed

_rng = np.random.default_rng(20041027)


def _complex(*shape):
    return _rng.standard_normal(shape) + 1j * _rng.standard_normal(shape)


_M = _complex(24, 24)
_S = _M + 8.0 * np.eye(24)
_H = _complex(100, 12, 12)
_H = _H + np.conj(np.transpose(_H, (0, 2, 1)))
_B = _complex(64, 64)
_T = _complex(6, 6) + 4.0 * np.eye(6)
_I = np.eye(6, dtype=np.complex128)


def _kernel():
    # The kinds of work a report does: small LAPACK calls, a batched
    # eigensolve that spills out of L1/L2, a mid-size product, many tiny
    # scipy calls dominated by dispatch, and plain interpreter work.
    for _ in range(4):
        np.linalg.svd(_M)
        np.linalg.solve(_S, _M)
    np.linalg.eigvalsh(_H)
    for _ in range(3):
        _B @ _B
    for _ in range(20):
        lu = scipy.linalg.lu_factor(_T, check_finite=False)
        R = scipy.linalg.lu_solve(lu, _I, check_finite=False)
        np.linalg.norm(_T @ R - _I, 2)
    total = 0
    for i in range(3000):
        total += i * i
    return total


def probe(count=PROBES_PER_REPORT):
    """Times of `count` runs of the fixed kernel."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return times


def factors(probes):
    """Per-report scale factors PROBE_NOMINAL_S / local probe median.

    probes[i] holds the probe times taken right after report i; the
    local median pools the probes of the reports within WINDOW of it.
    """
    out = []
    for i in range(len(probes)):
        pooled = [t for p in probes[max(0, i - WINDOW):i + WINDOW + 1] for t in p]
        out.append(PROBE_NOMINAL_S / statistics.median(pooled))
    return out
