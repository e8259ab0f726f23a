"""Dense complex-matrix primitives shared by every other module."""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ShapeMismatchError, SingularResolventError

__all__ = [
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "as_matrix",
    "operator_norm",
    "hs_norm",
    "adjoint",
    "resolvent",
    "normality_defect",
    "is_normal",
    "numrange_support",
    "dist_to_numrange",
    "numrange_distances",
    "numrange_gap",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used throughout the package.

    tol_normal   relative normality tolerance
    tol_cluster  eigenvalue clustering tolerance, relative to spectral radius
    tol_solve    solver / convergence tolerance
    tol_quad     contour-quadrature tolerance
    """

    tol_normal: float = 1e-10
    tol_cluster: float = 1e-8
    tol_solve: float = 1e-10
    tol_quad: float = 1e-12

    def __post_init__(self):
        for name in ("tol_normal", "tol_cluster", "tol_solve", "tol_quad"):
            value = getattr(self, name)
            if not (0.0 < value < 1.0):
                raise ValueError(f"{name} must lie strictly between 0 and 1, got {value}")


DEFAULT_TOLERANCES = Tolerances()


def as_matrix(M, name="matrix"):
    """Coerce input to a 2-D complex128 array with finite entries."""
    A = np.asarray(M, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise ShapeMismatchError(f"{name} must be a 2-D matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ShapeMismatchError(f"{name} contains non-finite entries")
    return A


def _square(M, name="matrix"):
    A = as_matrix(M, name)
    if A.shape[0] != A.shape[1]:
        raise ShapeMismatchError(f"{name} must be square, got shape {A.shape}")
    return A


def operator_norm(M):
    """Largest singular value of M."""
    A = np.asarray(M, dtype=np.complex128)
    if A.size == 0:
        return 0.0
    return float(np.linalg.norm(A, 2))


def hs_norm(M):
    """Frobenius norm of M."""
    return float(np.linalg.norm(np.asarray(M, dtype=np.complex128), "fro"))


def adjoint(M):
    """Conjugate transpose."""
    return np.asarray(M, dtype=np.complex128).conj().T


def resolvent(M, z, tol=DEFAULT_TOLERANCES):
    """(M - zI)^{-1}, computed by an LU-based solve per column.

    Raises SingularResolventError when M - zI is numerically singular,
    i.e. z is within working precision of the spectrum of M.
    """
    A = _square(M, "M")
    n = A.shape[0]
    shifted = A - complex(z) * np.eye(n, dtype=np.complex128)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(shifted, check_finite=False)
            R = scipy.linalg.lu_solve((lu, piv), np.eye(n, dtype=np.complex128),
                                      check_finite=False)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise SingularResolventError(
            f"M - zI is singular at z = {complex(z)}") from exc
    if not np.all(np.isfinite(R)):
        raise SingularResolventError(
            f"M - zI is numerically singular at z = {complex(z)}")
    # Backward-stable solves leave a residual ~ eps * kappa; anything far
    # beyond that means z effectively sits on the spectrum.  The Frobenius
    # norm is never below the spectral norm and the largest column norm
    # never above it, so this is at least as strict as
    # ||(M - z) R - I|| <= tol_solve max(1, ||M - z|| ||R||).
    residual = np.linalg.norm(shifted @ R - np.eye(n))
    scale = max(1.0, np.linalg.norm(shifted, axis=0).max()
                * np.linalg.norm(R, axis=0).max())
    if residual > tol.tol_solve * scale:
        raise SingularResolventError(
            f"resolvent solve at z = {complex(z)} lost all accuracy "
            f"(residual {residual:.3e})")
    # the residual is relative to ||M - z||, so it misses an M - zI that
    # cancels as a whole: sigma_min <= ||M - z||_F <= tol_solve |z|
    if np.linalg.norm(shifted) <= tol.tol_solve * abs(z):
        raise SingularResolventError(f"M - zI cancels to rounding at z = {complex(z)}")
    return R


def normality_defect(M):
    """Operator norm of M*M - MM*."""
    A = _square(M, "M")
    return operator_norm(adjoint(A) @ A - A @ adjoint(A))


def is_normal(M, tol=DEFAULT_TOLERANCES):
    """True when the relative normality defect is within tol_normal."""
    A = _square(M, "M")
    scale = operator_norm(A) ** 2
    return normality_defect(A) <= tol.tol_normal * max(scale, 1e-300)


def _support_values(A, thetas):
    """Support function of the numerical range of A at the given angles.

    For each angle t the value is the top eigenvalue of the Hermitian
    part of exp(-it) A, evaluated as one batched eigensolve.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    phase = np.exp(-1j * thetas)[:, None, None]
    H = 0.5 * (phase * A + np.conj(np.transpose(phase * A, (0, 2, 1))))
    return np.linalg.eigvalsh(H)[:, -1]


def numrange_support(A, theta):
    """Support function h(theta) = sup over unit x of Re(e^{-i theta} <Ax, x>)."""
    A = _square(A, "A")
    return float(_support_values(A, [float(theta)])[0])


def _rounding_slack(A, pts):
    """Per-point rounding allowance (h + 8) eps (||A||_F + |z|) on a bound.

    With w the computed e^{-i theta}, forming H = (wA + (wA)*)/2 is off by
    at most about 4 eps ||A||_F in Frobenius norm, and eigvalsh returns the
    top eigenvalue of a matrix within h eps ||H|| <= h eps ||A||_F of that
    (its backward error), so by Weyl's inequality the computed h(theta)
    is off by at most (h + 4) eps ||A||_F.  Re(w z) is off by at most
    2 eps |z|.  |w| = 1 + O(2 eps) scales the exact value for the unit
    phase w/|w|, which is at most |z| + ||A|| in size, by at most
    2 eps (|z| + ||A||_F).  The sum, (h + 6) eps ||A||_F + 4 eps |z|, is
    within the allowance, so subtracting it leaves, to first order in
    eps, a lower bound on the distance that no rounding can lift.
    """
    eps = np.finfo(float).eps
    return (A.shape[0] + 8) * eps * (np.linalg.norm(A) + np.abs(pts))


def _grid_bounds(A, pts, n_angles):
    """Per-point maxima of Re(e^{-i theta} z) - h(theta) over a uniform angle
    grid (one batched eigensolve), less the rounding slack, with the grid
    bracket around each argmax."""
    if n_angles < 8:
        raise ValueError("n_angles must be at least 8")
    thetas = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    h = _support_values(A, thetas)
    # g[t, p] = Re(e^{-i theta_t} z_p) - h(theta_t)
    g = np.real(np.exp(-1j * thetas)[:, None] * pts[None, :]) - h[:, None]
    peak = thetas[g.argmax(axis=0)]
    step = 2.0 * np.pi / n_angles
    return g.max(axis=0) - _rounding_slack(A, pts), peak - step, peak + step


_REFINE_ITERS = 40


def _refine(A, pts, best, lo, hi, refine_iters):
    """Raise each bound in `best` by a ternary search on its bracket."""
    slack = _rounding_slack(A, pts)
    for _ in range(refine_iters):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        g1 = np.real(np.exp(-1j * m1) * pts) - _support_values(A, m1)
        g2 = np.real(np.exp(-1j * m2) * pts) - _support_values(A, m2)
        keep_low = g1 >= g2
        hi = np.where(keep_low, m2, hi)
        lo = np.where(keep_low, lo, m1)
        best = np.maximum(best, np.maximum(g1, g2) - slack)
    return best


def numrange_distances(A, points, n_angles=720, refine_iters=_REFINE_ITERS):
    """Lower bounds on the distances from each point to the numerical range.

    Samples the support function on a uniform angle grid (one batched
    eigensolve), takes per-point maxima of
    Re(e^{-i theta} z) - h(theta), and sharpens each maximum with a
    ternary-search refinement pass on its grid bracket.  Sampling can
    only underestimate the true distance, which is the safe direction
    for every certificate built on top of it, and each bound is lowered
    by a rounding slack of order h eps (||A||_F + |z|) (`_rounding_slack`)
    so that rounding cannot lift it either.
    """
    A = _square(A, "A")
    pts = np.atleast_1d(np.asarray(points, dtype=np.complex128))
    best = _refine(A, pts, *_grid_bounds(A, pts, n_angles), refine_iters)
    return np.maximum(best, 0.0)


def numrange_gap(A, points, n_angles=720):
    """min(numrange_distances(A, points)), refining only where it can fall.

    The point with the smallest grid bound is refined first, then, in one
    batch, every other point whose grid bound is below that refined value.
    Refinement never lowers a bound, so no point left out can attain the
    minimum.
    """
    A = _square(A, "A")
    pts = np.atleast_1d(np.asarray(points, dtype=np.complex128))
    bound, lo, hi = _grid_bounds(A, pts, n_angles)

    def refined(idx):
        return _refine(A, pts[idx], bound[idx], lo[idx], hi[idx],
                       _REFINE_ITERS).min()

    first = bound.argmin()
    gap = refined([first])
    rest = np.flatnonzero(bound < gap)
    rest = rest[rest != first]
    if rest.size:
        gap = min(gap, refined(rest))
    return max(float(gap), 0.0)


def dist_to_numrange(A, z, n_angles=720):
    """Lower bound on dist(z, W(A)) via support-function sampling.

    Zero when z lies inside the numerical range.  Nondecreasing in
    n_angles (up to refinement noise) and never exceeds the true
    distance, by convexity of W(A).
    """
    return numrange_gap(A, [complex(z)], n_angles=n_angles)


def _hull(points):
    """Counterclockwise vertices of the convex hull of complex points
    (Andrew's monotone chain); one or two if they coincide or are collinear."""
    pts = np.unique(points).tolist()  # sorted by real, then imaginary part
    if len(pts) < 3:
        return np.array(pts, dtype=np.complex128)
    hull = []
    for seq in (pts, pts[::-1]):  # lower, then upper chain
        chain = []
        for p in seq:  # keep only left turns chain[-2] -> chain[-1] -> p
            while len(chain) > 1 and ((chain[-1] - chain[-2]).conjugate()
                                      * (p - chain[-2])).imag <= 0.0:
                chain.pop()
            chain.append(p)
        hull += chain[:-1]
    return np.array(hull)


def separation(T, points, sweep):
    """Lower bounds (spectral, numrange) on min_k sigma_min(A - zeta_k) from
    a complex Schur form A = U T U*, T = Lambda + N, with N A's departure
    from normality (Henrici, Numer. Math. 1962) and nu >= ||N||_2.

    spectral = min |lambda_j - zeta_k| - nu (Weyl).  conv(Lambda) lies in
    W(A) and W(A) in conv(Lambda) + disc(nu), so dist(zeta, W(A)), at most
    sigma_min(A - zeta), is in [dist(zeta, conv Lambda) - nu, dist(zeta,
    conv Lambda)].  numrange is 0 if a point is in conv(Lambda), the lower
    end if nu <= 1e-12 dist(zeta, conv Lambda) at every point (as for every
    normal A), and else sweep(), the angle sweep's bound (`numrange_gap`).

    nu = ||N||_F + 4 (h + 8) eps (||T||_F + |zeta|), four `_rounding_slack`s.
    The computed T is the Schur form of A + E under a unitary matrix near
    U, ||E||_F <= p(h) eps ||A||_F for a small multiple p(h) of h (Golub &
    Van Loan, 7.5.6), and E moves both bounds by at most ||E||_2.  The
    computed ||N||_F is low by at most h eps ||T||_F; |lambda - zeta| and
    hull distances, a few operations on numbers up to ||T||_F + |zeta|,
    are high by at most 8 eps (||T||_F + |zeta|).  For p(h) <= 3h + 24 the
    sum is within the allowance: to first order no rounding lifts a bound.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=np.complex128))
    lam = np.diag(T)
    nu = np.linalg.norm(np.triu(T, 1)) + 4.0 * _rounding_slack(T, pts)
    spectral = (np.abs(lam[:, None] - pts).min(axis=0) - nu).min()
    # distance to the hull's nearest edge; a one-point hull has edge 0, t = 0
    v = _hull(lam)
    z, edge = pts[:, None] - v, np.roll(v, -1) - v
    t = np.real(z * edge.conj()) / np.maximum(np.abs(edge) ** 2, np.finfo(float).tiny)
    hull = np.abs(z - np.clip(t, 0.0, 1.0) * edge).min(axis=1)
    inside = len(v) > 2 and np.all((edge.conj() * z).imag >= 0.0, axis=1)
    if np.any(inside | (hull == 0.0)):
        numrange = 0.0  # a point in conv(Lambda)
    elif np.all(nu <= 1e-12 * hull):
        numrange = (hull - nu).min()
    else:
        numrange = sweep()
    return max(float(spectral), 0.0), max(float(numrange), 0.0)
