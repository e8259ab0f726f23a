"""Dense complex-matrix primitives shared by every other module."""

from dataclasses import dataclass

import numpy as np

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


def _square_scale(big, count):
    """big if count squares up to big^2 underflow or overflow, else 1."""
    fits = np.finfo(float).tiny <= big * big and count * big * big <= np.finfo(float).max
    return big if 0.0 < big < np.inf and not fits else 1.0


def _row_squares(M):
    """(s, the squared row norms of M / s), s the `_square_scale` of the real
    and imaginary parts of M: no sum of them overflows, and s = 1 in range."""
    V = np.ascontiguousarray(M).view(np.float64)
    s = _square_scale(float(np.abs(V).max(initial=0.0)), V.size)
    V = V / s
    return s, np.einsum("ij,ij->i", V, V)


def hs_norm(M):
    """Frobenius norm of M, scaled where a square would leave the normal range."""
    s, rows = _row_squares(np.asarray(M, dtype=np.complex128))
    return s * float(np.sqrt(rows.sum()))


def adjoint(M):
    """Conjugate transpose."""
    return np.asarray(M, dtype=np.complex128).conj().T


def _accept_residuals(residual, op_norm, sol_norm, tol, shifts):
    """Raise SingularResolventError, naming the shift of the first failing
    entry, unless each scale op_norm * sol_norm is finite and each
    Frobenius residual is at most tol_solve times it, for the largest
    column (or row) norms of the operator and of the solution: at least as
    strict as ||S X - B|| <= tol_solve ||S|| ||X||.  `solve_kronecker`, the
    oracle, keeps its looser sqrt(tol_solve) rule and SingularSystemError
    (exit 3); `posterior_check` needs sigma_min anyway and rejects
    sigma_min <= tol_solve (sigma_max + |zeta|)."""
    with np.errstate(all="ignore"):
        scale = op_norm * sol_norm
        ok = np.isfinite(scale) & (residual <= tol.tol_solve * scale)
    if not ok.all():
        i = np.flatnonzero(~ok)[0]
        why = ("lost all accuracy" if np.isfinite(scale[i])
               else "cannot be checked: the scale of its residual test overflowed")
        raise SingularResolventError(f"the solve at z = {complex(shifts[i])} {why} "
                                     f"(residual {residual[i]:.3e})")


def _guarded_solve(S, B, tol, z):
    """S^{-1} B for S = M - z, accepted by `_accept_residuals` on largest column norms."""
    try:
        X = np.linalg.solve(S, B)
    except np.linalg.LinAlgError as exc:
        raise SingularResolventError(
            f"M - zI is exactly singular at z = {complex(z)}") from exc
    with np.errstate(all="ignore"):
        norms = [np.linalg.norm(M, axis=0).max(keepdims=True) for M in (S, X)]
        _accept_residuals(np.linalg.norm(S @ X - B, keepdims=True)[0], *norms, tol, [z])
    return X


def _substitute(T, R, s):
    """Y with Y T - diag(s) Y = R for an upper triangular T, one column per step
    for all rows, Y_j = (R_j - Y_{<j} T_{<j,j}) / (T_jj - s): O(rows n^2) in n steps."""
    Yt, Rt, d = np.empty((len(T), len(R)), dtype=np.complex128), R.T, np.diag(T)
    for j in range(len(T)):
        Yt[j] = (Rt[j] - T[:j, j] @ Yt[:j]) / (d[j] - s)
    return np.ascontiguousarray(Yt.T)


def _triangular_resolvents(T, R, shifts, sizes, tol):
    """Y whose k-th block of sizes[k] rows is R_k (T - shifts[k])^{-1}, for
    an upper triangular T and a complex array of shifts: Y T - diag(s) Y =
    R, s = repeat(shifts, sizes), by one `_substitute` (Bartels-Stewart with
    the left factor diagonal); every shifted solve but `resolvent`'s.

    Raises SingularResolventError, naming the shift, when T - s cancels to
    rounding as a whole (||T - s||_F <= tol_solve |s|, `resolvent`'s rule,
    read off the strict upper part and the diagonal of T), when Y is not
    finite (at the shift nearest to diag(T)), or when a block's residual
    ||Y_k (T - s_k) - R_k||_F, formed on T - s_k itself (no |s_k| rounds
    into it), fails `_accept_residuals` with the largest row norms of
    T - s_k and of Y_k, all summed by `_row_squares`.
    """
    n, N, diff = len(T), np.triu(T, 1), np.diag(T) - shifts[:, None]
    # row i of T - s is the strict upper part of row i and T_ii - s
    c, sq = _row_squares(np.concatenate([N, diff]))
    with np.errstate(all="ignore"):
        shifted = np.abs(diff / c) ** 2
        cancels = c * np.sqrt(sq[:n].sum() + sq[n:]) <= tol.tol_solve * np.abs(shifts)
    if cancels.any():
        raise SingularResolventError(
            f"M - zI cancels to rounding at z = {complex(shifts[cancels][0])}")
    s, starts = np.repeat(shifts, sizes), np.cumsum(sizes) - sizes
    with np.errstate(all="ignore"):
        Y = _substitute(T, R, s)
        if not np.all(np.isfinite(Y)):
            raise SingularResolventError(
                f"M - zI is singular at z = {complex(shifts[shifted.min(axis=1).argmin()])}")
        r, res = _row_squares(Y @ N + Y * np.repeat(diff, sizes, axis=0) - R)
        y, rows = _row_squares(Y)
        _accept_residuals(r * np.sqrt(np.add.reduceat(res, starts)),
                          c * np.sqrt((sq[:n] + shifted).max(axis=1)),
                          y * np.sqrt(np.maximum.reduceat(rows, starts)), tol, shifts)
    return Y


def resolvent(M, z, tol=DEFAULT_TOLERANCES):
    """(M - zI)^{-1}, by a `_guarded_solve` against I.

    Raises SingularResolventError, naming z, when M - zI is numerically
    singular, i.e. z is within working precision of the spectrum of M.
    """
    A = _square(M, "M")
    eye = np.eye(A.shape[0], dtype=np.complex128)
    shifted = A - complex(z) * eye
    # the residual is relative to ||M - z||, so it misses an M - zI that
    # cancels as a whole: sigma_min <= ||M - z||_F <= tol_solve |z|
    if np.linalg.norm(shifted) <= tol.tol_solve * abs(z):
        raise SingularResolventError(f"M - zI cancels to rounding at z = {complex(z)}")
    return _guarded_solve(shifted, eye, tol, z)


def normality_defect(M):
    """Operator norm of M*M - MM*."""
    A = _square(M, "M")
    return operator_norm(adjoint(A) @ A - A @ adjoint(A))


def _normality(M, norm, tol):
    """(norm, s, ||M'*M' - M'M'*||_2, tol_normal ||M'||^2) for M' = M / s and
    ||M||_2 = norm: the scale-free test is decided on M', where s = 1 unless
    norm^2 leaves the float range (`_square_scale`), else a power of two."""
    s = 2.0 ** int(np.frexp(_square_scale(norm, len(M)))[1] - 1)
    return (norm, s, normality_defect(M if s == 1.0 else M / s),
            tol.tol_normal * max((norm / s) ** 2, 1e-300))


def is_normal(M, tol=DEFAULT_TOLERANCES):
    """True when the relative normality defect is within tol_normal."""
    A = _square(M, "M")
    _, _, defect, threshold = _normality(A, operator_norm(A), tol)
    return defect <= threshold


def _support_values(A, thetas):
    """(h, w, h'') at the given angles from one batched eigensolve: h(t),
    the top eigenvalue of the Hermitian part H(t) of exp(-it) A, is the
    support function of W(A), and w = x*Ax (x its eigenvector) a boundary
    point.  h' = Im(e^{-it} w), and h'' = -h + 2 sum_j |v_j* H(t + pi/2) x|^2
    / (h - lambda_j) over the other eigenpairs, save those tied with h."""
    phase = np.exp(-1j * np.atleast_1d(np.asarray(thetas, dtype=float)))
    M = phase[:, None, None] * A
    lam, V = np.linalg.eigh(0.5 * (M + np.conj(np.transpose(M, (0, 2, 1)))))
    x = V[:, :, -1]
    Ax, Ahx = x @ A.T, x @ A.conj()  # rows A x and A* x
    w = np.einsum("ti,ti->t", x.conj(), Ax)
    # |v_j* y| = |y* v_j| for y = H(t + pi/2) x
    y = 0.5j * (phase.conj()[:, None] * Ahx - phase[:, None] * Ax)
    c = np.einsum("tij,ti->tj", V, y.conj())
    gaps = lam[:, -1:] - lam[:, :-1]
    coupling = np.divide(np.abs(c[:, :-1]) ** 2, gaps, out=np.zeros_like(gaps),
                         where=gaps > 0.0).sum(axis=1)
    return lam[:, -1], w, 2.0 * coupling - lam[:, -1]


def _rounding_slack(A, pts):
    """Per-point rounding allowance (h + 8) eps (||A||_F + |z|) on a bound.

    With w the computed e^{-i theta}, forming H = (wA + (wA)*)/2 is off by
    at most about 4 eps ||A||_F in Frobenius norm, and eigh returns the
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


_COARSE_ANGLES = 32
_REFINE_ITERS = 40


def _numrange_bounds(A, pts, n_angles, refine_iters, gap):
    """(lower, upper) bounds on dist(z, W(A)) for each point z, by
    boundary-point generation (C. R. Johnson, SIAM J. Numer. Anal. 1978).

    An eigensolve at angle t gives every z the lower bound g(t) =
    Re(e^{-it} z) - h(t), less `_rounding_slack`, and a boundary point
    w(t); U is the distance to the polygon of those found so far.  After
    a grid of n_angles angles, each point steps towards the maximum of g
    in a bracket where g' = Im(e^{-it}(z - w)) changes sign: Newton's step
    from the better end if it lands inside, else the crossing of the ends'
    tangents, which finds a kink of g (a double top eigenvalue) in a few
    steps; a bracket at a maximum of g at most 0 that points away from the
    outward normal at the polygon's nearest point probes that normal
    instead (a flat W has such a second maximum).  A point stops at U - L <= max(1e-12 U, 4 slack), after
    refine_iters steps, or, with `gap`, once L reaches the least U, as it
    can no longer be the minimum.
    """
    if n_angles < 8:
        raise ValueError("n_angles must be at least 8")
    slack = _rounding_slack(A, pts)

    def probe(t, z):
        """(t, g, g', g'') at angles t for points z, and the boundary points."""
        h, w, d2h = (v.reshape(np.shape(t)) for v in _support_values(A, np.ravel(t)))
        e = np.exp(-1j * t)
        return np.stack(np.broadcast_arrays(
            t, (e * z).real - h, (e * (z - w)).imag, -(e * z).real - d2h)), w.ravel()

    grid = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    P, w = probe(grid[:, None], pts)
    lower = np.maximum(P[1].max(axis=0) - slack, 0.0)
    # bracket: the best grid angle and its neighbour on the side where g rises
    j, i = P[1].argmax(axis=0), np.arange(len(pts))
    step = np.where(P[2, j, i] > 0.0, 1, -1)
    near, far = P[:, j, i], P[:, (j + step) % n_angles, i]
    far[0] = grid[j] + step * (grid[1] - grid[0])
    ends = np.where(step > 0, np.stack([near, far], 1), np.stack([far, near], 1))
    angles, points, upper = grid, w, _hull_distance(_hull(w), pts)
    for it in range(refine_iters + 1):
        act = upper - lower > np.maximum(1e-12 * upper, 4.0 * slack)
        if gap:
            act &= lower < upper.min()
        if it == refine_iters or not act.any():
            return lower, upper
        E, i = ends[..., act], np.arange(act.sum())
        (lo, hi), (g_lo, g_hi), (d_lo, d_hi) = E[0], E[1], E[2]
        base = E[:, E[1].argmax(axis=0), i]
        with np.errstate(all="ignore"):
            newton = base[0] - base[2] / base[3]
            cross = lo + (g_hi - g_lo - d_hi * (hi - lo)) / (d_lo - d_hi)
        cross = np.where((lo < cross) & (cross < hi), cross, 0.5 * (lo + hi))
        t = np.where((lo < newton) & (newton < hi), newton, cross)
        # a local maximum of g above 0 is the global one, at the normal
        # arg(z - p) from the nearest point p of W; one below lies over a
        # right angle from it (z outside W), so probe the normal instead
        stray = base[1] <= 0.0
        if stray.any():
            normal = np.angle(pts[act] - _hull_nearest(_hull(points), pts[act]))
            stray &= np.cos(base[0] - normal) < 0.0
            t = np.where(stray, normal, t)
        Q, w = probe(t, pts[act])
        lower[act] = np.maximum(lower[act], Q[1] - slack[act])
        E[:, (Q[2] <= 0.0).astype(int), i] = Q
        if stray.any():  # the upper end, within one turn above the lower
            span = (E[0, 1] - E[0, 0]) % (2.0 * np.pi)
            E[0, 1, stray] = E[0, 0, stray] + np.where(span > 0.0, span, 2.0 * np.pi)[stray]
        ends[..., act] = E
        # new polygon edges join each new point to its neighbours in angle
        turn = (t[:, None] - angles) % (2.0 * np.pi)
        for nb in (turn.argmin(axis=1), (-turn % (2.0 * np.pi)).argmin(axis=1)):
            dist = _segment_distance(pts[:, None], points[nb], w)
            upper = np.minimum(upper, dist.min(axis=1))
        angles, points = np.append(angles, t), np.append(points, w)
        if np.any(lower[act] == 0.0):  # a point of W(A) gets U = 0 once inside
            upper = np.minimum(upper, _hull_distance(_hull(points), pts))


def numrange_distances(A, points, n_angles=_COARSE_ANGLES, refine_iters=_REFINE_ITERS):
    """Lower bounds on the distances from each point to the numerical range,
    each within max(1e-12 U, 4 slack) of an upper bound U (`_numrange_bounds`):
    they converge to rounding for any grid of at least 8 angles, and are
    lowered by `_rounding_slack` so that rounding cannot lift them."""
    A = _square(A, "A")
    pts = np.atleast_1d(np.asarray(points, dtype=np.complex128))
    return _numrange_bounds(A, pts, n_angles, refine_iters, gap=False)[0]


def numrange_gap(A, points, n_angles=_COARSE_ANGLES):
    """min(numrange_distances(A, points)), refining only where it can fall:
    a point stops once its lower bound reaches the smallest upper bound."""
    A = _square(A, "A")
    pts = np.atleast_1d(np.asarray(points, dtype=np.complex128))
    return float(_numrange_bounds(A, pts, n_angles, _REFINE_ITERS, gap=True)[0].min())


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


def _segment_distance(z, a, b):
    """Distance from z to the segment [a, b], broadcast; a point if a = b."""
    e = b - a
    t = np.real((z - a) * e.conj()) / np.maximum(np.abs(e) ** 2, np.finfo(float).tiny)
    return np.abs(z - a - np.clip(t, 0.0, 1.0) * e)


def _hull_nearest(v, pts):
    """The point of the edges of the `_hull` polygon v nearest to each point."""
    z, e = pts[:, None], np.roll(v, -1) - v
    t = np.real((z - v) * e.conj()) / np.maximum(np.abs(e) ** 2, np.finfo(float).tiny)
    near = v + np.clip(t, 0.0, 1.0) * e
    return near[np.arange(len(pts)), np.abs(z - near).argmin(axis=1)]


def _hull_distance(v, pts):
    """Distance from each point to the polygon of `_hull` vertices v, 0 inside.
    Edges no longer than rounding (two copies of a vertex) leave out of the
    inside test: their direction is noise."""
    z, w = pts[:, None], np.roll(v, -1)
    tiny = np.abs(w - v) <= 16.0 * np.finfo(float).eps * np.abs(v).max(initial=0.0)
    inside = len(v) > 2 and np.all((((w - v).conj() * (z - v)).imag >= 0.0) | tiny, axis=1)
    return np.where(inside, 0.0, _segment_distance(z, v, w).min(axis=1))


def separation(T, points, sweep):
    """Lower bounds (spectral, numrange) on min_k sigma_min(A - zeta_k) from
    a complex Schur form A = U T U*, T = Lambda + N, with N A's departure
    from normality (Henrici, Numer. Math. 1962) and nu >= ||N||_2.

    spectral = min |lambda_j - zeta_k| - nu (Weyl).  conv(Lambda) lies in
    W(A) and W(A) in conv(Lambda) + disc(nu), so dist(zeta, W(A)), at most
    sigma_min(A - zeta), is in [dist(zeta, conv Lambda) - nu, dist(zeta,
    conv Lambda)].  numrange is 0 if a point is in conv(Lambda), the lower
    end if nu <= 1e-12 dist(zeta, conv Lambda) at every point, and else
    sweep(), the angle sweep's bound (`numrange_gap`).  For a normal A, nu
    is rounding that grows like h eps ||A||_F, so the rule skips the sweep
    for small h only: from about h = 64 it runs for normal A too.

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
    hull = _hull_distance(_hull(lam), pts)
    if np.any(hull == 0.0):
        numrange = 0.0  # a point in conv(Lambda)
    elif np.all(nu <= 1e-12 * hull):
        numrange = (hull - nu).min()
    else:
        numrange = sweep()
    return max(float(spectral), 0.0), max(float(numrange), 0.0)
