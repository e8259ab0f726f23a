"""Dense complex-matrix primitives shared by every other module."""

import itertools
from dataclasses import dataclass, fields

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
        for f in fields(self):
            value = getattr(self, f.name)
            if not (0.0 < value < 1.0):
                raise ValueError(f"{f.name} must lie strictly between 0 and 1, got {value}")


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


_TINY, _HUGE = float(np.finfo(float).tiny), float(np.finfo(float).max)


def _pow2_scale(big, count):
    """1 if count squares up to big^2 stay in the normal float range, else
    the power of two at or below big, by which dividing is exact."""
    fits = _TINY <= big * big and count * big * big <= _HUGE
    return 2.0 ** int(np.frexp(big)[1] - 1) if 0.0 < big < np.inf and not fits else 1.0


def _distance_scale(M, pts):
    """`_pow2_scale` of the largest entry of M or point: the distance bounds
    sum M.size squares of entries and square differences of points, so
    8 (M.size + 1) squares of it must stay in range."""
    big = max(np.abs(M).max(initial=0.0), np.abs(pts).max(initial=0.0))
    return _pow2_scale(float(big), 8 * (M.size + 1))


def _row_squares(M):
    """(s, the squared row norms of M / s), s the `_pow2_scale` of the real
    and imaginary parts of M: no sum of them overflows, and s = 1 in range."""
    V = np.ascontiguousarray(M).view(np.float64)
    s = _pow2_scale(float(np.abs(V).max(initial=0.0)), V.size)
    if s != 1.0:
        V = V / s
    return s, np.einsum("ij,ij->i", V, V)


def _norm_bounds(M):
    """(lo, hi) around operator_norm(M), m x n, from `_row_squares`: the
    largest row norm and ||M||_F / sqrt(min(m, n)) bound ||M||_2 below and
    ||M||_F above (Higham, Accuracy and Stability, 2nd ed., 6.2), widened by
    mu = (m + n)^3 eps to hold for the computed SVD value: the sums of 2mn
    squares err by 2mn eps (Higham, 3.1), and LAPACK's sigma_max by
    c mn sqrt(min(m, n)) eps ||M||_2, c small (Householder bidiagonalization,
    Higham, Thm. 19.4); (m + n)^3 >= 8 mn sqrt(min(m, n))."""
    s, rows = _row_squares(M)
    mu, total = sum(M.shape) ** 3 * float(np.finfo(float).eps), float(rows.sum())
    lo = s * max(float(np.sqrt(rows.max())), float(np.sqrt(total / min(M.shape))))
    return lo * (1.0 - mu), s * float(np.sqrt(total)) * (1.0 + mu)


def _norm_test(test, mats, norms=None):
    """test(*norms()), the operator norms of mats by SVD unless norms is
    given, for a test monotone in each: a value it takes at every corner of
    the mats' `_norm_bounds` it takes between them, and norms() is not called."""
    bounds = [_norm_bounds(M) for M in mats]
    if np.isfinite(bounds).all():
        verdicts = {test(*corner) for corner in itertools.product(*bounds)}
        if len(verdicts) == 1:
            return verdicts.pop()
    return test(*(norms() if norms else map(operator_norm, mats)))


def hs_norm(M):
    """Frobenius norm of M, scaled where a square would leave the normal range."""
    s, rows = _row_squares(np.asarray(M, dtype=np.complex128))
    return s * float(np.sqrt(rows.sum()))


def adjoint(M):
    """Conjugate transpose."""
    return np.asarray(M, dtype=np.complex128).conj().T


# Complex entries in one working array (16 MB) of a block of contour nodes,
# Riccati shifts or dyadic levels, so that memory stays bounded at any size.
_BLOCK_ENTRIES = 2 ** 20


def _per_block(entries):
    """How many items of `entries` complex entries each fit the block budget, at least one."""
    return max(1, _BLOCK_ENTRIES // entries)


def _substitute(T, R, s):
    """Y with Y T - diag(s) Y = R for an upper triangular T, one column per step
    for all rows, Y_j = (R_j - Y_{<j} T_{<j,j}) / (T_jj - s): O(rows n^2) in n steps."""
    Yt, Rt, d = np.empty((len(T), len(R)), dtype=np.complex128), R.T, np.diag(T)
    for j in range(len(T)):
        Yt[j] = (Rt[j] - T[:j, j] @ Yt[:j]) / (d[j] - s)
    return np.ascontiguousarray(Yt.T)


def _divide(T, R, s):
    """Y with Y diag(T) - diag(s) Y = R: Y = R / (diag T - s), O(rows n)."""
    return R / (np.diag(T) - s[:, None])


def _hessenberg_solve(H, R, shifts, sizes):
    """Y whose k-th block of sizes[k] rows is R_k (H - shifts[k])^{-1}, for an
    upper Hessenberg H, one banded LU (LAPACK zgbsv) per block: Y_k (H - s)
    = R_k is (J (H - s)^T J)(J Y_k^T) = J R_k^T, J the index reversal, whose
    matrix is upper Hessenberg again, one subdiagonal and n - 1 superdiagonals
    in an (n + 2) x n band array, copied per block.  O(rows n^2) in all; a
    block whose U factor is exactly singular comes back NaN."""
    import scipy.linalg
    n, Y = len(H), np.empty(R.shape, dtype=np.complex128)
    # band.T is LAPACK's band array of A = J H^T J: A_ij at band[j, n + i - j],
    # flat offset n + i + (n + 1) j, the diagonal in band[:, n]
    band = np.zeros((n, n + 2), dtype=np.complex128)
    band.reshape(-1)[n:].reshape(n, n + 1)[:, :n] = H[::-1, ::-1]
    for s, lo, hi in zip(shifts, np.cumsum(sizes) - sizes, np.cumsum(sizes)):
        ab = band.copy()
        ab[:, n] -= s
        _, _, x, info = scipy.linalg.lapack.zgbsv(1, n - 1, ab.T, R[lo:hi, ::-1].T,
                                                  overwrite_ab=True)
        Y[lo:hi] = x.T[:, ::-1] if info == 0 else np.nan
    return Y


def _triangular_resolvents(T, R, shifts, sizes, tol):
    """Y whose k-th block of sizes[k] rows is R_k (T - shifts[k])^{-1}, for
    an upper triangular or upper Hessenberg T and a complex array of
    shifts: Y T - diag(s) Y = R, s = repeat(shifts, sizes), the package's
    one shifted solve.  Where N, T's off-diagonal part (subdiagonal too),
    has ||N||_F <= n eps ||T - s_k||_F at every shift, it is a `_divide`:
    dropping N is within the substitution's own backward error, |dT| <=
    gamma_n |T - s_k| (Higham, Accuracy and Stability, 2nd ed., Thm. 8.5).
    Else a triangular T takes `_substitute`, a Hessenberg one `_hessenberg_solve`.

    Raises SingularResolventError, naming the shift of the first failing
    block: when T - s cancels to rounding as a whole, ||T - s||_F <=
    tol_solve |s|, which a residual relative to ||T - s|| misses; when Y is
    not finite (at the shift of a non-finite block nearest to diag(T)); and
    unless the scale ||T - s_k|| ||Y_k||, largest row norms, is finite and
    the Frobenius residual ||Y_k (T - s_k) - R_k||_F, formed on T - s_k
    itself (no |s_k| rounds into it), is at most tol_solve times it: at
    least as strict as ||S Y - R|| <= tol_solve ||S|| ||Y||.  A division
    bounds it by ||Y_k (diag T - s_k) - R_k||_F + ||Y_k||_F ||N||_F, no
    smaller by the triangle inequality and without the product Y N.
    Every sum of squares is taken by `_row_squares`."""
    n, N, diff = len(T), T - np.diag(np.diag(T)), np.diag(T) - shifts[:, None]
    # row i of T - s is row i of N and T_ii - s: ||T - s_k||_F = c (off + sq[n + k])^(1/2)
    c, sq = _row_squares(np.concatenate([N, diff]))
    off = sq[:n].sum()
    divide = np.sqrt(off) <= n * np.finfo(float).eps * np.sqrt(off + sq[n:].min())
    with np.errstate(all="ignore"):
        shifted = np.abs(diff / c) ** 2
        cancels = c * np.sqrt(off + sq[n:]) <= tol.tol_solve * np.abs(shifts)
    if cancels.any():
        raise SingularResolventError(
            f"M - zI cancels to rounding at z = {complex(shifts[cancels][0])}")
    s, starts = np.repeat(shifts, sizes), np.cumsum(sizes) - sizes
    with np.errstate(all="ignore"):
        Y = (_divide(T, R, s) if divide
             else _hessenberg_solve(T, R, shifts, sizes) if T.diagonal(-1).any()
             else _substitute(T, R, s))
        if not np.all(np.isfinite(Y)):
            bad = np.logical_or.reduceat(~np.isfinite(Y).all(axis=1), starts)
            nearest = np.where(bad, shifted.min(axis=1), np.inf).argmin()
            raise SingularResolventError(
                f"M - zI is singular at z = {complex(shifts[nearest])}")
        r, res = _row_squares((0.0 if divide else Y @ N)
                              + Y * np.repeat(diff, sizes, axis=0) - R)
        y, rows = _row_squares(Y)
        residual = r * np.sqrt(np.add.reduceat(res, starts))
        if divide:
            residual += c * np.sqrt(off) * y * np.sqrt(np.add.reduceat(rows, starts))
        scale = (c * np.sqrt((sq[:n] + shifted).max(axis=1))
                 * (y * np.sqrt(np.maximum.reduceat(rows, starts))))
        ok = np.isfinite(scale) & (residual <= tol.tol_solve * scale)
    if not ok.all():
        i = np.flatnonzero(~ok)[0]
        why = ("lost all accuracy" if np.isfinite(scale[i])
               else "cannot be checked: the scale of its residual test overflowed")
        raise SingularResolventError(f"the solve at z = {complex(shifts[i])} {why} "
                                     f"(residual {residual[i]:.3e})")
    return Y


def resolvent(M, z, tol=DEFAULT_TOLERANCES):
    """(M - zI)^{-1} = Y U* on a Hessenberg form M = U H U*, where
    Y (H - z) = U is one `_triangular_resolvents`: it raises
    SingularResolventError, naming z, when M - zI is numerically singular,
    i.e. z is within working precision of the spectrum of M."""
    import scipy.linalg
    H, U = scipy.linalg.hessenberg(_square(M, "M"), calc_q=True)
    return _triangular_resolvents(H, U, np.array([complex(z)]), [len(H)], tol) @ adjoint(U)


def normality_defect(M):
    """Operator norm of M*M - MM*."""
    A = _square(M, "M")
    return operator_norm(adjoint(A) @ A - A @ adjoint(A))


def _normality(M, norm, tol):
    """(norm, s, ||M'*M' - M'M'*||_2, tol_normal ||M'||^2) for M' = M / s and
    ||M||_2 = norm: the scale-free test is decided on M', where s = 1 unless
    norm^2 leaves the float range, else a power of two (`_pow2_scale`)."""
    s = _pow2_scale(norm, len(M))
    return (norm, s, normality_defect(M if s == 1.0 else M / s),
            tol.tol_normal * max((norm / s) ** 2, 1e-300))


def is_normal(M, tol=DEFAULT_TOLERANCES):
    """True when the relative normality defect is within tol_normal: the
    test of `_normality`, decided by `_norm_test` where `_pow2_scale` is 1
    at both ends of M's `_norm_bounds`, so that the test reads M itself."""
    A = _square(M, "M")
    if all(0.0 < b < np.inf and _pow2_scale(b, len(A)) == 1.0 for b in _norm_bounds(A)):
        return _norm_test(lambda defect, norm: defect <= tol.tol_normal * max(norm ** 2, 1e-300),
                          (adjoint(A) @ A - A @ adjoint(A), A))
    _, _, defect, threshold = _normality(A, operator_norm(A), tol)
    return defect <= threshold


def _support_values(A, thetas):
    """(h, w, h'') at the given angles and then at each angle + pi, from one
    batched eigensolve: h(t), the top eigenvalue of the Hermitian part H(t)
    of exp(-it) A, is the support function of W(A), and w = x*Ax (x its
    eigenvector) a boundary point.  h' = Im(e^{-it} w), and h'' = -h + 2
    sum_j |v_j* H(t + pi/2) x|^2 / (h - lambda_j) over the other eigenpairs,
    save those tied with h.  H(t + pi) = -H(t) (Kippenhahn, 1951), so at t +
    pi, at the phase -e^{-it}, the exact negation of the computed one, h =
    -lambda_0 and x = v_0, H(t)'s bottom pair, with gaps lambda_j - lambda_0."""
    phase = np.exp(-1j * np.atleast_1d(np.asarray(thetas, dtype=float)))
    M = phase[:, None, None] * A
    lam, V = np.linalg.eigh(0.5 * (M + np.conj(np.transpose(M, (0, 2, 1)))))
    # (angle, t | t + pi, .): lambda_top and lambda_0, their eigenvectors
    ends, x = lam[:, [-1, 0]], V[:, :, [-1, 0]].transpose(0, 2, 1)
    Ax, Ahx = x @ A.T, x @ A.conj()  # rows A x and A* x
    w = np.einsum("tki,tki->tk", x.conj(), Ax)
    # |v_j* y| = |y* v_j| for y = H(t + pi/2) x, which -e^{-it} only negates
    phase, gaps = phase[:, None, None], np.abs(ends[:, :, None] - lam[:, None, :])
    c = (0.5j * (phase.conj() * Ahx - phase * Ax)).conj() @ V
    coupling = np.divide(np.abs(c) ** 2, gaps, out=np.zeros_like(gaps),
                         where=gaps > 0.0).sum(axis=2)
    h = ends * [1.0, -1.0]
    return tuple(v.T.ravel() for v in (h, w, 2.0 * coupling - h))


def _rounding_slack(A, pts):
    """Per-point rounding allowance (h + 8) eps (||A||_F + |z|) on a bound.

    With w the computed e^{-i theta}, forming H = (wA + (wA)*)/2 is off by
    at most about 4 eps ||A||_F in Frobenius norm, and eigh returns the
    eigenvalues of a matrix within h eps ||H|| <= h eps ||A||_F of that
    (its backward error), so by Weyl's inequality each computed eigenvalue,
    the top one h(theta) as well as the bottom one, is off by at most
    (h + 4) eps ||A||_F; at theta + pi, -w and -H are exact negations and
    h(theta + pi) minus the bottom one.  Re(w z) is off by at most 2 eps |z|.
    |w| = 1 + O(2 eps) scales the exact value for the unit phase w/|w|,
    which is at most |z| + ||A|| in size, by at most 2 eps (|z| + ||A||_F).  The sum, (h + 6) eps ||A||_F + 4 eps |z|, is
    within the allowance, so subtracting it leaves, to first order in
    eps, a lower bound on the distance that no rounding can lift.
    """
    eps = np.finfo(float).eps
    return (A.shape[0] + 8) * eps * (np.linalg.norm(A) + np.abs(pts))


# Eigensolves on the coarse grid, each giving two opposite angles of it
_COARSE_ANGLES = 16
_REFINE_ITERS = 40


def _numrange_bounds(A, pts, n_coarse, refine_iters, gap):
    """(lower, upper) bounds on dist(z, W(A)) for each point z, by
    boundary-point generation (C. R. Johnson, SIAM J. Numer. Anal. 1978).

    An eigensolve at angle t gives every z the lower bound g(t) =
    Re(e^{-it} z) - h(t), less `_rounding_slack`, and a boundary point
    w(t); U is the distance to the polygon of those found so far.  After
    a grid of 2 n_coarse angles, t_j in [0, pi) then t_j + pi, from the
    n_coarse eigensolves at t_j (`_support_values`), each point steps
    towards the maximum of g, one eigensolve at its angle a step, in a
    bracket where g' = Im(e^{-it}(z - w)) changes sign: Newton's step
    from the better end if it lands inside, else the crossing of the ends'
    tangents, which finds a kink of g (a double top eigenvalue) in a few
    steps; a bracket at a maximum of g at most 0 that points away from the
    outward normal at the polygon's nearest point probes that normal
    instead (a flat W has such a second maximum).  A point stops at U - L
    <= max(1e-12 U, 4 slack), after refine_iters steps, or, with `gap`,
    once L reaches the least U, as it can no longer be the minimum.  A and
    the points are divided by their `_distance_scale` first, and the
    bounds multiplied back.
    """
    s = _distance_scale(A, pts)
    A, pts = A / s, pts / s
    slack = _rounding_slack(A, pts)

    def probe(t, z):
        """(t, g, g', g'') for points z, at the angles t and then at t + pi
        with the phase -e^{-it} (axis 1), and the boundary points (axis 0)."""
        e = np.multiply.outer([1.0, -1.0], np.exp(-1j * t))
        h, w, d2h = (v.reshape(e.shape) for v in _support_values(A, np.ravel(t)))
        return np.stack(np.broadcast_arrays(np.add.outer([0.0, np.pi], t), (e * z).real - h,
                                            (e * (z - w)).imag, -(e * z).real - d2h)), w

    half, n_angles = np.linspace(0.0, np.pi, n_coarse, endpoint=False), 2 * n_coarse
    P, w = probe(half[:, None], pts)
    P, w, grid = P.reshape(4, n_angles, -1), w.ravel(), np.concatenate([half, half + np.pi])
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
            return lower * s, upper * s
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
        Q, w = Q[:, 0], w[0]
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


def _checked_bounds(A, points, n_angles, refine_iters, gap):
    """The lower `_numrange_bounds` on a grid of n_angles >= 8 angles (an odd
    count takes one more): ShapeMismatchError on a non-finite point, as
    `as_matrix` on a non-finite entry, and with `gap` on no point."""
    A, pts = _square(A, "A"), np.atleast_1d(np.asarray(points, dtype=np.complex128))
    if n_angles < 8:
        raise ValueError("n_angles must be at least 8")
    if not np.all(np.isfinite(pts)) or (gap and pts.size == 0):
        raise ShapeMismatchError("the points must be finite, and a gap needs at least one")
    return _numrange_bounds(A, pts, (n_angles + 1) // 2, refine_iters, gap)[0]


def numrange_distances(A, points, n_angles=2 * _COARSE_ANGLES, refine_iters=_REFINE_ITERS):
    """Lower bounds on the distances from each point to the numerical range,
    each within max(1e-12 U, 4 slack) of an upper bound U (`_numrange_bounds`):
    they converge to rounding for any grid of at least 8 angles (an odd
    count takes one more), and are lowered by `_rounding_slack` so that
    rounding cannot lift them.  Raises ShapeMismatchError on a non-finite point."""
    return _checked_bounds(A, points, n_angles, refine_iters, gap=False)


def numrange_gap(A, points, n_angles=2 * _COARSE_ANGLES):
    """min(numrange_distances(A, points)), refining only where it can fall:
    a point stops once its lower bound reaches the smallest upper bound.
    Raises ShapeMismatchError on a non-finite point or on no points."""
    return float(_checked_bounds(A, points, n_angles, _REFINE_ITERS, gap=True).min())


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
    a form A = U T U*, U unitary, T = Lambda + N with Lambda = diag T:
    a complex Schur form, N A's departure from normality (Henrici, Numer.
    Math. 1962), or `_normal_form`'s, whose N also has a strict lower
    part; nu >= ||N||_2.  Each T_ii = u_i* A u_i lies in W(A) either way.

    spectral = min |lambda_j - zeta_k| - nu (Weyl).  conv(Lambda) lies in
    W(A) and W(A) in conv(Lambda) + disc(nu), so dist(zeta, W(A)), at most
    sigma_min(A - zeta), is in [dist(zeta, conv Lambda) - nu, dist(zeta,
    conv Lambda)].  numrange is 0 if a point is in conv(Lambda), the lower
    end if nu <= 1e-12 dist(zeta, conv Lambda) at every point, and else
    sweep(), the angle sweep's bound (`numrange_gap`).  For a normal A, nu
    is rounding that grows like h eps ||A||_F, so the rule skips the sweep
    for small h only: from about h = 64 it runs for normal A too.

    nu = ||T - diag T||_F + 4 (h + 8) eps (||T||_F + |zeta|), four
    `_rounding_slack`s; for a Schur form T - diag T is its strict upper
    part.  The computed T is the form of A + E under a unitary matrix near
    U, ||E||_F <= p(h) eps ||A||_F for a small multiple p(h) of h (Golub &
    Van Loan, 7.5.6, for a Schur form; a product Z* A Z with Z from eigh
    for a normal form), and E moves both bounds by at most ||E||_2.  The
    computed ||N||_F is low by at most h eps ||T||_F; |lambda - zeta| and
    hull distances, a few operations on numbers up to ||T||_F + |zeta|,
    are high by at most 8 eps (||T||_F + |zeta|).  For p(h) <= 3h + 24 the
    sum is within the allowance: to first order no rounding lifts a bound.
    Both are computed on T and the points divided by their `_distance_scale`
    and multiplied back, so they scale exactly with a power of two.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=np.complex128))
    s = _distance_scale(T, pts)
    T, pts = T / s, pts / s
    lam = np.diag(T)
    nu = np.linalg.norm(T - np.diag(lam)) + 4.0 * _rounding_slack(T, pts)
    spectral = (np.abs(lam[:, None] - pts).min(axis=0) - nu).min()
    hull = _hull_distance(_hull(lam), pts)
    if np.any(hull == 0.0):
        numrange = 0.0  # a point in conv(Lambda)
    elif np.all(nu <= 1e-12 * hull):
        numrange = (hull - nu).min()
    else:
        numrange = sweep() / s
    return max(float(spectral), 0.0) * s, max(float(numrange), 0.0) * s
