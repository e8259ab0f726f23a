"""Solvers for the matrix equation XA - CX = D with normal C.

Four methods are provided: the spectral-integral representation
X = sum_k P_k D (A - zeta_k)^{-1} over the atoms of the measure of C,
trapezoidal contour quadrature of the classical resolvent formula, the
double-spectral sum available when A is also normal, and a Kronecker
vectorization oracle.  They agree whenever the spectra of A and C are
separated, which every method checks first.
"""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .enorm import BoundCheck, e_norm
from .errors import (
    ContourConstructionError,
    GapViolationError,
    InsufficientMemoryError,
    NoConvergenceError,
    ShapeMismatchError,
    SingularResolventError,
    SingularSystemError,
)
from .linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    _count,
    _distance_scale,
    _norm_test,
    _per_block,
    _pow2_scale,
    _triangular_resolvents,
    adjoint,
    as_matrix,
    hs_norm,
    is_normal,
    numrange_gap,
    operator_norm,
    separation,
)
from .spectral import _kept_form, _require_normal, decompose_normal

__all__ = [
    "SylvesterProblem",
    "SylvesterReport",
    "spectral_gap",
    "sylvester_residual",
    "solve_spectral",
    "solve_kronecker",
    "solve_contour",
    "solve_double_spectral",
    "contour_quadrature",
    "dual_solution",
    "verify_bounds",
]


def _read_only(*arrays):
    """The arrays, each made read-only."""
    for M in arrays:
        M.flags.writeable = False
    return arrays


class _Prepared:
    """A problem prepared once: read-only private copies of its matrices
    (every field but the tolerances, which no call on the problem can
    replace), and what every solver, bound check and certificate reads
    about them, computed on first use and kept: A's normality verdict and
    its one kept form (`schur`); C's spectral measure, the one form in
    which C reaches a solver; the norm scale, where bounds cannot decide a
    test against it; the separation; the certificate."""

    def __post_init__(self):
        if not isinstance(self.tolerances, Tolerances):
            raise TypeError(f"tolerances must be a Tolerances, got {self.tolerances!r}")
        names = [f.name for f in fields(self) if f.name != "tolerances"]
        for name in names:
            M = as_matrix(getattr(self, name), name).copy()
            object.__setattr__(self, name, *_read_only(M))
        object.__setattr__(self, "_cache", {})
        # A is h x h and C is k x k
        h, k = self.A.shape[0], self.C.shape[0]
        expected = {"A": (h, h), "B": (h, k), "C": (k, k), "D": (k, h)}
        for name in names:
            rows, cols = expected[name]
            if getattr(self, name).shape != (rows, cols):
                raise ShapeMismatchError(f"{name} must be ({rows} x {cols}), "
                                         f"got {getattr(self, name).shape}")

    @property
    def h(self):
        return self.A.shape[0]

    @property
    def k(self):
        return self.C.shape[0]

    def _cached(self, key, build):
        """build(), computed once per key."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def schur(self):
        """A's `_kept_form` (T, U), computed once, both factors read-only."""
        return self._cached("schur", lambda: _read_only(*_kept_form(self.A, self._normality())))

    def _normality(self):
        """`is_normal` of A, computed once."""
        return self._cached("normality", lambda: is_normal(self.A, self.tolerances))

    def measure(self):
        """The spectral measure of C, `decompose_normal(C)` with the problem's
        tolerances, computed once; its arrays are read-only."""
        def build():
            sm = decompose_normal(self.C, self.tolerances)
            _read_only(sm.eigenvalues, sm.basis, sm.multiplicities)
            return sm

        return self._cached("measure", build)

    def norm_scale(self):
        """max(1, ||A||_2, ||C||_2), computed once."""
        return self._cached("norm_scale", lambda: max(
            1.0, operator_norm(self.A), operator_norm(self.C)))

    def _scale_test(self, test):
        """test(norm_scale()) for a test monotone in it, by `_norm_test` on
        the norms of A and C; norm_scale() stands in for both where their
        bounds cannot decide it."""
        return _norm_test(lambda a, c: test(max(1.0, a, c)), (self.A, self.C),
                          lambda: (self.norm_scale(),) * 2)


@dataclass(frozen=True, eq=False)
class SylvesterProblem(_Prepared):
    """Data (A, C, D) of the equation XA - CX = D; C must be normal.
    Frozen, with read-only copies of the matrices; see `_Prepared`."""

    A: np.ndarray
    C: np.ndarray
    D: np.ndarray
    tolerances: Tolerances = field(default=DEFAULT_TOLERANCES, repr=False)


@dataclass
class SylvesterReport:
    """Solution record: X, its recomputed residual, and gap data."""

    X: np.ndarray
    residual: float
    method: str
    gap_d: float
    gap_numrange: float
    bounds: dict = field(default_factory=dict)


def sylvester_residual(prob, X):
    """||XA - CX - D|| recomputed from scratch."""
    return operator_norm(X @ prob.A - prob.C @ X - prob.D)


def spectral_gap(prob):
    """min |lambda - zeta| over the eigenvalues of A and the atoms of C."""
    lam, atoms = np.diag(prob.schur()[0]), prob.measure().eigenvalues
    return float(np.abs(lam[:, None] - atoms).min())


def _separation(prob):
    """`separation` of the atoms of C from A, computed once: the reports'
    gap_numrange and d, and the Riccati certificate's d."""
    atoms = prob.measure().eigenvalues
    return prob._cached("separation", lambda: separation(
        prob.schur()[0], atoms, lambda: numrange_gap(prob.A, atoms)))


def _require_gap(prob):
    gap = spectral_gap(prob)
    if prob._scale_test(lambda scale: gap <= prob.tolerances.tol_cluster * scale):
        raise GapViolationError(
            f"spectral gap {gap:.3e} is below the clustering tolerance; "
            "the spectra of A and C effectively overlap")
    return gap


def _finish(prob, X, method, gap):
    """Report with the recomputed residual and the numerical-range gap."""
    return SylvesterReport(X=X, residual=sylvester_residual(prob, X),
                           method=method, gap_d=gap,
                           gap_numrange=_separation(prob)[1])


def _spectral_solve(schur, sm, D):
    """sum_k P_k D (M - zeta_k)^{-1}, the left integral of D (M - z)^{-1}
    against the measure sm, on schur = (T, U), M = U T U*, with T upper
    triangular (a complex Schur form, or the upper triangle of a normal
    form) or upper Hessenberg: Q Y U* for the eigenbasis Q, with block rows
    Y_k = Q_k* D U (T - zeta_k)^{-1} from one `_triangular_resolvents`,
    which names a failing atom."""
    T, U = schur
    Y = _triangular_resolvents(T, adjoint(sm.basis) @ D @ U, sm.eigenvalues,
                               sm.multiplicities, sm.tolerances)
    return sm.basis @ Y @ adjoint(U)


def solve_spectral(prob):
    """X = sum_k P_k D (A - zeta_k)^{-1}, the left integral of D (A - z)^{-1}."""
    gap = _require_gap(prob)
    T, U = prob.schur()
    X = _spectral_solve((np.triu(T), U), prob.measure(), prob.D)
    return _finish(prob, X, "spectral", gap)


def _available_memory():
    """Bytes the OS reports available: MemAvailable from /proc/meminfo (inf
    where that is missing), capped by the headroom under a cgroup v2 memory
    limit."""
    def read(path):
        try:
            with open(path) as f:
                return f.read()
        except OSError:
            return ""

    avail = math.inf
    for line in read("/proc/meminfo").splitlines():
        if line.startswith("MemAvailable:"):
            avail = int(line.split()[1]) * 1024
    limit = read("/sys/fs/cgroup/memory.max").strip()
    if limit.isdigit():
        avail = min(avail, int(limit) - int(read("/sys/fs/cgroup/memory.current") or 0))
    return avail


def solve_kronecker(prob):
    """Direct oracle: one dense LU solve (LAPACK zgesv) of the vectorized equation.

    Column-stacking turns XA - CX = D into
    (A^T kron I - I kron C) vec(X) = vec(D).  K is assembled once, in place,
    as an (h, k, h, k) array: entry ((p, i), (q, j)) is A[q, p] delta_ij -
    delta_pq C[i, j].  K and LAPACK's copy of it need 2 (hk)^2 complex
    entries; a problem whose two copies exceed the memory the OS reports
    available is refused before either is allocated.
    """
    h, k = prob.h, prob.k
    need, avail = 2 * (h * k) ** 2 * 16, _available_memory()  # 16 bytes per entry
    if need > avail:
        raise InsufficientMemoryError(
            f"the vectorized system needs {need} bytes (K and its LU copy), "
            f"but only {avail} bytes are available")
    K = np.zeros((h, k, h, k), dtype=np.complex128)
    p, i = np.arange(h), np.arange(k)
    K[p, :, p, :] = -prob.C
    K[:, i, :, i] += prob.A.T
    K = K.reshape(h * k, h * k)
    rhs = prob.D.flatten(order="F")
    try:
        x = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            "vectorized system is singular: spec(A) and spec(C) overlap") from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystemError(
            "vectorized system is singular: spec(A) and spec(C) overlap")
    res = hs_norm((K @ x - rhs)[None])
    # the largest column norm of K bounds ||K||_2 below; it is taken on K,
    # no longer needed, divided in place by its `_pow2_scale`
    V = K.view(np.float64)
    s = _pow2_scale(float(max(V.max(), -V.min())), V.size)
    K /= s
    scale = max(s * float(np.linalg.norm(K, axis=0).max()) * hs_norm(x[None]),
                hs_norm(prob.D), 1.0)
    if res > math.sqrt(prob.tolerances.tol_solve) * scale:
        raise SingularSystemError(
            f"vectorized solve lost all accuracy (residual {res:.3e}); "
            "spec(A) and spec(C) effectively overlap")
    X = x.reshape((k, h), order="F")
    return _finish(prob, X, "kronecker", spectral_gap(prob))


def _build_circles(eig_a, eig_c, gap):
    """Circles enclosing spec(C) once and spec(A) not at all.

    First tries a single circle around the centroid of spec(C); if any
    eigenvalue of A lies inside it or within gap/4 of it (which would
    wreck the quadrature accuracy), falls back to one small circle per
    atom of spec(C).
    """
    centroid = complex(np.mean(eig_c))
    radius = float(np.abs(eig_c - centroid).max()) + gap / 2.0
    clearance = np.abs(eig_a - centroid) - radius
    if np.all(clearance >= gap / 4.0):
        return [(centroid, radius)]
    circles = []
    for i, zeta in enumerate(eig_c):
        others = np.abs(np.delete(eig_c, i) - zeta)
        nearest = float(others.min()) if len(others) else math.inf
        r = min(gap, nearest) / 3.0
        if not (r > 0):
            raise ContourConstructionError(
                "cannot build per-atom circles: degenerate spacing")
        circles.append((complex(zeta), r))
    return circles


def _node_sum(lam, D_t, T_A, z, w, tol):
    """sum_b w_b (z_b - diag(lam))^{-1} D_t (T_A - z_b)^{-1}, per block of
    nodes: the weights q_bi = w_b / (z_b - lam_i), R = -w 1 on diag(lam), and
    V_b (T_A - z_b) = D_t, T_A upper triangular, from two `_triangular_resolvents`."""
    (k, h), L = D_t.shape, np.diag(lam)
    step = _per_block((k + h) ** 2)
    total = np.zeros((k, h), dtype=np.complex128)
    for s in range(0, len(z), step):
        zb, wb = z[s:s + step], w[s:s + step]
        q = _triangular_resolvents(L, -np.outer(wb, np.ones(k)), zb, [1] * len(zb), tol)
        V = _triangular_resolvents(T_A, np.tile(D_t, (len(zb), 1)), zb, [k] * len(zb), tol)
        total += np.einsum("bi,bij->ij", q, V.reshape(-1, k, h))
    return total


def contour_quadrature(prob, circles, n_nodes=32, max_nodes=4096):
    """Trapezoidal quadrature of (1/2 pi i) ∮ (z-C)^{-1} D (A-z)^{-1} dz.

    The circles are traversed counterclockwise; with winding number one
    around spec(C) and zero around spec(A) this reproduces the solution
    of XA - CX = D.  Doubles the node count per circle until the
    successive change, of finite norm, drops to tol_quad * max(1, ||X||).
    Returns (X, nodes_used).

    C reaches the nodes through its measure, C' = Q diag(lam) Q* with lam
    each atom repeated by its multiplicity, and A through the upper
    triangle T_A of its kept form A = U T U* (`_Prepared.schur`): each node
    is a row scaling of D_t = Q* D U by 1 / (z - lam_i) and a solve on T_A
    (`_node_sum`), so X solves the equation for the C' and the A up to T's
    strict lower part that `solve_spectral` solves for.  T_A, lam, D and
    the circles are divided by one `_distance_scale` (1 in range).  The
    node sets are nested: a doubling evaluates only the new odd-index nodes
    and adds them, weighted by their circle's radius, to one running sum.

    Raises ValueError for an n_nodes or max_nodes that is not an integer
    of at least 1 (the first set has max(n_nodes, 4) nodes), and
    ContourConstructionError, before any node, when there is no circle or
    a centre is not finite or a radius not finite and positive.
    """
    centers = np.array([c for c, _ in circles], dtype=np.complex128)[:, None]
    radii = np.array([r for _, r in circles], dtype=float)[:, None]
    if not (len(circles) and np.isfinite(centers).all()
            and np.all((0 < radii) & (radii < np.inf))):
        raise ContourConstructionError("the contour needs at least one circle, each with a "
                                       f"finite centre and a finite positive radius: {circles}")
    sm = prob.measure()
    Q, lam = sm.basis, np.repeat(sm.eigenvalues, sm.multiplicities)
    T_A, U = prob.schur()
    T_A = np.triu(T_A)
    # X solves the equation for A / s, C / s and D / s too, where the nodes'
    # integrand, about |D| / |A| |C|, cannot underflow for A and C near 1e200
    s = _distance_scale(T_A, np.append(lam, centers))
    T_A, lam, centers, radii = T_A / s, lam / s, centers / s, radii / s
    D_t = adjoint(Q) @ (prob.D / s) @ U
    n, max_nodes = max(_count(n_nodes, "n_nodes", 1), 4), _count(max_nodes, "max_nodes", 1)
    t = 2.0 * np.pi * np.arange(n) / n
    acc, prev = np.zeros_like(D_t), None
    while True:
        # dz / (2 pi i) = radius e^{it} dt / (2 pi); trapezoid weight 2 pi / n
        w = radii * np.exp(1j * t)
        try:
            acc += _node_sum(lam, D_t, T_A, (centers + w).ravel(), w.ravel(),
                             prob.tolerances)
        except SingularResolventError as exc:
            if s != 1.0:  # exc names the shift on the divided contour
                raise SingularResolventError(f"{exc}, with A, C and the contour divided "
                                             f"by 2^{int(np.log2(s))}") from exc
            raise
        X = Q @ (acc / n) @ adjoint(U)
        if prev is not None and _norm_test(
                lambda change, norm: change <= prob.tolerances.tol_quad * max(1.0, norm)
                and change < np.inf, (X - prev, X)):
            return X, n
        if n >= max_nodes:
            raise NoConvergenceError(
                f"contour quadrature failed to converge with {n} nodes",
                value=X)
        prev = X
        t = np.pi * (2 * np.arange(n) + 1) / n
        n *= 2


def solve_contour(prob):
    """Resolvent contour formula evaluated on automatically built circles."""
    gap = _require_gap(prob)
    circles = _build_circles(np.diag(prob.schur()[0]),
                             prob.measure().eigenvalues, gap)
    X, _ = contour_quadrature(prob, circles)
    return _finish(prob, X, "contour", gap)


def solve_double_spectral(prob):
    """Double-spectral sum  X = sum_jk P_k^C D P_j^A / (z_j - zeta_k), by
    `_spectral_solve` on A = U diag(z) U*, z the diagonal of A's kept form
    A = U T U*, for a normal A its `_normal_form`, diagonal to h eps
    ||A||_F.  Requires A normal as well; raises NotNormalError otherwise.
    """
    gap = _require_gap(prob)
    _require_normal(prob.A, prob._normality(), prob.tolerances)
    T, U = prob.schur()
    X = _spectral_solve((np.diag(np.diag(T)), U), prob.measure(), prob.D)
    return _finish(prob, X, "double", gap)


def dual_solution(X):
    """Y = -X*, which solves the dual equation YC* - A*Y = D*."""
    return -adjoint(X)


def verify_bounds(prob, report):
    """Check the E-norm and Hilbert-Schmidt bounds on a computed solution.

    Populates report.bounds with named BoundCheck entries:

      enorm_vs_numrange   ||X||_E <= ||D||_E / delta, delta a conservative
                          lower bound on dist(W(A), spec(C)); the entry
                          degenerates to an infinite (flagged, vacuous)
                          bound when delta is numerically zero
      enorm_vs_gap        ||X||_E <= ||D||_E / d   (A normal only)
      hs_vs_gap           ||X||_2 <= ||D||_2 / d   (A normal only), both with
                          d <= min_k sigma_min(A - zeta_k) from `separation`
    """
    sm = prob.measure()
    enorm_x = e_norm(report.X, sm)
    enorm_d = e_norm(prob.D, sm)
    delta = report.gap_numrange
    checks = {"enorm_vs_numrange": BoundCheck(
        enorm_d / delta if prob._scale_test(lambda scale: delta > 1e-12 * scale)
        else math.inf, enorm_x)}
    if prob._normality():
        d = max(_separation(prob))  # 0 gives infinite bounds
        inv_d = 1.0 / d if d > 0 else math.inf
        checks["enorm_vs_gap"] = BoundCheck(enorm_d * inv_d, enorm_x)
        checks["hs_vs_gap"] = BoundCheck(hs_norm(prob.D) * inv_d, hs_norm(report.X))
    report.bounds.update(checks)
    return checks
