"""Solvers for the matrix equation XA - CX = D with normal C.

Four methods are provided: the spectral-integral representation
X = sum_k P_k D (A - zeta_k)^{-1} over the atoms of the measure of C,
trapezoidal contour quadrature of the classical resolvent formula, the
double-spectral sum available when A is also normal, and a Kronecker
vectorization oracle.  They agree whenever the spectra of A and C are
separated, which every method checks first.
"""

import math
import warnings
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .enorm import e_norm
from .errors import (
    ContourConstructionError,
    GapViolationError,
    NoConvergenceError,
    ShapeMismatchError,
    SingularSystemError,
)
from .linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    _normality,
    _triangular_resolvents,
    adjoint,
    as_matrix,
    hs_norm,
    numrange_gap,
    operator_norm,
    separation,
)
from .spectral import _measure_of_schur, _require_normal

__all__ = [
    "SylvesterProblem",
    "SylvesterReport",
    "BoundCheck",
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


class BoundCheck(NamedTuple):
    """An asserted bound together with the observed value."""

    bound: float
    observed: float

    @property
    def ok(self):
        return self.observed <= self.bound + 1e-12 * max(1.0, abs(self.bound))


class _Prepared:
    """A problem prepared once: read-only private copies of its matrices
    (every field but the tolerances, which no call on the problem can
    replace), and what every solver, bound check and certificate reads
    about them, computed on first use and kept: per matrix its Schur form,
    norm, normality defect and spectral measure; the separation; the
    certificate."""

    def __post_init__(self):
        if not isinstance(self.tolerances, Tolerances):
            raise TypeError(f"tolerances must be a Tolerances, got {self.tolerances!r}")
        names = [f.name for f in fields(self) if f.name != "tolerances"]
        for name in names:
            M = as_matrix(getattr(self, name), name).copy()
            M.flags.writeable = False
            object.__setattr__(self, name, M)
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

    def schur(self, name):
        """The complex Schur form (T, Z) of the matrix `name` = Z T Z*,
        computed once; both factors are read-only."""
        def build():
            T, Z = scipy.linalg.schur(getattr(self, name), output="complex")
            T.flags.writeable = Z.flags.writeable = False
            return T, Z
        return self._cached(("schur", name), build)

    def _normality(self, name):
        """`linalg._normality` of the matrix `name`: its norm, and the scale,
        defect and threshold of `is_normal`'s test, computed once."""
        M = getattr(self, name)
        return self._cached(("normality", name),
                            lambda: _normality(M, operator_norm(M), self.tolerances))

    def measure(self):
        """The spectral measure of C, decomposed once; its arrays are read-only."""
        return self._measure("C")

    def _measure(self, name):
        """The spectral measure of the matrix `name`, as `measure`: the
        test and clustering of `decompose_normal`, on the kept Schur form."""
        def build():
            _require_normal(*self._normality(name)[1:], self.tolerances)
            sm = _measure_of_schur(*self.schur(name), self.tolerances)
            for M in (sm.eigenvalues, sm.basis, sm.multiplicities):
                M.flags.writeable = False
            return sm

        return self._cached(("measure", name), build)

    def norm_scale(self):
        """max(1, ||A||_2, ||C||_2)."""
        return max(1.0, self._normality("A")[0], self._normality("C")[0])


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
    lam, atoms = np.diag(prob.schur("A")[0]), prob.measure().eigenvalues
    return float(np.abs(lam[:, None] - atoms).min())


def _separation(prob):
    """`separation` of the atoms of C from A, computed once: the reports'
    gap_numrange and d, and the Riccati certificate's d."""
    atoms = prob.measure().eigenvalues
    return prob._cached("separation", lambda: separation(
        prob.schur("A")[0], atoms, lambda: numrange_gap(prob.A, atoms)))


def _require_gap(prob):
    gap = spectral_gap(prob)
    if gap <= prob.tolerances.tol_cluster * prob.norm_scale():
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
    against the measure sm, on a complex Schur form schur = (T, U), M = U T U*:
    Q Y U* for the eigenbasis Q, with block rows Y_k = Q_k* D U (T - zeta_k)^{-1}
    from one `_triangular_resolvents`, which names a failing atom."""
    T, U = schur
    Y = _triangular_resolvents(T, adjoint(sm.basis) @ D @ U, sm.eigenvalues,
                               sm.multiplicities, sm.tolerances)
    return sm.basis @ Y @ adjoint(U)


def solve_spectral(prob):
    """X = sum_k P_k D (A - zeta_k)^{-1}, the left integral of D (A - z)^{-1}."""
    gap = _require_gap(prob)
    X = _spectral_solve(prob.schur("A"), prob.measure(), prob.D)
    return _finish(prob, X, "spectral", gap)


def solve_kronecker(prob):
    """Direct oracle: one dense solve of the vectorized equation.

    Column-stacking turns XA - CX = D into
    (A^T kron I - I kron C) vec(X) = vec(D).
    """
    h, k = prob.h, prob.k
    K = (np.kron(prob.A.T, np.eye(k, dtype=np.complex128))
         - np.kron(np.eye(h, dtype=np.complex128), prob.C))
    rhs = prob.D.flatten(order="F")
    try:
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            x = scipy.linalg.solve(K, rhs)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise SingularSystemError(
            "vectorized system is singular: spec(A) and spec(C) overlap") from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystemError(
            "vectorized system is singular: spec(A) and spec(C) overlap")
    res = hs_norm((K @ x - rhs)[None])
    # the largest column norm of K bounds ||K||_2 below; hs_norm scales ||x||
    scale = max(float(np.linalg.norm(K, axis=0).max()) * hs_norm(x[None]),
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


# Complex entries in the working arrays of one block of node solves; it
# caps the memory of a level at any size (about 16 MB per array).
_NODE_BLOCK = 2 ** 20


def _node_sum(T_Cr, R_C, T_A, z, w, tol):
    """sum_b w_b (z_b - T_C)^{-1} D_t (T_A - z_b)^{-1}: per block of nodes, one
    `_triangular_resolvents` for (Y^T P)(T_Cr - z) = R_C, with T_Cr = P T_C^T P,
    R_C = -D_t^T P and P the index reversal, and one for W (T_A - z) = Y."""
    h, k = R_C.shape
    step = max(1, _NODE_BLOCK // (k + h) ** 2)
    total = np.zeros((k, h), dtype=np.complex128)
    for s in range(0, len(z), step):
        zb = z[s:s + step]
        Yr = _triangular_resolvents(T_Cr, np.tile(R_C, (len(zb), 1)), zb, [h] * len(zb), tol)
        Y = Yr.reshape(-1, h, k)[:, :, ::-1].transpose(0, 2, 1).reshape(-1, h)
        W = _triangular_resolvents(T_A, Y, zb, [k] * len(zb), tol)
        total += np.tensordot(w[s:s + step], W.reshape(-1, k, h), axes=1)
    return total


def contour_quadrature(prob, circles, n_nodes=32, max_nodes=4096):
    """Trapezoidal quadrature of (1/2 pi i) ∮ (z-C)^{-1} D (A-z)^{-1} dz.

    The circles are traversed counterclockwise; with winding number one
    around spec(C) and zero around spec(A) this reproduces the solution
    of XA - CX = D.  Doubles the node count per circle until the
    successive change drops to tol_quad.  Returns (X, nodes_used).

    The kept complex Schur forms C = Z T_C Z* and A = U T_A U* of the
    problem reduce each node to two triangular solves against Z* D U,
    batched over blocks of nodes by `_node_sum` (T_C reversed and transposed
    is formed once).  The node sets are nested: a doubling evaluates only
    the new odd-index nodes and adds them, weighted by their circle's
    radius, to one running sum.
    """
    T_C, Z = prob.schur("C")
    T_A, U = prob.schur("A")
    T_Cr, R_C = T_C.T[::-1, ::-1].copy(), -(adjoint(Z) @ prob.D @ U).T[:, ::-1]
    centers = np.array([c for c, _ in circles], dtype=np.complex128)[:, None]
    radii = np.array([r for _, r in circles], dtype=float)[:, None]
    n = max(int(n_nodes), 4)
    t = 2.0 * np.pi * np.arange(n) / n
    acc = np.zeros_like(R_C.T)
    prev = None
    while True:
        # dz / (2 pi i) = radius e^{it} dt / (2 pi); trapezoid weight 2 pi / n
        w = radii * np.exp(1j * t)
        acc += _node_sum(T_Cr, R_C, T_A, (centers + w).ravel(), w.ravel(),
                         prob.tolerances)
        X = Z @ (acc / n) @ adjoint(U)
        if prev is not None:
            change = operator_norm(X - prev)
            if change <= prob.tolerances.tol_quad * max(1.0, operator_norm(X)):
                return X, n
        if n >= max_nodes:
            raise NoConvergenceError(
                f"contour quadrature failed to converge with {n} nodes",
                value=X)
        prev = X
        t = np.pi * (2 * np.arange(n) + 1) / n
        n *= 2


def solve_contour(prob, n_nodes=32):
    """Resolvent contour formula evaluated on automatically built circles."""
    gap = _require_gap(prob)
    circles = _build_circles(np.diag(prob.schur("A")[0]),
                             prob.measure().eigenvalues, gap)
    X, _ = contour_quadrature(prob, circles, n_nodes=n_nodes)
    return _finish(prob, X, "contour", gap)


def solve_double_spectral(prob):
    """Double-spectral sum  X = sum_jk P_k^C D P_j^A / (z_j - zeta_k), by
    `_spectral_solve` on the diagonal Schur form A = Q_A diag(z) Q_A* that
    the measure of A gives (each atom repeated by its multiplicity).
    Requires A normal as well; raises NotNormalError otherwise.
    """
    gap = _require_gap(prob)
    sm_a = prob._measure("A")
    schur = np.diag(np.repeat(sm_a.eigenvalues, sm_a.multiplicities)), sm_a.basis
    X = _spectral_solve(schur, prob.measure(), prob.D)
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
        enorm_d / delta if delta > 1e-12 * prob.norm_scale() else math.inf, enorm_x)}
    _, _, defect_a, threshold_a = prob._normality("A")
    if defect_a <= threshold_a:
        d = max(_separation(prob))  # 0 gives infinite bounds
        inv_d = 1.0 / d if d > 0 else math.inf
        checks["enorm_vs_gap"] = BoundCheck(enorm_d * inv_d, enorm_x)
        checks["hs_vs_gap"] = BoundCheck(hs_norm(prob.D) * inv_d, hs_norm(report.X))
    report.bounds.update(checks)
    return checks
