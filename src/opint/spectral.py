"""Projection-valued spectral measures of normal matrices.

A normal matrix C decomposes as C = sum_k zeta_k P_k with distinct
eigenvalues zeta_k and mutually orthogonal eigenprojections P_k.  The
family {P_k} is the atomic realization of the projection-valued measure
E(.), and it is stored factored: P_k = Q_k Q_k* for the block Q_k of a
unitary eigenbasis Q, so E(S) = Q_S Q_S* for the columns Q_S of the
atoms in a set S.  Everything downstream (integral sums, E-norms,
equation solvers) is built on this object.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import BoundaryEigenvalueWarning, NotNormalError, ShapeMismatchError
from .linalg import (DEFAULT_TOLERANCES, Tolerances, _normality, _square, adjoint,
                     as_matrix, operator_norm)

__all__ = [
    "Rect",
    "SpectralMeasure",
    "decompose_normal",
    "measure_of_rect",
    "spectral_function",
    "apply_function",
    "spectral_invariant_residuals",
]


@dataclass(frozen=True)
class Rect:
    """Half-open rectangle [a, b) x [c, d) in the (Re, Im) plane."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"rectangle bound {name} must be finite")
        if not (self.a < self.b and self.c < self.d):
            raise ValueError(
                f"rectangle requires a < b and c < d, got "
                f"[{self.a}, {self.b}) x [{self.c}, {self.d})")

    def boundary_distance(self, lam, mu):
        """Distance from (lam, mu) to the edge lines, elementwise."""
        return np.minimum.reduce([np.abs(lam - self.a), np.abs(lam - self.b),
                                  np.abs(mu - self.c), np.abs(mu - self.d)])

    @property
    def width(self):
        return self.b - self.a

    @property
    def height(self):
        return self.d - self.c


@dataclass(frozen=True)
class SpectralMeasure:
    """Distinct eigenvalues of a normal matrix with their eigenspaces,
    P_k = Q_k Q_k* for the k-th column block Q_k of `basis`.

    Attributes
    ----------
    eigenvalues : (K,) complex ndarray
        Distinct (clustered) eigenvalues, K >= 1.
    basis : (dim, dim) complex ndarray
        Unitary Q whose columns are grouped by atom, in the order of
        `eigenvalues`.
    multiplicities : (K,) int ndarray
        Eigenspace dimensions, i.e. column-block widths, each >= 1; sums to dim.
    tolerances : Tolerances
        Those it was clustered with, read by all that is computed against it.

    Raises ShapeMismatchError when the shapes do not fit together.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray
    multiplicities: np.ndarray
    tolerances: Tolerances = field(default=DEFAULT_TOLERANCES, repr=False)
    spectral_radius: float = field(init=False)
    _edge_tol: float = field(init=False, repr=False)  # tol_cluster * max(1, radius)

    def __post_init__(self):
        if not isinstance(self.tolerances, Tolerances):
            raise TypeError(f"tolerances must be a Tolerances, got {self.tolerances!r}")
        z = np.asarray(self.eigenvalues, dtype=np.complex128)
        Q = np.asarray(self.basis, dtype=np.complex128)
        given = np.asarray(self.multiplicities)
        m = given.astype(int)
        if (z.ndim != 1 or not len(z) or m.shape != z.shape or np.any(m < 1)
                or np.any(m != given) or Q.shape != (m.sum(),) * 2):
            raise ShapeMismatchError(
                f"a measure needs K >= 1 eigenvalues, K integer multiplicities >= 1 "
                f"and a square basis of their sum: got {z.shape}, {given.tolist()}, "
                f"{Q.shape}")
        radius = float(np.abs(z).max())
        edge_tol = self.tolerances.tol_cluster * max(1.0, radius)
        for name, value in (("eigenvalues", z), ("basis", Q), ("multiplicities", m),
                            ("_offsets", np.concatenate(([0], np.cumsum(m)))),
                            ("spectral_radius", radius), ("_edge_tol", edge_tol)):
            object.__setattr__(self, name, value)

    def __len__(self):
        return len(self.eigenvalues)

    @property
    def dim(self):
        """Dimension of the underlying space."""
        return self.basis.shape[0]

    def columns(self, atoms):
        """Q_S, the basis columns of the atoms in S; E(S) = Q_S Q_S*."""
        off = self._offsets
        # the leading empty block keeps the (dim, 0) shape when S is empty
        return np.concatenate(
            [self.basis[:, :0]] + [self.basis[:, off[k]:off[k + 1]] for k in atoms],
            axis=1)

    def _weighted(self, values):
        """sum_k values[k] P_k, for one value per atom, over the atoms
        whose value is not 0."""
        S = np.flatnonzero(values)
        Q = self.columns(S)
        return (Q * np.repeat(values[S], self.multiplicities[S])) @ Q.conj().T

    def reconstruct(self):
        """Sum of zeta_k P_k, which should reproduce the source matrix."""
        return self._weighted(self.eigenvalues)

    def atoms_in(self, rect):
        """Indices of eigenvalues inside the half-open rectangle."""
        lam = self.eigenvalues.real
        mu = self.eigenvalues.imag
        mask = (rect.a <= lam) & (lam < rect.b) & (rect.c <= mu) & (mu < rect.d)
        return np.nonzero(mask)[0]

    def near_boundary(self, rect):
        """A message naming the first eigenvalue within tol_cluster *
        max(1, radius) of the edge lines of rect, or None if none is."""
        z = self.eigenvalues
        z = z[rect.boundary_distance(z.real, z.imag) <= self._edge_tol]
        return (f"eigenvalue {z[0]} lies within {self._edge_tol:.2e} of the rectangle "
                "boundary; " if z.size else None)


def _cluster(values, threshold):
    """Group values by centroid linkage with the given merge threshold.

    Merges the lexicographically first pair (i, j) of live cluster
    representatives within the threshold into i, whose representative
    becomes the mean of its members in group order, until all are further
    apart, so repeated eigenvalues coming out of a floating-point
    eigensolver collapse into one atom.  A chain is not merged end to
    end: [1, 1 + 0.8t, 1 + 1.6t] gives two clusters.

    partner[i] is the smallest live j > i within the threshold of i (n
    if none), so the next pair is (i, partner[i]) for the first i that
    has one.  A merge moves only rep i: it gives the live k < i, which
    had no partner, i if it is now within the threshold, and only i and
    the k whose partner was j look for a new one.  Distances are the
    hypot of the parts, as abs of a complex scalar takes them; the first
    partners come from blocks of rows of about 2^16 pairs.
    """
    n = len(values)
    reps = np.array(values, dtype=np.complex128)
    if n <= 256:  # one block, and most spectra have every pair beyond the threshold
        d = reps[:, None] - reps
        if np.count_nonzero(np.hypot(d.real, d.imag) > threshold) == n * (n - 1):
            return [[k] for k in range(n)], reps
    live = np.ones(n, dtype=bool)

    def partners(rows):
        d = reps[rows, None] - reps
        hit = (np.hypot(d.real, d.imag) <= threshold) & live & (np.arange(n) > rows[:, None])
        return np.where(hit.any(axis=1), hit.argmax(axis=1), n)

    step = max(1, 2 ** 16 // n)
    partner = np.concatenate([partners(np.arange(k, min(k + step, n)))
                              for k in range(0, n, step)])
    groups = [[k] for k in range(n)]
    while (pending := np.flatnonzero(partner < n)).size:
        i = pending[0]
        j = partner[i]
        groups[i] += groups[j]
        reps[i] = np.mean(values[groups[i]])
        live[j], partner[j] = False, n
        d = reps - reps[i]
        near = np.flatnonzero(live & (np.hypot(d.real, d.imag) <= threshold)).tolist()
        partner[[k for k in near if k < i]] = i
        partner[i] = next((m for m in near if m > i), n)
        stale = np.flatnonzero(partner == j)
        if stale.size:
            partner[stale] = partners(stale)
    return [groups[k] for k in np.flatnonzero(live)], reps[live]


def _require_normal(s, defect, threshold, tol):
    """Raise NotNormalError unless `is_normal`'s test passes on the last
    three entries of C's `_normality`; a NaN defect fails it."""
    if not defect <= threshold:
        raise NotNormalError(
            f"matrix is not normal: ||C*C - CC*|| = {defect:.3e} exceeds "
            f"{tol.tol_normal:.1e} * ||C||^2 = {threshold:.3e}"
            + ("" if s == 1.0 else f", both for C / 2^{np.frexp(s)[1] - 1}"))


def _measure_of_schur(T, Z, tol):
    """The spectral measure of a normal C = Z T Z* from its complex Schur
    form: clusters the eigenvalues diag(T) and keeps the columns of Z,
    grouped by cluster and sorted by (real, imaginary) part, as the basis."""
    raw = np.diag(T).astype(np.complex128)
    threshold = tol.tol_cluster * max(1.0, float(np.abs(raw).max()))
    groups, reps = _cluster(raw, threshold)

    order = np.lexsort((reps.imag, reps.real))
    return SpectralMeasure(
        eigenvalues=reps[order],
        basis=Z[:, np.concatenate([groups[g] for g in order])],
        multiplicities=[len(groups[g]) for g in order], tolerances=tol)


def decompose_normal(C, tol=DEFAULT_TOLERANCES):
    """Spectral measure of a normal matrix.

    Uses the complex Schur form (diagonal for normal input, with
    orthonormal Schur vectors), clusters near-coincident eigenvalues,
    and keeps the Schur vectors, grouped by cluster, as the basis of the
    measure, so each P_k = Q_k Q_k* is Hermitian and idempotent to
    machine precision.  The measure keeps tol as its tolerances.

    Raises NotNormalError when ||C*C - CC*|| > tol_normal * ||C||^2.
    """
    A = _square(C, "C")
    _require_normal(*_normality(A, operator_norm(A), tol)[1:], tol)
    return _measure_of_schur(*scipy.linalg.schur(A, output="complex"), tol)


def measure_of_rect(sm, rect):
    """E(rect): the orthogonal projection for a half-open rectangle.

    Membership uses exact half-open comparisons on the stored cluster
    representatives.  Eigenvalues within the measure's tol_cluster of the
    boundary are flagged with BoundaryEigenvalueWarning: the result is
    still computed, but it is numerically fragile.
    """
    near = sm.near_boundary(rect)
    if near:
        warnings.warn(near + "half-open membership is fragile",
                      BoundaryEigenvalueWarning, stacklevel=2)
    Q = sm.columns(sm.atoms_in(rect))
    return Q @ Q.conj().T


def spectral_function(sm, lam, mu):
    """E of the open south-west quadrant {x < lam, y < mu}."""
    z = sm.eigenvalues
    Q = sm.columns(np.nonzero((z.real < lam) & (z.imag < mu))[0])
    return Q @ Q.conj().T


def apply_function(sm, f):
    """Functional calculus: sum of f(zeta_k) P_k."""
    values = np.array([f(z) for z in sm.eigenvalues], dtype=np.complex128)
    if not np.all(np.isfinite(values)):
        raise ValueError("f is not finite on every eigenvalue")
    return sm._weighted(values)


def spectral_invariant_residuals(sm, C=None):
    """Residuals of the defining properties of a spectral measure.

    Returns a dict with the worst-case deviations from Hermitian
    idempotency, mutual orthogonality, completeness, and (when the
    source matrix is supplied) reconstruction, the latter relative to
    ||C||.  Each value bounds from above, in exact arithmetic, the
    spectral-norm residual of the dense P_k = Q_k Q_k*, read off the
    Gram matrix G = Q*Q - I:

      idempotent     P_k^2 - P_k = Q_k G_kk Q_k*, at most ||Q_k||^2 ||G_kk||
      orthogonality  P_i P_j = Q_i G_ij Q_j*, at most ||Q_i|| ||G_ij||_F ||Q_j||
      completeness   sum_k P_k - I = QQ* - I, whose norm equals ||G||
      hermitian      Q_k Q_k* is Hermitian by construction, so this is the
                     rounding bound 4 (m_k + 2) eps ||Q_k||_F^2 on the
                     asymmetry of its dense product

    with ||Q_k||^2 = ||G_kk + I|| and ||Q_k||_F^2 = tr G_kk + m_k.
    """
    Q = sm.basis
    G = adjoint(Q) @ Q - np.eye(sm.dim)
    starts = sm._offsets[:-1]
    eps = np.finfo(float).eps
    herm = idem = 0.0
    norm_q = np.empty(len(sm))
    for k, (lo, hi) in enumerate(zip(starts, sm._offsets[1:])):
        G_kk = G[lo:hi, lo:hi]
        m = hi - lo
        norm_q[k] = np.sqrt(operator_norm(G_kk + np.eye(m)))
        idem = max(idem, norm_q[k] ** 2 * operator_norm(G_kk))
        herm = max(herm, 4 * (m + 2) * eps * (np.trace(G_kk).real + m))
    blocks = np.sqrt(np.add.reduceat(
        np.add.reduceat(np.abs(G) ** 2, starts, axis=0), starts, axis=1))
    np.fill_diagonal(blocks, 0.0)
    out = {
        "hermitian": float(herm),
        "idempotent": float(idem),
        "orthogonality": float((norm_q[:, None] * blocks * norm_q[None, :]).max()),
        "completeness": operator_norm(G),
    }
    if C is not None:
        A = as_matrix(C, "C")
        out["reconstruction"] = operator_norm(sm.reconstruct() - A) / max(
            1.0, operator_norm(A))
    return out
