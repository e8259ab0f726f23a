"""Riemann-Stieltjes operator integral sums against a spectral measure.

The right integral of an operator-valued function F over a rectangle is
the limit of sums  sum_jk F(xi_j, zeta_k) E(cell_jk)  over grid
partitions as the mesh shrinks; the left integral puts the measure
factor on the left.  For the atomic measures produced by finite normal
matrices the limit has a closed form (sum over the eigenvalues inside
the rectangle), which serves as the oracle for the adaptive refinement.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    BoundaryEigenvalueError,
    NoConvergenceError,
    ShapeMismatchError,
)
from .linalg import DEFAULT_TOLERANCES, adjoint, operator_norm, resolvent

__all__ = [
    "OperatorFunction",
    "GridPartition",
    "ConvergenceReport",
    "right_sum",
    "left_sum",
    "exact_right_integral",
    "exact_left_integral",
    "dyadic_level_sum",
    "integrate_right",
    "estimate_lipschitz",
    "lnest_bound",
    "czero_check",
]


@dataclass
class OperatorFunction:
    """An evaluatable operator-valued function of (lambda, mu).

    gamma1 / gamma2 optionally record Lipschitz and mixed-difference
    constants when they are known in closed form.
    """

    evaluate: Callable[[float, float], np.ndarray]
    gamma1: Optional[float] = None
    gamma2: Optional[float] = None

    def __post_init__(self):
        for name in ("gamma1", "gamma2"):
            g = getattr(self, name)
            if g is not None and g < 0:
                raise ValueError(f"{name} must be nonnegative")

    def __call__(self, lam, mu):
        return np.asarray(self.evaluate(lam, mu), dtype=np.complex128)

    @classmethod
    def constant(cls, M):
        M = np.asarray(M, dtype=np.complex128)
        return cls(evaluate=lambda lam, mu: M, gamma1=0.0, gamma2=0.0)

    @classmethod
    def from_scalar(cls, f, dim, gamma1=None, gamma2=None):
        """f(lambda + i mu) times the dim x dim identity."""
        eye = np.eye(dim, dtype=np.complex128)
        return cls(evaluate=lambda lam, mu: f(complex(lam, mu)) * eye,
                   gamma1=gamma1, gamma2=gamma2)

    @classmethod
    def affine(cls, p, q, dim):
        """(p lambda + q mu) times the identity; exact constants attached."""
        eye = np.eye(dim, dtype=np.complex128)
        return cls(evaluate=lambda lam, mu: (p * lam + q * mu) * eye,
                   gamma1=float(max(abs(p), abs(q))), gamma2=0.0)

    @classmethod
    def polynomial(cls, coeffs, dim):
        """Scalar polynomial sum_i c_i z^i times the identity."""
        coeffs = [complex(c) for c in coeffs]

        def f(z):
            acc = 0.0 + 0.0j
            for c in reversed(coeffs):
                acc = acc * z + c
            return acc

        return cls.from_scalar(f, dim)

    @classmethod
    def resolvent_family(cls, A, D=None, tol=DEFAULT_TOLERANCES):
        """D (A - z)^{-1} as a function of z = lambda + i mu."""
        A = np.asarray(A, dtype=np.complex128)
        if D is not None:
            D = np.asarray(D, dtype=np.complex128)

        def evaluate(lam, mu):
            R = resolvent(A, complex(lam, mu), tol)
            return R if D is None else D @ R

        return cls(evaluate=evaluate)


@dataclass
class GridPartition:
    """Partition of a rectangle into half-open cells with tag points.

    lambda_points / mu_points are the strictly increasing grid lines
    (including both endpoints); cell (j, k) spans
    [lambda_j, lambda_{j+1}) x [mu_k, mu_{k+1}).  Tags are chosen by
    tag_rule: the lower-left corner, the cell center, or explicit
    per-axis arrays supplied through custom_tags = (xi, zeta).
    """

    lambda_points: np.ndarray
    mu_points: np.ndarray
    tag_rule: str = "lower_left"
    custom_tags: Optional[tuple] = None

    def __post_init__(self):
        self.lambda_points = np.asarray(self.lambda_points, dtype=float)
        self.mu_points = np.asarray(self.mu_points, dtype=float)
        for name, pts in (("lambda_points", self.lambda_points),
                          ("mu_points", self.mu_points)):
            if pts.ndim != 1 or len(pts) < 2:
                raise ValueError(f"{name} needs at least two grid lines")
            if not np.all(np.diff(pts) > 0):
                raise ValueError(f"{name} must be strictly increasing")
        if self.tag_rule not in ("lower_left", "center", "custom"):
            raise ValueError(f"unknown tag rule {self.tag_rule!r}")
        if self.tag_rule == "custom":
            if self.custom_tags is None:
                raise ValueError("custom tag rule requires custom_tags")
            xi, zeta = (np.asarray(t, dtype=float) for t in self.custom_tags)
            if len(xi) != self.m or len(zeta) != self.n:
                raise ValueError("custom tag arrays must have one entry per cell")
            lp, mp = self.lambda_points, self.mu_points
            if not (np.all(lp[:-1] <= xi) and np.all(xi < lp[1:])):
                raise ValueError("xi tags must lie in their lambda cells")
            if not (np.all(mp[:-1] <= zeta) and np.all(zeta < mp[1:])):
                raise ValueError("zeta tags must lie in their mu cells")
            self.custom_tags = (xi, zeta)

    @property
    def m(self):
        return len(self.lambda_points) - 1

    @property
    def n(self):
        return len(self.mu_points) - 1

    @property
    def mesh(self):
        """Partition norm: max lambda-cell width plus max mu-cell width."""
        return float(np.diff(self.lambda_points).max()
                     + np.diff(self.mu_points).max())

    @classmethod
    def uniform(cls, rect, m, n, tag_rule="lower_left"):
        return cls(np.linspace(rect.a, rect.b, m + 1),
                   np.linspace(rect.c, rect.d, n + 1),
                   tag_rule=tag_rule)


@dataclass
class ConvergenceReport:
    """Per-level record of an adaptive refinement.

    levels holds (mesh, diff_prev) pairs; diff_prev is NaN for the first
    level.  converged means the final Cauchy difference met the
    tolerance.  values optionally keeps every level's sum (only when the
    refinement was asked to retain them).
    """

    levels: list
    final_mesh: float
    converged: bool
    values: Optional[list] = None


def _perturb_lines(lines, coords, thresh, shift):
    """Move interior grid lines that collide with atom coordinates.

    A line within thresh of a coordinate is shifted by `shift` away from
    the nearest colliding coordinate, which keeps half-open cell
    membership far from floating-point ties.  Lines are left alone when
    the shift could reorder them against their neighbours.
    """
    if len(coords) == 0:
        return lines
    out = lines.copy()
    for i in range(1, len(lines) - 1):
        pos = lines[i]
        dists = np.abs(coords - pos)
        nearest = int(np.argmin(dists))
        if dists[nearest] <= thresh:
            room = min(pos - lines[i - 1], lines[i + 1] - pos)
            if 4.0 * shift <= room:
                out[i] = pos - shift if coords[nearest] >= pos else pos + shift
    return out


def _cell_groups(sm, lam_lines, mu_lines, tol):
    """Group the atoms of sm into occupied cells of an explicit grid.

    Returns a dict (j, k) -> list of atom indices for the atoms lying in
    the (perturbed) partition rectangle, plus the perturbed lines.
    """
    scale = max(1.0, sm.spectral_radius)
    thresh = tol.tol_cluster * scale
    shift = 2.0 * thresh
    re = sm.eigenvalues.real
    im = sm.eigenvalues.imag
    lam = _perturb_lines(lam_lines, np.unique(re), thresh, shift)
    mu = _perturb_lines(mu_lines, np.unique(im), thresh, shift)
    groups = {}
    for idx in range(len(sm)):
        if not (lam[0] <= re[idx] < lam[-1] and mu[0] <= im[idx] < mu[-1]):
            continue
        j = int(np.searchsorted(lam, re[idx], side="right")) - 1
        k = int(np.searchsorted(mu, im[idx], side="right")) - 1
        groups.setdefault((j, k), []).append(idx)
    return groups, lam, mu


def _tag_arrays(p, lam_pert, mu_pert):
    """Per-axis tag coordinates for a partition with perturbed lines.

    A lower-left tag stays at the original corner when a line was moved
    down (the corner is still inside the cell, and an atom sitting
    exactly on a grid line then gets tagged at its own coordinate); a
    line moved up becomes the tag itself so tags never leave their cell.
    """
    if p.tag_rule == "lower_left":
        return (np.maximum(p.lambda_points[:-1], lam_pert[:-1]),
                np.maximum(p.mu_points[:-1], mu_pert[:-1]))
    if p.tag_rule == "center":
        return (0.5 * (lam_pert[:-1] + lam_pert[1:]),
                0.5 * (mu_pert[:-1] + mu_pert[1:]))
    return p.custom_tags


def _check_shape(value, dim):
    if value.ndim != 2 or value.shape[1] != dim:
        raise ShapeMismatchError(
            f"integrand of shape {value.shape} does not fit a measure on "
            f"dimension {dim}: right integrands are (h x {dim}), left ones ({dim} x h)")


def _spectral_sum(F, sm, cells, empty_tag):
    """sum F(tag) E(S) over cells (tag_lambda, tag_mu, atoms S).

    Each E(S) = Q_S Q_S* is applied in factored form, (F Q_S) Q_S*, and
    cells are accumulated in the order given so results are
    bit-reproducible.  Without cells the result is the zero matrix of
    the shape of F(empty_tag).
    """
    out = None
    for lam, mu, atoms in cells:
        value = F(lam, mu)
        _check_shape(value, sm.dim)
        Q = sm.columns(atoms)
        term = (value @ Q) @ Q.conj().T
        out = term if out is None else out + term
    if out is None:
        value = F(*empty_tag)
        _check_shape(value, sm.dim)
        out = np.zeros_like(value)
    return out


def right_sum(F, sm, p, tol=DEFAULT_TOLERANCES):
    """Integral sum  sum_jk F(xi_j, zeta_k) E(cell_jk).

    Cells with zero measure are skipped; occupied cells are accumulated
    in fixed row-major order (j outer, k inner) so results are
    bit-reproducible.
    """
    groups, lam, mu = _cell_groups(sm, p.lambda_points, p.mu_points, tol)
    xi, zeta = _tag_arrays(p, lam, mu)
    cells = [(xi[j], zeta[k], groups[(j, k)]) for j, k in sorted(groups)]
    return _spectral_sum(F, sm, cells, (p.lambda_points[0], p.mu_points[0]))


def left_sum(G, sm, p, tol=DEFAULT_TOLERANCES):
    """Integral sum  sum_jk E(cell_jk) G(xi_j, zeta_k), via adjoint
    duality: the adjoint of the right sum of G*."""
    G_star = OperatorFunction(lambda lam, mu: adjoint(G(lam, mu)))
    return adjoint(right_sum(G_star, sm, p, tol))


def _require_clear_boundary(sm, rect, tol):
    threshold = tol.tol_cluster * max(1.0, sm.spectral_radius)
    for z in sm.eigenvalues:
        if rect.boundary_distance(z.real, z.imag) <= threshold:
            raise BoundaryEigenvalueError(
                f"eigenvalue {z} lies within {threshold:.2e} of the rectangle "
                "boundary; the exact integral over this rectangle is ill posed")


def exact_right_integral(F, sm, rect, tol=DEFAULT_TOLERANCES):
    """Limit value of the right integral over rect for an atomic measure.

    Equals the sum of F(Re zeta_k, Im zeta_k) P_k over the eigenvalues
    inside the rectangle.  Raises BoundaryEigenvalueError when an
    eigenvalue sits within tol_cluster of the boundary.
    """
    _require_clear_boundary(sm, rect, tol)
    cells = [(sm.eigenvalues[k].real, sm.eigenvalues[k].imag, [k])
             for k in sm.atoms_in(rect)]
    return _spectral_sum(F, sm, cells, (rect.a, rect.c))


def exact_left_integral(G, sm, rect, tol=DEFAULT_TOLERANCES):
    """Limit value of the left integral over rect, via adjoint duality.

    The adjoint of a right integral of F is the left integral of F*, so
    the left value is computed as adjoint(right integral of G*).
    """
    G_star = OperatorFunction(lambda lam, mu: adjoint(G(lam, mu)))
    return adjoint(exact_right_integral(G_star, sm, rect, tol))


def _uniform_cell_index(coords, lo, hi, ncells, thresh, shift):
    """Cell index and lower-edge tag per coordinate on an implicit grid.

    Works without materializing the 2^level grid lines, so deep dyadic
    refinement stays O(number of atoms) per level.  Applies the same
    outward perturbation of colliding lines as the explicit path, but
    only while the shift cannot reorder lines (mesh > 4 * shift); below
    that the floor-based membership is already unambiguous.
    """
    h = (hi - lo) / ncells
    idx = np.floor((coords - lo) / h).astype(np.int64)
    idx = np.clip(idx, 0, ncells - 1)
    new_pos = {}
    if 4.0 * shift <= h:
        # nearest interior line per coordinate; the closest colliding
        # coordinate decides the perturbation direction
        line_idx = np.rint((coords - lo) / h).astype(np.int64)
        for i, li in enumerate(line_idx):
            li = int(li)
            if li <= 0 or li >= ncells:
                continue
            pos = lo + li * h
            dist = abs(coords[i] - pos)
            if dist <= thresh and (li not in new_pos or dist < new_pos[li][1]):
                moved = pos - shift if coords[i] >= pos else pos + shift
                new_pos[li] = (moved, dist)
    if new_pos:
        # re-decide membership against the moved bounding lines
        for i in range(len(coords)):
            x = coords[i]
            lower = int(idx[i])
            upper = lower + 1
            if upper in new_pos and x >= new_pos[upper][0]:
                idx[i] = upper
            elif lower in new_pos and x < new_pos[lower][0]:
                idx[i] = lower - 1
    edges = np.empty(len(coords), dtype=float)
    for i in range(len(coords)):
        li = int(idx[i])
        orig = lo + li * h
        # a line moved down keeps the original corner as tag (still in
        # the cell); a line moved up becomes the tag itself
        edges[i] = max(orig, new_pos[li][0]) if li in new_pos else orig
    return idx, edges


def _uniform_right_sum(F, sm, rect, ncells, tol):
    """Right sum on the uniform ncells x ncells grid with lower-left tags.

    Returns (sum, tags, coords) where tags is the (n_atoms, 2) array of
    per-atom tag coordinates and coords the matching atom coordinates;
    both are needed by the refinement loop to judge whether a Cauchy
    comparison carried any information.
    """
    scale = max(1.0, sm.spectral_radius)
    thresh = tol.tol_cluster * scale
    shift = 2.0 * thresh
    atoms = sm.atoms_in(rect)
    re = sm.eigenvalues.real[atoms]
    im = sm.eigenvalues.imag[atoms]
    jidx, jedges = _uniform_cell_index(re, rect.a, rect.b, ncells, thresh, shift)
    kidx, kedges = _uniform_cell_index(im, rect.c, rect.d, ncells, thresh, shift)
    cells = {}
    for i, atom in enumerate(atoms):
        key = (int(jidx[i]), int(kidx[i]))
        cells.setdefault(key, (float(jedges[i]), float(kedges[i]), []))[2].append(atom)
    out = _spectral_sum(F, sm, [cells[key] for key in sorted(cells)],
                        (rect.a, rect.c))
    return out, np.column_stack((jedges, kedges)), np.column_stack((re, im))


def dyadic_level_sum(F, sm, rect, level, tol=DEFAULT_TOLERANCES):
    """Right sum at refinement level l: uniform 2^l x 2^l grid,
    lower-left tags.  The grid is implicit, so deep levels stay cheap."""
    if level < 1:
        raise ValueError("level must be at least 1")
    return _uniform_right_sum(F, sm, rect, 2 ** level, tol)[0]


def integrate_right(F, sm, rect, tol, max_levels, tolerances=DEFAULT_TOLERANCES,
                    keep_values=False):
    """Right integral over rect by dyadic refinement with lower-left tags.

    Level l uses the uniform 2^l x 2^l grid; refinement stops once the
    Cauchy difference between consecutive levels drops to tol.  For an
    atomic measure two successive levels can coincide bit-exactly while
    the sum is still far from its limit (every atom happens to keep its
    tag), so an exactly-zero difference is not trusted on its own:
    zero-difference streaks accumulate per-atom-axis movement evidence
    and only count once every tag has either moved during the streak or
    sits exactly on its atom's coordinate.  Genuinely constant
    integrands therefore still stop within a few levels, while stalled
    comparisons keep refining.

    Returns the last sum together with the per-level report (which keeps
    every level's sum when keep_values is set).  Raises
    NoConvergenceError (carrying the partial value and report) when
    max_levels is exhausted, which usually signals an integrand without
    the required Lipschitz regularity.
    """
    if max_levels < 2:
        raise ValueError("max_levels must be at least 2")
    levels = []
    values = [] if keep_values else None
    prev = None
    prev_tags = None
    moved = None
    for level in range(1, max_levels + 1):
        ncells = 2 ** level
        J, tags, coords = _uniform_right_sum(F, sm, rect, ncells, tolerances)
        mesh = (rect.width + rect.height) / ncells
        if keep_values:
            values.append(J)
        if prev is None:
            levels.append((mesh, math.nan))
        else:
            diff = operator_norm(J - prev)
            levels.append((mesh, diff))
            if diff == 0.0:
                changed = tags != prev_tags
                moved = changed if moved is None else (moved | changed)
                if bool(np.all(moved | (tags == coords))):
                    return J, ConvergenceReport(levels, mesh, True, values)
            else:
                moved = None
                if diff <= tol:
                    return J, ConvergenceReport(levels, mesh, True, values)
        prev, prev_tags = J, tags
    report = ConvergenceReport(levels, levels[-1][0], False, values)
    raise NoConvergenceError(
        f"dyadic refinement did not reach tol = {tol:.2e} within "
        f"{max_levels} levels", value=prev, report=report)


def estimate_lipschitz(F, rect, samples_per_axis):
    """Sampled Lipschitz and mixed-difference constants of F on rect.

    Both estimates are maxima of difference quotients over a uniform
    sample grid, hence lower bounds of the true constants.
    """
    if samples_per_axis < 3:
        raise ValueError("samples_per_axis must be at least 3")
    lams = np.linspace(rect.a, rect.b, samples_per_axis)
    mus = np.linspace(rect.c, rect.d, samples_per_axis)
    values = [[F(lam, mu) for mu in mus] for lam in lams]
    s = samples_per_axis
    gamma1 = 0.0
    points = [(i, j) for i in range(s) for j in range(s)]
    for a in range(len(points)):
        ia, ja = points[a]
        for b in range(a + 1, len(points)):
            ib, jb = points[b]
            denom = abs(lams[ia] - lams[ib]) + abs(mus[ja] - mus[jb])
            if denom > 0:
                num = operator_norm(values[ia][ja] - values[ib][jb])
                gamma1 = max(gamma1, num / denom)
    gamma2 = 0.0
    for i1 in range(s):
        for i2 in range(i1 + 1, s):
            dl = lams[i2] - lams[i1]
            for j1 in range(s):
                for j2 in range(j1 + 1, s):
                    dm = mus[j2] - mus[j1]
                    mixed = operator_norm(values[i1][j1] - values[i2][j1]
                                          - values[i1][j2] + values[i2][j2])
                    gamma2 = max(gamma2, mixed / (dl * dm))
    return gamma1, gamma2


def lnest_bound(sup_F, gamma1, gamma2, rect):
    """Norm bound for the right integral over rect:
    4 sup||F|| + 2 gamma1 (width + height) + gamma2 width height.
    """
    for name, v in (("sup_F", sup_F), ("gamma1", gamma1), ("gamma2", gamma2)):
        if v < 0:
            raise ValueError(f"{name} must be nonnegative")
    return (4.0 * sup_F
            + 2.0 * gamma1 * (rect.width + rect.height)
            + gamma2 * rect.width * rect.height)


def czero_check(G, sm, C, rect, tol=DEFAULT_TOLERANCES):
    """Residual of the commutation identity for holomorphic integrands:
    the left integral of z G(z) equals C times the left integral of G.

    The caller asserts holomorphy of G on a neighbourhood of the closed
    rectangle; both sides are evaluated with exact atomic left integrals
    (through adjoint duality) and the operator norm of the difference is
    returned.
    """
    C = np.asarray(C, dtype=np.complex128)
    zG = OperatorFunction(lambda lam, mu: complex(lam, mu) * G(lam, mu))
    lhs = exact_left_integral(zG, sm, rect, tol)
    rhs = C @ exact_left_integral(G, sm, rect, tol)
    return operator_norm(lhs - rhs)
