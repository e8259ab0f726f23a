"""Riemann-Stieltjes operator integral sums against a spectral measure.

The right integral of an operator-valued function F over a rectangle is
the limit of sums  sum_jk F(xi_j, zeta_k) E(cell_jk)  over grid
partitions as the mesh shrinks; the left integral puts the measure
factor on the left.  For the atomic measures produced by finite normal
matrices the limit has a closed form (sum over the eigenvalues inside
the rectangle), which serves as the oracle for the adaptive refinement.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (BoundaryEigenvalueError, NoConvergenceError, ShapeMismatchError,
                     SingularResolventError)
from .linalg import (DEFAULT_TOLERANCES, Tolerances, _count, _per_block, _square,
                     _triangular_resolvents, adjoint, as_matrix, is_normal, operator_norm)
from .spectral import Rect, _kept_form

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
    constants when they are known in closed form.  scalar is (f, dim)
    when the function is f(lambda + i mu) times the dim x dim identity;
    only `from_scalar` sets it, so it always agrees with evaluate.  In
    the same way only `resolvent_family` sets the private record
    (T, U, D conj(U), tol) of D (A - z)^{-1}, D = I if not given, for the
    upper triangle T of its kept form A^T = U T U*.
    """

    evaluate: Callable[[float, float], np.ndarray]
    gamma1: Optional[float] = None
    gamma2: Optional[float] = None
    scalar: Optional[tuple] = field(default=None, init=False, repr=False)
    _resolvent: Optional[tuple] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        for name in ("gamma1", "gamma2"):
            g = getattr(self, name)
            if g is not None and not g >= 0:
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
        F = cls(evaluate=lambda lam, mu: f(complex(lam, mu)) * eye,
                gamma1=gamma1, gamma2=gamma2)
        F.scalar = (f, dim)
        return F

    @classmethod
    def affine(cls, p, q, dim):
        """(p lambda + q mu) times the identity; exact constants attached."""
        return cls.from_scalar(lambda z: p * z.real + q * z.imag, dim,
                               gamma1=float(max(abs(p), abs(q))), gamma2=0.0)

    @classmethod
    def polynomial(cls, coeffs, dim):
        """Scalar polynomial sum_i c_i z^i times the identity, by Horner's rule."""
        coeffs = [complex(c) for c in reversed(coeffs)]
        return cls.from_scalar(lambda z: functools.reduce(lambda acc, c: acc * z + c,
                                                          coeffs, 0j), dim)

    @classmethod
    def resolvent_family(cls, A, D=None, tol=DEFAULT_TOLERANCES):
        """D (A - z)^{-1} as a function of z = lambda + i mu, for a square,
        finite A and a D (I if None) with as many columns, else
        ShapeMismatchError, and Tolerances tol, else TypeError.  A^T = U T U*
        takes its `_kept_form` once, T cut to its upper triangle: a value is
        D conj(U) Y^T for the row block Y = U (T - z)^{-1} of one
        `_triangular_resolvents`, and a Stieltjes sum, or a block of dyadic
        levels, takes all its tags in one such solve (`_resolvent_sums`)."""
        if not isinstance(tol, Tolerances):
            raise TypeError(f"tol must be a Tolerances, got {tol!r}")
        A = _square(A, "A")
        D = np.eye(len(A)) if D is None else as_matrix(D, "D")
        if D.shape[1] != A.shape[0]:
            raise ShapeMismatchError(
                f"cannot form D (A - z)^{{-1}} from shapes {D.shape} and {A.shape}")
        T, U = _kept_form(A.T, is_normal(A.T, tol))
        T, DU = np.triu(T), D @ np.conj(U)
        F = cls(evaluate=lambda lam, mu: DU @ _triangular_resolvents(
            T, U, np.array([complex(lam, mu)]), [len(T)], tol).T)
        F._resolvent = T, U, DU, tol
        return F


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
            if not np.all(np.isfinite(pts)):
                raise ValueError(f"{name} must be finite")
            if not np.all(np.diff(pts) > 0):
                raise ValueError(f"{name} must be strictly increasing")
        if self.tag_rule not in ("lower_left", "center", "custom"):
            raise ValueError(f"unknown tag rule {self.tag_rule!r}")
        if self.tag_rule == "custom":
            if self.custom_tags is None:
                raise ValueError("custom tag rule requires custom_tags")
            xi, zeta = (np.asarray(t, dtype=float) for t in self.custom_tags)
            if xi.shape != (self.m,) or zeta.shape != (self.n,):
                raise ValueError("custom tag arrays must have one entry per cell")
            for name, axis, t, pts in (("xi", "lambda", xi, self.lambda_points),
                                       ("zeta", "mu", zeta, self.mu_points)):
                if not (np.all(pts[:-1] <= t) and np.all(t < pts[1:])):
                    raise ValueError(f"{name} tags must lie in their {axis} cells")
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
        return float(np.diff(self.lambda_points).max() + np.diff(self.mu_points).max())

    @classmethod
    def uniform(cls, rect, m, n, tag_rule="lower_left"):
        return cls(np.linspace(rect.a, rect.b, m + 1), np.linspace(rect.c, rect.d, n + 1),
                   tag_rule=tag_rule)


@dataclass
class ConvergenceReport:
    """Per-level record of an adaptive refinement.

    levels holds (mesh, diff_prev) pairs; diff_prev is NaN for the first
    level, and for a scalar integrand an upper bound on the norm of the
    difference (see `integrate_right`).  converged means the final Cauchy
    difference met the tolerance.
    """

    levels: list
    final_mesh: float
    converged: bool


def _explicit_axes(p):
    """The lines of a partition: line i at lines[i] (one level, so `at`
    selects nothing), and a coordinate finds its cell by binary search."""
    return [(lambda i, at=None, lines=lines: lines[i],
             lambda x, lines=lines: np.searchsorted(lines, x, side="right") - 1,
             len(lines) - 1) for lines in (p.lambda_points, p.mu_points)]


def _dyadic_axes(rect, level):
    """The uniform 2^l x 2^l grid of l = level, or of each l of a 1-D
    array of levels up to the first invalid one, on a leading level axis:
    line i at lo + i h (on the levels `at` of that axis, if given), and a
    coordinate finds its cell by floor, so a deep level never materializes
    its lines.  Cell indices are int64, so level 62 is the deepest; a
    deeper first level raises ValueError, as does a spacing not in (0, inf)."""
    levels = np.reshape(level, -1)
    spacing = np.array([[rect.width], [rect.height]]) / 2.0 ** np.minimum(levels, 63)
    stop = np.argmin(np.append((levels <= 62) & np.all(
        (0.0 < spacing) & (spacing < math.inf), axis=0), False))
    if stop == 0:
        raise ValueError(
            f"level {levels[0]} exceeds the largest supported dyadic level, 62"
            if levels[0] > 62 else f"the level-{levels[0]} grid on {rect} has line spacing "
            f"{tuple(spacing[:, 0].tolist())}, which is not finite and positive")
    shape = (stop, 1) if np.ndim(level) else ()
    return [(lambda i, at=..., lo=lo, h=h: lo + i * h[at],
             lambda x, lo=lo, h=h: np.floor((x - lo) / h).astype(np.int64),
             (2 ** levels[:stop]).reshape(shape))
            for lo, h in zip((rect.a, rect.c), spacing[:, :stop].reshape(2, *shape))]


def _locate(coords, axis, thresh, shift):
    """Cell of each coordinate on one (line, raw cell, cell count) axis,
    the original and moved position of its lower line, and the moved
    position of its upper line, on the axis' leading level axis if it
    has one.

    An interior line within thresh of a coordinate moves by shift = 2
    thresh away from the nearest one (ties go to the smaller), keeping
    half-open membership far from floating-point ties, unless that could
    reorder it against its neighbours (room < 4 shift).  Computed lines
    are monotone in their index, so a line within thresh of x is a line
    of x's raw cell unless x lies more than thresh outside it (gap <
    -thresh), and a cell's width bounds the room of its lines.  So the
    rule runs only on levels where some gap <= thresh with a width of at
    least 4 shift or a gap < -thresh; elsewhere each raw cell stands with
    its lines.  It takes only lines next to occupied cells: O(K log K)
    for K coordinates, sorted once for every level.
    """
    line, raw_cell, ncells = axis
    cell = np.minimum(np.maximum(raw_cell(coords), 0), ncells - 1)
    lower, upper = line(cell), line(cell + 1)
    gap = np.minimum(coords - lower, upper - coords)
    rule = ((gap <= thresh) & ((4.0 * shift <= upper - lower) | (gap < -thresh))).any(-1)
    if not rule.any():
        return cell, lower, lower, upper
    at = np.flatnonzero(rule) if rule.ndim else ...
    # rows hold lines cell - 2 .. cell + 3: the inner four bound every
    # cell an atom can end up in, and the outer two give their room.
    # Clipping repeats the edge lines, so they get no room and never move.
    pos = line(np.minimum(np.maximum(np.add.outer(np.arange(-2, 4), cell[at]), 0),
                          np.asarray(ncells)[at]), at)
    room = np.minimum(pos[1:-1] - pos[:-2], pos[2:] - pos[1:-1])
    pos = pos[1:-1]
    near = np.concatenate(([-np.inf], np.sort(coords), [np.inf]))
    k = np.searchsorted(near, pos)
    below, above = near[k - 1], near[k]
    nearest = np.where(above - pos < pos - below, above, below)
    hit = (np.abs(nearest - pos) <= thresh) & (4.0 * shift <= room)
    moved = np.where(hit, np.where(nearest >= pos, pos - shift, pos + shift), pos)
    # only a moved line re-decides membership: the raw cell stands
    # against the lines that stay put
    rows = 1 + (hit[2] & (coords >= moved[2])) - (hit[1] & (coords < moved[1]))
    pick = lambda a, r: np.take_along_axis(a, r[None], axis=0)[0]
    out = cell, lower, lower.copy(), upper
    for o, part in zip(out, (cell[at] + rows - 1, pick(pos, rows), pick(moved, rows),
                             pick(moved, rows + 1))):
        o[at] = part
    return out


def _spectral_sum(F, sm, atoms, tags, empty_tag):
    """sum_k F(tags[k]) P_k over a grid record (atoms k, one tag lambda +
    i mu each), whose cells are the sets S of atoms with equal tags.

    With E(S) = Q_S Q_S* the whole sum is one factored product,
    [F(t_1) Q_1, F(t_2) Q_2, ...] [Q_1, Q_2, ...]*, cells in tag order
    (row-major on a grid), atoms in index order within a cell, so results
    are bit-reproducible at a fixed BLAS thread count.  Without atoms the
    result is the zero matrix of the shape of F(empty_tag), as E(empty
    set) = 0.  A scalar integrand F = f I gives sum_k f(tags[k]) P_k,
    without forming f(tag) I, and a resolvent family takes the atoms, in
    index order, in one solve (`_resolvent_sums` of one level).
    """
    if F.scalar is not None:
        return sm._weighted(_atom_values(F, sm, atoms, tags))
    if F._resolvent is not None:
        return _resolvent_sums(F, sm, atoms)(tags[None])[0]
    cells, cell_of = np.unique(tags, return_inverse=True)
    order = atoms[np.argsort(cell_of, kind="stable")]
    blocks = []
    for t, S in zip(cells.tolist() or [complex(*empty_tag)],
                    np.split(order, np.cumsum(np.bincount(cell_of))[:-1])):
        value = F(t.real, t.imag)
        _check_shape(value.shape, sm)
        blocks.append(_finite(value, t) @ sm.columns(S))
    return np.concatenate(blocks, axis=1) @ adjoint(sm.columns(order))


def _resolvent_sums(F, sm, atoms):
    """For F = D (A - z)^{-1}, the map from tags (levels x atoms) to their
    stacked sums sum_k D (A - tags[l, k])^{-1} P_k: on the kept form A^T =
    U T U*, atom k of level l has the rows Y_lk = Q_k^T U (T - tags[l, k])^{-1}
    of one `_triangular_resolvents` (which names a failing tag), and level l
    sums to D conj(U) Y_l^T Q*, a transposed left sum of A^T against C^T."""
    T, U, DU, tol = F._resolvent
    _check_shape(DU.shape, sm)
    Q = sm.columns(atoms)
    G, Q_star, m = Q.T @ U, adjoint(Q), sm.multiplicities[atoms]

    def sums(tags):
        Y = (_triangular_resolvents(T, np.tile(G, (len(tags), 1)), tags.ravel(),
                                    np.tile(m, len(tags)), tol) if len(atoms) else G)
        return DU @ np.swapaxes(Y.reshape(len(tags), len(G), len(T)), 1, 2) @ Q_star
    return sums


def _check_shape(shape, sm):
    if len(shape) != 2 or shape[1] != sm.dim:
        raise ShapeMismatchError(
            f"integrand of shape {shape} does not fit a measure on dimension "
            f"n = {sm.dim}: right integrands are (h x n), left ones (n x h)")


def _finite(value, tag):
    """value, once every entry of it is finite."""
    bad = np.asarray(value)[~np.isfinite(value)]
    if bad.size:
        raise ValueError(f"integrand value {bad[0]} at tag ({tag.real}, {tag.imag}) "
                         "is not finite")
    return value


def _atom_values(F, sm, atoms, tags):
    """f(tags[k]) on each atom k of a grid record for a scalar integrand
    F = f I, one call per cell, and 0 on the other atoms."""
    f, dim = F.scalar
    _check_shape((dim, dim), sm)
    cells, cell_of = np.unique(tags, return_inverse=True)
    values = np.array([f(t) for t in cells.tolist()], dtype=np.complex128)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        _finite(values[bad[0]], cells[bad[0]])
    v = np.zeros(len(sm), dtype=np.complex128)
    v[atoms] = values[cell_of]
    return v


def _grid_tags(sm, rect, axes, tag_rule="lower_left", custom_tags=None):
    """The record of a grid of two axes: the atoms of sm in rect, in index
    order, and the tag lambda + i mu of the cell that holds each, on the
    axes' leading level axis if they have one (one `_locate` per axis)."""
    atoms = sm.atoms_in(rect)
    z = sm.eigenvalues[atoms]
    parts = []
    for d, (x, axis) in enumerate(zip((z.real, z.imag), axes)):
        cell, lower, lower_moved, upper_moved = _locate(x, axis, sm._edge_tol,
                                                        2.0 * sm._edge_tol)
        # a lower line moved down keeps the original corner as tag (still
        # in the cell, and an atom sitting exactly on a grid line is then
        # tagged at its own coordinate); one moved up becomes the tag
        parts.append(np.maximum(lower, lower_moved) if tag_rule == "lower_left" else
                     0.5 * (lower_moved + upper_moved) if tag_rule == "center" else
                     custom_tags[d][cell])
    return atoms, np.stack(parts, axis=-1).view(np.complex128)[..., 0]


def right_sum(F, sm, p):
    """Integral sum  sum_jk F(xi_j, zeta_k) E(cell_jk).

    Cells with zero measure are skipped; occupied cells enter one
    factored product in fixed row-major order (j outer, k inner), so
    results are bit-reproducible at a fixed BLAS thread count.
    """
    lp, mp = p.lambda_points, p.mu_points
    rect = Rect(lp[0], lp[-1], mp[0], mp[-1])
    record = _grid_tags(sm, rect, _explicit_axes(p), p.tag_rule, p.custom_tags)
    return _spectral_sum(F, sm, *record, (rect.a, rect.c))


def left_sum(G, sm, p):
    """Integral sum  sum_jk E(cell_jk) G(xi_j, zeta_k), via adjoint
    duality: the adjoint of the right sum of G*."""
    G_star = OperatorFunction(lambda lam, mu: adjoint(G(lam, mu)))
    return adjoint(right_sum(G_star, sm, p))


def exact_right_integral(F, sm, rect):
    """Limit value of the right integral over rect for an atomic measure.

    Equals the sum of F(Re zeta_k, Im zeta_k) P_k over the eigenvalues
    inside the rectangle.  Raises BoundaryEigenvalueError when an
    eigenvalue sits within the measure's tol_cluster of the boundary.
    """
    near = sm.near_boundary(rect)
    if near:
        raise BoundaryEigenvalueError(
            near + "the exact integral over this rectangle is ill posed")
    atoms = sm.atoms_in(rect)
    return _spectral_sum(F, sm, atoms, sm.eigenvalues[atoms], (rect.a, rect.c))


def exact_left_integral(G, sm, rect):
    """Limit value of the left integral over rect, via adjoint duality:
    the adjoint of the exact right integral of G*."""
    G_star = OperatorFunction(lambda lam, mu: adjoint(G(lam, mu)))
    return adjoint(exact_right_integral(G_star, sm, rect))


def dyadic_level_sum(F, sm, rect, level):
    """Right sum at refinement level l, an integer of at least 1: uniform
    2^l x 2^l grid, lower-left tags, implicit, so deep levels stay cheap."""
    level = _count(level, "level", 1)
    record = _grid_tags(sm, rect, _dyadic_axes(rect, level))
    return _spectral_sum(F, sm, *record, (rect.a, rect.c))


def _level_tags(sm, rect, max_levels, block):
    """The tags of dyadic levels 1 .. max_levels, levels x atoms, in blocks
    of `block` levels.  One `_grid_tags` pass locates every level up to the
    deepest one `_dyadic_axes` accepts (at most 62, whatever max_levels
    is); a deeper level raises once the refinement reaches it."""
    tags = _grid_tags(sm, rect, _dyadic_axes(rect, np.arange(1, min(max_levels, 62) + 1)))[1]
    for start in range(0, len(tags), block):
        yield tags[start:start + block]
    if len(tags) < max_levels:
        _dyadic_axes(rect, len(tags) + 1)


def _level_sums(values, distances, blocks, batched):
    """(tags, sum, diff_prev) of each level: values(tags) stacks the sums of
    levels, distances(steps) the norms of their differences from the sum
    before (NaN for the first).  A block takes one call if batched and its
    sums raise no SingularResolventError, else one per level, lazily, so
    that only a level that is reached raises, as it would alone."""
    prev = None
    for block in blocks:
        try:
            parts = [(block, values(block))] if batched else ()
        except SingularResolventError:
            parts = ()
        for tags, V in parts or ((t[None], values(t[None])) for t in block):
            if prev is None:
                steps, diffs = V[1:] - V[:-1], [math.nan]
            else:  # a lone level is not copied
                before = prev if len(V) == 1 else np.concatenate([prev, V[:-1]])
                steps, diffs = V - before, []
            diffs += distances(steps).tolist() if len(steps) else []
            for i in range(len(V)):
                yield tags[i], V[i], diffs[i]
            prev = V[-1:]


def _refinement(F, sm, rect, tol, max_levels):
    """Each level of `integrate_right` in turn: (mesh, diff_prev), its sum as a
    zero-argument callable, and whether it stops the refinement.  One
    `_level_tags` pass locates every level it can reach.  A resolvent family
    sums up to eight levels in one call, as many as the block budget holds at
    n (h + n) entries a level; others one per call, as a level past the stop
    must not call f or F."""
    max_levels = _count(max_levels, "max_levels", 2)
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    atoms = sm.atoms_in(rect)
    dense, block = (lambda J: J), 8
    distances = lambda steps: np.linalg.svd(steps, compute_uv=False)[:, 0]
    if F._resolvent is not None:
        values, block = _resolvent_sums(F, sm, atoms), min(8, _per_block(
            sm.dim * (len(F._resolvent[2]) + sm.dim)))
    elif F.scalar is None:
        values = lambda tags: _spectral_sum(F, sm, atoms, tags[0], (rect.a, rect.c))[None]
    else:
        Q = sm.columns(atoms)
        # ||Q_S* Q_S||_2 <= 1 + ||Q_S* Q_S - I||_F, computed once per call
        gram = 1.0 + float(np.linalg.norm(adjoint(Q) @ Q - np.eye(Q.shape[1])))
        values = lambda tags: _atom_values(F, sm, atoms, tags[0])[None]
        dense, distances = sm._weighted, lambda steps: np.abs(steps).max(axis=1) * gram
    coords = sm.eigenvalues[atoms].view(float)  # (lambda, mu) of each atom
    prev_tags = moved = None
    levels = _level_sums(values, distances, _level_tags(sm, rect, max_levels, block),
                         F._resolvent is not None)
    for level, (tags, v, diff) in enumerate(levels, 1):
        mesh = (rect.width + rect.height) / 2 ** level
        # the first level has nothing to compare with: NaN fails both tests
        if diff == 0.0:
            # per axis: the real and the imaginary part of each tag
            changed = tags.view(float) != prev_tags.view(float)
            moved = changed if moved is None else (moved | changed)
            done = bool(np.all(moved | (tags.view(float) == coords)))
        else:
            moved, done = None, diff <= tol
        yield (mesh, diff), functools.partial(dense, v), done
        if done:
            return
        prev_tags = tags


def integrate_right(F, sm, rect, tol, max_levels):
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

    A scalar integrand f I (`OperatorFunction.from_scalar`) refines on
    one value v_k = f(tag) per atom, and its Cauchy difference is
    max_k |v_k - v'_k| (1 + ||Q_S* Q_S - I||_F) for the basis columns
    Q_S of the atoms in rect.  As ||Q_S D Q_S*|| <= ||Q_S* Q_S|| ||D||,
    this bounds the spectral norm of the difference from above (and
    equals it to rounding for a unitary basis), so the test never stops
    earlier than that norm would.  The n x n sum is formed only for the
    returned or partial value.  A resolvent family solves up to eight levels
    at once, and a tag that is singular for A on a level past the stop raises
    nothing.  `opint integrate` runs the same levels (`_refinement`) and
    forms each level's sum once, as it prints it.

    Returns the last sum together with the per-level report.  Raises
    NoConvergenceError (carrying the partial value and report) when
    max_levels is exhausted, which usually signals an integrand without
    the required Lipschitz regularity, and ValueError for a max_levels not
    an integer of at least 2, a tol not a finite nonnegative number, an
    integrand value not finite, or a level past 62 or of spacing not finite.
    """
    levels = []
    for level, value, done in _refinement(F, sm, rect, tol, max_levels):
        levels.append(level)
        if done:
            return value(), ConvergenceReport(levels, level[0], True)
    raise NoConvergenceError(
        f"dyadic refinement did not reach tol = {tol:.2e} within {max_levels} levels",
        value=value(), report=ConvergenceReport(levels, level[0], False))


def estimate_lipschitz(F, rect, samples_per_axis):
    """Sampled Lipschitz and mixed-difference constants of F on rect.

    Both estimates are maxima of difference quotients over a uniform
    sample grid, hence lower bounds of the true constants.
    """
    if samples_per_axis < 3:
        raise ValueError("samples_per_axis must be at least 3")
    s = samples_per_axis
    lams, mus = np.linspace(rect.a, rect.b, s), np.linspace(rect.c, rect.d, s)
    values = np.array([[F(lam, mu) for mu in mus] for lam in lams], dtype=np.complex128)

    def peak(diffs, denom):
        # one stacked spectral norm per row of pairs at a nonzero distance
        norms = np.linalg.norm(diffs[denom > 0], 2, axis=(-2, -1))
        return float(np.max(norms / denom[denom > 0], initial=0.0))

    # each sample point against every later one in row-major order
    flat = values.reshape(s * s, *values.shape[2:])
    lam_at, mu_at = np.repeat(lams, s), np.tile(mus, s)
    gamma1 = max(peak(flat[a] - flat[a + 1:], np.abs(lam_at[a] - lam_at[a + 1:])
                      + np.abs(mu_at[a] - mu_at[a + 1:])) for a in range(s * s - 1))
    # sample rows i1 < i2 against every column pair j1 < j2 (same pairs)
    j1, j2 = np.triu_indices(s, 1)
    gamma2 = max(peak(values[i1, j1] - values[i2, j1] - values[i1, j2]
                      + values[i2, j2], (lams[i2] - lams[i1]) * (mus[j2] - mus[j1]))
                 for i1, i2 in zip(j1, j2))
    return gamma1, gamma2


def lnest_bound(sup_F, gamma1, gamma2, rect):
    """Norm bound for the right integral over rect:
    4 sup||F|| + 2 gamma1 (width + height) + gamma2 width height.
    """
    for name, v in (("sup_F", sup_F), ("gamma1", gamma1), ("gamma2", gamma2)):
        if not v >= 0:
            raise ValueError(f"{name} must be nonnegative")
    return (4.0 * sup_F + 2.0 * gamma1 * (rect.width + rect.height)
            + gamma2 * rect.width * rect.height)


def czero_check(G, sm, C, rect):
    """Residual of the commutation identity for holomorphic integrands:
    the left integral of z G(z) equals C times the left integral of G.

    The caller asserts holomorphy of G on a neighbourhood of the closed
    rectangle; both sides are evaluated with exact atomic left integrals
    (through adjoint duality) and the operator norm of the difference is
    returned.  Raises ShapeMismatchError unless C is a finite
    (sm.dim x sm.dim) matrix.
    """
    C = _square(C, "C", sm.dim)
    zG = OperatorFunction(lambda lam, mu: complex(lam, mu) * G(lam, mu))
    lhs = exact_left_integral(zG, sm, rect)
    rhs = C @ exact_left_integral(G, sm, rect)
    return operator_norm(lhs - rhs)
