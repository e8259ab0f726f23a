import math
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg

from opint import (
    Rect,
    RiccatiProblem,
    ShapeMismatchError,
    SylvesterProblem,
    certify,
    operator_norm,
)
import opint.linalg as linalg
import opint.spectral as spectral
import opint.sylvester as sylvester
from opint.linalg import _rounding_slack


def random_unitary(rng, n):
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def random_normal(rng, n, re=(-1.0, 1.0), im=(-1.0, 1.0), repeat=False):
    """Random normal matrix with eigenvalues in the given box."""
    eigs = rng.uniform(*re, n) + 1j * rng.uniform(*im, n)
    if repeat and n >= 3:
        eigs[1] = eigs[0]
        eigs[2] = eigs[0]
    U = random_unitary(rng, n)
    return U @ np.diag(eigs) @ U.conj().T, eigs


def random_complex(rng, rows, cols, scale=1.0):
    M = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return scale * M / max(1.0, np.linalg.norm(M, 2))


def make_sylvester(rng, h, k, normal_a=True, re_a=(2.0, 4.0)):
    """Instance with spec(C) in [-1,1]^2 and spec(A) shifted right; the
    construction keeps the spectral gap at least 1."""
    C, _ = random_normal(rng, k)
    if normal_a:
        A, _ = random_normal(rng, h, re=re_a)
    else:
        A0, _ = random_normal(rng, h, re=re_a)
        N = np.triu(random_complex(rng, h, h), 1)
        A = A0 + 0.2 * N
    D = random_complex(rng, k, h)
    return SylvesterProblem(A, C, D)


def make_certified_riccati(rng, h, k, normal_a=True, margin=0.4):
    """Instance scaled so that sqrt(||B|| ||D||_E) <= margin * d."""
    C, _ = random_normal(rng, k)
    if normal_a:
        A, _ = random_normal(rng, h, re=(2.5, 4.0))
    else:
        A0, _ = random_normal(rng, h, re=(2.5, 4.0))
        A = A0 + 0.1 * np.triu(random_complex(rng, h, h), 1)
    B = random_complex(rng, h, k)
    D = random_complex(rng, k, h)
    prob = RiccatiProblem(A, B, C, D)
    cert = certify(prob)
    target = (margin * cert.d) ** 2
    bd = cert.norm_b * cert.enorm_d
    s = np.sqrt(target / bd)
    prob = RiccatiProblem(A, s * B, C, s * D)
    return prob


def near_normal_case(seed, h, k, log_scale, log_offset):
    """(A, C) with A = U (Lambda + 10^log_scale N) U* for N strictly upper
    triangular, and C normal with k atoms 10^log_offset away from points
    of chords [lambda_a, lambda_b] of spec(A): by its vertices, by edges
    of its convex hull, and inside it."""
    r = np.random.default_rng(seed)
    lam = r.uniform(1.0, 3.0, h) + 1j * r.uniform(-1.0, 1.0, h)
    N = np.triu(random_complex(r, h, h), 1)
    U = random_unitary(r, h)
    A = U @ (np.diag(lam) + 10.0 ** log_scale * N) @ U.conj().T
    a, b = r.integers(h, size=(2, k))
    t = np.where(r.random(k) < 0.3, 0.0, r.random(k))
    zeta = (lam[a] + t * (lam[b] - lam[a])
            + 10.0 ** log_offset * np.exp(2j * np.pi * r.random(k)))
    V = random_unitary(r, k)
    return A, V @ np.diag(zeta) @ V.conj().T


def ring_sylvester(rng, h, k):
    """SylvesterProblem with spec(C) on the unit circle and one eigenvalue
    of A near its centre, so the contour takes one circle per atom."""
    phi = 2.0 * np.pi * (np.arange(k) + rng.uniform(-0.2, 0.2, k)) / k
    U, V = random_unitary(rng, k), random_unitary(rng, h)
    lam = np.concatenate([[0.05 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))],
                          rng.uniform(2.5, 3.5, h - 1) + 1j * rng.uniform(-0.5, 0.5, h - 1)])
    return SylvesterProblem(V @ np.diag(lam) @ V.conj().T,
                            U @ np.diag(np.exp(1j * phi)) @ U.conj().T,
                            random_complex(rng, k, h))


def node_sum_lu(T_C, D_t, T_A, z, w):
    """sum_b w_b (z_b - T_C)^{-1} D_t (T_A - z_b)^{-1} by batched dense LU
    solves of the shifted factors, in the blocks of nodes `sylvester._node_sum`
    takes, unguarded: the oracle for its triangular solves."""
    k, h = D_t.shape
    step = linalg._per_block((k + h) ** 2)
    total = np.zeros_like(D_t)
    for s in range(0, len(z), step):
        zb = z[s:s + step, None, None]
        Y = np.linalg.solve(zb * np.eye(k) - T_C, np.broadcast_to(D_t, (len(zb), k, h)))
        # W (T_A - z) = Y is solved as (T_A - z)^T W^T = Y^T
        Wt = np.linalg.solve(T_A.T - zb * np.eye(h), np.swapaxes(Y, 1, 2))
        total += np.tensordot(w[s:s + step], Wt, axes=1).T
    return total


def faulty_solve(fault, name="_substitute"):
    """The solve `linalg.<name>` (`_substitute`, `_divide` or `_hessenberg_solve`) with
    its solution off by 1e-8 relative ("inexact") or with a NaN entry ("nan")."""
    real = getattr(linalg, name)

    def faulty(*args):
        Y = real(*args)
        if fault == "inexact":
            return Y * (1.0 + 1e-8)
        Y[0, 0] = np.nan
        return Y

    return faulty


def min_sigma(A, points):
    """min_k sigma_min(A - zeta_k) from dense SVDs."""
    return min(np.linalg.svd(A - z * np.eye(len(A)), compute_uv=False)[-1]
               for z in points)


def spectral_norm_guard_raises(M, z, tol_solve=1e-10):
    """Whether the spectral-norm resolvent guard rejects z: an LU solve of
    (M - z) R = I that is singular, not finite, or has
    ||(M - z) R - I|| > tol_solve max(1, ||M - z|| ||R||), three SVDs."""
    S = np.asarray(M, dtype=np.complex128) - z * np.eye(len(M))
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            R = scipy.linalg.lu_solve(scipy.linalg.lu_factor(S), np.eye(len(M)))
        except (scipy.linalg.LinAlgError, ValueError):
            return True
        if not np.all(np.isfinite(R)):
            return True
        residual = np.linalg.norm(S @ R - np.eye(len(M)), 2)
        scale = max(1.0, np.linalg.norm(S, 2) * np.linalg.norm(R, 2))
    return not residual <= tol_solve * scale


def lu_resolvent_raises(M, z, tol_solve=1e-10):
    """Whether the LU resolvent guard rejects z: M - zI that cancels to
    rounding as a whole, ||M - z||_F <= tol_solve |z|; an LU solve of
    (M - z) R = I that is singular; or a Frobenius residual that is not at
    most tol_solve times a finite ||M - z|| ||R||, largest column norms."""
    S = np.asarray(M, dtype=np.complex128) - complex(z) * np.eye(len(M), dtype=np.complex128)
    if np.linalg.norm(S) <= tol_solve * abs(z):
        return True
    with np.errstate(all="ignore"):
        try:
            R = np.linalg.solve(S, np.eye(len(M), dtype=np.complex128))
        except np.linalg.LinAlgError:
            return True
        scale = np.linalg.norm(S, axis=0).max() * np.linalg.norm(R, axis=0).max()
        residual = np.linalg.norm(S @ R - np.eye(len(M)))
    return not (np.isfinite(scale) and residual <= tol_solve * scale)


def shift_sweep(eigenvalues):
    """z = lam + 10^-p e^{i phi} for p = 1..16 and three angles."""
    for lam in eigenvalues:
        for p in range(1, 17):
            for phi in (0.0, 0.5 * np.pi, 0.75 * np.pi):
                yield lam + 10.0 ** -p * np.exp(1j * phi)


def _sweep_support(A, thetas):
    """Top eigenvalues of the Hermitian parts of exp(-it) A, one batch."""
    phase = np.exp(-1j * np.atleast_1d(thetas))[:, None, None]
    return np.linalg.eigvalsh(0.5 * (phase * A + np.conj(
        np.transpose(phase * A, (0, 2, 1)))))[:, -1]


def _sweep_grid_bounds(A, pts, n_angles):
    """Per-point maxima of Re(e^{-i theta} z) - h(theta) over a uniform
    grid, less the rounding slack, with the grid bracket around each."""
    thetas = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    g = np.real(np.exp(-1j * thetas)[:, None] * pts[None, :]) \
        - _sweep_support(A, thetas)[:, None]
    peak = thetas[g.argmax(axis=0)]
    step = 2.0 * np.pi / n_angles
    return g.max(axis=0) - _rounding_slack(A, pts), peak - step, peak + step


def _sweep_refine(A, pts, best, lo, hi, refine_iters=40):
    """Raise each bound in `best` by a ternary search on its bracket."""
    slack = _rounding_slack(A, pts)
    for _ in range(refine_iters):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        g1 = np.real(np.exp(-1j * m1) * pts) - _sweep_support(A, m1)
        g2 = np.real(np.exp(-1j * m2) * pts) - _sweep_support(A, m2)
        keep_low = g1 >= g2
        hi = np.where(keep_low, m2, hi)
        lo = np.where(keep_low, lo, m1)
        best = np.maximum(best, np.maximum(g1, g2) - slack)
    return best


def numrange_gap_sweep(A, points, n_angles=720):
    """The 720-angle sweep that `linalg.numrange_gap` replaced: a grid
    bound for every point, a 40-step ternary search for the argmin, then
    for every point whose grid bound lies below that; the reference that
    the boundary-point bounds must match."""
    A = np.asarray(A, dtype=np.complex128)
    pts = np.atleast_1d(np.asarray(points, dtype=np.complex128))
    bound, lo, hi = _sweep_grid_bounds(A, pts, n_angles)

    def refined(idx):
        return _sweep_refine(A, pts[idx], bound[idx], lo[idx], hi[idx]).min()

    first = bound.argmin()
    gap = refined([first])
    rest = np.flatnonzero(bound < gap)
    rest = rest[rest != first]
    if rest.size:
        gap = min(gap, refined(rest))
    return max(float(gap), 0.0)


def estimate_lipschitz_loop(F, rect, samples_per_axis):
    """The sampled (gamma1, gamma2) of F on rect, one SVD per pair of
    sample points: every pair for gamma1, every pair of rows and of
    columns for gamma2."""
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


# The grid cell rule one level at a time and the clustering by restarted
# scans: the oracles that `stieltjes._locate` on a block of levels and
# `spectral._cluster` must match bit for bit.

def dyadic_axes_per_level(rect, level):
    """The uniform 2^level x 2^level grid: line i at lo + i h, and a
    coordinate finds its cell by floor, so a deep level never
    materializes its lines.  Cell indices are int64, so level 62 is the
    deepest; a deeper one raises ValueError, as does a spacing not in (0, inf)."""
    if level > 62:
        raise ValueError(
            f"level {level} exceeds the largest supported dyadic level, 62")
    n = 2 ** level
    spacing = (rect.width / n, rect.height / n)
    if not all(0.0 < h < math.inf for h in spacing):
        raise ValueError(f"the level-{level} grid on {rect} has line spacing "
                         f"{spacing}, which is not finite and positive")
    return [(lambda i, lo=lo, h=h: lo + i * h,
             lambda x, lo=lo, h=h: np.floor((x - lo) / h).astype(np.int64), n)
            for lo, h in zip((rect.a, rect.c), spacing)]


def locate_per_level(coords, axis, thresh, shift):
    """Cell of each coordinate on one (line, raw cell, cell count) axis,
    the original and moved position of its lower line, and the moved
    position of its upper line.

    An interior line within thresh of a coordinate moves by shift away
    from the nearest one (ties go to the smaller), keeping half-open
    membership far from floating-point ties, unless the shift could
    reorder it against its neighbours (room < 4 shift).  Only lines next
    to occupied cells are generated: O(K log K) for K coordinates.
    """
    line, raw_cell, ncells = axis
    cell = np.minimum(np.maximum(raw_cell(coords), 0), ncells - 1)
    # rows hold lines cell - 2 .. cell + 3: the inner four bound every
    # cell an atom can end up in, and the outer two give their room.
    # Clipping repeats the edge lines, so they get no room and never move.
    pos = line(np.minimum(np.maximum(cell + np.arange(-2, 4)[:, None], 0), ncells))
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
    cols = np.arange(len(coords))
    return cell + rows - 1, pos[rows, cols], moved[rows, cols], moved[rows + 1, cols]


def grid_tags_per_level(sm, rect, axes, tag_rule="lower_left", custom_tags=None):
    """The record of a grid of two axes: the atoms of sm in rect, in index
    order, and the tag lambda + i mu of the cell that holds each."""
    atoms = sm.atoms_in(rect)
    tags = sm.eigenvalues[atoms]  # a copy: each axis of it becomes the tags
    for d, (x, axis) in enumerate(zip((tags.real, tags.imag), axes)):
        cell, lower, lower_moved, upper_moved = locate_per_level(x, axis, sm._edge_tol,
                                                                 2.0 * sm._edge_tol)
        # a lower line moved down keeps the original corner as tag (still
        # in the cell, and an atom sitting exactly on a grid line is then
        # tagged at its own coordinate); one moved up becomes the tag
        x[:] = (np.maximum(lower, lower_moved) if tag_rule == "lower_left" else
                0.5 * (lower_moved + upper_moved) if tag_rule == "center" else
                custom_tags[d][cell])
    return atoms, tags


def cluster_restart_loop(values, threshold):
    """Group values by centroid linkage with the given merge threshold.

    Merges the first pair of cluster representatives (the means of their
    members) within the threshold and starts over, until all are further
    apart, so repeated eigenvalues coming out of a floating-point
    eigensolver collapse into one atom.  A chain is not merged end to
    end: [1, 1 + 0.8t, 1 + 1.6t] gives two clusters.
    """
    groups = [[i] for i in range(len(values))]
    reps = list(values)
    merged = True
    while merged and len(groups) > 1:
        merged = False
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                if abs(reps[i] - reps[j]) <= threshold:
                    groups[i] = groups[i] + groups[j]
                    reps[i] = np.mean([values[m] for m in groups[i]])
                    del groups[j], reps[j]
                    merged = True
                    break
            if merged:
                break
    return groups, np.asarray(reps, dtype=np.complex128)


def grid_cells_dict(sm, rect, axes, tag_rule="lower_left", custom_tags=None):
    """Occupied cells (tag_lambda, tag_mu, atoms) of the atoms of sm in
    rect on a grid of two axes, the way the cells were once built: one
    dict entry per (j, k) cell, filled atom by atom, then row-major, with
    atoms in index order within a cell."""
    thresh = sm.tolerances.tol_cluster * max(1.0, sm.spectral_radius)
    atoms = sm.atoms_in(rect)
    coords = (sm.eigenvalues[atoms].real, sm.eigenvalues[atoms].imag)
    cells, tags = [], []
    for d, (x, axis) in enumerate(zip(coords, axes)):
        cell, lower, lower_moved, upper_moved = locate_per_level(x, axis, thresh,
                                                                 2.0 * thresh)
        if tag_rule == "lower_left":
            tag = np.maximum(lower, lower_moved)
        elif tag_rule == "center":
            tag = 0.5 * (lower_moved + upper_moved)
        else:
            tag = custom_tags[d][cell]
        cells.append(cell.tolist())
        tags.append(tag.tolist())
    groups = {}
    for atom, j, k, xi, zeta in zip(atoms.tolist(), *cells, *tags):
        groups.setdefault((j, k), (xi, zeta, []))[2].append(atom)
    return [groups[key] for key in sorted(groups)]


def record_cells(atoms, tags):
    """A grid record grouped into cells (tag_lambda, tag_mu, atoms S) by a
    dict: the atoms with equal tags, cells in tag order, atoms in index
    order within a cell."""
    groups = {}
    for atom, tag in zip(np.asarray(atoms).tolist(), np.asarray(tags).tolist()):
        groups.setdefault((tag.real, tag.imag), []).append(atom)
    return [(*key, sorted(groups[key])) for key in sorted(groups)]


def spectral_sum_loop(F, sm, atoms, tags, empty_tag):
    """sum_k F(tags[k]) P_k over a grid record, by `cell_sum_loop` over
    its `record_cells`."""
    return cell_sum_loop(F, sm, record_cells(atoms, tags), empty_tag)


def cell_sum_loop(F, sm, cells, empty_tag):
    """sum F(tag) E(S) over cells (tag_lambda, tag_mu, atoms S), one
    n x n term (F Q_S) Q_S* added per cell in the order given; the zero
    matrix of the shape of F(empty_tag) without cells."""
    out = None
    for lam, mu, atoms in cells or [(*empty_tag, [])]:
        value = F(lam, mu)
        if value.ndim != 2 or value.shape[1] != sm.dim:
            raise ShapeMismatchError(
                f"integrand of shape {value.shape} does not fit a measure on dimension "
                f"n = {sm.dim}: right integrands are (h x n), left ones (n x h)")
        Q = sm.columns(atoms)
        term = (value @ Q) @ Q.conj().T
        out = term if out is None else out + term
    return out


def projections(sm):
    """Dense (K, dim, dim) tensor of the projections P_k = Q_k Q_k* of sm."""
    return np.stack([Q @ Q.conj().T for Q in (sm.columns([k]) for k in range(len(sm)))])


def bounding_rect(sm, pad=1.0):
    """A rectangle clearing every eigenvalue of sm by pad * max(1, radius)."""
    lam, mu = sm.eigenvalues.real, sm.eigenvalues.imag
    pad = pad * max(1.0, sm.spectral_radius)
    return Rect(float(lam.min() - pad), float(lam.max() + pad),
                float(mu.min() - pad), float(mu.max() + pad))


def count_calls(monkeypatch, fn, modules=None):
    """Wrap fn under every name that holds it in the given modules (every
    loaded opint module by default); the returned list gets the first
    argument of each call."""
    if modules is None:
        modules = [m for key, m in list(sys.modules.items()) if m is not None
                   and (key == "opint" or key.startswith("opint."))]
    seen = []

    def wrapper(*args, **kwargs):
        seen.append(args[0])
        return fn(*args, **kwargs)

    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, attr, wrapper)
    return seen


def count_decompositions(monkeypatch):
    """(schurs, forms): the matrices given to scipy.linalg.schur, save the
    calls a normal form makes inside itself (its fallback for coupled
    rows), and those given to _normal_form, patched in spectral and in
    sylvester, which imports it."""
    schurs, forms, inside = [], [], []
    schur, form = scipy.linalg.schur, spectral._normal_form

    def counted_schur(M, *args, **kwargs):
        if not inside:
            schurs.append(M)
        return schur(M, *args, **kwargs)

    def counted_form(M, *args):
        forms.append(M)
        inside.append(M)
        try:
            return form(M, *args)
        finally:
            inside.pop()

    monkeypatch.setattr(scipy.linalg, "schur", counted_schur)
    for module in (spectral, sylvester):
        monkeypatch.setattr(module, "_normal_form", counted_form)
    return schurs, forms


@pytest.fixture
def rng():
    return np.random.default_rng(20250809)
