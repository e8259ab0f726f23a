import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.spatial
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from opint import (
    SingularResolventError,
    Tolerances,
    adjoint,
    hs_norm,
    operator_norm,
    resolvent,
)
import opint.linalg as linalg
from opint.linalg import numrange_distances, numrange_gap

from conftest import (numrange_gap_sweep, random_complex, random_normal,
                      shift_sweep, spectral_norm_guard_raises)


class TestNorms:
    def test_operator_norm_diagonal(self):
        assert operator_norm(np.diag([3.0, -4.0j])) == pytest.approx(4.0)

    def test_operator_norm_zero(self):
        assert operator_norm(np.zeros((2, 2))) == 0.0

    def test_operator_norm_nilpotent(self):
        # oracle: sqrt of the top eigenvalue of M*M
        M = np.array([[0.0, 2.0], [0.0, 0.0]])
        oracle = np.sqrt(np.linalg.eigvalsh(M.conj().T @ M).max())
        assert operator_norm(M) == pytest.approx(oracle) == pytest.approx(2.0)

    def test_hs_norm_345(self):
        assert hs_norm(np.diag([3.0, 4.0])) == pytest.approx(5.0)

    def test_hs_norm_identity(self):
        for n in (1, 2, 7):
            assert hs_norm(np.eye(n)) == pytest.approx(np.sqrt(n))

    def test_hs_norm_ones(self):
        assert hs_norm(np.ones((2, 2))) == pytest.approx(2.0)

    def test_norm_sandwich(self, rng):
        for _ in range(20):
            rows, cols = rng.integers(1, 8, size=2)
            M = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            op, hs = operator_norm(M), hs_norm(M)
            assert op <= hs * (1 + 1e-12)
            assert hs <= np.sqrt(min(rows, cols)) * op * (1 + 1e-12)


class TestAdjoint:
    def test_scalar_i(self):
        assert_allclose(adjoint([[1j]]), [[-1j]])

    def test_real_symmetric_fixed(self):
        M = np.array([[1.0, 2.0], [2.0, 5.0]])
        assert_allclose(adjoint(M), M)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_involution(self, n, seed):
        r = np.random.default_rng(seed)
        M = r.standard_normal((n, n)) + 1j * r.standard_normal((n, n))
        assert_allclose(adjoint(adjoint(M)), M)


class TestResolvent:
    def test_scalar(self):
        assert_allclose(resolvent([[2.0]], 0.0), [[0.5]])

    def test_diagonal(self):
        assert_allclose(resolvent(np.diag([1.0, 2.0]), 3.0),
                        np.diag([-0.5, -1.0]), atol=1e-14)

    def test_jordan_block(self):
        R = resolvent(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)
        assert_allclose(R, [[-1.0, -1.0], [0.0, -1.0]], atol=1e-14)

    def test_singular_raises(self):
        with pytest.raises(SingularResolventError):
            resolvent(np.diag([1.0, 2.0]), 1.0)

    def test_resolvent_identity(self, rng):
        for _ in range(10):
            M, _ = random_normal(rng, 5)
            z, w = 3.0 + 0.5j, 2.5 - 1.0j
            lhs = resolvent(M, z) - resolvent(M, w)
            rhs = (z - w) * resolvent(M, z) @ resolvent(M, w)
            assert operator_norm(lhs - rhs) <= 1e-10


    def test_errors_name_the_shift(self, rng, monkeypatch):
        with pytest.raises(SingularResolventError,
                           match=r"exactly singular at z = \(0\.25\+0j\)"):
            resolvent(np.diag([0.25, 0.75]), 0.25)
        real = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda S, B: real(S, B) * (1.0 + 1e-8))
        with pytest.raises(SingularResolventError,
                           match=r"the solve at z = 0\.5j lost all accuracy"):
            resolvent(np.triu(random_complex(rng, 5, 5)) + 3.0 * np.eye(5), 0.5j)

    def test_guard_takes_no_svd(self, rng, monkeypatch):
        def no_svd(M):
            raise AssertionError("operator_norm called")
        monkeypatch.setattr(linalg, "operator_norm", no_svd)
        M = np.triu(random_complex(rng, 5, 5)) + 3.0 * np.eye(5)
        R = resolvent(M, 0.5j)
        assert_allclose((M - 0.5j * np.eye(5)) @ R, np.eye(5), atol=1e-12)

    def test_guard_rejects_an_inexact_solve(self, rng, monkeypatch):
        # the solve that linalg._guarded_solve checks, off by 1e-8 relative
        M = np.triu(random_complex(rng, 5, 5)) + 3.0 * np.eye(5)
        real = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda S, B: real(S, B) * (1.0 + 1e-8))
        with pytest.raises(SingularResolventError, match="lost all accuracy"):
            resolvent(M, 0.5j)

    def test_matches_an_lu_oracle(self, rng):
        for n in range(1, 41):
            for M in (random_complex(rng, n, n), random_normal(rng, n)[0],
                      np.triu(random_complex(rng, n, n))):
                z = complex(*rng.standard_normal(2))
                S = M - z * np.eye(n)
                ref = scipy.linalg.lu_solve(scipy.linalg.lu_factor(S), np.eye(n))
                R = resolvent(M, z)
                assert np.linalg.norm(R - ref) <= 1e-13 * np.linalg.norm(ref), (n, z)

    def test_guard_sweep_at_least_as_strict_as_spectral_norms(self, rng):
        A0, _ = random_normal(rng, 4)
        jordan = 2.0 * np.eye(4) + np.diag(np.ones(3), 1)
        matrices = [np.diag([3.0, 2.0 + 1.0j, 1e3, -1e-3j]), jordan,
                    A0 + 0.5 * np.triu(random_complex(rng, 4, 4), 1),
                    1e4 * A0]
        swept = hits = 0
        for M in matrices:
            for z in shift_sweep(np.linalg.eigvals(M)):
                old_raises = spectral_norm_guard_raises(M, z)
                try:
                    resolvent(M, z)
                    new_raises = False
                except SingularResolventError:
                    new_raises = True
                assert new_raises or not old_raises, (M, z)
                swept += 1
                hits += old_raises
        assert swept == 4 * 4 * 16 * 3
        assert hits > 0  # the exact hits at p = 16 make the sweep bite


def old_resolvent_guard_raises(M, z, tol_solve=1e-10):
    """Whether the LU resolvent guard without the cancellation rule
    rejects z: a singular or non-finite solve, or a residual above
    tol_solve max(1, |M - z| |R|), largest column norms."""
    S = np.asarray(M, dtype=np.complex128) - z * np.eye(len(M))
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            R = scipy.linalg.lu_solve(scipy.linalg.lu_factor(S), np.eye(len(M)))
        except (scipy.linalg.LinAlgError, ValueError):
            return True
        if not np.all(np.isfinite(R)):
            return True
        residual = np.linalg.norm(S @ R - np.eye(len(M)))
        scale = max(1.0, np.linalg.norm(S, axis=0).max()
                    * np.linalg.norm(R, axis=0).max())
    return residual > tol_solve * scale


class TestResolventCancellation:
    Z = 0.5 + 0.25j
    CANCELLING = Z * np.eye(4) + 1e-15 * np.triu(np.ones((4, 4)))

    def test_cancelling_shift_raises(self):
        # the residual guard alone returned ||R|| = 1.9e15 here
        assert not old_resolvent_guard_raises(self.CANCELLING, self.Z)
        with pytest.raises(SingularResolventError, match="cancels"):
            resolvent(self.CANCELLING, self.Z)

    def test_sweep_rejects_all_the_old_guard_did_and_only_singular_shifts(self, rng):
        # no shift passes that the old guard rejected, and a shift rejected
        # beyond it fails sigma_min > tol_solve (sigma_max + |z|) as well
        A0, _ = random_normal(rng, 4)
        matrices = [np.diag([3.0, 2.0 + 1.0j, 1e3, -1e-3j]),
                    2.0 * np.eye(4) + np.diag(np.ones(3), 1),
                    A0 + 0.5 * np.triu(random_complex(rng, 4, 4), 1),
                    self.CANCELLING, 1e4 * self.CANCELLING]
        hits = extra = 0
        for M in matrices:
            for z in list(shift_sweep(np.linalg.eigvals(M))) + [self.Z, 1e4 * self.Z]:
                old = old_resolvent_guard_raises(M, z)
                try:
                    resolvent(M, z)
                    new = False
                except SingularResolventError:
                    new = True
                assert new or not old, (M, z)
                if new and not old:
                    sigma = np.linalg.svd(M - z * np.eye(4), compute_uv=False)
                    assert not sigma[-1] > 1e-10 * (sigma[0] + abs(z)), (M, z)
                    extra += 1
                hits += old
        assert hits > 0 and extra > 0


class TestTriangularGuard:
    """`_triangular_resolvents` forms its residual on T - s, so it refuses
    only shifts that fail sigma_min > tol_solve (sigma_max + |z|), even
    where |z| >> ||T - z||."""

    def test_refuses_only_singular_shifts(self, rng):
        A0, _ = random_normal(rng, 4)
        z = 0.5 + 0.25j
        matrices = [np.diag([3.0, 2.0 + 1.0j, 1e3, -1e-3j]),
                    2.0 * np.eye(4) + np.diag(np.ones(3), 1),
                    A0 + 0.5 * np.triu(random_complex(rng, 4, 4), 1), 1e4 * A0,
                    TestResolventCancellation.CANCELLING]
        # 1 x 1 cases with a - z = z rho e^{i phi}, refused before
        matrices += [np.array([[z * (1.0 + rho * np.exp(1j * phi))]])
                     for rho in (1e-6, 1e-7) for phi in np.linspace(0.0, 6.0, 12)]
        refused = 0
        for M in matrices:
            T, _ = scipy.linalg.schur(M, output="complex")
            n = len(M)
            for shift in list(shift_sweep(np.diag(T))) + [z]:
                try:
                    linalg._triangular_resolvents(T, np.eye(n), np.array([shift]),
                                                  np.array([n]), Tolerances())
                except SingularResolventError:
                    sigma = np.linalg.svd(M - shift * np.eye(n), compute_uv=False)
                    assert not sigma[-1] > 1e-10 * (sigma[0] + abs(shift)), (M, shift)
                    refused += 1
        assert refused > 0


class TestHull:
    @pytest.mark.parametrize("points, hull", [
        ([1.0 + 1j], [1.0 + 1j]),
        ([2.0, 2.0, 2.0], [2.0]),
        ([1j, 0.0, 1j], [0.0, 1j]),
        ([0.0, 2.0, 1.0, 0.5], [0.0, 2.0]),  # collinear
        ([1.0 + 1j, 2.0 + 2j, 3.0 + 3j, 2.0 + 2j], [1.0 + 1j, 3.0 + 3j]),
        ([0.0, 1.0, 2.0, 1j, 1.0 + 1j, 0.5 + 0.5j], [0.0, 2.0, 1.0 + 1j, 1j]),
    ])
    def test_vertices(self, points, hull):
        assert_allclose(linalg._hull(np.array(points, dtype=complex)), hull)

    def test_matches_qhull(self, rng):
        for n in (3, 5, 20, 60):
            pts = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            hull = linalg._hull(pts)
            ref = scipy.spatial.ConvexHull(np.column_stack([pts.real, pts.imag]))
            assert sorted(hull.tolist(), key=lambda z: (z.real, z.imag)) == sorted(
                pts[ref.vertices].tolist(), key=lambda z: (z.real, z.imag))
            # counterclockwise: every point lies on or left of every edge
            edge = np.roll(hull, -1) - hull
            assert np.all((edge.conj() * (pts[:, None] - hull)).imag >= -1e-12)


def support(A, theta):
    """h(theta), the support function of W(A), from `linalg._support_values`."""
    return float(linalg._support_values(np.asarray(A, dtype=complex), [theta])[0][0])


class TestNumericalRange:
    def test_support_segment(self):
        A = np.diag([0.0, 1.0])
        assert support(A, 0.0) == pytest.approx(1.0)
        assert support(A, np.pi) == pytest.approx(0.0, abs=1e-14)

    def test_support_nilpotent_constant(self):
        A = np.array([[0.0, 2.0], [0.0, 0.0]])
        for theta in (0.0, 0.7, np.pi / 2, 3.0):
            assert support(A, theta) == pytest.approx(1.0)

    def test_support_normal_matches_eigenvalues(self, rng):
        A, eigs = random_normal(rng, 6)
        for theta in rng.uniform(0, 2 * np.pi, 8):
            expected = np.real(np.exp(-1j * theta) * eigs).max()
            assert support(A, theta) == pytest.approx(expected, abs=1e-12)

    def test_distance_to_segment(self):
        A = np.diag([0.0, 1.0])
        d = numrange_gap(A, [1j], n_angles=720)
        assert d >= 1.0 - 1e-3
        assert d <= 1.0 + 1e-12

    def test_point_inside(self):
        assert numrange_gap(np.diag([0.0, 1.0]), [0.5]) == 0.0

    def test_distance_to_disk(self):
        A = np.array([[0.0, 2.0], [0.0, 0.0]])
        assert numrange_gap(A, [3.0]) == pytest.approx(2.0, abs=1e-9)

    def test_monotone_in_angles_and_conservative(self, rng):
        # sampling lower bounds can only improve under grid doubling
        for _ in range(5):
            A, eigs = random_normal(rng, 4)
            z = 3.0 + 1.5j
            values = [numrange_gap(A, [z], n_angles=n) for n in (8, 16, 64, 256)]
            for lo, hi in zip(values, values[1:]):
                assert hi >= lo - 1e-9
            assert values[-1] <= np.abs(z - eigs).min() + 1e-12

    def test_batched_matches_single(self, rng):
        A, _ = random_normal(rng, 5)
        pts = np.array([2.0 + 2.0j, -3.0, 0.1j])
        batch = numrange_distances(A, pts, n_angles=360)
        singles = [numrange_gap(A, [z], n_angles=360) for z in pts]
        assert_allclose(batch, singles, atol=1e-12)

    def test_min_angles_enforced(self):
        with pytest.raises(ValueError):
            numrange_gap(np.eye(2), [3.0], n_angles=4)


def _gap_cases(rng):
    """(A, points) pairs: normal, non-normal and 1x1 A; repeated points;
    points inside W(A) as well as outside it."""
    for n in (1, 2, 4, 7):
        for nonnormal in (0.0, 0.5, 2.0):
            A, eigs = random_normal(rng, n)
            if n > 1:
                A = A + nonnormal * np.triu(random_complex(rng, n, n), 1)
            far = rng.uniform(-4, 4, 5) + 1j * rng.uniform(-4, 4, 5)
            yield A, far
            yield A, np.concatenate([far, far[[0, 2]]])
            yield A, np.concatenate([eigs[:1], far])


def _hull_distance(eigs, z):
    """Distance from z to the convex hull of eigs (at least three points
    in general position), from the hull's edges."""
    xy = np.column_stack([eigs.real, eigs.imag])
    hull = scipy.spatial.ConvexHull(xy)
    p = np.array([z.real, z.imag])
    if np.all(hull.equations[:, :2] @ p + hull.equations[:, 2] <= 0.0):
        return 0.0
    best = np.inf
    for i, j in hull.simplices:
        a, b = xy[i], xy[j]
        t = np.clip((p - a) @ (b - a) / ((b - a) @ (b - a)), 0.0, 1.0)
        best = min(best, np.linalg.norm(p - a - t * (b - a)))
    return best


class TestNumrangeGap:
    @pytest.mark.parametrize("n_angles", [8, 16, 720])
    def test_equals_min_of_distances(self, rng, n_angles):
        for A, pts in _gap_cases(rng):
            gap = numrange_gap(A, pts, n_angles=n_angles)
            ref = numrange_distances(A, pts, n_angles=n_angles).min()
            # an eigenvalue of a 1x1 A is W(A) itself: both sides give 0
            assert gap == pytest.approx(ref, rel=1e-13, abs=1e-15)

    def test_refines_past_a_misleading_grid_bound(self):
        # W(0) = {0}; on the 8-angle grid 1.05 e^{i pi/8} has the bound
        # 1.05 cos(pi/8) = 0.97, below the bound 1.0 of the point 1, yet
        # its distance is 1.05
        pts = [1.05 * np.exp(1j * np.pi / 8), 1.0]
        gap = numrange_gap([[0.0]], pts, n_angles=8)
        assert gap == pytest.approx(1.0, rel=1e-13)
        assert gap == numrange_distances([[0.0]], pts, n_angles=8).min()

    def test_points_inside_give_zero(self, rng):
        A, eigs = random_normal(rng, 5)
        A = A + 0.5 * np.triu(random_complex(rng, 5, 5), 1)
        x = random_complex(rng, 5, 1)
        x = x / np.linalg.norm(x)
        inside = [eigs[0], complex((x.conj().T @ A @ x)[0, 0])]
        assert numrange_gap(A, inside) == 0.0
        assert numrange_gap([[2.0 + 1j]], [2.0 + 1j]) == 0.0

    def test_min_angles_enforced(self):
        with pytest.raises(ValueError):
            numrange_gap(np.eye(2), [3.0, 4.0], n_angles=7)

    @pytest.mark.parametrize("n_angles", [8, 720])
    def test_rounding_cannot_lift_a_zero_distance(self, rng, n_angles):
        # W([[a]]) = {a}: without the rounding slack the support bound
        # read 1e-16 to 3e-16 here for almost every a
        mags = 10.0 ** rng.uniform(-3.0, 3.0, 1000)
        points = mags * np.exp(2j * np.pi * rng.random(1000))
        for a in points:
            assert numrange_gap([[a]], [a], n_angles=n_angles) == 0.0
        assert numrange_distances(np.diag(points[:50]), points[:50]).max() == 0.0

    def test_refines_only_the_argmin(self, rng, monkeypatch):
        A, _ = random_normal(rng, 5)
        pts = [3.0, -6.0 + 2.0j, 9.0j, 5.0 - 5.0j]
        sizes = []
        real = linalg._support_values
        monkeypatch.setattr(linalg, "_support_values",
                            lambda A, t: sizes.append(np.size(t)) or real(A, t))
        numrange_gap(A, pts)
        # one coarse grid, then at most 8 single-angle steps of one point
        assert sizes[0] == linalg._COARSE_ANGLES
        assert 1 <= len(sizes) - 1 <= 8 and set(sizes[1:]) == {1}

    def test_near_ties_refine_in_one_batch(self, monkeypatch):
        # points on the unit circle around W(0) = {0}: every grid bound is
        # within 1e-5 of the distance 1, so all but the first point are
        # refined, together, after it
        pts = np.exp(1j * (0.1 + 0.5 * np.arange(12)))
        sizes = []
        real = linalg._support_values
        monkeypatch.setattr(linalg, "_support_values",
                            lambda A, t: sizes.append(np.size(t)) or real(A, t))
        gap = numrange_gap([[0.0]], pts)
        # one coarse grid, then at most 8 single-angle steps per point
        assert sizes[0] == linalg._COARSE_ANGLES
        assert 1 <= len(sizes) - 1 <= 8 and max(sizes[1:]) <= len(pts)
        monkeypatch.setattr(linalg, "_support_values", real)
        assert gap == pytest.approx(
            numrange_distances([[0.0]], pts).min(), rel=1e-13)

    def test_never_exceeds_rayleigh_quotient_distances(self, rng):
        # every x*Ax with |x| = 1 lies in W(A), so no lower bound on the
        # distance from W(A) may exceed its distance to a point (beyond
        # rounding in x*Ax)
        for n in (2, 5, 9):
            for nonnormal in (0.0, 1.0, 4.0):
                A, eigs = random_normal(rng, n)
                A = A + nonnormal * np.triu(random_complex(rng, n, n), 1)
                pts = 1.5 * eigs + rng.uniform(-2, 2, n)
                X = rng.standard_normal((n, 200)) + 1j * rng.standard_normal((n, 200))
                X /= np.linalg.norm(X, axis=0)
                rq = np.einsum("ij,ik,kj->j", X.conj(), A, X)
                oracle = np.abs(pts[:, None] - rq[None, :]).min()
                assert numrange_gap(A, pts) <= oracle + 1e-13

    def test_normal_matches_hull_distance(self, rng):
        for n in (3, 6, 12):
            for _ in range(5):
                A, eigs = random_normal(rng, n)
                pts = rng.uniform(-3, 3, 4) + 1j * rng.uniform(-3, 3, 4)
                exact = min(_hull_distance(eigs, z) for z in pts)
                gap = numrange_gap(A, pts)
                assert gap <= exact + 1e-13
                assert gap >= exact - 1e-9


# W(KINK_A) is the hull of the segment [0, 2] and the disc of radius 1/2
# about 1 + 3i, turned by 0.3 rad.  The nearest points of W to KINK_POINTS
# lie inside the segment, a flat edge, where the top eigenvalue is double
# and g has a kink at its maximum.  The distances are 1, 0.5 and 2;
# KINK_SWEEP holds the 720-angle sweep's values (`numrange_gap_sweep`).
KINK_A = np.exp(0.3j) * scipy.linalg.block_diag(
    np.diag([0.0, 2.0]), np.array([[1.0 + 3.0j, 1.0], [0.0, 1.0 + 3.0j]]))
KINK_POINTS = np.exp(0.3j) * np.array([1.0 - 1.0j, 0.7 - 0.5j, 1.3 - 2.0j])
KINK_SWEEP = np.array([0.99999999999506, 0.49999999998628, 1.99999999996557])


class TestNumrangeBounds:
    def _bounds(self, A, pts):
        return linalg._numrange_bounds(np.asarray(A, dtype=complex), pts,
                                       linalg._COARSE_ANGLES,
                                       linalg._REFINE_ITERS, gap=False)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12),
           st.sampled_from([0.0, 0.1, 1.0, 4.0]))
    def test_matches_the_sweep_and_brackets_the_distance(self, seed, h, nonnormal):
        r = np.random.default_rng(seed)
        A, eigs = random_normal(r, h)
        A = A + nonnormal * np.triu(random_complex(r, h, h), 1)
        X = r.standard_normal((h, 200)) + 1j * r.standard_normal((h, 200))
        X /= np.linalg.norm(X, axis=0)
        rq = np.einsum("ij,ik,kj->j", X.conj(), A, X)  # points of W(A)
        # points around W(A), most outside it, and two inside it
        box = 3.0 * np.linalg.norm(A, 2)
        pts = np.concatenate([np.trace(A) / h + box * (
            r.uniform(-1, 1, 6) + 1j * r.uniform(-1, 1, 6)), rq[:2]])
        lower, upper = self._bounds(A, pts)
        sweep = np.array([numrange_gap_sweep(A, [z]) for z in pts])
        assert np.all(lower >= sweep - 1e-12 * sweep)
        assert numrange_gap(A, pts) >= numrange_gap_sweep(A, pts) * (1.0 - 1e-12)
        assert np.all(lower <= np.abs(pts[:, None] - rq).min(axis=1) + 1e-13)
        assert np.all(upper >= lower)
        if nonnormal == 0.0 and h >= 3:
            exact = np.array([_hull_distance(eigs, z) for z in pts])
            assert np.all(lower <= exact + 1e-13)
            assert np.all(upper >= exact - 1e-13)

    def test_kink_on_a_tilted_flat_edge(self, monkeypatch):
        sizes = []
        real = linalg._support_values
        monkeypatch.setattr(linalg, "_support_values",
                            lambda A, t: sizes.append(np.size(t)) or real(A, t))
        lower, upper = self._bounds(KINK_A, KINK_POINTS)
        assert np.all(lower >= KINK_SWEEP * (1.0 - 1e-12))
        assert np.all(upper - lower <= 1e-10 * upper)
        # the tangents at the bracket's ends find the kink in a few steps
        assert sizes[0] == linalg._COARSE_ANGLES and len(sizes) - 1 <= 8
        monkeypatch.setattr(linalg, "_support_values", real)
        assert np.array_equal(numrange_distances(KINK_A, KINK_POINTS), lower)
        for z, ref in zip(KINK_POINTS, KINK_SWEEP):
            assert numrange_gap_sweep(KINK_A, [z]) == pytest.approx(ref, abs=1e-14)
            assert numrange_gap(KINK_A, [z]) >= ref * (1.0 - 1e-12)

    def test_flat_edge_from_a_vertex_to_a_disc(self):
        # W is the hull of 3 and the unit disc; its upper edge runs from 3 to
        # the tangent point e^{i phi}, which only the steps reach, so U must
        # come from the polygon's edges, not from the boundary points alone
        A = scipy.linalg.block_diag([[3.0]], [[0.0, 2.0], [0.0, 0.0]])
        tangent = np.exp(1j * np.arccos(1.0 / 3.0))
        normal = -1j * (tangent - 3.0) / abs(tangent - 3.0)  # outward
        s, d = np.meshgrid([0.1, 0.5, 0.9], [0.01, 0.5, 2.0])
        pts = (3.0 + s * (tangent - 3.0) + d * normal).ravel()
        lower, upper = self._bounds(A, pts)
        assert np.all(lower <= d.ravel())
        assert np.all(lower >= d.ravel() * (1.0 - 1e-10))
        assert np.all(upper - lower <= 1e-10 * upper)

    def test_flat_range_brackets_the_far_side(self, monkeypatch):
        # the draw seed = 283, h = 2, nonnormal = 0 of the test above: W(A)
        # is a segment and g has two local maxima, +d at the outward normal
        # from the nearest point and -d opposite; the grid picks -d, and
        # the bracket alone ended 40 steps at L = 0, U = d
        r = np.random.default_rng(283)
        A, _ = random_normal(r, 2)
        random_complex(r, 2, 2), r.standard_normal((2, 400))
        box = 3.0 * np.linalg.norm(A, 2)
        z = (np.trace(A) / 2 + box * (r.uniform(-1, 1, 6)
                                      + 1j * r.uniform(-1, 1, 6)))[1:2]
        sizes = []
        real = linalg._support_values
        monkeypatch.setattr(linalg, "_support_values",
                            lambda A, t: sizes.append(np.size(t)) or real(A, t))
        lower, upper = self._bounds(A, z)
        assert len(sizes) - 1 <= 2
        sweep = numrange_gap_sweep(A, z)
        assert sweep == pytest.approx(0.00678, abs=1e-5)
        assert lower[0] >= sweep * (1.0 - 1e-12)
        assert upper[0] - lower[0] <= 1e-12 * upper[0]
        assert numrange_gap(A, z) == lower[0]

    def test_point_of_w_inside_a_polygon_with_repeated_vertices(self, monkeypatch):
        # a normal A whose grid finds each vertex of W(A) several times,
        # one rounding apart: the polygon's inside test read the direction
        # of those rounding-length edges, and a Rayleigh quotient of A,
        # inside the grid's polygon, took 26 steps to reach U = 0
        r = np.random.default_rng(3003)
        A, _ = random_normal(r, 3)
        random_complex(r, 3, 3)
        X = r.standard_normal((3, 200)) + 1j * r.standard_normal((3, 200))
        x = X[:, 0] / np.linalg.norm(X[:, 0])
        z = np.array([x.conj() @ A @ x])
        sizes = []
        real = linalg._support_values
        monkeypatch.setattr(linalg, "_support_values",
                            lambda A, t: sizes.append(np.size(t)) or real(A, t))
        lower, upper = self._bounds(A, z)
        assert lower[0] == upper[0] == 0.0
        assert sizes == [linalg._COARSE_ANGLES]

    def test_few_steps_on_non_normal_a(self, rng, monkeypatch):
        # points outside W(A), and points of W(A) just inside its boundary,
        # between the grid's boundary points: Newton with the coupling term
        # of g'' takes at most 5 steps here and the point inside stops once
        # the polygon holds it; without either, up to 19 and 40 steps
        sizes = []
        real = linalg._support_values
        monkeypatch.setattr(linalg, "_support_values",
                            lambda A, t: sizes.append(np.size(t)) or real(A, t))
        for h in (3, 6, 9, 12):
            for depth in (1e-4, 1e-9):
                A, _ = random_normal(rng, h)
                A = A + np.triu(random_complex(rng, h, h), 1)
                theta = rng.uniform(0.0, 2.0 * np.pi)
                inner = real(A, [theta])[1] - depth * np.exp(1j * theta)
                pts = np.concatenate([inner, np.trace(A) / h + 3.0 * np.linalg.norm(
                    A, 2) * np.exp(2j * np.pi * rng.random(5))])
                sizes.clear()
                lower, upper = self._bounds(A, pts)
                assert sizes[0] == linalg._COARSE_ANGLES and len(sizes) - 1 <= 8
                assert lower[0] == upper[0] == 0.0


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(tol_normal=0.0)
    with pytest.raises(ValueError):
        Tolerances(tol_cluster=1.5)
    t = Tolerances()
    assert t.tol_normal == 1e-10
    assert t.tol_cluster == 1e-8
    assert t.tol_solve == 1e-10
    assert t.tol_quad == 1e-12
