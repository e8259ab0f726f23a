import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.spatial
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from opint import (
    ShapeMismatchError,
    SingularResolventError,
    Tolerances,
    adjoint,
    hs_norm,
    operator_norm,
    resolvent,
)
import opint.linalg as linalg
from opint.linalg import numrange_distances, numrange_gap

from conftest import (count_calls, faulty_solve, lu_resolvent_raises, numrange_gap_sweep,
                      random_complex, random_normal, random_unitary, shift_sweep,
                      spectral_norm_guard_raises)


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


class TestNormBounds:
    """`_norm_bounds` brackets the norm the SVD computes, and `_norm_test`
    takes that SVD only where the bounds leave its test open."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 9), st.integers(1, 9),
           st.sampled_from([-600, -40, 0, 40, 600]),
           st.sampled_from(["dense", "rank one", "one row"]))
    def test_brackets_the_computed_norm(self, seed, m, n, k, kind):
        rng = np.random.default_rng(seed)
        M = random_complex(rng, m, n)
        if kind == "rank one":  # ||M||_2 = ||M||_F
            M = np.outer(M[:, 0], M[0])
        elif kind == "one row":  # ||M||_2 = its largest row norm
            M[1:] = 0.0
        M = M * 2.0 ** k
        lo, hi = linalg._norm_bounds(M)
        assert 0.0 < lo <= operator_norm(M) <= hi
        assert hi <= lo * np.sqrt(min(m, n)) * (1.0 + 1e-9)

    def test_svd_only_where_the_corners_differ(self, monkeypatch):
        M = np.diag([3.0, 4.0])  # largest row 4, ||M||_F = 5
        norms = count_calls(monkeypatch, operator_norm, [linalg])
        assert linalg._norm_test(lambda x: x <= 5.1, (M,))
        assert not linalg._norm_test(lambda x: x <= 3.9, (M,))
        assert not linalg._norm_test(lambda x, y: x * y <= 15.0, (M, M))
        assert not norms
        assert linalg._norm_test(lambda x: x <= 4.5, (M,)) and norms[0] is M
        assert not linalg._norm_test(lambda x: x <= 4.5, (M,), lambda: (4.6,))
        assert len(norms) == 1


def _near_threshold(rng, n, target, tol):
    """C = Q (Lambda + t N) Q* with t placed so that ||C*C - CC*||_2 is
    target tol_normal ||C||_2^2, and the ratio reached."""
    lam = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
    N, Q = np.triu(random_complex(rng, n, n), 1), random_unitary(rng, n)
    t = 1e-10
    for _ in range(6):
        C = Q @ (np.diag(lam) + t * N) @ adjoint(Q)
        ratio = linalg.normality_defect(C) / (tol.tol_normal * operator_norm(C) ** 2)
        t *= target / ratio
    return C, ratio


class TestNormalVerdict:
    """`is_normal` against the SVD test of `_normality`."""

    @staticmethod
    def _check(C, tol):
        """The verdict is the SVD test's, and SVDs run exactly where the
        bounds on the copy C / s, s the `_pow2_scale` of C's largest entry,
        straddle the threshold; True when they ran."""
        with pytest.MonkeyPatch.context() as mp:
            svds = count_calls(mp, operator_norm, [linalg])
            verdict = linalg.is_normal(C, tol)
        _, _, defect, threshold = linalg._normality(C, operator_norm(C), tol)
        assert verdict == (defect <= threshold)
        A = C / linalg._pow2_scale(float(np.abs(C).max()), 4 * C.size)
        G = adjoint(A) @ A - A @ adjoint(A)
        corners = {d <= tol.tol_normal * max(m ** 2, 1e-300)
                   for d in linalg._norm_bounds(G) for m in linalg._norm_bounds(A)}
        assert bool(svds) == (len(corners) == 2)
        return bool(svds)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 8), st.floats(1.0 - 1e-3, 1.0 + 1e-3),
           st.sampled_from([-600, -40, 40, 600]))
    def test_matches_the_svd_test_at_the_threshold(self, seed, n, target, k):
        tol = Tolerances()
        C, ratio = _near_threshold(np.random.default_rng(seed), n, target, tol)
        assert abs(ratio / target - 1.0) < 1e-4
        assert self._check(C * 2.0 ** k, tol)

    @pytest.mark.parametrize("k", [-600, -40, 0, 40, 600])
    @pytest.mark.parametrize("C", [
        [[1.0, 9e-6], [0.0, 1.0]],  # passes: on a repeated eigenvalue the defect is 8e-11
        [[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]],  # a Jordan block
        np.diag([1.0, 2.0, 3.0j])], ids=["departure", "jordan", "diagonal"])
    def test_examples(self, C, k):
        C = np.asarray(C, dtype=np.complex128) * 2.0 ** k
        straddles = self._check(C, Tolerances())
        assert straddles == (C[0, 1] == 9e-6 * 2.0 ** k)

    def test_rank_one_within_ulps_of_the_threshold(self):
        # C = u v*: ||C||_2 = ||C||_F and, for n = 2, ||C*C - CC*||_2 is
        # its largest row norm, so both bounds are tight to rounding.  With
        # tol_normal a few ulps about the computed ratio, only the margin of
        # `_norm_bounds` keeps a bound from deciding against the SVD test.
        rng = np.random.default_rng(7)
        for _ in range(60):
            u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            C = np.outer(u, (u + 1e-3 * rng.standard_normal(2)).conj())
            ratio = linalg.normality_defect(C) / operator_norm(C) ** 2
            for j in range(-6, 7):
                assert self._check(C, Tolerances(tol_normal=ratio * (1.0 + j * 2.0 ** -52)))


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
                           match=r"singular at z = \(0\.25\+0j\)"):
            resolvent(np.diag([0.25, 0.75]), 0.25)
        monkeypatch.setattr(linalg, "_hessenberg_solve",
                            faulty_solve("inexact", "_hessenberg_solve"))
        with pytest.raises(SingularResolventError,
                           match=r"the solve at z = 0\.5j lost all accuracy"):
            resolvent(random_complex(rng, 5, 5) + 3.0 * np.eye(5), 0.5j)

    def test_guard_takes_no_svd(self, rng, monkeypatch):
        def no_svd(M):
            raise AssertionError("operator_norm called")
        monkeypatch.setattr(linalg, "operator_norm", no_svd)
        M = np.triu(random_complex(rng, 5, 5)) + 3.0 * np.eye(5)
        R = resolvent(M, 0.5j)
        assert_allclose((M - 0.5j * np.eye(5)) @ R, np.eye(5), atol=1e-12)

    def test_guard_rejects_an_inexact_solve(self, rng, monkeypatch):
        # the banded solve on the Hessenberg form, off by 1e-8 relative
        M = random_complex(rng, 5, 5) + 3.0 * np.eye(5)
        monkeypatch.setattr(linalg, "_hessenberg_solve",
                            faulty_solve("inexact", "_hessenberg_solve"))
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


class TestHessenbergSolve:
    """`_hessenberg_solve`, one banded LU per block, which
    `_triangular_resolvents` takes on a form with a nonzero subdiagonal."""

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 24, 48])
    def test_matches_an_lu_inverse(self, rng, n):
        H, _ = scipy.linalg.hessenberg(random_complex(rng, n, n), calc_q=True)
        # ||H|| <= 1, so ||(H - z)^{-1}|| <= 2 at |z| = 1.5
        shifts = 1.5 * np.exp(2j * np.pi * rng.random(4))
        sizes = np.array([1, 3, 2, 5])
        R = random_complex(rng, sizes.sum(), n)
        solves = [linalg._hessenberg_solve(H, R, shifts, sizes)]
        if n > 1:  # the guarded entry point takes the same solve
            assert np.diag(H, -1).all()
            solves.append(linalg._triangular_resolvents(H, R, shifts, sizes, Tolerances()))
            assert np.array_equal(solves[0], solves[1])
        for Y in solves:
            for z, lo, m in zip(shifts, np.cumsum(sizes) - sizes, sizes):
                inv = scipy.linalg.lu_solve(scipy.linalg.lu_factor(H - z * np.eye(n)),
                                            np.eye(n))
                ref = R[lo:lo + m] @ inv
                assert np.linalg.norm(Y[lo:lo + m] - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_refuses_every_shift_an_lu_inverse_refuses(self, rng):
        # the four sweep matrices, by their triangular (Schur) forms T, moved
        # to H = E T E^{-1} for E = I + e_1 e_0^T + e_3 e_2^T: upper Hessenberg
        # with a subdiagonal and the eigenvalues of T, exact for the first two
        A0, _ = random_normal(rng, 4)
        matrices = [np.diag([3.0, 2.0 + 1.0j, 1e3, -1e-3j]),
                    2.0 * np.eye(4) + np.diag(np.ones(3), 1),
                    A0 + 0.5 * np.triu(random_complex(rng, 4, 4), 1), 1e4 * A0]
        E = np.eye(4, dtype=complex)
        E[1, 0] = E[3, 2] = 1.0
        refused = 0
        for M in matrices:
            T = scipy.linalg.schur(M, output="complex")[0] if np.tril(M, -1).any() else M
            H = E @ T @ (2.0 * np.eye(4) - E)
            assert np.diag(H, -1).any() and not np.tril(H, -2).any()
            for z in shift_sweep(np.diag(T)):
                if lu_resolvent_raises(H, z):
                    with pytest.raises(SingularResolventError,
                                       match=re.escape(f"z = {complex(z)}")):
                        linalg._triangular_resolvents(H, np.eye(4), np.array([z]), [4],
                                                      Tolerances())
                    refused += 1
        assert refused > 0

    def test_singular_and_cancelling_shifts_name_the_atom(self):
        tol, R = Tolerances(), np.ones((4, 2), dtype=complex)
        # H - 0 = ones((2, 2)) meets an exactly zero pivot (info = 2); the
        # solve at 1.001, nearer to diag(H), is finite and not named
        H, shifts, sizes = np.ones((2, 2), dtype=complex), np.array([1.001, 0.0, 7.0j]), [1, 2, 1]
        Y = linalg._hessenberg_solve(H, R, shifts, sizes)
        assert np.isnan(Y[1:3]).all() and np.isfinite(Y[[0, 3]]).all()
        with pytest.raises(SingularResolventError, match=r"M - zI is singular at z = 0j"):
            linalg._triangular_resolvents(H, R, shifts, sizes, tol)
        z = 0.5 + 0.25j
        H = z * np.eye(4) + 1e-15 * np.triu(np.ones((4, 4)), -1)
        with pytest.raises(SingularResolventError,
                           match=r"cancels to rounding at z = \(0\.5\+0\.25j\)"):
            linalg._triangular_resolvents(H, np.ones((5, 4), dtype=complex),
                                          np.array([3.0, z]), [2, 3], tol)

    def test_holds_one_band_array_at_a_time(self, rng):
        # 400 shifts on n = 40: all bands at once would take 10.8 MB
        n, K = 40, 400
        H, _ = scipy.linalg.hessenberg(random_complex(rng, n, n), calc_q=True)
        R, shifts = random_complex(rng, K, n), 1.5 * np.exp(2j * np.pi * rng.random(K))
        tracemalloc.start()
        try:
            linalg._hessenberg_solve(H, R, shifts, np.ones(K, dtype=int))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # Y is 256 kB, one band 27 kB


class TestDivisionRoute:
    """`_triangular_resolvents` divides by diag(T) - s where the off-diagonal
    part N of T has ||N||_F <= n eps ||T - s_k||_F at every shift s_k, and
    takes the substitution or the banded LU otherwise."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 12), st.sampled_from([0.5, 1.0, 2.0]),
           st.sampled_from([0, 40, -40, 600, -600]), st.sampled_from([0.0, 1e6]),
           st.booleans(), st.integers(0, 2 ** 32 - 1))
    def test_divides_below_the_budget_only(self, n, ratio, j, offset, hessenberg, seed):
        r, scale, eps = np.random.default_rng(seed), 2.0 ** j, np.finfo(float).eps
        # a spectrum at 0 or 1e6, and shifts 2.5 from its centre: then
        # ||T - s|| << ||T|| at 1e6, where a budget on ||T|| would refuse
        d = offset + r.uniform(-1, 1, n) + 1j * r.uniform(-1, 1, n)
        shifts0 = offset + 2.5 * np.exp(2j * np.pi * r.random(3))
        N = np.triu(random_complex(r, n, n), -1 if hessenberg else 1)
        np.fill_diagonal(N, 0.0)
        # ||N||_F = ratio n eps min_k ||diag(d) + N - s_k||_F
        b, m = ratio * n * eps, min(np.linalg.norm(d - z) for z in shifts0)
        N *= b * m / np.sqrt(1.0 - b * b) / np.linalg.norm(N)
        T0, sizes = np.diag(d) + N, np.array([1, 3, 2])
        R0 = random_complex(r, sizes.sum(), n)
        T, shifts, R = scale * T0, scale * shifts0, scale * R0
        old = "_hessenberg_solve" if hessenberg else "_substitute"
        with mock.patch.object(linalg, "_divide", wraps=linalg._divide) as divide, \
                mock.patch.object(linalg, old, wraps=getattr(linalg, old)) as route, \
                warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            Y = linalg._triangular_resolvents(T, R, shifts, sizes, Tolerances())
        assert divide.call_count + route.call_count == 1
        if ratio < 1.0:
            assert divide.called
        elif ratio > 1.0:
            assert route.called
        ref = (linalg._hessenberg_solve(T, R, shifts, sizes) if hessenberg
               else linalg._substitute(T, R, np.repeat(shifts, sizes)))
        cond = max(np.linalg.norm(T0 - z * np.eye(n))
                   * np.linalg.norm(np.linalg.inv(T0 - z * np.eye(n)), 2) for z in shifts0)
        assert np.linalg.norm(Y - ref) <= 4 * n * eps * cond * np.linalg.norm(ref)


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

    def test_no_points_raise_for_the_gap(self):
        with pytest.raises(ShapeMismatchError, match="at least one"):
            numrange_gap(np.eye(2), [])

    def test_no_points_give_no_distances(self):
        assert numrange_distances(np.eye(2), []).shape == (0,)

    @pytest.mark.parametrize("fn", [numrange_gap, numrange_distances])
    def test_nan_point_raises(self, fn):
        with pytest.raises(ShapeMismatchError, match="must be finite"):
            fn(np.eye(2), [3.0, np.nan])

    @pytest.mark.parametrize("fn", [numrange_gap, numrange_distances])
    @pytest.mark.parametrize("point", [np.inf, -np.inf, complex(1.0, np.inf)])
    def test_infinite_point_raises(self, fn, point):
        with pytest.raises(ShapeMismatchError, match="must be finite"):
            fn(np.eye(2), [point])

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
    @example(seed=1915, h=5, nonnormal=1.0)
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
        # both sides are rounded lower bounds: at the @example's point
        # 1.56e-4 from W(A) ours is 3.3e-16 below the sweep, within its
        # `_rounding_slack` (8.1e-15) but not within 1e-12 relative
        assert np.all(lower >= sweep - 1e-12 * sweep - linalg._rounding_slack(A, pts))
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


class TestMirroredHalf:
    """`_support_values` reads h(t + pi) off the eigensolve at t, as the
    bottom pair of H(t) = -H(t + pi); the grid uses it for half its angles."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.floats(0.0, 4.0),
           st.sampled_from([2.0 ** -40, 1.0, 2.0 ** 40]))
    def test_matches_a_direct_eigensolve_at_t_plus_pi(self, seed, h, nonnormal, scale):
        r = np.random.default_rng(seed)
        A, _ = random_normal(r, h)
        A = scale * (A + nonnormal * np.triu(random_complex(r, h, h), 1))
        t = r.uniform(0.0, 2.0 * np.pi, 4)
        h_t, w_t, d2_t = linalg._support_values(A, t)
        direct = linalg._support_values(A, t + np.pi)
        assert all(len(v) == 8 for v in (h_t, w_t, d2_t))
        slack = linalg._rounding_slack(A, np.zeros(4))
        assert np.all(np.abs(h_t[4:] - direct[0][:4]) <= slack)
        # w and h'' where the bottom eigenvalue is simple, within the
        # slack over the gap to the next eigenvalue, and its square
        norm = np.linalg.norm(A)
        for k, phase in enumerate(np.exp(-1j * t)):
            lam = np.linalg.eigvalsh(0.5 * (phase * A + np.conj(phase * A).T))
            gap = lam[1] - lam[0] if h > 1 else norm
            if gap >= 1e-3 * norm:
                assert abs(w_t[4 + k] - direct[1][k]) <= 4.0 * slack[k] * norm / gap
                assert abs(d2_t[4 + k] - direct[2][k]) <= 4.0 * slack[k] * (norm / gap) ** 2
        # the grid's bounds, before any step, are those of a direct
        # 2 n-angle grid: each mirrored g at the phase -e^{-it}
        box = 3.0 * np.linalg.norm(A, 2)
        pts = np.trace(A) / h + box * (r.uniform(-1, 1, 6) + 1j * r.uniform(-1, 1, 6))
        n = linalg._COARSE_ANGLES
        lower = linalg._numrange_bounds(A, pts, n, 0, gap=False)[0]
        thetas = np.linspace(0.0, 2.0 * np.pi, 2 * n, endpoint=False)
        g = (np.exp(-1j * thetas)[:, None] * pts).real - linalg._support_values(
            A, thetas)[0][:2 * n, None]
        slack = linalg._rounding_slack(A, pts)
        assert np.all(np.abs(lower - np.maximum(g.max(axis=0) - slack, 0.0)) <= slack)

    @pytest.mark.parametrize("n_angles", [8, 9, 32, 33])
    def test_one_eigensolve_per_grid_pair_and_per_step(self, rng, monkeypatch, n_angles):
        A, _ = random_normal(rng, 6)
        A = A + np.triu(random_complex(rng, 6, 6), 1)
        pts = np.trace(A) / 6 + 3.0 * np.linalg.norm(A, 2) * np.exp(
            2j * np.pi * rng.random(7))
        matrices, angles = [], []
        real_eigh, real_support = np.linalg.eigh, linalg._support_values
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda H: matrices.append(len(H)) or real_eigh(H))
        monkeypatch.setattr(linalg, "_support_values",
                            lambda A, t: angles.append(np.size(t)) or real_support(A, t))
        numrange_gap(A, pts, n_angles=n_angles)
        # the grid: n_angles / 2 eigensolves, an odd count taking one more
        # angle; then one per active point per step, as many as the step probes
        assert matrices[0] == (n_angles + 1) // 2
        assert matrices == angles and len(matrices) > 1
        assert all(1 <= m <= len(pts) for m in matrices[1:])
        assert matrices[1:] == sorted(matrices[1:], reverse=True)
        matrices.clear()
        numrange_gap(A, pts[:1], n_angles=n_angles)
        assert matrices[0] == (n_angles + 1) // 2 and set(matrices[1:]) == {1}


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
