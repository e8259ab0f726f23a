import dataclasses
import inspect
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import opint.enorm as enorm
import opint.linalg as linalg
import opint.riccati as riccati
import opint.spectral as spectral
import opint.stieltjes as stieltjes
import opint.sylvester as sylvester
from opint.linalg import numrange_gap, separation
from opint import (
    ContourConstructionError,
    GapViolationError,
    InsufficientMemoryError,
    NoConvergenceError,
    NotNormalError,
    OperatorFunction,
    ShapeMismatchError,
    SingularResolventError,
    SingularSystemError,
    SpectralMeasure,
    SylvesterProblem,
    Tolerances,
    adjoint,
    contour_quadrature,
    decompose_normal,
    dual_solution,
    exact_left_integral,
    hs_norm,
    operator_norm,
    resolvent,
    solve_contour,
    solve_double_spectral,
    solve_kronecker,
    solve_spectral,
    spectral_gap,
    sylvester_residual,
    verify_bounds,
)

from conftest import (bounding_rect, count_calls, count_decompositions, faulty_solve,
                      lu_resolvent_raises, make_sylvester, min_sigma, near_normal_case,
                      node_sum_lu, projections, random_complex, random_normal,
                      random_unitary, ring_sylvester, shift_sweep,
                      spectral_norm_guard_raises)
from test_linalg import _hull_distance

SCALAR = SylvesterProblem([[2.0]], [[0.0]], [[1.0]])
ALL_SOLVERS = (solve_spectral, solve_kronecker, solve_contour,
               solve_double_spectral)


class TestProblem:
    def test_shape_validation(self):
        with pytest.raises(ShapeMismatchError):
            SylvesterProblem(np.eye(2), np.eye(3), np.eye(2))
        with pytest.raises(ShapeMismatchError):
            SylvesterProblem(np.ones((2, 3)), np.eye(2), np.ones((2, 2)))

    def test_gap_examples(self):
        prob = SylvesterProblem(np.diag([3.0, 4.0]), np.diag([0.0, 1j]),
                                np.ones((2, 2)))
        assert spectral_gap(prob) == pytest.approx(3.0)
        assert spectral_gap(SylvesterProblem([[1.0]], [[1.0]], [[1.0]])) == 0.0

    def test_gap_matches_pairwise_enumeration(self, rng):
        prob = make_sylvester(rng, 5, 6)
        ea = np.linalg.eigvals(prob.A)
        ec = np.linalg.eigvals(prob.C)
        oracle = min(abs(a - c) for a in ea for c in ec)
        assert spectral_gap(prob) == pytest.approx(oracle)


class TestScalar:
    @pytest.mark.parametrize("solver", ALL_SOLVERS)
    def test_scalar_half(self, solver):
        report = solver(SCALAR)
        assert_allclose(report.X, [[0.5]], atol=1e-12)
        assert report.residual <= 1e-12

    def test_diagonal_entrywise(self):
        A = np.diag([3.0, 4.0])
        C = np.diag([0.0, 1j])
        D = np.ones((2, 2), dtype=complex)
        expected = np.array([[1 / 3, 1 / 4],
                             [1 / (3 - 1j), 1 / (4 - 1j)]])
        for solver in ALL_SOLVERS:
            report = solver(SylvesterProblem(A, C, D))
            assert_allclose(report.X, expected, atol=1e-10)

    def test_large_scale_spectral(self):
        # the atoms are integrated over a rectangle whose edges must clear
        # tol_cluster * ||C|| = 10, far more than an absolute unit margin
        report = solve_spectral(SylvesterProblem([[3e9]], [[1e9]], [[1.0]]))
        assert report.X[0, 0] == pytest.approx(5e-10, rel=1e-12)


class TestCrossMethod:
    def test_agreement_normal_a(self, rng):
        for _ in range(8):
            h, k = (int(v) for v in rng.integers(2, 9, 2))
            prob = make_sylvester(rng, h, k, normal_a=True)
            base = solve_spectral(prob)
            scale = max(1.0, operator_norm(base.X))
            for solver, tol in ((solve_kronecker, 1e-10), (solve_contour, 1e-8),
                                (solve_double_spectral, 1e-10)):
                other = solver(prob)
                assert operator_norm(other.X - base.X) <= tol * scale

    def test_agreement_nonnormal_a(self, rng):
        for _ in range(5):
            prob = make_sylvester(rng, 6, 5, normal_a=False)
            xs = solve_spectral(prob).X
            xk = solve_kronecker(prob).X
            assert operator_norm(xs - xk) <= 1e-10 * max(1.0, operator_norm(xs))

    def test_double_requires_normal_a(self, rng):
        prob = make_sylvester(rng, 4, 4, normal_a=False)
        with pytest.raises(NotNormalError) as err:
            solve_double_spectral(prob)
        # the measured defect and its threshold, as decompose_normal states them
        with pytest.raises(NotNormalError) as ref:
            decompose_normal(prob.A)
        assert str(err.value) == str(ref.value) and "exceeds" in str(err.value)

    def test_linearity_in_d(self, rng):
        h = k = 5
        C, _ = random_normal(rng, k)
        A, _ = random_normal(rng, h, re=(2.0, 4.0))
        D1 = random_complex(rng, k, h)
        D2 = random_complex(rng, k, h)
        a, b = 1.7, -0.4 + 0.9j
        X1 = solve_spectral(SylvesterProblem(A, C, D1)).X
        X2 = solve_spectral(SylvesterProblem(A, C, D2)).X
        X12 = solve_spectral(SylvesterProblem(A, C, a * D1 + b * D2)).X
        assert operator_norm(X12 - (a * X1 + b * X2)) <= 1e-10

    def test_residual_contract(self, rng):
        for _ in range(10):
            prob = make_sylvester(rng, 5, 6, normal_a=bool(rng.integers(2)))
            rep = solve_spectral(prob)
            bound = (1e-9 * (operator_norm(prob.A) + operator_norm(prob.C))
                     * operator_norm(rep.X) + 1e-9 * operator_norm(prob.D))
            assert rep.residual <= bound


class TestDegenerate:
    def test_kronecker_zero_gap(self):
        with pytest.raises(SingularSystemError):
            solve_kronecker(SylvesterProblem([[1.0]], [[1.0]], [[1.0]]))

    def test_spectral_zero_gap(self):
        with pytest.raises(GapViolationError):
            solve_spectral(SylvesterProblem([[1.0]], [[1.0]], [[1.0]]))

    def test_contour_zero_gap(self):
        with pytest.raises(GapViolationError):
            solve_contour(SylvesterProblem(np.diag([1.0, 2.0]),
                                           np.diag([1.0, 5.0]),
                                           np.ones((2, 2))))


class TestKroneckerUniqueness:
    def test_permuted_formulation_same_solution(self, rng):
        # transposing XA - CX = D gives A^T Y - Y C^T = D^T with Y = X^T;
        # by vec(MYN) = (N^T kron M) vec(Y) its vectorization is the
        # (different) system (I kron A^T - C kron I) vec(Y) = vec(D^T)
        prob = make_sylvester(rng, 4, 5)
        X = solve_kronecker(prob).X
        h, k = prob.h, prob.k
        K = (np.kron(np.eye(k, dtype=complex), prob.A.T)
             - np.kron(prob.C, np.eye(h, dtype=complex)))
        rhs = prob.D.T.flatten(order="F")
        y = np.linalg.solve(K, rhs)
        X_perm = y.reshape((h, k), order="F").T
        assert operator_norm(X - X_perm) <= 1e-10 * max(1.0, operator_norm(X))


class TestKroneckerGuard:
    def test_guard_takes_no_svd_of_the_kronecker_matrix(self, rng, monkeypatch):
        prob = make_sylvester(rng, 3, 4)
        shapes = []
        real = sylvester.operator_norm
        monkeypatch.setattr(sylvester, "operator_norm",
                            lambda M: shapes.append(np.shape(M)) or real(M))
        solve_kronecker(prob)
        assert shapes and (12, 12) not in shapes

    def test_guard_rejects_an_inexact_solve(self, rng, monkeypatch):
        prob = make_sylvester(rng, 3, 4)
        real_solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda K, b: real_solve(K, b) * (1.0 + 1e-4))
        with pytest.raises(SingularSystemError):
            solve_kronecker(prob)

    def test_guard_rejects_an_inexact_solve_near_overflow(self, monkeypatch):
        # ||x|| of a solution near 1e200, and the column norms of a K with
        # entries near 1e200, overflow unless the test scales them
        probs = [SylvesterProblem(np.diag([3.0, 4.0]), np.diag([0.0, 1.0]),
                                  1e200 * np.ones((2, 2))),
                 SylvesterProblem(1e200 * np.diag([5.0, 6.0]),
                                  1e200 * np.diag([1.0, 2.0, 3j]), 1e200 * np.ones((3, 2)))]
        for prob in probs:
            solve_kronecker(prob)
        real_solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda K, b: real_solve(K, b) * (1.0 + 1e-3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for prob in probs:
                with pytest.raises(SingularSystemError, match="lost all accuracy"):
                    solve_kronecker(prob)

    @pytest.mark.parametrize("h, k", [(1, 3), (3, 1), (4, 5), (5, 4)])
    def test_matches_the_kron_oracle(self, rng, h, k):
        # non-normal A and a non-symmetric normal C: a transposed block fails
        prob = make_sylvester(rng, h, k, normal_a=False)
        K = (np.kron(prob.A.T, np.eye(k, dtype=complex))
             - np.kron(np.eye(h, dtype=complex), prob.C))
        x = np.linalg.solve(K, prob.D.flatten(order="F"))
        assert np.array_equal(solve_kronecker(prob).X, x.reshape((k, h), order="F"))

    def test_refuses_a_system_beyond_available_memory(self, rng, monkeypatch):
        prob = make_sylvester(rng, 24, 24)
        need = 2 * (24 * 24) ** 2 * 16
        monkeypatch.setattr(sylvester, "_available_memory", lambda: need - 1)
        tracemalloc.start()
        try:
            with pytest.raises(InsufficientMemoryError,
                               match=f"needs {need} bytes .* only {need - 1} bytes"):
                solve_kronecker(prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (24 * 24) ** 2 * 16  # no K was allocated
        monkeypatch.setattr(sylvester, "_available_memory", lambda: need)
        assert solve_kronecker(prob).residual <= 1e-10


class TestContourConstruction:
    # A = diag(3, 4), C = diag(0, 1): X = [[1/3, 1/4], [1/2, 1/3]], which no
    # circle list below can give
    @pytest.mark.parametrize("circles", [
        [], [(0.5, 0.0)], [(0.5, -1.0)], [(0.5, math.nan)], [(0.5, math.inf)],
        [(complex(math.nan, 0.0), 1.0)], [(0.5, 1.0), (math.inf, 1.0)]])
    def test_circles_it_cannot_integrate_on_raise(self, circles):
        prob = SylvesterProblem(np.diag([3.0, 4.0]), np.diag([0.0, 1.0]), np.ones((2, 2)))
        with pytest.raises(ContourConstructionError, match="finite positive radius"):
            contour_quadrature(prob, circles)
        X, _ = contour_quadrature(prob, [(0.5, 1.0)])
        assert_allclose(X, [[1 / 3, 1 / 4], [1 / 2, 1 / 3]], rtol=1e-12)

    def test_empty_contour_gives_zero(self, rng):
        prob = make_sylvester(rng, 4, 4)
        # a circle far away from both spectra encloses nothing
        X, _ = contour_quadrature(prob, [(100.0 + 100.0j, 1.0)])
        assert operator_norm(X) <= 1e-10

    def test_fallback_to_per_atom_circles(self, rng):
        # spec(A) sits between the two C eigenvalues, inside any single
        # enclosing circle, so per-atom circles must be used
        A = np.array([[0.3j]])
        C = np.diag([2.0, -2.0])
        D = random_complex(rng, 2, 1)
        prob = SylvesterProblem(A, C, D)
        rep = solve_contour(prob)
        oracle = solve_kronecker(prob).X
        assert operator_norm(rep.X - oracle) <= 1e-8

    def test_contour_norm_bound(self, rng):
        # ||X|| <= (2 pi)^{-1} |Gamma| sup ||(C-z)^{-1}|| ||(A-z)^{-1}|| ||D||
        from opint import resolvent
        prob = make_sylvester(rng, 4, 5)
        eig_c = np.linalg.eigvals(prob.C)
        center = complex(eig_c.mean())
        gap = spectral_gap(prob)
        radius = float(np.abs(eig_c - center).max()) + gap / 2.0
        X, _ = contour_quadrature(prob, [(center, radius)])
        nodes = center + radius * np.exp(2j * np.pi * np.arange(720) / 720)
        sup = max(operator_norm(resolvent(prob.C, z))
                  * operator_norm(resolvent(prob.A, z)) for z in nodes)
        bound = radius * sup * operator_norm(prob.D)  # (2 pi)^{-1} |Gamma| = radius
        assert operator_norm(X) <= bound * (1 + 1e-9)


def _fresh_trapezoid(prob, circles, n):
    """The n-node trapezoid rule evaluated node by node with resolvents."""
    X = np.zeros((prob.k, prob.h), dtype=complex)
    for center, radius in circles:
        for phase in np.exp(2j * np.pi * np.arange(n) / n):
            z = center + radius * phase
            X -= (radius / n) * phase * (resolvent(prob.C, z) @ prob.D
                                         @ resolvent(prob.A, z))
    return X


def _strongly_nonnormal(rng, h, k):
    C, _ = random_normal(rng, k)
    eigs = rng.uniform(2.0, 4.0, h) + 1j * rng.uniform(-1.0, 1.0, h)
    T = np.diag(eigs) + 50.0 * np.triu(random_complex(rng, h, h), 1)
    U = random_unitary(rng, h)
    return SylvesterProblem(U @ T @ adjoint(U), C, random_complex(rng, k, h))


class TestContourQuadrature:
    @pytest.mark.parametrize("per_atom", [False, True])
    def test_nested_sum_is_the_trapezoid_rule(self, rng, per_atom):
        if per_atom:  # spec(A) between the atoms of C forces one circle each
            prob = SylvesterProblem([[0.3j]], np.diag([2.0, -2.0, 2.0j]),
                                    random_complex(rng, 3, 1))
        else:
            prob = make_sylvester(rng, 5, 4, normal_a=False)
        circles = sylvester._build_circles(np.linalg.eigvals(prob.A),
                                           np.linalg.eigvals(prob.C),
                                           spectral_gap(prob))
        assert (len(circles) > 1) == per_atom
        X, n = contour_quadrature(prob, circles)
        assert n > 32  # at least one doubling reused the earlier nodes
        fresh = _fresh_trapezoid(prob, circles, n)
        assert operator_norm(X - fresh) <= 1e-12 * operator_norm(fresh)

    @pytest.mark.parametrize("name, value", [("n_nodes", 2.5), ("n_nodes", None), ("n_nodes", 0),
                                             ("max_nodes", np.nan), ("max_nodes", 64.0)])
    def test_counts_that_are_not_integers_raise_value_error(self, rng, name, value):
        # the quadrature converges, so these used to return; max_nodes = nan
        # never stopped one that does not
        prob = make_sylvester(rng, 4, 3, normal_a=True)
        circles = sylvester._build_circles(np.linalg.eigvals(prob.A),
                                           np.linalg.eigvals(prob.C), spectral_gap(prob))
        with pytest.raises(ValueError, match=f"^{name} must be an integer of at least 1, got"):
            contour_quadrature(prob, circles, **{name: value})
        # fewer than 4 nodes start at 4, and numpy integers are integers
        X, n = contour_quadrature(prob, circles, n_nodes=np.int64(1), max_nodes=np.int64(4096))
        X4, n4 = contour_quadrature(prob, circles, n_nodes=4)
        assert n == n4 and np.array_equal(X, X4)

    def test_node_blocks_do_not_change_the_sum(self, rng, monkeypatch):
        prob = make_sylvester(rng, 6, 5, normal_a=False)
        circles = [(complex(z), 0.3) for z in np.linalg.eigvals(prob.C)]
        X, n = contour_quadrature(prob, circles)
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", 1)  # one node per block
        X1, n1 = contour_quadrature(prob, circles)
        assert n1 == n
        assert operator_norm(X1 - X) <= 1e-13 * operator_norm(X)

    def test_no_per_node_norms(self, rng, monkeypatch):
        prob = make_sylvester(rng, 5, 5)
        calls = []
        real_norm = sylvester.operator_norm
        monkeypatch.setattr(sylvester, "operator_norm",
                            lambda M: calls.append(1) or real_norm(M))
        circles = [(complex(z), 0.3) for z in np.linalg.eigvals(prob.C)]
        _, n = contour_quadrature(prob, circles)
        levels = int(np.log2(n // 32)) + 1
        assert len(calls) <= 2 * levels  # the stopping rule only

    @pytest.mark.parametrize("normal_a", [True, False])
    def test_stop_test_from_bounds_matches_the_svd_rule(self, rng, monkeypatch, normal_a):
        # tol_quad at the ratio of the first change (32 to 64 nodes) to
        # ||X|| puts that test inside the bounds' bracket, where the SVDs
        # decide it; with bounds (0, inf) every test takes them, as it
        # always did
        prob = make_sylvester(rng, 5, 6, normal_a=normal_a)
        circles = [(complex(z), 0.3) for z in np.linalg.eigvals(prob.C)]
        X32, X64 = (pytest.raises(NoConvergenceError, contour_quadrature, prob, circles,
                                  max_nodes=n).value.value for n in (32, 64))
        ratio = operator_norm(X64 - X32) / max(1.0, operator_norm(X64))
        straddled = 0
        for tol_quad in (1e-12, 1e-9, ratio, ratio * (1.0 - 1e-15), ratio * (1.0 + 1e-15)):
            p = SylvesterProblem(prob.A, prob.C, prob.D, tolerances=Tolerances(tol_quad=tol_quad))
            with monkeypatch.context() as mp:
                norms = count_calls(mp, operator_norm)
                fast = contour_quadrature(p, circles)
            straddled += bool(norms)
            with monkeypatch.context() as mp:
                mp.setattr(linalg, "_norm_bounds", lambda M: (0.0, np.inf))
                slow = contour_quadrature(p, circles)
            assert fast[0].tobytes() == slow[0].tobytes() and fast[1] == slow[1]
        assert straddled >= 2

    def test_guard_sweep_at_least_as_strict_as_resolvent(self, rng):
        # node 0 of the circle (z - r, r) sits at z = lam + 10^-p e^{i phi}
        exact = SylvesterProblem(np.diag([3.0, 2.0 + 1.0j]),
                                 np.diag([0.5, -0.5j, 1.0]),
                                 random_complex(rng, 3, 2))
        problems = [exact, make_sylvester(rng, 4, 3, normal_a=False)]
        r = 2.0 ** -10
        swept = hits = 0
        for prob in problems:
            lams = np.concatenate([np.linalg.eigvals(prob.A),
                                   np.linalg.eigvals(prob.C)])
            for lam in lams:
                for p in range(1, 17):
                    for phi in (0.0, 0.5 * np.pi, 0.75 * np.pi):
                        z = lam + 10.0 ** -p * np.exp(1j * phi)
                        node = (z - r) + r
                        old_raises = (lu_resolvent_raises(prob.A, node)
                                      or lu_resolvent_raises(prob.C, node))
                        try:
                            contour_quadrature(prob, [(z - r, r)],
                                               n_nodes=4, max_nodes=4)
                            new_raises = False
                        except NoConvergenceError:
                            new_raises = False
                        except SingularResolventError:
                            new_raises = True
                        assert new_raises or not old_raises, (lam, p, phi)
                        swept += 1
                        hits += old_raises
        assert swept == (5 + 7) * 16 * 3
        assert hits > 0  # the exact hits at p = 16 make the sweep bite

    @pytest.mark.parametrize("lam", [3.0, 2.0 + 1.0j, 0.5, -0.5j])
    def test_exact_eigenvalue_hit_raises_singular_resolvent(self, rng, lam):
        prob = SylvesterProblem(np.diag([3.0, 2.0 + 1.0j]), np.diag([0.5, -0.5j]),
                                random_complex(rng, 2, 2))
        r = 2.0 ** -10
        with pytest.raises(SingularResolventError):
            contour_quadrature(prob, [(lam - r, r)])

    def test_refusal_on_a_divided_contour_names_the_scale(self):
        # A, C and the circle near 1e200 are divided by 2^666 first, and node 0
        # hits the eigenvalue 5e200 of A, which is 1.633... on that scale
        prob = SylvesterProblem(1e200 * np.diag([5.0, 6.0]), 1e200 * np.diag([1.0, 2.0]),
                                np.ones((2, 2)))
        with pytest.raises(SingularResolventError,
                           match=r"singular at z = \(1\.633.*divided by 2\^666$"):
            contour_quadrature(prob, [(4e200, 1e200)], n_nodes=4, max_nodes=4)

    def test_guard_rejects_inexact_and_infinite_solves(self, rng, monkeypatch):
        tol, zero = linalg.DEFAULT_TOLERANCES, np.zeros(1, dtype=complex)
        with pytest.raises(SingularResolventError):  # 1e10 / 1e-310 overflows
            linalg._triangular_resolvents(np.full((1, 1), 1e-310 + 0j),
                                          np.full((1, 1), 1e10 + 0j), zero, [1], tol)
        # T - z for T = triu(...) and z = -3
        T, R, z = np.triu(random_complex(rng, 4, 4)), random_complex(rng, 2, 4), zero - 3.0
        linalg._triangular_resolvents(T, R, z, [2], tol)
        monkeypatch.setattr(linalg, "_substitute", faulty_solve("inexact"))
        with pytest.raises(SingularResolventError, match=r"at z = \(-3"):
            linalg._triangular_resolvents(T, R, z, [2], tol)

    def test_resolvent_and_contour_nodes_share_one_guarded_solve(self, rng,
                                                                  monkeypatch):
        calls = count_calls(monkeypatch, linalg._triangular_resolvents)
        prob = make_sylvester(rng, 4, 3, normal_a=False)
        resolvent(prob.A, 5.0)
        assert len(calls) == 1
        circles = [(complex(z), 0.1) for z in np.linalg.eigvals(prob.C)]
        _, n = contour_quadrature(prob, circles)
        # two per level: the weights w / (z - lam) on diag(lam), then V (T_A - z) = D_t,
        # each the guarded solve that gives `resolvent`'s value
        assert len(calls) == 1 + 2 * (int(np.log2(n // 32)) + 1)

    def test_triangular_nodes_match_lu_nodes(self, rng, monkeypatch):
        shapes = [(4, 4, True), (4, 6, False), (6, 4, True), (6, 6, False),
                  (10, 10, True), (10, 10, False), (12, 16, False), (24, 24, True)]
        probs = [make_sylvester(rng, h, k, normal_a=normal) for h, k, normal in shapes]
        probs += [ring_sylvester(rng, 8, 12), _strongly_nonnormal(rng, 6, 5),
                  _strongly_nonnormal(rng, 8, 8)]

        def contour(prob):
            eig_a = np.diag(prob.schur()[0])
            circles = sylvester._build_circles(eig_a, prob.measure().eigenvalues,
                                               spectral_gap(prob))
            try:
                return (*contour_quadrature(prob, circles), len(circles))
            except NoConvergenceError as exc:
                return exc.value, None, len(circles)

        found = [contour(prob) for prob in probs]
        for prob, (X, n, circles) in zip(probs, found):
            # the oracle solves on C's full triangle from `_normal_form`, not
            # on the measure's lam, with its rows and columns in the order of
            # the measure's basis Q = Z P; so the tolerance also bounds what
            # dropping T_C's off-diagonal part changes (every problem here is
            # in range: the contour scales nothing)
            T_C, Z = spectral._normal_form(prob.C)
            P = np.abs(adjoint(Z) @ prob.measure().basis).argmax(axis=0)
            T_C = np.triu(T_C)[np.ix_(P, P)]
            monkeypatch.setattr(sylvester, "_node_sum", lambda lam, D_t, T_A, z, w, tol:
                                node_sum_lu(T_C, D_t, T_A, z, w))
            X_lu, n_lu, _ = contour(prob)
            assert n == n_lu
            assert operator_norm(X - X_lu) <= 1e-13 * operator_norm(X_lu)
        assert found[len(shapes)][2] == 12  # the ring takes one circle per atom

    def test_near_normal_c_is_solved_for_its_diagonal_form(self):
        # C passes `is_normal` 9e-6 from normality, within tol_normal: the nodes
        # scale rows by 1 / (z - lambda_i), so X solves the equation for
        # C' = Z diag(lambda) Z*, as `solve_spectral`'s does, and the residual
        # on C itself shows the departure (it read 2.3e-16 on C's triangle)
        prob = SylvesterProblem([[2.0]], [[1.0, 9e-6], [0.0, 1.0]], [[0.0], [1.0]])
        report, X = solve_contour(prob), solve_spectral(prob).X
        assert operator_norm(report.X - X) <= 1e-13 * operator_norm(X)
        assert report.residual >= 8e-6

    def test_strongly_nonnormal_a_matches_scipy(self, rng):
        converged = 0
        for h, k in ((6, 5), (8, 8), (5, 6)):
            prob = _strongly_nonnormal(rng, h, k)
            ref = scipy.linalg.solve_sylvester(-prob.C, prob.A, prob.D)
            try:
                X = solve_contour(prob).X
                converged += 1
            except NoConvergenceError as exc:
                # rounding in the node sum can stall the successive change
                # above tol_quad; the partial sum it carries is still accurate
                X = exc.value
            assert operator_norm(X - ref) <= 1e-8 * operator_norm(ref)
        assert converged >= 2


def _count_factoring(monkeypatch):
    """Lists of the matrices given to scipy.linalg.schur (outside a normal
    form), spectral._normal_form, operator_norm and is_normal, and of the
    factors T the measures are built from."""
    return (*count_decompositions(monkeypatch),
            count_calls(monkeypatch, operator_norm),
            count_calls(monkeypatch, linalg.is_normal),
            count_calls(monkeypatch, spectral._measure_of_schur))


def _once_each(seen, prob):
    """seen holds prob.A and prob.C, each exactly once."""
    return (len(seen) == 2 and sum(M is prob.A for M in seen) == 1
            and sum(M is prob.C for M in seen) == 1)


def _one_form_each(prob, schurs, forms, normal_a=True):
    """One decomposition per matrix: a normal form of C, and of A where A
    is normal, else a Schur form of A."""
    if normal_a:
        return not schurs and _once_each(forms, prob)
    return (len(schurs) == 1 and schurs[0] is prob.A
            and len(forms) == 1 and forms[0] is prob.C)


class TestOneDecomposition:
    # calls: the normality requirements a solve checks, C's for its measure
    # and, for the double sum, A's
    @pytest.mark.parametrize("solver, calls", [
        (solve_spectral, 1), (solve_kronecker, 1), (solve_contour, 1),
        (solve_double_spectral, 2)])
    def test_decompose_once_per_matrix(self, rng, monkeypatch, solver, calls):
        prob = make_sylvester(rng, 4, 5)
        schurs, forms, _, _, measures = _count_factoring(monkeypatch)
        required = count_calls(monkeypatch, spectral._require_normal)
        report = solver(prob)
        # one normal form of each of A and C, C's measure built from its
        # own; the double sum reads A's eigenpairs off A's kept form
        assert _one_form_each(prob, schurs, forms) and len(measures) == 1
        assert len(required) == calls
        assert all(M is N for M, N in zip(required, (prob.C, prob.A)))
        monkeypatch.undo()
        # the measure is built from C's normal form
        assert np.array_equal(measures[0], spectral._normal_form(prob.C)[0])
        # the report is the one fresh decompositions of A and C give
        atoms = decompose_normal(prob.C).eigenvalues
        assert report.gap_numrange == separation(
            spectral._normal_form(prob.A)[0], atoms,
            lambda: numrange_gap(prob.A, atoms))[1]

    def test_double_spectral_decomposes_each_matrix_once(self, rng, monkeypatch):
        prob = make_sylvester(rng, 24, 24)
        schurs, forms, _, verdicts, measures = _count_factoring(monkeypatch)
        reports = [solve_double_spectral(prob) for _ in range(3)]
        verify_bounds(prob, reports[0])
        assert _one_form_each(prob, schurs, forms) and len(measures) == 1
        assert _once_each(verdicts, prob)
        assert all(np.array_equal(r.X, reports[0].X) for r in reports)
        monkeypatch.undo()
        # A's eigenpairs off its kept form: the sum agrees with the oracle
        X = solve_kronecker(prob).X
        assert operator_norm(reports[0].X - X) <= 1e-12 * operator_norm(X)

    @pytest.mark.parametrize("normal_a", [True, False])
    def test_every_report_takes_one_form_per_matrix(self, rng, monkeypatch, normal_a):
        # h = k = 24: a normal form of A where it is normal, else a Schur
        # form, never both
        base = make_sylvester(rng, 24, 24, normal_a=normal_a)
        for solver in ALL_SOLVERS if normal_a else ALL_SOLVERS[:3]:
            prob = SylvesterProblem(base.A, base.C, base.D)
            schurs, forms, _, verdicts, _ = _count_factoring(monkeypatch)
            decompositions = count_calls(monkeypatch, spectral.decompose_normal)
            verify_bounds(prob, solver(prob))
            assert _one_form_each(prob, schurs, forms, normal_a)
            assert len(decompositions) == 1 and decompositions[0] is prob.C
            assert _once_each(verdicts, prob)
            monkeypatch.undo()

    # per report (solve + verify_bounds): a normal form of each of A and C,
    # a normality verdict of each (required of A by the double sum alone),
    # and the residual's norm; the bounds decide the
    # verdicts, the gap and numerical-range tests against the norms of A
    # and C, and the contour's three stop tests (32 to 256 nodes on its one
    # circle) on this instance, so no other norm is taken
    @pytest.mark.parametrize("solver, calls", [
        (solve_spectral, 1), (solve_kronecker, 1), (solve_contour, 1),
        (solve_double_spectral, 2)])
    def test_solve_and_verify_decompose_c_once(self, rng, monkeypatch,
                                               solver, calls):
        prob = make_sylvester(rng, 5, 5)
        schurs, forms, norms, verdicts, measures = _count_factoring(monkeypatch)
        required = count_calls(monkeypatch, spectral._require_normal)
        verify_bounds(prob, solver(prob))
        assert len(required) == calls
        assert len(verdicts) == 2
        assert len(norms) == 1
        assert _one_form_each(prob, schurs, forms) and len(measures) == 1
        assert _once_each(verdicts, prob)
        assert "norm_scale" not in prob._cache

    @pytest.mark.parametrize("normal_a", [True, False])
    def test_one_schur_form_for_any_number_of_tolerances(self, rng, monkeypatch,
                                                         normal_a):
        # each problem's own tolerances: every solver and bound check on it
        # reads one form of A (`_one_form_each`), and one normal form and
        # one measure of C
        base = make_sylvester(rng, 4, 5, normal_a=normal_a)
        solvers = ALL_SOLVERS if normal_a else ALL_SOLVERS[:3]
        for tol in (sylvester.DEFAULT_TOLERANCES, Tolerances(tol_cluster=1e-6),
                    Tolerances(tol_solve=1e-9)):
            prob = SylvesterProblem(base.A, base.C, base.D, tolerances=tol)
            schurs, forms, _, verdicts, measures = _count_factoring(monkeypatch)
            for solver in solvers:
                verify_bounds(prob, solver(prob))
            assert _one_form_each(prob, schurs, forms, normal_a)
            assert _once_each(verdicts, prob) and len(measures) == 1
            assert prob.measure().tolerances is tol
            monkeypatch.undo()
            assert np.array_equal(measures[0], spectral._normal_form(prob.C)[0])

    def test_contour_solves_for_the_measure_of_c(self, rng):
        # two eigenvalues of C 1e-10 apart merge into one atom: the contour
        # solves for the C' of the measure, as the spectral solve does
        Q = random_unitary(rng, 4)
        C = Q @ np.diag([1.0, 1.0 + 1e-10, -1.0 + 0.5j, 0.5j]) @ adjoint(Q)
        prob = SylvesterProblem(np.diag([3.0, 3.5 + 1j, 2.5 - 1j]), C,
                                random_complex(rng, 4, 3))
        assert len(prob.measure()) == 3
        X = solve_spectral(prob).X
        assert operator_norm(solve_contour(prob).X - X) <= 1e-12 * operator_norm(X)

    @pytest.mark.parametrize("k", [12, 24])
    def test_measure_is_decompose_normal(self, rng, monkeypatch, k):
        # below and past n = 20, where `_normal_form` leaves the Schur form
        tol = Tolerances(tol_cluster=1e-6)
        base = make_sylvester(rng, 6, k)
        prob = SylvesterProblem(base.A, base.C, base.D, tolerances=tol)
        decompositions = count_calls(monkeypatch, spectral.decompose_normal)
        sm = prob.measure()
        assert prob.measure() is sm
        assert len(decompositions) == 1 and decompositions[0] is prob.C
        assert not any(M.flags.writeable for M in
                       (sm.eigenvalues, sm.basis, sm.multiplicities))
        monkeypatch.undo()
        ref = decompose_normal(prob.C, tol)
        for M, R in zip((sm.eigenvalues, sm.basis, sm.multiplicities),
                        (ref.eigenvalues, ref.basis, ref.multiplicities)):
            assert np.array_equal(M, R)


class TestPreparedProblem:
    def test_matrices_are_read_only_private_copies(self):
        A = np.array([[2.0, 1.0], [0.0, 3.0]], dtype=np.complex128)
        prob = SylvesterProblem(A, np.eye(1), np.ones((1, 2)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            prob.A = np.eye(2)
        with pytest.raises(ValueError):
            prob.A[0, 0] = 5.0
        assert A.flags.writeable
        A[0, 0] = 5.0
        assert prob.A[0, 0] == 2.0

    def test_measure_once_per_tolerance(self, rng, monkeypatch):
        base = make_sylvester(rng, 3, 4)
        tol = Tolerances(tol_cluster=1e-6)
        prob = SylvesterProblem(base.A, base.C, base.D, tolerances=tol)
        schurs, forms, norms, verdicts, measures = _count_factoring(monkeypatch)
        sm = prob.measure()
        assert prob.measure() is sm and sm.tolerances is tol
        assert len(measures) == 1
        assert set(prob._cache) == {"measure"}
        # from one normal form of C and no other Schur form, after one
        # normality verdict, which the bounds decide with no SVD
        assert len(forms) == len(verdicts) == 1 and forms[0] is prob.C
        assert not schurs and verdicts[0] is prob.C and not norms
        with pytest.raises(ValueError):  # the kept measure cannot be edited
            sm.basis[0, 0] = 0.0
        monkeypatch.undo()
        assert np.array_equal(measures[0], spectral._normal_form(prob.C)[0])
        ref = decompose_normal(prob.C, tol)
        for M, R in zip((sm.eigenvalues, sm.basis, sm.multiplicities),
                        (ref.eigenvalues, ref.basis, ref.multiplicities)):
            assert np.array_equal(M, R)

    @pytest.mark.parametrize("tolerances", [None, 1e-6, {"tol_cluster": 1e-6}])
    def test_tolerances_must_be_a_tolerances(self, tolerances):
        with pytest.raises(TypeError, match="tolerances must be a Tolerances"):
            SylvesterProblem([[2.0]], [[0.0]], [[1.0]], tolerances=tolerances)
        with pytest.raises(TypeError, match="tolerances must be a Tolerances"):
            SpectralMeasure([0.0], np.eye(1), [1], tolerances=tolerances)

    def test_tolerances_only_where_data_enters(self):
        # tolerances are fixed with the data, as a field of a problem or a
        # measure: no function takes a Tolerances, and a tol is taken only
        # on raw matrices and by the two stopping rules
        with_tol = set()
        for module in (linalg, spectral, stieltjes, enorm, sylvester, riccati):
            for obj in (getattr(module, name) for name in module.__all__):
                fns = ([getattr(obj, m) for m in dir(obj) if not m.startswith("__")]
                       if isinstance(obj, type) else [obj])
                for fn in filter(inspect.isroutine, fns):
                    params = inspect.signature(fn).parameters
                    assert "tolerances" not in params, fn
                    if "tol" in params:
                        with_tol.add(fn.__name__)
        assert with_tol == {"decompose_normal", "is_normal", "resolvent",
                            "resolvent_family", "integrate_right",
                            "solve_fixed_point"}

    @pytest.mark.parametrize("normal_a", [True, False])
    def test_norms_of_a_and_c_once_per_problem(self, rng, monkeypatch, normal_a):
        # the bounds decide the report's tests against norm_scale(); asked
        # for, it takes each norm once
        prob = make_sylvester(rng, 5, 4, normal_a=normal_a)
        seen = []
        real = sylvester.operator_norm
        monkeypatch.setattr(sylvester, "operator_norm",
                            lambda M: seen.append(M) or real(M))
        verify_bounds(prob, solve_spectral(prob))
        assert not any(M is prob.A or M is prob.C for M in seen)
        assert prob.norm_scale() == prob.norm_scale() == max(1.0, real(prob.A), real(prob.C))
        assert sum(M is prob.A for M in seen) == 1
        assert sum(M is prob.C for M in seen) == 1


def _clustered_normal(rng, n, mult=4):
    """Normal matrix whose n/mult atoms each have multiplicity mult."""
    eigs = np.repeat(rng.uniform(-1, 1, n // mult)
                     + 1j * rng.uniform(-1, 1, n // mult), mult)
    U = random_unitary(rng, n)
    return U @ np.diag(eigs) @ adjoint(U)


def _resolvent_integral(M, sm, D):
    """The left integral of D (M - z)^{-1}, atom by atom, as in the paper."""
    G = OperatorFunction.resolvent_family(M, D)
    return exact_left_integral(G, sm, bounding_rect(sm))


def _cauchy_hadamard(prob):
    """The double-spectral sum as one Cauchy-Hadamard quotient in the
    eigenbases of the measures of A and C,
    X = Q_C ((Q_C* D Q_A) / (z_j - zeta_k)) Q_A*."""
    sm_a, sm_c = decompose_normal(prob.A), decompose_normal(prob.C)
    z = np.repeat(sm_a.eigenvalues, sm_a.multiplicities)
    zeta = np.repeat(sm_c.eigenvalues, sm_c.multiplicities)
    M = (adjoint(sm_c.basis) @ prob.D @ sm_a.basis) / (z[None, :] - zeta[:, None])
    return sm_c.basis @ M @ adjoint(sm_a.basis)


class TestSpectralCore:
    @pytest.mark.parametrize("clustered", [False, True])
    @pytest.mark.parametrize("strong", [False, True])
    def test_equals_left_integral(self, rng, clustered, strong):
        # both are backward stable, so they agree to about eps times the
        # condition of A - zeta; h <= 5 keeps that below 1e4 for the
        # strongly non-normal A (at h = 8 it reaches 6e5, and the two, like
        # scipy.linalg.solve_sylvester, then differ by up to 5e-11)
        for h, k in ((5, 8), (4, 4), (1, 4)):
            C = _clustered_normal(rng, k) if clustered else random_normal(rng, k)[0]
            if strong:
                A = _strongly_nonnormal(rng, h, k).A
            else:
                A = random_normal(rng, h, re=(2.0, 4.0))[0]
            prob = SylvesterProblem(A, C, random_complex(rng, k, h))
            sm = prob.measure()
            assert len(sm) == (k // 4 if clustered else k)
            assert max(np.linalg.cond(prob.A - z * np.eye(h))
                       for z in sm.eigenvalues) < 1e4
            ref = _resolvent_integral(prob.A, sm, prob.D)
            X = solve_spectral(prob).X
            assert operator_norm(X - ref) <= 1e-12 * operator_norm(ref)

    @pytest.mark.parametrize("lam", [3.0, 2.0 + 1.0j])
    def test_exact_hit_raises_singular_resolvent(self, rng, lam):
        M = np.diag([3.0, 2.0 + 1.0j]) + np.diag([0.7], 1)
        sm = decompose_normal(np.diag([lam, 0.5, 0.5]))
        with pytest.raises(SingularResolventError):
            sylvester._spectral_solve(scipy.linalg.schur(M, output="complex"),
                                      sm, random_complex(rng, 3, 2))

    def test_overflowed_guard_scale_is_named(self):
        # the row norms of Y (about 1e200) overflow when squared; the guard
        # scales them, and every solver gives the oracle's solution
        prob = SylvesterProblem(np.diag([3.0, 4.0]), np.diag([0.0, 1.0]),
                                1e200 * np.ones((2, 2)))
        ref = solve_kronecker(prob)
        for solver in (solve_spectral, solve_contour, solve_double_spectral):
            assert_allclose(solver(prob).X, ref.X, rtol=1e-13, atol=0.0)
        # the oracle's solution passes its bound checks without overflow
        assert all(c.ok for c in verify_bounds(prob, ref).values())
        # here ||T - 0|| ||Y|| is about 1e8 * 8e306: the scale of the test
        # itself overflows, which is not a loss of accuracy
        prob = SylvesterProblem([[3.0, 1e8], [0.0, 4.0]], np.diag([0.0, 1.0]),
                                1e300 * np.ones((2, 2)))
        with pytest.raises(SingularResolventError,
                           match=r"at z = 0j cannot be checked: the scale of its "
                                 r"residual test overflowed"):
            solve_spectral(prob)

    def test_guard_sweep_at_least_as_strict_as_resolvent(self, rng):
        A0, _ = random_normal(rng, 4)
        matrices = [np.diag([3.0, 2.0 + 1.0j]) + np.diag([0.7], 1),
                    A0 + 0.5 * np.triu(random_complex(rng, 4, 4), 1),
                    1e3 * A0]
        swept = hits = 0
        for M in matrices:
            D = random_complex(rng, 3, len(M))
            far = 10.0 * max(1.0, operator_norm(M))
            for z in shift_sweep(np.linalg.eigvals(M)):
                # a 2-fold atom at z and a simple one far from spec(M)
                sm = decompose_normal(np.diag([z, z, far]))
                old_raises = any(spectral_norm_guard_raises(M, zeta)
                                 for zeta in sm.eigenvalues)
                try:
                    sylvester._spectral_solve(
                        scipy.linalg.schur(M, output="complex"), sm, D)
                    new_raises = False
                except SingularResolventError:
                    new_raises = True
                assert new_raises or not old_raises, (M, z)
                swept += 1
                hits += old_raises
        assert swept == (2 + 4 + 4) * 16 * 3
        assert hits > 0  # the exact hits at p = 16 make the sweep bite

    @pytest.mark.parametrize("rho", [1e-6, 1e-7])
    def test_shift_far_larger_than_its_distance_is_solved(self, rng, rho):
        # A = [[a]] with a - zeta = zeta rho e^{i phi}: the residual formed
        # as Y T - zeta Y rounded on |zeta| |Y| >> tol_solve |a - zeta| |Y|
        # and refused these exact solves, X = D / (a - C)
        z = 0.5 + 0.25j
        C = np.diag([z, -1.0])
        for phi in np.linspace(0.0, 2.0 * np.pi, 20, endpoint=False):
            a = z * (1.0 + rho * np.exp(1j * phi))
            for D in (np.ones((2, 1)), random_complex(rng, 2, 1)):
                X = solve_spectral(SylvesterProblem([[a]], C, D)).X
                assert_allclose(X, D / (a - np.diag(C))[:, None], rtol=1e-12, atol=0.0)

    def test_normal_a_far_from_the_origin(self, rng):
        # A = U (1e6 + Lambda) U* and C near 1e6: ||T_A - zeta|| << ||T_A||,
        # so a division budget on ||T_A|| would drop a Schur part that the
        # guard, relative to ||T_A - zeta||, then refuses.  C's eigenvalues
        # lie 0.25 apart, beyond the cluster threshold 1e-8 * 1e6
        U, V = random_unitary(rng, 12), random_unitary(rng, 12)
        lam = 1e6 + rng.uniform(2.0, 3.0, 12) + 1j * rng.uniform(-0.5, 0.5, 12)
        zeta = 1e6 + 0.25 * (np.arange(12) % 4 + 1j * (np.arange(12) // 4))
        A, C = U @ np.diag(lam) @ U.conj().T, V @ np.diag(zeta) @ V.conj().T
        D = random_complex(rng, 12, 12)
        ref = scipy.linalg.solve_sylvester(-C, A, D)
        for solver in (solve_spectral, solve_contour, solve_double_spectral):
            X = solver(SylvesterProblem(A, C, D)).X
            assert operator_norm(X - ref) <= 1e-8 * operator_norm(ref)

    @pytest.mark.parametrize("fault", ["inexact", "nan"])
    def test_guard_rejects_faulty_solves(self, rng, monkeypatch, fault):
        # each route of the kernel is faulted in turn, and every solver that
        # reaches it must raise: the contour's weights and a normal A's
        # Schur form (diagonal to rounding) take the division
        routes = ("_substitute", "_divide", "_hessenberg_solve")
        cases = [(solve_spectral, make_sylvester(rng, 4, 5, normal_a=False)),
                 (solve_spectral, make_sylvester(rng, 4, 5)),
                 (solve_double_spectral, make_sylvester(rng, 4, 5)),
                 (solve_contour, make_sylvester(rng, 4, 5, normal_a=False)),
                 (solve_contour, make_sylvester(rng, 4, 5)),
                 (lambda prob: resolvent(prob.A, 5.0), make_sylvester(rng, 4, 5, normal_a=False))]
        reached = []
        for solver, prob in cases:
            with monkeypatch.context() as m:
                calls = {route: count_calls(m, getattr(linalg, route), [linalg])
                         for route in routes}
                solver(prob)
            reached.append({route for route in routes if calls[route]})
        assert reached == [{"_substitute"}, {"_divide"}, {"_divide"},
                           {"_divide", "_substitute"}, {"_divide"}, {"_hessenberg_solve"}]
        for route in routes:
            with monkeypatch.context() as m:
                m.setattr(linalg, route, faulty_solve(fault, route))
                for (solver, prob), used in zip(cases, reached):
                    if route in used:
                        with pytest.raises(SingularResolventError):
                            solver(prob)

    def test_double_spectral_equals_cauchy_hadamard(self, rng):
        cases = [make_sylvester(rng, h, k) for h, k in ((4, 5), (7, 3), (1, 6))]
        for _ in range(3):  # 4-fold atoms of A and of C
            A = _clustered_normal(rng, 8) + 3.0 * np.eye(8)
            cases.append(SylvesterProblem(A, _clustered_normal(rng, 8),
                                          random_complex(rng, 8, 8)))
        for prob in cases:
            assert_allclose(solve_double_spectral(prob).X, _cauchy_hadamard(prob),
                            rtol=1e-13, atol=0.0)


class TestDual:
    def test_scalar_dual(self):
        X = solve_spectral(SCALAR).X
        Y = dual_solution(X)
        assert_allclose(Y, [[-0.5]], atol=1e-12)
        # Y C* - A* Y = D*
        assert abs(Y[0, 0] * 0.0 - 2.0 * Y[0, 0] - 1.0) <= 1e-12

    def test_dual_residual(self, rng):
        for _ in range(5):
            prob = make_sylvester(rng, 5, 4)
            X = solve_spectral(prob).X
            Y = dual_solution(X)
            res = operator_norm(Y @ adjoint(prob.C) - adjoint(prob.A) @ Y
                                - adjoint(prob.D))
            assert res <= 1e-10

    def test_involution(self, rng):
        X = random_complex(rng, 3, 4)
        assert_allclose(-adjoint(dual_solution(X)), X)

    def test_dual_matches_spectral_representation(self, rng):
        # the dual solution has its own integral form against the
        # measure of C*: Y = -sum_k (A* - conj(zeta_k))^{-1} D* P_k
        from opint import decompose_normal, resolvent
        prob = make_sylvester(rng, 4, 5)
        Y = dual_solution(solve_spectral(prob).X)
        sm = decompose_normal(prob.C)
        direct = np.zeros((prob.h, prob.k), dtype=complex)
        for zeta, P in zip(sm.eigenvalues, projections(sm)):
            direct -= (resolvent(adjoint(prob.A), np.conj(zeta))
                       @ adjoint(prob.D) @ P)
        assert operator_norm(Y - direct) <= 1e-10


class TestBounds:
    def test_scalar_bounds(self):
        report = solve_spectral(SCALAR)
        checks = verify_bounds(SCALAR, report)
        chk = checks["enorm_vs_numrange"]
        assert chk.observed == pytest.approx(0.5, abs=1e-12)
        assert chk.bound == pytest.approx(0.5, rel=1e-6)
        assert chk.observed <= chk.bound + 1e-9
        assert checks["enorm_vs_gap"].bound == pytest.approx(0.5)
        assert checks["hs_vs_gap"].ok
        assert report.bounds  # populated in place

    def test_normal_pairs_bounds_hold(self, rng):
        for _ in range(10):
            prob = make_sylvester(rng, 5, 5, normal_a=True)
            report = solve_spectral(prob)
            checks = verify_bounds(prob, report)
            assert checks["enorm_vs_gap"].ok
            assert checks["hs_vs_gap"].ok

    def test_near_normal_a_checks_hold(self):
        # A passes the normality test, but sigma_min(A) = 2.9999955 < 3:
        # with D the top singular direction of A^{-1}, ||X|| = 1/sigma_min
        A = np.array([[3.0, 9e-6], [0.0, 3.0]])
        prob = SylvesterProblem(A, [[0.0]], np.linalg.svd(A)[2][-1:])
        checks = verify_bounds(prob, solve_spectral(prob))
        assert set(checks) == {"enorm_vs_numrange", "enorm_vs_gap", "hs_vs_gap"}
        assert checks["hs_vs_gap"].observed == pytest.approx(1.0 / 2.9999955,
                                                             rel=1e-12)
        assert all(chk.ok for chk in checks.values()), checks

    def test_slack_is_relative(self):
        assert not sylvester.BoundCheck(1e-12, 1.19e-12).ok
        assert sylvester.BoundCheck(1e-12, 1e-12 * (1 + 5e-13)).ok
        assert sylvester.BoundCheck(1.0, 1.0 + 5e-13).ok
        assert not sylvester.BoundCheck(1.0, 1.0 + 2e-12).ok

    def test_verdicts_do_not_depend_on_the_scale_of_d(self):
        # X scales with D, and so does every bound.  Here ||X|| exceeds each
        # bound by 19 % (C = 1e-9 diag(1, -1) is one atom at 0, so d = 3e-9
        # overstates the true 2e-9); at D = 1e-20 both sides are near 1e-12,
        # where an absolute slack of 1e-12 read the same checks as passing
        verdicts = []
        for scale in (1e-20, 1e-9):
            prob = SylvesterProblem([[3e-9]], 1e-9 * np.diag([1.0, -1.0]),
                                    scale * np.ones((2, 1)))
            checks = verify_bounds(prob, solve_kronecker(prob))
            assert set(checks) == {"enorm_vs_numrange", "enorm_vs_gap", "hs_vs_gap"}
            verdicts.append({name: chk.ok for name, chk in checks.items()})
        assert verdicts[0] == verdicts[1]

    def test_hs_bound_sharp_scalar(self):
        d = 2.0
        prob = SylvesterProblem([[d]], [[0.0]], [[1.0]])
        report = solve_kronecker(prob)
        assert hs_norm(report.X) == pytest.approx(hs_norm(prob.D) / d, abs=1e-12)


class TestSeparation:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 5),
           st.floats(-16.0, -2.0), st.floats(-14.0, -1.0))
    def test_bounds_never_exceed_sigma_min(self, seed, h, k, log_scale,
                                           log_offset):
        A, C = near_normal_case(seed, h, k, log_scale, log_offset)
        prob = SylvesterProblem(A, C, np.ones((k, h)))
        # both the gated d (the larger bound) and gap_numrange
        bounds = sylvester._separation(prob)
        assert max(bounds) <= min_sigma(A, prob.measure().eigenvalues)

    def test_normal_a_gap_numrange_is_the_hull_distance(self, rng):
        for h, k in ((3, 4), (6, 5), (12, 3)):
            for _ in range(3):
                prob = make_sylvester(rng, h, k)
                eigs = np.linalg.eigvals(prob.A)
                exact = min(_hull_distance(eigs, z) for z in prob.measure().eigenvalues)
                assert solve_spectral(prob).gap_numrange == pytest.approx(
                    exact, rel=1e-12, abs=0.0)

    def test_atom_inside_the_hull_gives_zero(self):
        # spec(A) around the atom 0: conv(spec A) is in W(A), so the gap is 0
        prob = SylvesterProblem(np.diag([1.0, -1.0 + 1j, -1.0 - 1j]), [[0.0]],
                                np.ones((1, 3)))
        assert solve_spectral(prob).gap_numrange == 0.0

    def test_normal_a_reports_run_no_angle_sweep(self, rng, monkeypatch):
        calls = []
        real = linalg._support_values
        monkeypatch.setattr(linalg, "_support_values",
                            lambda A, t: calls.append(1) or real(A, t))
        for solver in ALL_SOLVERS:
            prob = make_sylvester(rng, 5, 4)
            verify_bounds(prob, solver(prob))
        assert calls == []
        prob = make_sylvester(rng, 5, 4, normal_a=False)
        verify_bounds(prob, solve_spectral(prob))
        assert calls  # the sweep of a non-normal A goes through the patch

    @pytest.mark.parametrize("normal", [True, False])
    def test_scales_exactly_with_a_power_of_two(self, rng, normal):
        T = np.triu(random_complex(rng, 5, 5))
        if normal:
            T = np.diag(np.diag(T)) + 1e-14 * np.triu(T, 1)
        pts = 10.0 + random_complex(rng, 4, 1).ravel()
        sweeps = []

        def bounds(c):
            sweep = lambda: sweeps.append(c) or numrange_gap(c * T, c * pts)
            return np.array(separation(c * T, c * pts, sweep))

        base = bounds(1.0)
        assert (len(sweeps) > 0) != normal
        for c in (2.0 ** 600, 2.0 ** -600):
            assert np.array_equal(bounds(c), c * base)

    def test_nu_counts_a_strict_lower_part(self, rng):
        # A = Z T Z* with T's off-diagonal part strictly lower: nu is
        # ||T - diag T||_F, and both bounds stay at or below the dense
        # sigma_min oracle, which the strict upper part alone would overshoot
        lam = np.array([3.0, 3.5 + 0.5j, 2.5 - 0.5j, 3.0 + 1.0j])
        T = np.diag(lam) + 0.3 * np.tril(random_complex(rng, 4, 4), -1)
        Z = random_unitary(rng, 4)
        A, pts = Z @ T @ adjoint(Z), np.array([1.0, 0.5j, 1.2 - 0.4j])
        oracle = min_sigma(A, pts)
        spectral, numrange = separation(T, pts, lambda: numrange_gap(A, pts))
        assert 0.0 < spectral <= oracle and numrange <= oracle
        upper_only = (np.abs(lam[:, None] - pts).min() - 4.0 * linalg._rounding_slack(T, pts))
        assert upper_only.min() > oracle

    @pytest.mark.parametrize("normal", [True, False])
    def test_schur_form_bounds_are_the_strict_upper_part_ones(self, rng, normal):
        # on a Schur T, T - diag T is its strict upper part to the bit: the
        # bounds are those of nu = ||triu(T, 1)||_F
        A = make_sylvester(rng, 6, 3, normal_a=normal).A
        T = scipy.linalg.schur(A, output="complex")[0]
        pts = random_complex(rng, 3, 1).ravel()
        sweep = lambda: numrange_gap(A, pts)
        s = linalg._distance_scale(T, pts)
        Ts, ps = T / s, pts / s
        lam = np.diag(Ts)
        nu = np.linalg.norm(np.triu(Ts, 1)) + 4.0 * linalg._rounding_slack(Ts, ps)
        hull = linalg._hull_distance(linalg._hull(lam), ps)
        numrange = (hull - nu).min() if np.all(nu <= 1e-12 * hull) else sweep() / s
        expected = (max(float((np.abs(lam[:, None] - ps).min(axis=0) - nu).min()), 0.0) * s,
                    max(float(numrange), 0.0) * s)
        assert separation(T, pts, sweep) == expected

    def test_huge_entries_keep_a_finite_gap(self):
        # squares of 1e200 overflow; the parent reported gap_numrange = 0
        prob = SylvesterProblem(1e200 * np.diag([5.0, 6.0]),
                                1e200 * np.diag([1.0, 2.0, 3.0j]), 1e200 * np.ones((3, 2)))
        report = solve_spectral(prob)
        assert report.gap_d == pytest.approx(3e200, rel=1e-14)
        assert report.gap_numrange == pytest.approx(3e200, rel=1e-12)
        checks = verify_bounds(prob, report)
        assert set(checks) == {"enorm_vs_numrange", "enorm_vs_gap", "hs_vs_gap"}
        assert all(np.isfinite(c.bound) and c.ok for c in checks.values())


def test_report_residual_is_recomputed(rng):
    prob = make_sylvester(rng, 4, 4)
    rep = solve_spectral(prob)
    assert rep.residual == pytest.approx(sylvester_residual(prob, rep.X))
