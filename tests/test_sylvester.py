import dataclasses
import inspect

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
    GapViolationError,
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

from conftest import (bounding_rect, count_calls, faulty_substitute, make_sylvester,
                      min_sigma, near_normal_case, node_sum_lu, projections,
                      random_complex, random_normal, random_unitary, ring_sylvester,
                      shift_sweep, spectral_norm_guard_raises)
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
        real_solve = scipy.linalg.solve
        monkeypatch.setattr(scipy.linalg, "solve",
                            lambda K, b: real_solve(K, b) * (1.0 + 1e-4))
        with pytest.raises(SingularSystemError):
            solve_kronecker(prob)

    def test_guard_rejects_an_inexact_solve_near_overflow(self, monkeypatch):
        # ||x|| of a solution near 1e200 overflows unless the test scales it
        prob = SylvesterProblem(np.diag([3.0, 4.0]), np.diag([0.0, 1.0]),
                                1e200 * np.ones((2, 2)))
        solve_kronecker(prob)
        real_solve = scipy.linalg.solve
        monkeypatch.setattr(scipy.linalg, "solve",
                            lambda K, b: real_solve(K, b) * (1.0 + 1e-3))
        with pytest.raises(SingularSystemError, match="lost all accuracy"):
            solve_kronecker(prob)


class TestContourConstruction:
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

    def test_node_blocks_do_not_change_the_sum(self, rng, monkeypatch):
        prob = make_sylvester(rng, 6, 5, normal_a=False)
        circles = [(complex(z), 0.3) for z in np.linalg.eigvals(prob.C)]
        X, n = contour_quadrature(prob, circles)
        monkeypatch.setattr(sylvester, "_NODE_BLOCK", 1)  # one node per block
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
                        try:
                            resolvent(prob.A, node)
                            resolvent(prob.C, node)
                            old_raises = False
                        except SingularResolventError:
                            old_raises = True
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

    def test_guard_rejects_inexact_and_infinite_solves(self, rng, monkeypatch):
        tol = linalg.DEFAULT_TOLERANCES
        with pytest.raises(SingularResolventError):  # 1e10 / 1e-310 overflows
            linalg._guarded_solve(np.full((1, 1), 1e-310 + 0j),
                                  np.full((1, 1), 1e10 + 0j), tol, 0.0)
        # S = M - z for M = triu(...) and z = -3
        S = np.triu(random_complex(rng, 4, 4)) + 3.0 * np.eye(4)
        B = random_complex(rng, 4, 2)
        linalg._guarded_solve(S, B, tol, -3.0)
        real_solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda S, B: real_solve(S, B) * (1.0 + 1e-8))
        with pytest.raises(SingularResolventError, match=r"at z = \(-3"):
            linalg._guarded_solve(S, B, tol, -3.0)

    def test_resolvent_and_contour_nodes_share_one_guarded_solve(self, rng,
                                                                  monkeypatch):
        guarded = count_calls(monkeypatch, linalg._guarded_solve)
        calls = count_calls(monkeypatch, linalg._triangular_resolvents)
        accepted = count_calls(monkeypatch, linalg._accept_residuals)
        prob = make_sylvester(rng, 4, 3, normal_a=False)
        resolvent(prob.A, 5.0)
        assert len(guarded) == 1 and calls == [] and len(accepted) == 1
        circles = [(complex(z), 0.1) for z in np.linalg.eigvals(prob.C)]
        _, n = contour_quadrature(prob, circles)
        # one block per level: (Y^T P)(P T_C^T P - z) = -D_t^T P, then W (T_A - z) = Y,
        # each accepted by the residual rule that accepts `resolvent`'s solve
        assert len(guarded) == 1 and len(calls) == 2 * (int(np.log2(n // 32)) + 1)
        assert len(accepted) == 1 + len(calls)

    def test_triangular_nodes_match_lu_nodes(self, rng, monkeypatch):
        shapes = [(4, 4, True), (4, 6, False), (6, 4, True), (6, 6, False),
                  (10, 10, True), (10, 10, False), (12, 16, False), (24, 24, True)]
        probs = [make_sylvester(rng, h, k, normal_a=normal) for h, k, normal in shapes]
        probs += [ring_sylvester(rng, 8, 12), _strongly_nonnormal(rng, 6, 5),
                  _strongly_nonnormal(rng, 8, 8)]

        def contour(prob):
            eig_a = np.diag(prob.schur("A")[0])
            circles = sylvester._build_circles(eig_a, prob.measure().eigenvalues,
                                               spectral_gap(prob))
            try:
                return (*contour_quadrature(prob, circles), len(circles))
            except NoConvergenceError as exc:
                return exc.value, None, len(circles)

        found = [contour(prob) for prob in probs]
        # the oracle receives T_C and D_t back from their exact reversals
        monkeypatch.setattr(sylvester, "_node_sum", lambda T_Cr, R_C, T_A, z, w, tol:
                            node_sum_lu(T_Cr[::-1, ::-1].T, -R_C[:, ::-1].T, T_A, z, w))
        for prob, (X, n, circles) in zip(probs, found):
            X_lu, n_lu, _ = contour(prob)
            assert n == n_lu
            assert operator_norm(X - X_lu) <= 1e-13 * operator_norm(X_lu)
        assert found[len(shapes)][2] == 12  # the ring takes one circle per atom

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
    """Lists of the matrices given to scipy.linalg.schur, operator_norm and
    normality_defect, and of the Schur factors T the measures are built from."""
    return (count_calls(monkeypatch, scipy.linalg.schur, [scipy.linalg]),
            count_calls(monkeypatch, operator_norm),
            count_calls(monkeypatch, linalg.normality_defect),
            count_calls(monkeypatch, spectral._measure_of_schur))


def _once_each(seen, prob):
    """seen holds prob.A and prob.C, each exactly once."""
    return (len(seen) == 2 and sum(M is prob.A for M in seen) == 1
            and sum(M is prob.C for M in seen) == 1)


class TestOneDecomposition:
    # calls: the measures a solve builds, of C and for the double sum of A
    @pytest.mark.parametrize("solver, calls", [
        (solve_spectral, 1), (solve_kronecker, 1), (solve_contour, 1),
        (solve_double_spectral, 2)])
    def test_decompose_once_per_matrix(self, rng, monkeypatch, solver, calls):
        prob = make_sylvester(rng, 4, 5)
        schurs, _, _, measures = _count_factoring(monkeypatch)
        report = solver(prob)
        assert _once_each(schurs, prob)
        assert len(measures) == calls
        # every measure is built from the kept Schur form of its matrix
        kept = [prob.schur("C")[0], prob.schur("A")[0]]
        assert all(any(T is K for K in kept) for T in measures)
        monkeypatch.undo()
        # the report is the one a fresh decomposition of C gives
        atoms = decompose_normal(prob.C).eigenvalues
        assert report.gap_numrange == separation(
            scipy.linalg.schur(prob.A, output="complex")[0], atoms,
            lambda: numrange_gap(prob.A, atoms))[1]

    def test_double_spectral_decomposes_each_matrix_once(self, rng, monkeypatch):
        prob = make_sylvester(rng, 4, 5)
        schurs, _, defects, measures = _count_factoring(monkeypatch)
        reports = [solve_double_spectral(prob) for _ in range(3)]
        verify_bounds(prob, reports[0])
        assert _once_each(schurs, prob) and _once_each(defects, prob)
        assert len(measures) == 2
        assert all(np.array_equal(r.X, reports[0].X) for r in reports)
        sm_a = prob._measure("A")
        assert not any(M.flags.writeable for M in
                       (sm_a.eigenvalues, sm_a.basis, sm_a.multiplicities))
        monkeypatch.undo()
        ref = decompose_normal(prob.A)
        for M, R in zip((sm_a.eigenvalues, sm_a.basis, sm_a.multiplicities),
                        (ref.eigenvalues, ref.basis, ref.multiplicities)):
            assert np.array_equal(M, R)

    # per report (solve + verify_bounds): a Schur form, a norm and a
    # normality defect of each of A and C, and the residual; the contour
    # adds two norms per node doubling, three on this instance (32 to 256
    # nodes on its one circle)
    @pytest.mark.parametrize("solver, calls", [
        (solve_spectral, 1), (solve_kronecker, 1), (solve_contour, 1),
        (solve_double_spectral, 2)])
    def test_solve_and_verify_decompose_c_once(self, rng, monkeypatch,
                                               solver, calls):
        prob = make_sylvester(rng, 5, 5)
        schurs, norms, defects, measures = _count_factoring(monkeypatch)
        verify_bounds(prob, solver(prob))
        assert len(schurs) == 2 and len(defects) == 2
        assert len(norms) == (11 if solver is solve_contour else 5)
        assert len(measures) == calls
        assert sum(T is prob.schur("C")[0] for T in measures) == 1
        assert _once_each(schurs, prob) and _once_each(defects, prob)
        assert sum(M is prob.A for M in norms) == sum(M is prob.C for M in norms) == 1

    @pytest.mark.parametrize("normal_a", [True, False])
    def test_one_schur_form_for_any_number_of_tolerances(self, rng, monkeypatch,
                                                         normal_a):
        # each problem's own tolerances: every solver and bound check on it
        # reads one Schur form and one measure of each matrix
        base = make_sylvester(rng, 4, 5, normal_a=normal_a)
        solvers = ALL_SOLVERS if normal_a else ALL_SOLVERS[:3]
        for tol in (sylvester.DEFAULT_TOLERANCES, Tolerances(tol_cluster=1e-6),
                    Tolerances(tol_solve=1e-9)):
            prob = SylvesterProblem(base.A, base.C, base.D, tolerances=tol)
            schurs, _, defects, measures = _count_factoring(monkeypatch)
            for solver in solvers:
                verify_bounds(prob, solver(prob))
            assert _once_each(schurs, prob) and _once_each(defects, prob)
            assert len(measures) == (2 if normal_a else 1)
            assert sum(T is prob.schur("C")[0] for T in measures) == 1
            assert prob.measure().tolerances is tol
            monkeypatch.undo()


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
        schurs, _, defects, measures = _count_factoring(monkeypatch)
        sm = prob.measure()
        assert prob.measure() is sm and sm.tolerances is tol
        assert len(measures) == 1
        assert set(prob._cache) == {("normality", "C"), ("schur", "C"),
                                    ("measure", "C")}
        # from one Schur form of C, after one normality test
        assert len(schurs) == len(defects) == 1 and schurs[0] is prob.C
        with pytest.raises(ValueError):  # the kept measure cannot be edited
            sm.basis[0, 0] = 0.0
        T, Z = prob.schur("C")
        assert not (T.flags.writeable or Z.flags.writeable)
        monkeypatch.undo()
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
        # normality_defect takes its norm of the commutator inside linalg
        prob = make_sylvester(rng, 5, 4, normal_a=normal_a)
        seen = []
        real = sylvester.operator_norm
        monkeypatch.setattr(sylvester, "operator_norm",
                            lambda M: seen.append(M) or real(M))
        verify_bounds(prob, solve_spectral(prob))
        assert sum(M is prob.A for M in seen) == 1
        assert sum(M is prob.C for M in seen) == 1
        assert prob.norm_scale() == max(1.0, real(prob.A), real(prob.C))


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

    @pytest.mark.parametrize("fault", ["inexact", "nan"])
    def test_guard_rejects_faulty_solves(self, rng, monkeypatch, fault):
        cases = [(solve_spectral, make_sylvester(rng, 4, 5, normal_a=False)),
                 (solve_double_spectral, make_sylvester(rng, 4, 5)),
                 (solve_contour, make_sylvester(rng, 4, 5, normal_a=False))]
        for solver, prob in cases:
            solver(prob)
        monkeypatch.setattr(linalg, "_substitute", faulty_substitute(fault))
        for solver, prob in cases:
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


def test_report_residual_is_recomputed(rng):
    prob = make_sylvester(rng, 4, 4)
    rep = solve_spectral(prob)
    assert rep.residual == pytest.approx(sylvester_residual(prob, rep.X))
