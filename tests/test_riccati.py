import dataclasses
import inspect
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import opint
import opint.linalg as linalg
import opint.riccati as riccati
import opint.spectral as spectral
import opint.sylvester as sylvester
from opint import (
    CertificateViolationError,
    MaxIterationsError,
    OperatorFunction,
    RiccatiProblem,
    ShapeMismatchError,
    SingularResolventError,
    SylvesterProblem,
    Tolerances,
    ZeroQuadraticTermError,
    adjoint,
    certify,
    decompose_normal,
    exact_left_integral,
    operator_norm,
    posterior_check,
    riccati_residual,
    solve_fixed_point,
    solve_spectral,
)
from opint.linalg import (DEFAULT_TOLERANCES, numrange_distances, numrange_gap,
                          resolvent, separation)

from conftest import (OVERFLOWING_STEP, bounding_rect, count_calls, count_decompositions,
                      lu_resolvent_raises, make_certified_riccati, min_sigma,
                      near_normal_case, random_complex, random_normal, random_unitary,
                      shift_sweep, spectral_norm_guard_raises)

SCALAR = RiccatiProblem([[3.0]], [[1.0]], [[0.0]], [[1.0]])
NEAR_NORMAL = np.array([[3.0, 9e-6], [0.0, 3.0]])
SCALAR_X = (np.sqrt(13.0) - 3.0) / 2.0


class TestCertify:
    def test_scalar_quantities(self):
        cert = certify(SCALAR)
        assert cert.mode == "normal_a"
        assert cert.d == pytest.approx(3.0)
        assert cert.condition_ok
        assert cert.r_min == pytest.approx(1.5 - np.sqrt(1.25), abs=1e-12)
        assert cert.r_max == pytest.approx(2.0, abs=1e-12)
        assert cert.q_at_rmin == pytest.approx(
            1.0 / (3.0 - cert.r_min) ** 2, abs=1e-12)
        assert cert.q_at_rmin == pytest.approx(0.1459, abs=1e-4)
        assert cert.apriori_norm_x == cert.r_min
        assert cert.apriori_enorm_x == cert.r_min
        # ||B|| = 1 < d/2 and ||B|| + ||D||_E = 2 < 3
        assert cert.strict_contraction_predicted

    @pytest.mark.parametrize("power", [-900, -520, 520, 900])
    def test_radii_are_scale_free(self, rng, power):
        # X solves the equation for t A, t B, t C and t D too, so the radii and
        # q do not move, though d^2 / 4 or ||B|| ||D||_E leave the float range;
        # one atom, which no clustering tolerance can merge at a small t
        prob, t = make_certified_riccati(rng, 4, 1), 2.0 ** power
        ref = certify(prob)
        cert = certify(RiccatiProblem(t * prob.A, t * prob.B, t * prob.C, t * prob.D))
        assert cert.condition_ok
        assert cert.strict_contraction_predicted == ref.strict_contraction_predicted
        for name in ("r_min", "r_max", "q_at_rmin"):
            assert getattr(cert, name) == pytest.approx(getattr(ref, name), rel=1e-12)

    @pytest.mark.parametrize("power", [-600, 600])
    def test_opposite_scales_of_b_and_d(self, rng, power):
        # t B and D / t leave d and ||B|| ||D||_E as they are, so the condition
        # and q, and divide both radii by t, though ||B|| and ||D||_E then lie
        # 2^1200 apart
        prob, t = make_certified_riccati(rng, 4, 3), 2.0 ** power
        ref = certify(prob)
        cert = certify(RiccatiProblem(prob.A, t * prob.B, prob.C, prob.D / t))
        assert cert.condition_ok and ref.condition_ok
        assert cert.q_at_rmin == pytest.approx(ref.q_at_rmin, rel=1e-12)
        for name in ("r_min", "r_max"):
            assert t * getattr(cert, name) == pytest.approx(getattr(ref, name), rel=1e-12)

    def test_mismatched_scales_decide_the_condition(self):
        # ||B|| ||D||_E = 1 < d^2 / 4 with ||B|| = 1e-200: r_min = 1e200 / (1.5 +
        # sqrt(1.25)) and q = 1 / (1.5 + sqrt(1.25))^2
        cert = certify(RiccatiProblem([[3.0]], [[1e-200]], [[0.0]], [[1e200]]))
        assert cert.condition_ok and not cert.strict_contraction_predicted
        root = 1.5 + np.sqrt(1.25)
        assert cert.r_min == pytest.approx(1e200 / root, rel=1e-13)
        assert cert.r_max == pytest.approx(2e200, rel=1e-13)
        assert cert.q_at_rmin == pytest.approx(1.0 / root ** 2, rel=1e-13)
        # sqrt(||B|| ||D||_E) = 1e35 is far above d / 2 = 5e-101
        cert = certify(RiccatiProblem([[1e-100]], [[1e200]], [[0.0]], [[1e-130]]))
        assert not cert.condition_ok and not cert.strict_contraction_predicted
        assert np.isnan(cert.r_min) and np.isnan(cert.q_at_rmin)

    def test_r_min_does_not_cancel(self):
        # (d/2 - sqrt(d^2/4 - ||B|| ||D||_E)) / ||B|| is 0 in floats here, below
        # the solution's norm 1/3 + O(1e-17)
        cert = certify(RiccatiProblem([[3.0]], [[1e-17]], [[0.0]], [[1.0]]))
        assert cert.r_min == pytest.approx(1.0 / 3.0, rel=1e-13)

    def test_zero_d(self):
        cert = certify(RiccatiProblem([[3.0]], [[1.0]], [[0.0]], [[0.0]]))
        assert cert.condition_ok
        assert cert.r_min == 0.0
        assert cert.apriori_norm_x == 0.0

    def test_condition_fails_when_data_large(self):
        cert = certify(RiccatiProblem([[3.0]], [[2.0]], [[0.0]], [[2.0]]))
        # sqrt(4) = 2 > 1.5
        assert not cert.condition_ok
        assert np.isnan(cert.r_min)

    def test_zero_b_redirects(self):
        with pytest.raises(ZeroQuadraticTermError):
            certify(RiccatiProblem([[3.0]], [[0.0]], [[0.0]], [[1.0]]))

    def test_numerical_range_mode(self, rng):
        prob = make_certified_riccati(rng, 4, 4, normal_a=False)
        cert = certify(prob)
        assert cert.mode == "numerical_range"
        assert cert.condition_ok

    def test_numerical_range_d_is_min_of_distances(self, rng):
        for h, k in ((4, 4), (6, 3), (3, 7)):
            prob = make_certified_riccati(rng, h, k, normal_a=False)
            cert = certify(prob)
            assert cert.mode == "numerical_range"
            ref = numrange_distances(
                prob.A, decompose_normal(prob.C).eigenvalues).min()
            assert cert.d == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_shape_validation(self):
        with pytest.raises(ShapeMismatchError):
            RiccatiProblem(np.eye(2), np.ones((3, 2)), np.eye(2), np.eye(2))

    def test_near_normal_a_certifies_no_more_than_sigma_min(self):
        # ||A*A - AA*|| = 8.1e-11 passes the normality test, yet
        # sigma_min(A) = 2.9999955 is below the spectral gap 3
        cert = certify(RiccatiProblem(NEAR_NORMAL, [[1.0], [0.0]], [[0.0]],
                                      [[1.0, 0.0]]))
        assert cert.d <= 2.9999955
        assert cert.d <= min_sigma(NEAR_NORMAL, [0.0])
        assert cert.d == pytest.approx(2.9999955, rel=1e-12)
        assert cert.mode == "numerical_range"

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 5),
           st.floats(-16.0, -2.0), st.floats(-14.0, -1.0))
    def test_d_never_exceeds_sigma_min(self, seed, h, k, log_scale, log_offset):
        A, C = near_normal_case(seed, h, k, log_scale, log_offset)
        prob = RiccatiProblem(A, np.ones((h, k)), C, np.ones((k, h)))
        assert certify(prob).d <= min_sigma(A, prob.measure().eigenvalues)

    @pytest.mark.parametrize("normal_a", [True, False])
    def test_angle_sweep_only_for_non_normal_a(self, rng, monkeypatch, normal_a):
        calls = []
        real = linalg._support_values
        monkeypatch.setattr(linalg, "_support_values",
                            lambda A, t: calls.append(1) or real(A, t))
        prob = make_certified_riccati(rng, 6, 4, normal_a=normal_a)
        calls.clear()
        cert = certify(prob)
        assert cert.mode == ("normal_a" if normal_a else "numerical_range")
        assert bool(calls) == (not normal_a)

    def test_checks_survive_optimized_python(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(opint.__file__)))
        script = textwrap.dedent("""
            import numpy as np
            from opint import (RiccatiProblem, SylvesterProblem, certify,
                               solve_spectral, verify_bounds)
            assert False, "python -O should have stripped this assert"
            A = np.array([[3.0, 9e-6], [0.0, 3.0]])
            cert = certify(RiccatiProblem(A, [[1.0], [0.0]], [[0.0]], [[1.0, 0.0]]))
            prob = SylvesterProblem(A, [[0.0]], np.linalg.svd(A)[2][-1:])
            checks = verify_bounds(prob, solve_spectral(prob))
            print(cert.mode, cert.d <= 2.9999955,
                  ",".join(sorted(k for k, c in checks.items() if c.ok)))
        """)
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == [
            "numerical_range", "True", "enorm_vs_gap,enorm_vs_numrange,hs_vs_gap"]


class TestPreparedProblem:
    def test_certificate_once_per_tolerance(self, rng):
        base = make_certified_riccati(rng, 4, 4, normal_a=False)
        prob = RiccatiProblem(base.A, base.B, base.C, base.D,
                              tolerances=Tolerances(tol_cluster=1e-6))
        cert = certify(prob)
        assert certify(prob) is cert and prob._cache["certify"] is cert
        assert cert == certify(base)  # the same atoms
        with pytest.raises(dataclasses.FrozenInstanceError):
            cert.d = 10.0
        # d is the separation the Sylvester reports use, and a fresh one
        assert cert.d == max(sylvester._separation(prob))
        atoms = decompose_normal(prob.C).eigenvalues
        assert cert.d == max(separation(
            scipy.linalg.schur(prob.A, output="complex")[0], atoms,
            lambda: numrange_gap(prob.A, atoms)))
        for fn in (certify, solve_fixed_point):
            assert "n_angles" not in inspect.signature(fn).parameters

    def test_matrices_are_read_only_private_copies(self):
        B = np.ones((1, 1), dtype=np.complex128)
        prob = RiccatiProblem([[3.0]], B, [[0.0]], [[1.0]])
        for name in ("A", "B", "C", "D"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(prob, name, np.eye(1))
            with pytest.raises(ValueError):
                getattr(prob, name)[0, 0] = 2.0
        B[0, 0] = 7.0
        assert prob.B[0, 0] == 1.0

    @pytest.mark.parametrize("normal_a, gaps", [(False, 1), (True, 0)])
    def test_report_chain_decomposes_and_certifies_once(
            self, rng, monkeypatch, normal_a, gaps):
        base = make_certified_riccati(rng, 5, 4, normal_a=normal_a)
        tol = Tolerances(tol_cluster=1e-6)
        prob = RiccatiProblem(base.A, base.B, base.C, base.D, tolerances=tol)
        schurs, forms = count_decompositions(monkeypatch)
        hessenbergs = count_calls(monkeypatch, scipy.linalg.hessenberg, [scipy.linalg])
        verdicts = count_calls(monkeypatch, linalg.is_normal)
        norms = count_calls(monkeypatch, operator_norm)
        measures = count_calls(monkeypatch, spectral._measure_of_schur)
        sweeps = count_calls(monkeypatch, linalg.numrange_gap)
        certify(prob)
        report = solve_fixed_point(prob)
        posterior_check(prob, report)
        assert len(measures) == 1 and len(sweeps) == gaps
        assert prob.measure().tolerances is tol
        # one verdict per matrix: C's for its measure, A's for its kept form
        assert len(verdicts) == 2 and verdicts[0] is prob.C and verdicts[1] is prob.A
        # the norms of B, of each step, of the residual and of X, and no
        # norm of C or of its commutator: the bounds decide its verdict
        # and every stop test
        assert len(norms) == 1 + report.iterations + 2
        assert norms[0] is prob.B and not any(M is prob.C for M in norms)
        # a normal form of C, a normal form of a normal A and a Schur form
        # of any other, then a Hessenberg form of A + BX per later step
        assert len(forms) == 1 + normal_a and forms[0] is prob.C
        assert len(schurs) == 1 - normal_a
        assert all(M is prob.A for M in schurs + forms[1:])
        assert len(hessenbergs) == report.iterations - 1 > 0


class TestMap:
    @pytest.mark.parametrize("mult", [1, 4])
    @pytest.mark.parametrize("normal_a", [True, False])
    def test_equals_left_integral(self, rng, mult, normal_a):
        for _ in range(3):
            prob = make_certified_riccati(rng, 5, 8, normal_a=normal_a)
            if mult > 1:  # the same problem with 4-fold atoms
                eigs = np.repeat(decompose_normal(prob.C).eigenvalues[:2], mult)
                U = random_unitary(rng, 8)
                C = U @ np.diag(eigs) @ adjoint(U)
                prob = RiccatiProblem(prob.A, prob.B, C, prob.D)
            sm = prob.measure()
            assert len(sm) == 8 // mult
            X = random_complex(rng, 8, 5, scale=0.1)
            M = prob.A + prob.B @ X
            G = OperatorFunction.resolvent_family(M, prob.D)
            ref = exact_left_integral(G, sm, bounding_rect(sm))
            value = riccati._apply_map(prob, sm, X)
            assert operator_norm(value - ref) <= 1e-12 * operator_norm(ref)

    def test_shift_on_the_spectrum_raises_singular_resolvent(self):
        prob = RiccatiProblem(np.diag([0.5, 2.0]), np.ones((2, 2)),
                              np.diag([0.5, -1.0]), np.ones((2, 2)))
        with pytest.raises(SingularResolventError):
            riccati._apply_map(prob, prob.measure(), np.zeros((2, 2)))


class TestSolve:
    def test_scalar_closed_form(self):
        report = solve_fixed_point(SCALAR, tol=1e-13)
        assert report.converged
        assert abs(report.X[0, 0] - SCALAR_X) <= 1e-12
        assert report.residual <= 1e-12

    def test_zero_d_converges_immediately(self):
        prob = RiccatiProblem([[3.0]], [[1.0]], [[0.0]], [[0.0]])
        report = solve_fixed_point(prob)
        assert report.iterations == 1
        assert operator_norm(report.X) == 0.0

    def test_uncertified_requires_override(self):
        prob = RiccatiProblem([[3.0]], [[1.0]], [[0.0]], [[3.0]])
        with pytest.raises(CertificateViolationError) as err:
            solve_fixed_point(prob)
        assert err.value.certificate is not None
        assert not err.value.certificate.condition_ok

    def test_override_best_effort(self):
        # uncertified but still convergent: X^2 + 3X - 3 = 0
        prob = RiccatiProblem([[3.0]], [[1.0]], [[0.0]], [[3.0]])
        report = solve_fixed_point(prob, override_certificate=True, tol=1e-12)
        assert report.converged
        expected = (-3.0 + np.sqrt(21.0)) / 2.0
        assert abs(report.X[0, 0] - expected) <= 1e-10

    def test_overflowing_iterate_stops_with_the_last_finite_one(self):
        # B X_1 is about 1e380: the iteration stops before solving on it
        prob = RiccatiProblem(1e-20 * np.random.default_rng(0).standard_normal((2, 2)),
                              1e200 * np.ones((2, 2)), 1e20 * np.diag([1.0, 2.0j]),
                              1e200 * np.ones((2, 2)))
        with pytest.raises(MaxIterationsError, match="diverged: A [+] BX is not finite "
                                                     "at step 2") as err:
            solve_fixed_point(prob, override_certificate=True, max_iter=30)
        report = err.value.report
        assert report.iterations == len(report.step_norms) == 1 and not report.converged
        assert np.isfinite(report.X).all() and report.residual == np.inf

    def test_step_of_overflowing_norm_never_stops(self):
        # X_1 is finite but ||X_1 - X_0|| overflows: the stop test read
        # inf <= inf, and the run was converged with residual inf
        prob = RiccatiProblem(*OVERFLOWING_STEP)
        with pytest.raises(MaxIterationsError, match="diverged: A [+] BX is not finite "
                                                     "at step 2") as err:
            solve_fixed_point(prob, override_certificate=True)
        report = err.value.report
        assert report.step_norms == [np.inf] and not report.converged
        assert np.isfinite(report.X).all()

    @pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf])
    def test_bad_tol_rejected(self, tol):
        # inf would stop after one step and report converged
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            solve_fixed_point(SCALAR, tol=tol)

    @pytest.mark.parametrize("max_iter", [2.5, 3.0, "3", None, 0])
    def test_max_iter_must_be_an_integer_of_at_least_1(self, max_iter):
        # 2.5 reached range() and raised TypeError
        with pytest.raises(ValueError, match="^max_iter must be an integer of at least 1, got"):
            solve_fixed_point(SCALAR, max_iter=max_iter)

    def test_max_iter_that_indexes_is_an_integer(self):
        X = solve_fixed_point(SCALAR, max_iter=30).X
        assert np.array_equal(solve_fixed_point(SCALAR, max_iter=np.int64(30)).X, X)

    def test_tolerances_must_be_a_tolerances(self):
        with pytest.raises(TypeError, match="tolerances must be a Tolerances"):
            RiccatiProblem([[3.0]], [[1.0]], [[0.0]], [[1.0]], tolerances=None)

    def test_max_iterations_carries_report(self):
        prob = RiccatiProblem([[3.0]], [[1.0]], [[0.0]], [[1.0]])
        with pytest.raises(MaxIterationsError) as err:
            solve_fixed_point(prob, tol=1e-14, max_iter=2)
        assert err.value.report is not None
        assert not err.value.report.converged

    def test_stop_test_from_bounds_matches_the_svd_rule(self, rng, monkeypatch):
        # (A, B / s, C, s D) is solved by s X: at s = 2^6, ||X|| > 1 lets its
        # bounds straddle a stop test, which the SVD of X then decides.  With
        # bounds (0, inf) every test takes that SVD, as it always did.
        base = make_certified_riccati(rng, 6, 8, normal_a=False)
        s = 2.0 ** 6
        prob = RiccatiProblem(base.A, base.B / s, base.C, base.D * s)
        first = solve_fixed_point(prob)
        ratio = first.step_norms[-1] / operator_norm(first.X)
        straddled = 0
        for tol in (1e-10, 1e-6, ratio, ratio * (1.0 - 1e-15), ratio * (1.0 + 1e-15)):
            with monkeypatch.context() as mp:
                norms = count_calls(mp, operator_norm)
                fast = solve_fixed_point(prob, tol=tol)
            straddled += len(norms) > fast.iterations + 1  # the steps, the residual
            with monkeypatch.context() as mp:
                mp.setattr(linalg, "_norm_bounds", lambda M: (0.0, np.inf))
                slow = solve_fixed_point(prob, tol=tol)
            assert fast.X.tobytes() == slow.X.tobytes()
            assert fast.step_norms == slow.step_norms and fast.iterations == slow.iterations
        assert straddled >= 3

    def test_two_starts_agree(self, rng):
        for _ in range(5):
            prob = make_certified_riccati(rng, 5, 4)
            cert = certify(prob)
            r1 = solve_fixed_point(prob, tol=1e-12, max_iter=200)
            x0 = random_complex(rng, prob.k, prob.h, scale=0.9 * cert.r_min)
            r2 = solve_fixed_point(prob, x0=x0, tol=1e-12, max_iter=200)
            assert operator_norm(r1.X - r2.X) <= 1e-8

    def test_contraction_factor_observed(self, rng):
        for _ in range(5):
            prob = make_certified_riccati(rng, 4, 5)
            report = solve_fixed_point(prob, tol=1e-11, max_iter=200)
            q = report.certificate.q_at_rmin
            steps = report.step_norms
            ratios = [b / a for a, b in zip(steps, steps[1:]) if a > 1e-13]
            assert all(r <= q + 0.05 for r in ratios)

    def test_apriori_bounds_hold(self, rng):
        for _ in range(5):
            prob = make_certified_riccati(rng, 5, 5, normal_a=bool(rng.integers(2)))
            report = solve_fixed_point(prob, tol=1e-11, max_iter=200)
            cert = report.certificate
            assert operator_norm(report.X) < cert.r_max
            assert operator_norm(report.X) <= cert.apriori_norm_x + 1e-9
            assert report.enorm_x <= cert.apriori_enorm_x + 1e-9


class TestResidual:
    def test_scalar(self):
        report = solve_fixed_point(SCALAR, tol=1e-13)
        assert riccati_residual(SCALAR, report.X) <= 1e-12

    def test_zero_solution_gives_norm_d(self, rng):
        prob = make_certified_riccati(rng, 4, 4)
        X0 = np.zeros((prob.k, prob.h))
        assert riccati_residual(prob, X0) == pytest.approx(operator_norm(prob.D))

    def test_dual_residual_matches(self, rng):
        prob = make_certified_riccati(rng, 4, 5)
        report = solve_fixed_point(prob, tol=1e-12, max_iter=200)
        X = report.X
        Y = -adjoint(X)
        dual = operator_norm(Y @ adjoint(prob.C) - adjoint(prob.A) @ Y
                             + Y @ adjoint(prob.B) @ Y - adjoint(prob.D))
        assert dual == pytest.approx(report.residual, abs=1e-13)


class TestPosterior:
    def test_scalar_checks(self):
        report = solve_fixed_point(SCALAR, tol=1e-13)
        checks = posterior_check(SCALAR, report)
        sup = checks["aposteriori_sup_resolvent"]
        assert sup.observed == pytest.approx(SCALAR_X, abs=1e-10)
        assert sup.bound == pytest.approx(1.0 / (3.0 + SCALAR_X), abs=1e-10)
        assert sup.ok
        gap = checks["aposteriori_gap"]
        assert gap.bound == pytest.approx(1.0 / (3.0 - SCALAR_X), abs=1e-10)
        assert gap.ok
        assert checks["strict_enorm_lt_1"].ok
        assert checks["strict_norm_order"].ok

    def test_random_certified(self, rng):
        for _ in range(5):
            prob = make_certified_riccati(rng, 5, 4, normal_a=bool(rng.integers(2)))
            report = solve_fixed_point(prob, tol=1e-11, max_iter=200)
            checks = posterior_check(prob, report)
            assert all(chk.ok for chk in checks.values())

    def test_sup_resolvent_equals_lu_inverse_norms(self, rng):
        # max_k 1/sigma_min against the norm of an LU inverse per atom
        for _ in range(8):
            prob = make_certified_riccati(rng, 6, 5, normal_a=bool(rng.integers(2)))
            report = solve_fixed_point(prob, tol=1e-11)
            shifted = prob.A + prob.B @ report.X
            per_atom = max(operator_norm(resolvent(shifted, zeta))
                           for zeta in prob.measure().eigenvalues)
            bound = posterior_check(prob, report)["aposteriori_sup_resolvent"].bound
            assert bound == pytest.approx(report.certificate.enorm_d * per_atom,
                                          rel=1e-13)

    def test_chunks_give_the_same_supremum(self, rng, monkeypatch):
        M = np.triu(random_complex(rng, 5, 5)) + 3.0 * np.eye(5)
        zetas = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        whole = riccati._sup_resolvent_norm(M, zetas, DEFAULT_TOLERANCES)
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", 2 * M.size)
        assert riccati._sup_resolvent_norm(M, zetas, DEFAULT_TOLERANCES) == whole

    def test_singular_shift_sweep_at_least_as_strict_as_lu(self, rng):
        # no shift passes where the guarded LU inverse or the spectral-norm
        # residual guard would have raised
        A0, _ = random_normal(rng, 4)
        jordan = 2.0 * np.eye(4) + np.diag(np.ones(3), 1)
        matrices = [np.diag([3.0, 2.0 + 1.0j, 1e3, -1e-3j]), jordan,
                    A0 + 0.5 * np.triu(random_complex(rng, 4, 4), 1), 1e4 * A0]
        hits = 0
        for M in matrices:
            for z in shift_sweep(np.linalg.eigvals(M)):
                old_raises = spectral_norm_guard_raises(M, z) or lu_resolvent_raises(M, z)
                try:
                    riccati._sup_resolvent_norm(M, np.array([z]), DEFAULT_TOLERANCES)
                    new_raises = False
                except SingularResolventError:
                    new_raises = True
                assert new_raises or not old_raises, (M, z)
                hits += old_raises
        assert hits > 0

    def test_shift_on_the_spectrum_raises(self, rng):
        # X with A + BX = zeta_0 I puts an atom of C on spec(A + BX)
        prob = make_certified_riccati(rng, 4, 4)
        report = solve_fixed_point(prob)
        zeta = prob.measure().eigenvalues[0]
        X = np.linalg.solve(prob.B, zeta * np.eye(4) - prob.A)
        with pytest.raises(SingularResolventError):
            posterior_check(prob, dataclasses.replace(report, X=X))


class TestEquivalence:
    def test_fixed_point_iff_small_residual(self, rng):
        # a converged fixed point has a tiny equation residual, and the
        # shifted spectra stay separated along the iterate
        prob = make_certified_riccati(rng, 5, 5)
        report = solve_fixed_point(prob, tol=1e-12, max_iter=200)
        scale = (operator_norm(prob.A) + operator_norm(prob.C)
                 + operator_norm(prob.B) * operator_norm(report.X) + 1.0)
        assert report.residual <= 10 * 1e-12 * scale * max(1.0, operator_norm(report.X))
        shifted = prob.A + prob.B @ report.X
        ea = np.linalg.eigvals(shifted)
        ec = np.linalg.eigvals(prob.C)
        assert np.abs(ea[:, None] - ec[None, :]).min() > 0.1

    def test_b_to_zero_approaches_sylvester(self, rng):
        prob = make_certified_riccati(rng, 4, 4)
        X_syl = solve_spectral(SylvesterProblem(prob.A, prob.C, prob.D)).X
        errors = []
        for eps in (1e-2, 1e-4):
            scaled = RiccatiProblem(prob.A, eps * prob.B / operator_norm(prob.B),
                                    prob.C, prob.D)
            X_ric = solve_fixed_point(scaled, tol=1e-13, max_iter=300).X
            errors.append(operator_norm(X_ric - X_syl) / eps)
        # difference scales linearly with ||B||: the ratio stays bounded
        assert errors[0] < 10.0
        assert errors[1] < 10.0
