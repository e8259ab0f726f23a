import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opint
from opint import (
    BoundViolationError,
    Rect,
    ShapeMismatchError,
    OperatorFunction,
    SpectralMeasure,
    adjoint,
    bounded_integral_bound_check,
    check_enorm_sandwich,
    decompose_normal,
    e_norm,
    measure_of_rect,
    operator_norm,
)

from conftest import projections, random_complex, random_normal, random_unitary


def set_partitions(items):
    """All partitions of a list into nonempty disjoint blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1:]
        yield [[first]] + partition


def brute_force_e_norm(Y, sm):
    """Supremum over every set partition of the atoms (oracle)."""
    best = 0.0
    for partition in set_partitions(list(range(len(sm)))):
        total = 0.0
        for block in partition:
            E = projections(sm)[block].sum(axis=0)
            total += operator_norm(adjoint(Y) @ E @ Y)
        best = max(best, total)
    return float(np.sqrt(best))


class TestENorm:
    def test_identity_two_atoms(self):
        sm = decompose_normal(np.diag([0.0, 1.0]))
        assert e_norm(np.eye(2), sm) == pytest.approx(np.sqrt(2.0))

    def test_diag_34(self):
        sm = decompose_normal(np.diag([0.0, 1.0]))
        assert e_norm(np.diag([3.0, 4.0]), sm) == pytest.approx(5.0)

    def test_zero(self):
        sm = decompose_normal(np.diag([0.0, 1.0]))
        assert e_norm(np.zeros((2, 3)), sm) == 0.0

    def test_shape_mismatch(self):
        sm = decompose_normal(np.diag([0.0, 1.0]))
        with pytest.raises(ShapeMismatchError):
            e_norm(np.eye(3), sm)

    def test_matches_brute_force_oracle(self, rng):
        from conftest import random_unitary
        for _ in range(25):
            n_atoms = int(rng.integers(1, 5))
            dim = n_atoms + int(rng.integers(0, 3))
            eigs = rng.standard_normal(n_atoms) + 1j * rng.standard_normal(n_atoms)
            diag = np.concatenate([eigs, rng.choice(eigs, dim - n_atoms)])
            U = random_unitary(rng, dim)
            C = U @ np.diag(diag) @ U.conj().T
            sm = decompose_normal(C)
            assert len(sm) <= 4
            Y = random_complex(rng, dim, int(rng.integers(1, 4)))
            assert e_norm(Y, sm) == pytest.approx(brute_force_e_norm(Y, sm),
                                                  abs=1e-12)

    def test_equals_one_norm_per_atom_block(self, rng):
        # simple, 3-fold and 4-fold atoms; every block's norm comes from
        # one stacked SVD per multiplicity, bit for bit the per-block SVDs
        eigs = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        U = random_unitary(rng, 15)
        sm = decompose_normal(U @ np.diag(np.repeat(eigs, [1, 3, 1, 4, 1, 3, 1, 1]))
                              @ U.conj().T)
        assert sorted(sm.multiplicities) == [1] * 5 + [3, 3, 4]
        for h in (0, 1, 6, 15):
            Y = random_complex(rng, 15, h)
            blocks = np.split(adjoint(sm.basis) @ Y, np.cumsum(sm.multiplicities)[:-1])
            loop = float(np.sqrt(sum(operator_norm(B) ** 2 for B in blocks)))
            assert e_norm(Y, sm) == loop
        assert e_norm(np.zeros((15, 0)), sm) == 0.0

    def test_takes_no_operator_norm(self, rng, monkeypatch):
        C, _ = random_normal(rng, 12, repeat=True)
        sm = decompose_normal(C)
        calls = []
        for module in (opint.linalg, opint.enorm):
            monkeypatch.setattr(module, "operator_norm",
                                lambda M, f=module.operator_norm: calls.append(1) or f(M))
        e_norm(random_complex(rng, 12, 5), sm)
        assert calls == []

    def test_scaling(self, rng):
        C, _ = random_normal(rng, 5)
        sm = decompose_normal(C)
        Y = random_complex(rng, 5, 3)
        assert e_norm(-2.5j * Y, sm) == pytest.approx(2.5 * e_norm(Y, sm))

    @settings(max_examples=30, deadline=None)
    @given(st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                              allow_infinity=False))
    def test_scaling_hypothesis(self, alpha):
        rng = np.random.default_rng(4242)
        C, _ = random_normal(rng, 4)
        sm = decompose_normal(C)
        Y = random_complex(rng, 4, 2)
        assert e_norm(alpha * Y, sm) == pytest.approx(
            abs(alpha) * e_norm(Y, sm), rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_norms_leave_no_square_out_of_range(self, scale):
        # squared, 1e200 overflowed (OverflowError) and 1e-200 underflowed to 0
        sm = decompose_normal(np.eye(2))
        Y = scale * np.ones((2, 2))
        for value in (e_norm(Y, sm), opint.hs_norm(Y)):
            assert value == pytest.approx(2.0 * scale, rel=1e-15, abs=0.0)
        op, en, hs = check_enorm_sandwich(Y, sm)
        assert op == pytest.approx(en, rel=1e-15, abs=0.0)
        assert en == pytest.approx(hs, rel=1e-15, abs=0.0)
        # two atoms, one of them far below the other
        sm = decompose_normal(np.diag([0.0, 1.0]))
        Y = np.array([[scale, scale], [1.0, 1.0]])
        expected = np.sqrt(2.0) * np.hypot(scale, 1.0)
        assert e_norm(Y, sm) == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_projection_contracts(self, rng):
        C, _ = random_normal(rng, 6)
        sm = decompose_normal(C)
        Y = random_complex(rng, 6, 4)
        E = measure_of_rect(sm, Rect(-2.0, 0.2, -2.0, 2.0))
        assert e_norm(E @ Y, sm) <= e_norm(Y, sm) + 1e-12


class TestSandwich:
    def test_diag_example(self):
        sm = decompose_normal(np.diag([0.0, 1.0]))
        assert check_enorm_sandwich(np.diag([3.0, 4.0]), sm) == \
            pytest.approx((4.0, 5.0, 5.0))

    def test_single_atom_collapses_to_operator_norm(self, rng):
        # one eigenvalue means one projection = I, so ||Y||_E = ||Y||
        sm = decompose_normal(np.eye(4) * (2.0 + 1j))
        assert len(sm) == 1
        Y = random_complex(rng, 4, 3)
        op, en, _ = check_enorm_sandwich(Y, sm)
        assert en == pytest.approx(op, abs=1e-13)

    def test_random_sandwich(self, rng):
        for _ in range(30):
            dim = int(rng.integers(2, 31))
            C, _ = random_normal(rng, dim)
            sm = decompose_normal(C)
            Y = random_complex(rng, dim, int(rng.integers(1, dim + 1)))
            op, en, hs = check_enorm_sandwich(Y, sm)
            assert op <= en + 1e-12 <= hs + 2e-12


class TestIntegralBound:
    def test_constant_weight(self, rng):
        C, _ = random_normal(rng, 5)
        sm = decompose_normal(C)
        Y = random_complex(rng, 5, 3)
        rect = Rect(-2.0, 2.0, -2.0, 2.0)
        lhs, rhs = bounded_integral_bound_check(
            Y, OperatorFunction.constant(np.eye(3)), sm, rect)
        assert lhs == pytest.approx(operator_norm(Y), abs=1e-12)
        assert rhs == pytest.approx(e_norm(Y, sm), abs=1e-12)

    def test_zero_operator(self, rng):
        C, _ = random_normal(rng, 4)
        sm = decompose_normal(C)
        lhs, rhs = bounded_integral_bound_check(
            np.zeros((4, 2)), OperatorFunction.constant(np.eye(2)), sm,
            Rect(-2.0, 2.0, -2.0, 2.0))
        assert (lhs, rhs) == (0.0, 0.0)

    def test_random_instances(self, rng):
        rect = Rect(-2.0, 2.0, -2.0, 2.0)
        for _ in range(20):
            dim = int(rng.integers(2, 21))
            h = int(rng.integers(1, 5))
            C, _ = random_normal(rng, dim)
            sm = decompose_normal(C)
            Y = random_complex(rng, dim, h)
            M = random_complex(rng, h, h)
            F = OperatorFunction(lambda lam, mu, M=M:
                                 (1.0 + 0.3 * lam - 0.2j * mu) * M)
            lhs, rhs = bounded_integral_bound_check(Y, F, sm, rect)
            assert lhs <= rhs + 1e-10

    def test_shape_mismatch(self, rng):
        C, _ = random_normal(rng, 4)
        sm = decompose_normal(C)
        with pytest.raises(ShapeMismatchError):
            bounded_integral_bound_check(
                random_complex(rng, 4, 2), OperatorFunction.constant(np.eye(3)),
                sm, Rect(-2.0, 2.0, -2.0, 2.0))


def broken_measure():
    """Two atoms on a basis 2I: each "projection" is 4 e_k e_k*."""
    return SpectralMeasure(eigenvalues=[0.0, 1.0], basis=2.0 * np.eye(2),
                           multiplicities=[1, 1])


class TestBoundViolation:
    def test_sandwich_raises(self):
        # ||I||_E reads sqrt(8) > ||I||_2 = sqrt(2) on the broken measure
        with pytest.raises(BoundViolationError, match="exceeds"):
            check_enorm_sandwich(np.eye(2), broken_measure())

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_sandwich_slack_scales_with_the_norms(self, scale):
        with pytest.raises(BoundViolationError, match="exceeds"):
            check_enorm_sandwich(scale * np.eye(2), broken_measure())
        sm = decompose_normal(np.diag([0.0, 1.0]))
        assert check_enorm_sandwich(scale * np.diag([3.0, 4.0]), sm) == \
            pytest.approx((4.0 * scale, 5.0 * scale, 5.0 * scale), rel=1e-15, abs=0)

    def test_integral_bound_raises(self):
        # lhs = ||sum_k P_k|| = 4 exceeds rhs = ||I||_E = sqrt(8)
        with pytest.raises(BoundViolationError, match="integral bound"):
            bounded_integral_bound_check(
                np.eye(2), OperatorFunction.constant(np.eye(2)),
                broken_measure(), Rect(-2.0, 2.0, -2.0, 2.0))

    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-12])
    def test_integral_bound_slack_scales_with_the_bound(self, rng, scale):
        # each "projection" is 4 q_k q_k*, so lhs = 4 ||Y|| is about 1.7 rhs
        # at every scale; a slack floored at tol_solve hid it below 1e-10
        sm = SpectralMeasure([0.1, 0.2j, -0.3], 2.0 * random_unitary(rng, 3), [1, 1, 1])
        with pytest.raises(BoundViolationError, match="integral bound"):
            bounded_integral_bound_check(
                scale * random_complex(rng, 3, 2), OperatorFunction.constant(np.eye(2)),
                sm, Rect(-1.0, 1.0, -1.0, 1.0))

    def test_checks_survive_optimized_python(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(opint.__file__)))
        script = textwrap.dedent("""
            import numpy as np
            from opint import (BoundViolationError, OperatorFunction, Rect,
                               SpectralMeasure, bounded_integral_bound_check,
                               check_enorm_sandwich)
            assert False, "python -O should have stripped this assert"
            sm = SpectralMeasure([0.0, 1.0], 2.0 * np.eye(2), [1, 1])
            checks = [lambda: check_enorm_sandwich(np.eye(2), sm),
                      lambda: bounded_integral_bound_check(
                          np.eye(2), OperatorFunction.constant(np.eye(2)), sm,
                          Rect(-2.0, 2.0, -2.0, 2.0))]
            for check in checks:
                try:
                    check()
                except BoundViolationError:
                    continue
                raise SystemExit("bound check passed on a broken measure")
            print("raised")
        """)
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "raised"
