import dataclasses
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from opint import (
    BoundaryEigenvalueError,
    BoundaryEigenvalueWarning,
    NotNormalError,
    OperatorFunction,
    Rect,
    ShapeMismatchError,
    SpectralMeasure,
    Tolerances,
    apply_function,
    decompose_normal,
    e_norm,
    exact_right_integral,
    hs_norm,
    is_normal,
    measure_of_rect,
    operator_norm,
    spectral_function,
    spectral_invariant_residuals,
)

import opint.linalg as linalg
from opint.spectral import _cluster

from conftest import (bounding_rect, cluster_restart_loop, projections, random_complex,
                      random_normal, random_unitary)


class TestDecompose:
    def test_diagonal_with_multiplicity(self):
        sm = decompose_normal(np.diag([1.0, 1j, 1j]))
        assert len(sm) == 2
        assert_allclose(sorted(sm.multiplicities), [1, 2])
        by_eig = {complex(z): projections(sm)[i] for i, z in enumerate(sm.eigenvalues)}
        assert_allclose(by_eig[1 + 0j], np.diag([1.0, 0.0, 0.0]), atol=1e-12)
        assert_allclose(by_eig[1j], np.diag([0.0, 1.0, 1.0]), atol=1e-12)

    def test_symmetric_two_by_two(self):
        sm = decompose_normal(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert_allclose(sorted(sm.eigenvalues.real), [-1.0, 1.0], atol=1e-12)
        for z, P in zip(sm.eigenvalues, projections(sm)):
            s = np.sign(z.real)
            expected = 0.5 * np.array([[1.0, s], [s, 1.0]])
            assert_allclose(P, expected, atol=1e-12)

    def test_nilpotent_raises(self):
        with pytest.raises(NotNormalError):
            decompose_normal(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("scale", [1e200, 1e150, 1e-200])
    def test_normality_decided_on_a_rescaled_copy(self, scale):
        # squares of 1e200 overflow and of 1e-200 underflow: the test reads
        # C / 2^k there, where the defect is finite (a NaN would fail it);
        # at 1e150 it reads C itself, with the numbers it always took
        C = scale * np.diag([1.0, 2.0, 3.0j])
        norm, s, defect, threshold = linalg._normality(C, operator_norm(C), Tolerances())
        assert defect <= threshold
        if scale == 1e150:
            assert s == 1.0 and defect == linalg.normality_defect(C)
            assert threshold == 1e-10 * norm ** 2
        else:
            assert 1.0 <= norm / s < 2.0
        if scale > 1.0:
            sm = decompose_normal(C)
            assert_allclose(sm.eigenvalues, scale * np.array([3.0j, 1.0, 2.0]), rtol=1e-15)
        jordan = scale * np.array([[1.0, 1.0], [0.0, 1.0]])
        assert is_normal(C) and not is_normal(jordan)
        with pytest.raises(NotNormalError, match=r"exceeds .*= [0-9.e+-]+"
                           + ("$" if scale == 1e150 else r", both for C / 2\^")):
            decompose_normal(jordan)

    def test_eigensolver_noise_is_clustered(self, rng):
        C, _ = random_normal(rng, 6, repeat=True)
        sm = decompose_normal(C)
        assert int(sm.multiplicities.sum()) == 6
        assert max(sm.multiplicities) >= 3
        res = spectral_invariant_residuals(sm, C)
        assert all(v <= 1e-10 for v in res.values())

    def test_zero_matrix(self):
        sm = decompose_normal(np.zeros((3, 3)))
        assert len(sm) == 1
        assert sm.eigenvalues[0] == 0.0
        assert_allclose(projections(sm)[0], np.eye(3), atol=1e-14)

    def test_chained_spacing_merges_by_centroid(self):
        # each value is within tol_cluster = 1e-8 of the next, but the
        # centroid of the first merged pair is 1.2e-8 from the third one
        sm = decompose_normal(np.diag([1.0, 1.0 + 0.8e-8, 1.0 + 1.6e-8]))
        assert len(sm) == 2
        assert sorted(sm.multiplicities) == [1, 2]

    def test_factored_measure_memory(self, rng):
        # a dense projection tensor of 400 simple atoms would take 1 GB
        n = 400
        C, _ = random_normal(rng, n)
        Y = random_complex(rng, n, 3)
        tracemalloc.start()
        try:
            sm = decompose_normal(C)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sm) == n
        assert peak < 50e6
        # with every atom one-dimensional the E-norm is the Frobenius norm
        assert e_norm(Y, sm) == pytest.approx(hs_norm(Y), rel=1e-12)

    def test_bounding_rect_contains_spectrum(self, rng):
        C, eigs = random_normal(rng, 6)
        sm = decompose_normal(C)
        rect = bounding_rect(sm, pad=0.5)
        assert len(sm.atoms_in(rect)) == len(sm)

    def test_representatives_separated(self, rng):
        for _ in range(10):
            C, _ = random_normal(rng, 8)
            sm = decompose_normal(C)
            thresh = 1e-8 * max(1.0, sm.spectral_radius)
            eigs = sm.eigenvalues
            for i in range(len(eigs)):
                for j in range(i + 1, len(eigs)):
                    assert abs(eigs[i] - eigs[j]) > thresh


@st.composite
def near_duplicates(draw):
    """Values near up to 6 centres in [-1, 1]^2: each centre starts a
    chain of 1 to 5 values a spacing s apart along a random direction, or
    is ringed by 1 to 5 values s away from it, so that a merged pair of
    them can come within reach of the centre.  The values are exact or
    jittered by up to s / 50 and in shuffled order; the threshold lies on
    either side of s, or is 2 s or 3 s."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    s = 10.0 ** draw(st.floats(-10.0, -2.0))
    values = []
    for c in rng.uniform(-1.0, 1.0, 6) + 1j * rng.uniform(-1.0, 1.0, 6):
        m = rng.integers(1, 6)
        steps = (np.arange(m) * np.exp(2j * np.pi * rng.random()) if rng.random() < 0.5
                 else np.append(0.0, np.exp(2j * np.pi * rng.random(m))))
        values.extend(c + s * steps)
    values = np.array(values[:draw(st.integers(1, len(values)))])
    if draw(st.booleans()):
        values = values + s / 50.0 * (rng.uniform(-1.0, 1.0, len(values))
                                      + 1j * rng.uniform(-1.0, 1.0, len(values)))
    factor = draw(st.sampled_from([0.5, 0.9, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.02, 2.0, 3.0]))
    return values[rng.permutation(len(values))], factor * s


class TestCluster:
    """`_cluster` keeps the partner of each representative instead of
    restarting its scan after a merge; the restart loop is the oracle."""

    @settings(max_examples=200, deadline=None)
    @given(near_duplicates())
    def test_matches_restart_loop(self, case):
        values, threshold = case
        groups, reps = _cluster(values, threshold)
        oracle_groups, oracle_reps = cluster_restart_loop(values, threshold)
        assert groups == oracle_groups
        assert reps.tobytes() == oracle_reps.tobytes()

    def test_jittered_pairs_at_scale(self):
        # 2000 values in 1000 pairs 1e-12 apart, 1e-3 or more between pairs
        rng = np.random.default_rng(2000)
        side = np.arange(1000)
        centres = (side % 40 + 1j * (side // 40)) * 0.01 + 0.004 * rng.random(1000)
        values = np.repeat(centres, 2) + 1e-12 * np.exp(2j * np.pi * rng.random(2000))
        values = values[rng.permutation(2000)]
        groups, reps = _cluster(values, 1e-8)
        assert sorted(len(g) for g in groups) == [2] * 1000
        # each mean lies half a pair's spread, at most 1e-12, from a member
        assert np.all(np.abs(reps - values[[g[0] for g in groups]]) <= 1.01e-12)
        # the restart loop is too slow at n = 2000: compare on 300 of them
        groups, reps = _cluster(values[:300], 1e-8)
        oracle_groups, oracle_reps = cluster_restart_loop(values[:300], 1e-8)
        assert groups == oracle_groups and reps.tobytes() == oracle_reps.tobytes()


class TestMeasure:
    def test_half_open_membership(self):
        sm = decompose_normal(np.diag([1.0, 1j]))
        rect = Rect(0.0, 2.0, -1.0, 1.0)
        with warnings.catch_warnings():
            # Im(i) = 1 sits exactly on the upper edge: flagged, excluded
            warnings.simplefilter("ignore", BoundaryEigenvalueWarning)
            E = measure_of_rect(sm, rect)
        assert_allclose(E, np.diag([1.0, 0.0]), atol=1e-12)

    def test_boundary_warning(self):
        sm = decompose_normal(np.diag([1.0, 1j]))
        with pytest.warns(BoundaryEigenvalueWarning):
            measure_of_rect(sm, Rect(0.0, 2.0, -1.0, 1.0))

    def test_boundary_guard_names_the_first_eigenvalue(self):
        # both atoms lie exactly tol_cluster = 2^-20 from an edge line
        tol = Tolerances(tol_cluster=2.0 ** -20)
        sm = SpectralMeasure([0.25 + 0.5j, 0.5 + 0.25j], np.eye(2), [1, 1], tol)
        at = Rect(0.25 - 2.0 ** -20, 0.5 + 2.0 ** -20, 0.0, 1.0)
        with pytest.warns(BoundaryEigenvalueWarning) as record:
            measure_of_rect(sm, at)
        assert len(record) == 1
        assert str(record[0].message).startswith("eigenvalue (0.25+0.5j) ")
        with pytest.raises(BoundaryEigenvalueError, match=r"^eigenvalue \(0.25\+0.5j\) "):
            exact_right_integral(OperatorFunction.constant(np.eye(2)), sm, at)
        clear = Rect(0.25 - 2.0 ** -19, 0.5 + 2.0 ** -19, 0.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            measure_of_rect(sm, clear)
        exact_right_integral(OperatorFunction.constant(np.eye(2)), sm, clear)

    def test_boundary_guard_reads_the_tolerances_of_the_measure(self):
        # 5e-7 from the edge b = 1: inside the measure's tol_cluster 1e-6,
        # outside the default 1e-8
        sm = decompose_normal(np.diag([0.0, 1.0 + 5e-7]), Tolerances(tol_cluster=1e-6))
        rect = Rect(-0.5, 1.0, -0.5, 0.5)
        assert sm.near_boundary(rect)
        with pytest.warns(BoundaryEigenvalueWarning):
            measure_of_rect(sm, rect)
        with pytest.raises(BoundaryEigenvalueError):
            exact_right_integral(OperatorFunction.constant(np.eye(2)), sm, rect)

    def test_basis_is_every_column(self, rng):
        C, _ = random_normal(rng, 9, repeat=True)
        sm = decompose_normal(C)
        assert len(sm) == 7
        assert np.array_equal(sm.columns(range(len(sm))), sm.basis)

    def test_covering_rect_is_identity(self, rng):
        C, _ = random_normal(rng, 7)
        sm = decompose_normal(C)
        E = measure_of_rect(sm, Rect(-2.0, 2.0, -2.0, 2.0))
        assert operator_norm(E - np.eye(7)) <= 1e-12

    def test_additivity_on_disjoint_rects(self, rng):
        C, _ = random_normal(rng, 8)
        sm = decompose_normal(C)
        left = Rect(-2.0, 0.05, -2.0, 2.0)
        right = Rect(0.05, 2.0, -2.0, 2.0)
        union = Rect(-2.0, 2.0, -2.0, 2.0)
        total = measure_of_rect(sm, left) + measure_of_rect(sm, right)
        assert operator_norm(total - measure_of_rect(sm, union)) <= 1e-12

    def test_intersection_is_product(self, rng):
        C, _ = random_normal(rng, 9)
        sm = decompose_normal(C)
        r1 = Rect(-2.0, 0.3, -2.0, 2.0)
        r2 = Rect(-0.4, 2.0, -2.0, 0.6)
        r12 = Rect(-0.4, 0.3, -2.0, 0.6)
        lhs = measure_of_rect(sm, r1) @ measure_of_rect(sm, r2)
        assert operator_norm(lhs - measure_of_rect(sm, r12)) <= 1e-12


class TestMeasureFields:
    def test_fields_cannot_be_reassigned(self):
        sm = decompose_normal(np.diag([1.0, 2.0, 2.0]))
        with pytest.raises(dataclasses.FrozenInstanceError):
            sm.tolerances = None
        with pytest.raises(dataclasses.FrozenInstanceError):
            sm.eigenvalues = 10 * sm.eigenvalues
        assert sm.spectral_radius == 2.0
        assert sm.tolerances == Tolerances()

    @pytest.mark.parametrize("eigenvalues, basis, multiplicities", [
        ([1.0, 2.0], np.eye(3), [1, 1]),  # a column of no atom
        ([1.0, 2.0], np.eye(2), [0, 2]),
        ([1.0, 2.0], np.eye(2), [2, 0]),
        ([1.0, 2.0], np.eye(2), [1, 2]),  # more columns than the basis has
        ([1.0, 2.0, 3.0], np.eye(3), [1, 2]),
        ([], np.eye(0), []),
        ([[1.0, 2.0]], np.eye(2), [[1, 1]]),
        ([1.0, 2.0], np.ones((2, 3)), [1, 1]),
        ([1.0, 2.0], np.eye(2), [1.7, 1.2]),  # truncated to [1, 1] before
    ])
    def test_shapes_must_fit(self, eigenvalues, basis, multiplicities):
        with pytest.raises(ShapeMismatchError):
            SpectralMeasure(eigenvalues, basis, multiplicities)


class TestSpectralFunction:
    def test_quadrant_values(self):
        sm = decompose_normal(np.diag([1.0, 1j]))
        assert_allclose(spectral_function(sm, 0.5, 2.0), np.diag([0.0, 1.0]),
                        atol=1e-12)

    def test_below_spectrum_is_zero(self):
        sm = decompose_normal(np.diag([1.0, 1j]))
        assert_allclose(spectral_function(sm, -5.0, -5.0), np.zeros((2, 2)))

    def test_psd_monotone(self, rng):
        C, _ = random_normal(rng, 8)
        sm = decompose_normal(C)
        grid = [-1.5, -0.5, 0.0, 0.5, 1.5]
        for lam, lam2 in zip(grid, grid[1:]):
            for mu, mu2 in zip(grid, grid[1:]):
                diff = spectral_function(sm, lam2, mu2) - spectral_function(sm, lam, mu)
                smallest = np.linalg.eigvalsh(0.5 * (diff + diff.conj().T)).min()
                assert smallest >= -1e-12

    def test_four_corner_identity(self, rng):
        C, _ = random_normal(rng, 8)
        sm = decompose_normal(C)
        lam, lam2, mu, mu2 = -0.4, 0.7, -0.8, 0.3
        combo = (spectral_function(sm, lam2, mu2) - spectral_function(sm, lam2, mu)
                 - spectral_function(sm, lam, mu2) + spectral_function(sm, lam, mu))
        E = measure_of_rect(sm, Rect(lam, lam2, mu, mu2))
        assert operator_norm(combo - E) <= 1e-12


class TestFunctionalCalculus:
    def test_identity_function_reconstructs(self):
        C = np.diag([1.0, 1j])
        sm = decompose_normal(C)
        assert_allclose(apply_function(sm, lambda z: z), C, atol=1e-12)

    def test_square(self):
        sm = decompose_normal(np.diag([1.0, 1j]))
        assert_allclose(apply_function(sm, lambda z: z * z),
                        np.diag([1.0, -1.0]), atol=1e-12)

    def test_constant_one(self, rng):
        C, _ = random_normal(rng, 5)
        sm = decompose_normal(C)
        assert_allclose(apply_function(sm, lambda z: 1.0), np.eye(5), atol=1e-12)


def _dense_residuals(sm):
    """The residuals measured on the dense projection tensor."""
    P = projections(sm)
    return {
        "hermitian": max(operator_norm(p - p.conj().T) for p in P),
        "idempotent": max(operator_norm(p @ p - p) for p in P),
        "orthogonality": max([operator_norm(P[i] @ P[j])
                              for i in range(len(P)) for j in range(i + 1, len(P))]
                             + [0.0]),
        "completeness": operator_norm(P.sum(axis=0) - np.eye(sm.dim)),
    }


class TestInvariantResiduals:
    def test_simple_spectrum_n300_is_fast(self, rng):
        # the dense check formed 300 projections and 45k pairwise products
        C, _ = random_normal(rng, 300)
        sm = decompose_normal(C)
        started = time.perf_counter()
        res = spectral_invariant_residuals(sm, C)
        assert time.perf_counter() - started < 1.0
        assert all(v <= 1e-10 for v in res.values())

    @pytest.mark.parametrize("basis", ["twice_identity", "perturbed_unitary"])
    def test_bounds_dense_residuals(self, rng, basis):
        if basis == "twice_identity":
            Q = 2.0 * np.eye(4)
        else:
            Q = random_unitary(rng, 4) + 0.05 * random_complex(rng, 4, 4)
        sm = SpectralMeasure([0.0, 1.0, 1j], Q, [2, 1, 1])
        res = spectral_invariant_residuals(sm)
        dense = _dense_residuals(sm)
        assert set(res) == set(dense)
        # the bounds hold in exact arithmetic and are attained on a simple
        # atom, where the two roundings may differ in the last place
        for key, value in dense.items():
            assert res[key] >= value * (1.0 - 1e-12), key
        assert res["idempotent"] >= 1e-2 and res["completeness"] >= 1e-2
