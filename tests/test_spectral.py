import dataclasses
import time
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
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
from opint.spectral import _PHASE, _cliques, _cluster, _measure_of_schur, _normal_form

from conftest import (bounding_rect, cluster_restart_loop, count_calls, projections,
                      random_complex, random_normal, random_unitary)


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

    def test_normal_matrix_takes_no_svd(self, rng, monkeypatch):
        # the bounds decide the normality test; the normal form is the only
        # factorization
        C, _ = random_normal(rng, 64)
        norms = count_calls(monkeypatch, operator_norm)
        verdicts = count_calls(monkeypatch, linalg.is_normal)
        sm = decompose_normal(C)
        assert len(sm) == 64 and len(verdicts) == 1 and not norms

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


def _distances(values):
    d = values[:, None] - values
    return np.hypot(d.real, d.imag)


def _arc(rng, c, t):
    """c and 1 to 4 values on a short arc of radius t about it, each moved
    by ulps towards c until its computed distance is within t."""
    values = [c]
    for z in c + t * np.exp(2j * np.pi * rng.random()
                            + 1j * 10.0 ** rng.uniform(-5, -3) * np.arange(1, rng.integers(2, 6))):
        while abs(z - c) > t:
            z = complex(np.nextafter(z.real, c.real), np.nextafter(z.imag, c.imag))
        values.append(z)
    return values


@st.composite
def isolated_cliques(draw):
    """(values, threshold t, whether a chain is among them): 1 to 8 groups
    in shuffled order around centres 6.5 t or more apart.  A group is a
    centre and 0 to 4 values within 0.45 t of it; or an `_arc`, a clique
    whose diameter is within ulps of t; or a pair rho t apart and a value
    beyond t from both but within t of their mean; or a chain [c,
    c + 0.8 t e, c + 1.6 t e]."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    t = 10.0 ** draw(st.floats(-10.0, -2.0))
    kinds = draw(st.lists(st.sampled_from(["small", "arc", "reach", "chain"]),
                          min_size=1, max_size=8))
    values = []
    for i, kind in enumerate(kinds):
        c = complex(rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0)) + 6.5 * t * (i % 3 + 1j * (i // 3))
        e = np.exp(2j * np.pi * rng.random())
        if kind == "small":
            m = rng.integers(0, 5)
            values += [c, *(c + 0.45 * t * rng.random(m) * np.exp(2j * np.pi * rng.random(m)))]
        elif kind == "arc":
            values += _arc(rng, c, t)
        elif kind == "reach":
            rho = rng.uniform(0.5, 0.99)
            values += [c, c + rho * t * e,
                       c + 0.5 * rho * t * e + 1j * e * t * rng.uniform(np.sqrt(1 - rho ** 2 / 4), 1)]
        else:
            values += [c, c + 0.8 * t * e, c + 1.6 * t * e]
    values = np.array(values)
    return values[rng.permutation(len(values))], t, "chain" in kinds


class TestCliques:
    """`_cliques` reads the merge loop's result off the distance table, or
    leaves the spectrum to the loop; the restart loop is the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(isolated_cliques())
    def test_matches_restart_loop(self, case):
        values, threshold, chain = case
        groups, reps = _cluster(values, threshold)
        oracle_groups, oracle_reps = cluster_restart_loop(values, threshold)
        assert groups == oracle_groups
        assert reps.tobytes() == oracle_reps.tobytes()
        if chain:  # not a clique: the loop
            assert _cliques(values, values, _distances(values), threshold) is None

    def test_reads_clustered_spectra_in_one_pass(self):
        # 300 permuted spectra of 4-fold atoms with eigensolver-sized noise
        rng = np.random.default_rng(300)
        for _ in range(300):
            k = int(rng.integers(1, 17))
            atoms = rng.uniform(-1, 1, k) + 1j * rng.uniform(-1, 1, k)
            values = np.repeat(atoms, 4) + 1e-15 * (rng.standard_normal(4 * k)
                                                    + 1j * rng.standard_normal(4 * k))
            values = values[rng.permutation(4 * k)]
            found = _cliques(values, values, _distances(values), 1e-8)
            oracle_groups, oracle_reps = cluster_restart_loop(values, 1e-8)
            assert found is not None and found[0] == oracle_groups
            assert found[1].tobytes() == oracle_reps.tobytes()

    def test_arcs_within_ulps_of_the_threshold(self):
        # the mean of two values at t from c can round to beyond t from it
        rng = np.random.default_rng(5)
        for _ in range(1000):
            t = 10.0 ** rng.uniform(-9, -7)
            values = np.array(_arc(rng, complex(*rng.uniform(0.5, 1.0, 2)), t))
            values = values[rng.permutation(len(values))]
            groups, reps = _cluster(values, t)
            oracle_groups, oracle_reps = cluster_restart_loop(values, t)
            assert groups == oracle_groups and reps.tobytes() == oracle_reps.tobytes()

    def test_spectrum_spread_past_the_float_range(self):
        # differences of eigenvalues near +-1.7e308 overflow unless the values
        # are divided by a power of two first
        U = np.linalg.qr(np.random.default_rng(0).standard_normal((24, 24)))[0]
        M = U @ np.diag(np.linspace(-1.7, 1.7, 24)) @ U.T
        ref = decompose_normal(M)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sm = decompose_normal(1e308 * M)
        assert np.array_equal(sm.multiplicities, ref.multiplicities)
        assert np.abs(sm.eigenvalues / 1e308 - ref.eigenvalues).max() <= 1e-13

    def test_a_mean_within_reach_of_another_clique(self):
        # 0 and 2 merge, and their mean 1 is 1.9 from 1 + 1.9i, which is
        # beyond 2.1 from both
        values = np.array([0.0, 2.0, 1.0 + 1.9j])
        assert _cliques(values, values, _distances(values), 2.1) is None
        assert _cluster(values, 2.1)[0] == [[0, 1, 2]]


@st.composite
def normal_spectra(draw):
    """(C, tol): C = 2^e U diag(z) U* of order n = 4m, with z simple points
    of the box, 4-fold atoms, or simple points on the real line, on the
    imaginary line, on the unit circle, or in groups of four that project
    onto one value under `_PHASE` (so eigh leaves rows coupled); the points
    are a jittered lattice, at least 0.05 apart.  tol_cluster is scaled down
    with C, so that atoms merge as they do at 2^0."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.integers(1, 12))
    n, kind = 4 * m, draw(st.sampled_from(
        ["simple", "clustered", "hermitian", "skew", "circle", "collide"]))
    e = draw(st.sampled_from([0, 40, -40, 500, -500, 600, -600]))

    def lattice(count, size):
        """count distinct points of a size x size lattice on [-1, 1]^2, jittered."""
        k = rng.choice(size * size, count, replace=False)
        step = 2.0 / (size - 1)
        return (-1.0 + step * (k % size + rng.uniform(-0.2, 0.2, count))
                + 1j * (-1.0 + step * (k // size + rng.uniform(-0.2, 0.2, count))))

    if kind == "simple":
        z = lattice(n, 12)
    elif kind == "clustered":
        z = np.repeat(lattice(m, 12), 4)
    elif kind in ("hermitian", "skew"):
        z = np.linspace(-1.0, 1.0, 2 * n)[rng.choice(2 * n, n, replace=False)]
        z = z if kind == "hermitian" else 1j * z
    elif kind == "circle":
        z = np.exp(1j * (2.0 * np.pi * (np.arange(n) + rng.uniform(-0.2, 0.2, n)) / n
                         + rng.uniform(0.0, 2.0 * np.pi)))
    else:  # Re(_PHASE z) takes m values, four times each
        z = np.conj(_PHASE) * (np.repeat(lattice(m, 12).real, 4)
                               + 1j * np.tile(np.linspace(-1.0, 1.0, 4), m))
    U = random_unitary(rng, n)
    C = (U * z) @ U.conj().T * 2.0 ** e
    return C, Tolerances(tol_cluster=1e-8 * min(1.0, 2.0 ** e))


# normal C whose form a looser acceptance test let through with an
# off-diagonal part 1.09-1.29 times n eps ||C||_F
PAST_THE_ONE_BOUND = [(random_normal(np.random.default_rng(seed), n)[0], Tolerances())
                      for n, seed in [(8, 0), (20, 10), (48, 3)]]


class TestNormalForm:
    """`_normal_form` against the Schur route, `_measure_of_schur` of
    scipy's complex Schur form, on normal C at scales 2^0 to 2^+-600."""

    @settings(max_examples=60, deadline=None)
    @given(normal_spectra())
    @example(PAST_THE_ONE_BOUND[0])
    @example(PAST_THE_ONE_BOUND[1])
    @example(PAST_THE_ONE_BOUND[2])
    def test_off_diagonal_within_the_budget_unless_schur_ran(self, case):
        C, _ = case
        with pytest.MonkeyPatch.context() as mp:
            schur = count_calls(mp, scipy.linalg.schur, [scipy.linalg])
            T, _ = _normal_form(C)
        if not schur:
            assert hs_norm(T - np.diag(np.diag(T))) <= len(C) * np.finfo(float).eps * hs_norm(C)

    @settings(max_examples=150, deadline=None)
    @given(normal_spectra())
    def test_matches_the_schur_route(self, case):
        C, tol = case
        n, eps = len(C), np.finfo(float).eps
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            T, Z = _normal_form(C)
            sm = decompose_normal(C, tol)
        ref = _measure_of_schur(*scipy.linalg.schur(C, output="complex"), tol)
        assert operator_norm(Z.conj().T @ Z - np.eye(n)) <= 4 * n * eps
        # the remainder outside the rows put in Schur form holds the strict
        # lower part, and with the Schur part the whole off-diagonal
        budget = n * eps * hs_norm(C)
        assert hs_norm(np.tril(T, -1)) <= budget
        assert hs_norm(T - np.diag(np.diag(T))) <= 2 * budget
        # the same atoms, matched by nearest value: the order of atoms
        # whose real parts are rounding (C skew-Hermitian) is not fixed
        match = [int(np.abs(sm.eigenvalues - z).argmin()) for z in ref.eigenvalues]
        assert sorted(match) == list(range(len(sm)))
        assert np.array_equal(sm.multiplicities[match], ref.multiplicities)
        norm = operator_norm(C)
        assert np.abs(sm.eigenvalues[match] - ref.eigenvalues).max() <= 1e-13 * norm
        for k, j in enumerate(match):
            Q, R = sm.columns([j]), ref.columns([k])
            assert operator_norm(Q @ Q.conj().T - R @ R.conj().T) <= 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_last_finish_is_one_schur_form_of_the_coupled_block(self, seed, monkeypatch):
        # C = U (diag(z) + delta e_1 e_5^T) U*, delta = 1.5 n eps ||z||,
        # passes is_normal; z_5 - z_1 = 0.8 e^{2.9i} lies off the real axis
        # of every phase, so each eigh finish leaves the rows of z_1 and z_5
        # a strict lower part past the budget, and only a Schur form of
        # their block meets the bounds
        n, eps = 8, np.finfo(float).eps
        z = np.array([0.9, -0.7 + 0.5j, 0.3 - 0.8j, 0.1 + 0.2j, -0.5 - 0.4j,
                      -0.7 + 0.5j + 0.8 * np.exp(2.9j), -0.9 - 0.9j, 0.8 - 0.3j])
        N = np.zeros((n, n), dtype=complex)
        N[1, 5] = 1.5 * n * eps * np.linalg.norm(z)
        U = random_unitary(np.random.default_rng(seed), n)
        C = U @ (np.diag(z) + N) @ U.conj().T
        assert is_normal(C, linalg.DEFAULT_TOLERANCES)
        calls, schur = [], scipy.linalg.schur

        def recorded(M, **kw):
            calls.append((M, schur(M, **kw)))
            return calls[-1][1]

        monkeypatch.setattr(scipy.linalg, "schur", recorded)
        T, Z = _normal_form(C)
        assert len(calls) == 1
        block, (R, _) = calls[0]
        assert block.shape == (2, 2)
        # the block's Schur form sits in T on the rows it was taken from
        S = [int(np.flatnonzero(np.diag(T) == r)[0]) for r in np.diag(R)]
        assert S == sorted(S) and np.array_equal(T[np.ix_(S, S)], R)
        budget = n * eps * hs_norm(C)
        assert hs_norm(np.tril(T, -1)) <= budget
        assert hs_norm(T - np.diag(np.diag(T))) <= 2 * budget
        assert operator_norm(Z.conj().T @ Z - np.eye(n)) <= 4 * n * eps
        assert operator_norm(Z @ T @ Z.conj().T - C) <= 4 * n * eps * operator_norm(C)

    def test_atoms_on_the_imaginary_axis_follow_their_values(self, rng):
        # the real parts are rounding noise of about 1e-17, which
        # (real, imaginary) order would sort on
        U, mu = random_unitary(rng, 24), np.linspace(-1.0, 1.0, 24)
        C = U @ np.diag(1j * mu) @ U.conj().T
        for sm in (decompose_normal(C),
                   _measure_of_schur(*scipy.linalg.schur(C, output="complex"),
                                     linalg.DEFAULT_TOLERANCES)):
            assert np.all(np.diff(sm.eigenvalues.imag) > 0)
            assert_allclose(sm.eigenvalues.imag, mu, atol=1e-14)

    def test_entries_near_the_largest_float(self):
        # M + M* overflows here, (M / 2) + (M / 2)* does not
        C = np.diag(np.linspace(0.5, 1.7, 24)) * 1e308
        sm = decompose_normal(C)
        assert_allclose(sm.eigenvalues, np.diag(C), rtol=1e-15)


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

    @pytest.mark.parametrize("eigenvalues, basis", [
        ([np.nan], np.eye(1)),  # a radius of nan would disable the boundary guard
        ([np.inf, 1.0], np.eye(2)),
        ([1j, complex(1.0, np.nan)], np.eye(2)),
        ([1.0, 2.0], [[1.0, 0.0], [0.0, np.nan]]),
        ([1.0], [[-np.inf]]),
    ])
    def test_entries_must_be_finite(self, eigenvalues, basis):
        with pytest.raises(ShapeMismatchError, match="must be finite"):
            SpectralMeasure(eigenvalues, basis, [1] * len(eigenvalues))


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
    @pytest.mark.parametrize("e", [-40, 40])
    def test_reconstruction_is_relative_to_c(self, rng, e):
        # relative to ||C||, it reads the same at every scale of C
        C, _ = random_normal(rng, 24)
        tol = Tolerances(tol_cluster=1e-8 * min(1.0, 2.0 ** e))
        ref, res = (spectral_invariant_residuals(decompose_normal(M, tol), M)["reconstruction"]
                    for M in (C, C * 2.0 ** e))
        assert 0.0 < ref <= 1e-13 and res == pytest.approx(ref, rel=1e-6)
        zero = np.zeros((3, 3))
        assert spectral_invariant_residuals(decompose_normal(zero), zero)["reconstruction"] == 0.0

    @pytest.mark.parametrize("C", [[[1.5]], np.eye(3), np.ones((2, 3)), [[np.nan, 0], [0, 1]]])
    def test_c_must_fit_the_measure(self, C):
        # [[1.5]] broadcast against the 2 x 2 sum and read 1.054
        sm = decompose_normal(np.diag([1.0, 2.0]))
        with pytest.raises(ShapeMismatchError, match="^C "):
            spectral_invariant_residuals(sm, C)

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
