import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from opint import (
    BoundaryEigenvalueError,
    SingularResolventError,
    GridPartition,
    NoConvergenceError,
    OperatorFunction,
    Rect,
    ShapeMismatchError,
    adjoint,
    czero_check,
    decompose_normal,
    estimate_lipschitz,
    exact_left_integral,
    exact_right_integral,
    integrate_right,
    left_sum,
    lnest_bound,
    operator_norm,
    right_sum,
    solve_kronecker,
    SpectralMeasure,
    SylvesterProblem,
    Tolerances,
    dyadic_level_sum,
)

import scipy.linalg

from opint import linalg, stieltjes

from conftest import (
    bounding_rect,
    cell_sum_loop,
    count_calls,
    dyadic_axes_per_level,
    estimate_lipschitz_loop,
    faulty_solve,
    grid_cells_dict,
    grid_tags_per_level,
    locate_per_level,
    lu_resolvent_raises,
    projections,
    random_complex,
    random_normal,
    random_unitary,
    record_cells,
    shift_sweep,
    spectral_sum_loop,
)

RECT = Rect(-2.0, 2.0, -2.0, 2.0)


def z_function(dim):
    return OperatorFunction(
        lambda lam, mu: complex(lam, mu) * np.eye(dim, dtype=complex))


class TestPartition:
    def test_uniform(self):
        p = GridPartition.uniform(RECT, 4, 8)
        assert p.m == 4 and p.n == 8
        assert p.mesh == pytest.approx(1.0 + 0.5)

    def test_invalid_lines(self):
        with pytest.raises(ValueError):
            GridPartition([0.0, 0.0, 1.0], [0.0, 1.0])

    @pytest.mark.parametrize("lines", [[-np.inf, 0.0, 1.0], [0.0, 1.0, np.inf],
                                       [0.0, np.nan]])
    def test_non_finite_lines_rejected(self, lines):
        # np.diff([-inf, 0, 1]) > 0 holds, and the mesh would be inf
        with pytest.raises(ValueError, match="finite"):
            GridPartition(lines, [0.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            GridPartition([0.0, 1.0], lines)

    def test_custom_tags_validated(self):
        # tags outside their cells, and tags that are not 1-D arrays
        for tags in (([1.5], [0.5]), (0.5, 0.5), ([[0.5]], [0.5])):
            with pytest.raises(ValueError):
                GridPartition([0.0, 1.0], [0.0, 1.0], tag_rule="custom",
                              custom_tags=tags)
        p = GridPartition([0.0, 1.0], [0.0, 1.0], tag_rule="custom",
                          custom_tags=([0.25], [0.75]))
        assert p.custom_tags[0][0] == 0.25


class TestSums:
    def test_constant_identity_gives_full_measure(self, rng):
        C, _ = random_normal(rng, 6)
        sm = decompose_normal(C)
        p = GridPartition.uniform(RECT, 5, 7)
        J = right_sum(OperatorFunction.constant(np.eye(6)), sm, p)
        assert operator_norm(J - np.eye(6)) <= 1e-12

    def test_tags_at_eigenvalues_reproduce_matrix(self):
        C = np.diag([1.0, 1j])
        sm = decompose_normal(C)
        # one cell per eigenvalue with the tag placed exactly on it
        p = GridPartition(np.array([-0.5, 0.5, 1.5]), np.array([-0.5, 0.5, 1.5]),
                          tag_rule="custom",
                          custom_tags=([0.0, 1.0], [0.0, 1.0]))
        J = right_sum(z_function(2), sm, p)
        assert operator_norm(J - C) <= 1e-12

    def test_single_cell(self, rng):
        C, _ = random_normal(rng, 4)
        sm = decompose_normal(C)
        p = GridPartition(np.array([-2.0, 2.0]), np.array([-2.0, 2.0]),
                          tag_rule="custom", custom_tags=([0.3], [-0.2]))
        F = z_function(4)
        expected = complex(0.3, -0.2) * np.eye(4)
        assert_allclose(right_sum(F, sm, p), expected, atol=1e-12)

    def test_left_constant(self, rng):
        C, _ = random_normal(rng, 5)
        sm = decompose_normal(C)
        p = GridPartition.uniform(Rect(-2.0, 0.1, -2.0, 2.0), 3, 3)
        from opint import measure_of_rect
        E = measure_of_rect(sm, Rect(-2.0, 0.1, -2.0, 2.0))
        J = left_sum(OperatorFunction.constant(np.eye(5)), sm, p)
        assert operator_norm(J - E) <= 1e-12

    def test_adjoint_duality_every_partition(self, rng):
        for _ in range(5):
            C, _ = random_normal(rng, 6)
            sm = decompose_normal(C)
            G_mat = random_complex(rng, 6, 3)

            def G_eval(lam, mu, M=G_mat):
                return complex(lam, mu) * M

            G = OperatorFunction(G_eval)
            G_star = OperatorFunction(lambda lam, mu: adjoint(G_eval(lam, mu)))
            for m, n in ((1, 1), (3, 2), (8, 8)):
                p = GridPartition.uniform(RECT, m, n)
                lhs = left_sum(G, sm, p)
                rhs = adjoint(right_sum(G_star, sm, p))
                scale = max(1.0, operator_norm(lhs))
                assert operator_norm(lhs - rhs) <= 1e-13 * scale

    def test_left_sum_range_inclusion(self, rng):
        C, _ = random_normal(rng, 6)
        sm = decompose_normal(C)
        rect = Rect(-2.0, 0.15, -2.0, 2.0)
        from opint import measure_of_rect
        E = measure_of_rect(sm, rect)
        p = GridPartition.uniform(rect, 4, 4)
        M = random_complex(rng, 6, 4)
        G = OperatorFunction(lambda lam, mu: (1.0 + lam - 2j * mu) * M)
        J = left_sum(G, sm, p)
        assert operator_norm((np.eye(6) - E) @ J) <= 1e-12

    def test_shape_mismatch(self, rng):
        from opint import ShapeMismatchError
        C, _ = random_normal(rng, 4)
        sm = decompose_normal(C)
        p = GridPartition.uniform(RECT, 2, 2)
        with pytest.raises(ShapeMismatchError):
            right_sum(OperatorFunction.constant(np.eye(3)), sm, p)

    def test_grid_lines_on_eigenvalues(self):
        # colliding lines get moved away but the lower-left tag stays at
        # the original corner, i.e. exactly on the eigenvalue
        C = np.diag([1.0, 1j])
        sm = decompose_normal(C)
        p = GridPartition.uniform(RECT, 4, 4)
        assert 1.0 in p.lambda_points and 0.0 in p.mu_points
        J = right_sum(z_function(2), sm, p)
        assert operator_norm(J - C) <= 1e-12

    def test_tag_independence_decays(self, rng):
        C, _ = random_normal(rng, 8)
        sm = decompose_normal(C)
        F = OperatorFunction(
            lambda lam, mu: (lam ** 2 + 1j * lam * mu) * np.eye(8))
        diffs = []
        for m in (4, 8, 16, 32, 64):
            lower = right_sum(F, sm, GridPartition.uniform(RECT, m, m))
            center = right_sum(
                F, sm, GridPartition.uniform(RECT, m, m, tag_rule="center"))
            diffs.append(operator_norm(lower - center))
        assert diffs[-1] <= 0.2 * diffs[0]
        assert diffs[-1] <= diffs[0]


GRID_RECTS = [Rect(-1.5, 1.5, -1.5, 1.5), Rect(-2.0, 1.0, -0.75, 1.25)]


@st.composite
def grid_coordinate(draw, lo, hi):
    """A coordinate on one axis: random in [lo, hi), on a dyadic line of
    levels 1..10, within 1e-11 of one, or outside [lo, hi)."""
    kind = draw(st.sampled_from(["random", "line", "near", "outside"]))
    if kind == "random":
        return draw(st.floats(lo, hi, exclude_max=True))
    if kind == "outside":
        return draw(st.sampled_from([hi, hi + 1e-12, hi + 0.3, lo - 1e-12, lo - 0.3]))
    level = draw(st.integers(1, 10))
    x = lo + draw(st.integers(0, 2 ** level)) * ((hi - lo) / 2 ** level)
    if kind == "near":
        x += draw(st.sampled_from([-1.0, 1.0])) * draw(
            st.sampled_from([1e-13, 3e-12, 1e-11]))
    return x


def diagonal_measure(z):
    """Atoms exactly at z on the standard basis, one dimension each."""
    return SpectralMeasure(z, np.eye(len(z)), np.ones(len(z), dtype=int))


class TestOneCellRule:
    """Explicit partitions and the implicit dyadic grid find cells by
    one rule, so a uniform 2^l partition gives the dyadic level sum."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_uniform_partition_equals_dyadic_level(self, data):
        rect = data.draw(st.sampled_from(GRID_RECTS))
        atom = st.builds(complex, grid_coordinate(rect.a, rect.b),
                         grid_coordinate(rect.c, rect.d))
        z = data.draw(st.lists(atom, min_size=1, max_size=8))
        sm = diagonal_measure(z)
        F = OperatorFunction.from_scalar(lambda w: w + 0.3 * w * w, len(z))
        for level in range(1, 11):
            n = 2 ** level
            uniform = right_sum(F, sm, GridPartition.uniform(rect, n, n))
            assert np.array_equal(uniform, dyadic_level_sum(F, sm, rect, level)), level

    def test_atom_outside_moves_no_line(self):
        # the atom at 1.8i lies outside the rectangle; the one at 0.2i is
        # 1e-12 right of the lambda = 0 line and must stay right of it
        sm = diagonal_measure([-1e-12 + 1.8j, 1e-12 + 0.2j])
        rect = Rect(-1.5, 1.5, -1.5, 1.5)
        F = OperatorFunction.affine(1.0, 2.0, 2)
        exact = exact_right_integral(F, sm, rect)
        for level in (1, 2, 3):
            n = 2 ** level
            uniform = right_sum(F, sm, GridPartition.uniform(rect, n, n))
            assert np.array_equal(uniform, dyadic_level_sum(F, sm, rect, level))
            # only the mu tag (0, below 0.2) is off: the error is 2 * 0.2
            assert operator_norm(uniform - exact) == pytest.approx(0.4, abs=1e-11)

    def test_ties_go_to_the_smaller_coordinate(self):
        # atoms 1e-12 either side of the lambda = 0 line: the smaller one
        # moves the line up, so both share the left cell in either order
        rect = Rect(-1.5, 1.5, -1.5, 1.5)
        for re in ([1e-12, -1e-12], [-1e-12, 1e-12]):
            sm = diagonal_measure(np.array(re) + 0.2j)
            for level in (1, 2):
                n = 2 ** level
                p = GridPartition.uniform(rect, n, n)
                for J in (dyadic_level_sum(z_function(2), sm, rect, level),
                          right_sum(z_function(2), sm, p)):
                    assert np.array_equal(J.diagonal().real, [-3.0 / n] * 2)

    def test_center_tags_use_the_moved_lines(self):
        # the lambda = 0 line moves down by 2 tol_cluster away from the atom
        sm = diagonal_measure([1e-12 + 0.2j])
        p = GridPartition([-1.0, 0.0, 1.0], [0.0, 1.0], tag_rule="center")
        J = right_sum(z_function(1), sm, p)
        assert J[0, 0] == complex(0.5 * (-2e-8 + 1.0), 0.5)

    def test_crowded_lines_stay_put(self):
        # 1e-8 from its neighbour, the lambda = 0 line has no room for a
        # move of 2e-8, so the centre tag of [0, 1) stays at 0.5
        sm = diagonal_measure([1e-12 + 0.5j])
        p = GridPartition([-1.0, -1e-8, 0.0, 1.0], [0.0, 1.0], tag_rule="center")
        assert right_sum(z_function(1), sm, p)[0, 0] == 0.5 + 0.5j


@st.composite
def grid_record_case(draw):
    """A measure of n <= 18 dimensions on a random basis whose atoms, of
    multiplicity 1 to 3, sit in GRID_RECTS[0] on, near or off dyadic
    lines (some on the same point); an integrand of one of the three
    routes (scalar, general h x n, resolvent); and a grid: an explicit
    partition with one of the three tag rules, its lines at times on or
    1e-12 beside atoms, or a dyadic level from 1 to 62."""
    rect = GRID_RECTS[0]
    z = np.array(draw(st.lists(st.builds(complex, grid_coordinate(rect.a, rect.b),
                                         grid_coordinate(rect.c, rect.d)),
                               min_size=2, max_size=6)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    z = z[rng.integers(len(z), size=rng.integers(1, 7))]  # repeats stack atoms
    m = rng.integers(1, 4, size=len(z))
    n = int(m.sum())
    sm = SpectralMeasure(z, random_unitary(rng, n), m)
    kind = draw(st.sampled_from(["scalar", "matrix", "resolvent"]))
    if kind == "scalar":
        F = OperatorFunction.from_scalar(lambda w: w + 0.3 * w * w, n)
    elif kind == "matrix":
        M = random_complex(rng, 3, n), random_complex(rng, 3, n)
        F = OperatorFunction(lambda lam, mu: M[0] + complex(lam, mu) * M[1])
    else:
        A, _ = random_normal(rng, n, re=(2.5, 3.5))
        F = OperatorFunction.resolvent_family(A, random_complex(rng, 3, n))
    rule = draw(st.sampled_from(["lower_left", "center", "custom", "dyadic"]))
    if rule == "dyadic":
        level = draw(st.one_of(st.integers(1, 6), st.integers(1, 62)))
        return sm, F, rect, stieltjes._dyadic_axes(rect, level), {}
    lines = []
    for lo, hi, coord in ((rect.a, rect.b, z.real), (rect.c, rect.d, z.imag)):
        inner = np.linspace(lo, hi, draw(st.integers(1, 9)) + 1)[1:-1]
        if draw(st.booleans()):  # lines through atoms or 1e-12 beside them
            inner = coord + draw(st.sampled_from([0.0, 1e-12, -1e-12]))
        inner = inner[(lo < inner) & (inner < hi)]
        lines.append(np.unique(np.concatenate(([lo, hi], inner))))
    tags = None
    if rule == "custom":
        # inside each cell, also one a single ulp wide
        tags = tuple(np.minimum(pts[:-1] + rng.uniform(0.0, 0.9, len(pts) - 1)
                                * np.diff(pts), np.nextafter(pts[1:], -np.inf))
                     for pts in lines)
    p = GridPartition(*lines, tag_rule=rule, custom_tags=tags)
    rule = {"tag_rule": rule, "custom_tags": tags}
    return sm, F, rect, stieltjes._explicit_axes(p), rule


class TestGridRecord:
    """A grid is one tag per atom; grouping the atoms by tag gives the
    cells that were once built with a dict, and every sum over the record
    equals the per-cell loop over those cells."""

    @settings(max_examples=150, deadline=None)
    @given(grid_record_case())
    def test_groups_into_the_dict_cells(self, case):
        sm, F, rect, axes, rule = case
        atoms, tags = stieltjes._grid_tags(sm, rect, axes, **rule)
        assert np.array_equal(atoms, sm.atoms_in(rect)) and tags.dtype == np.complex128
        cells = grid_cells_dict(sm, rect, axes, **rule)
        # cells whose tags coincide after rounding merge into one
        merged = {}
        for lam, mu, S in cells:
            merged.setdefault((lam, mu), []).extend(S)
        grouped = record_cells(atoms, tags)
        assert grouped == [(*key, sorted(merged[key])) for key in sorted(merged)]
        if len(merged) == len(cells):
            assert grouped == cells  # the same cells, tags and order
        J = stieltjes._spectral_sum(F, sm, atoms, tags, (rect.a, rect.c))
        for loop in (cell_sum_loop(F, sm, cells, (rect.a, rect.c)),
                     spectral_sum_loop(F, sm, atoms, tags, (rect.a, rect.c))):
            assert operator_norm(J - loop) <= 1e-13 * max(1.0, operator_norm(loop))


LOW_OR_ANY_LEVEL = st.one_of(st.integers(1, 8), st.integers(1, 62))


@st.composite
def edge_coordinate(draw, lo, hi):
    """(x, m): a point on a dyadic line of a level from 1 to 62, most of
    them low, and how many edge tolerances m to move it off the line:
    none, well within, at or either side of one, or well beyond."""
    level = draw(LOW_OR_ANY_LEVEL)
    x = lo + draw(st.integers(0, 2 ** level)) * ((hi - lo) / 2 ** level)
    m = draw(st.sampled_from([0.0, 0.5, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 2.0, 4.0]))
    return x, m * draw(st.sampled_from([-1.0, 1.0]))


@st.composite
def level_block_case(draw):
    """One simple atom per point of up to 8 on a grid rectangle, each
    coordinate a `grid_coordinate` or an `edge_coordinate` (so points
    share coordinates, and at times the whole point), and the rectangle."""
    rect = draw(st.sampled_from(GRID_RECTS + RESOLVENT_RECTS))
    axis = lambda lo, hi: st.one_of(grid_coordinate(lo, hi).map(lambda x: (x, 0.0)),
                                    edge_coordinate(lo, hi))
    points = draw(st.lists(st.tuples(axis(rect.a, rect.b), axis(rect.c, rect.d)),
                           min_size=1, max_size=8))
    points = points + draw(st.lists(st.sampled_from(points), max_size=2))
    z = np.array([complex(x, y) for (x, _), (y, _) in points])
    off = np.array([complex(mx, my) for (_, mx), (_, my) in points])
    return diagonal_measure(z + diagonal_measure(z)._edge_tol * off), rect


def same_record(record, oracle):
    """Whether two grid records are equal bit for bit."""
    return (np.array_equal(record[0], oracle[0])
            and record[1].tobytes() == oracle[1].tobytes())


class TestLevelBlocks:
    """A refinement locates a block of dyadic levels in one pass, with
    each level's arithmetic; the per-level cell rule is the oracle, bit
    for bit."""

    @settings(max_examples=150, deadline=None)
    @given(level_block_case(), LOW_OR_ANY_LEVEL, st.integers(1, 12))
    def test_block_equals_each_level(self, case, start, length):
        sm, rect = case
        atoms, tags = stieltjes._grid_tags(sm, rect, stieltjes._dyadic_axes(
            rect, np.arange(start, start + length)))
        assert tags.shape == (min(length, 63 - start), len(atoms))
        for level, row in enumerate(tags, start):
            oracle = grid_tags_per_level(sm, rect, dyadic_axes_per_level(rect, level))
            assert same_record((atoms, row), oracle), level
            record = stieltjes._grid_tags(sm, rect, stieltjes._dyadic_axes(rect, level))
            assert same_record(record, oracle), level

    @settings(max_examples=60, deadline=None)
    @given(level_block_case(), LOW_OR_ANY_LEVEL, st.integers(1, 9))
    def test_refinement_tags_equal_each_level(self, case, max_levels, block):
        sm, rect = case
        blocks = list(stieltjes._level_tags(sm, rect, max_levels, block))
        assert all(1 <= len(b) <= block for b in blocks)
        tags = np.concatenate(blocks)
        assert len(tags) == max_levels
        for level, row in enumerate(tags, 1):
            oracle = grid_tags_per_level(sm, rect, dyadic_axes_per_level(rect, level))
            assert row.tobytes() == oracle[1].tobytes(), level

    @settings(max_examples=60, deadline=None)
    @given(level_block_case(), st.integers(1, 10))
    def test_uniform_partition_equals_level(self, case, level):
        sm, rect = case
        p = GridPartition.uniform(rect, 2 ** level, 2 ** level)
        assert same_record(stieltjes._grid_tags(sm, rect, stieltjes._explicit_axes(p)),
                           grid_tags_per_level(sm, rect, dyadic_axes_per_level(rect, level)))

    def test_exact_ties_with_the_tolerances(self):
        # with tol_cluster = 2^-30 and |z| <= 1 two atoms lie exactly one
        # edge tolerance either side of the line 0 of [-1, 1), which moves
        # away from the smaller; at level 28 its room, 2^-27, is exactly
        # four of its shifts
        t = 2.0 ** -30
        z = [t + 0.5j, -t - 0.25j, 0.5 + 1j * t, -0.5 - 1j * t]
        sm = SpectralMeasure(z, np.eye(4), np.ones(4, dtype=int), Tolerances(tol_cluster=t))
        rect = Rect(-1.0, 1.0, -1.0, 1.0)
        atoms, tags = stieltjes._grid_tags(sm, rect, stieltjes._dyadic_axes(
            rect, np.arange(1, 63)))
        for level, row in enumerate(tags, 1):
            oracle = grid_tags_per_level(sm, rect, dyadic_axes_per_level(rect, level))
            assert same_record((atoms, row), oracle), level
        # the line moved up is the tag; at level 28 0.5 is a line
        assert tags[0, 0] == complex(-1.0, 2 * t) and tags[27, 0] == complex(-8 * t, 0.5)

    def test_block_ends_before_an_invalid_level(self):
        sm = diagonal_measure([0.25 + 0.5j, -1.0])
        axes = stieltjes._dyadic_axes(RECT, np.arange(58, 70))
        assert stieltjes._grid_tags(sm, RECT, axes)[1].shape == (5, 2)
        with pytest.raises(ValueError, match="level 63 exceeds"):
            stieltjes._dyadic_axes(RECT, np.arange(63, 70))
        # a width of 2^-1064 spaces level 10 by the least subnormal, 2^-1074,
        # and level 11 by 0
        tiny = Rect(0.0, 2.0 ** -1064, -1.0, 1.0)
        assert stieltjes._grid_tags(sm, tiny, stieltjes._dyadic_axes(
            tiny, np.arange(5, 15)))[1].shape == (6, 0)
        with pytest.raises(ValueError, match=r"level-11 grid .* spacing \(0\.0, "):
            stieltjes._dyadic_axes(tiny, np.arange(11, 15))


@st.composite
def room_tie_case(draw):
    """The atoms and rectangle of a `level_block_case` on a measure whose
    four shifts (eight edge tolerances) lie within a few ulps of the line
    spacing of one level on one axis."""
    sm, rect = draw(level_block_case())
    spacing = draw(st.sampled_from([rect.width, rect.height])) / 2.0 ** draw(LOW_OR_ANY_LEVEL)
    edge_tol = spacing / 8.0 * (1.0 + draw(st.integers(-4, 4)) * 2.0 ** -52)
    tol = Tolerances(tol_cluster=edge_tol / max(1.0, float(np.abs(sm.eigenvalues).max())))
    return SpectralMeasure(sm.eigenvalues, np.eye(len(sm)), np.ones(len(sm), dtype=int),
                           tol), rect


def rule_levels(monkeypatch):
    """Per axis, the set that gathers the levels on which `_locate` runs the
    line-moving rule, which asks for the lines of just those levels."""
    seen = (set(), set())
    dyadic_axes = stieltjes._dyadic_axes

    def spied(rect, level):
        levels = np.reshape(level, -1)

        def spy(line, d):
            def lines(i, *at):
                if at:
                    seen[d].update(levels[at[0]].tolist())
                return line(i, *at)
            return lines
        return [(spy(line, d), raw_cell, ncells)
                for d, (line, raw_cell, ncells) in enumerate(dyadic_axes(rect, level))]
    monkeypatch.setattr(stieltjes, "_dyadic_axes", spied)
    return seen


class TestRuleLevels:
    """A refinement locates all its levels in one pass and runs the
    line-moving rule only on the levels where a line can move; the rule on
    every level, one level at a time, is the oracle, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(room_tie_case())
    # an atom 0.5e-8 below the line 0 moves it up past one 1.5e-8 above it,
    # whose own lower line it is, but not within one edge tolerance
    @example((diagonal_measure([-0.5e-8 + 0.3j, 1.5e-8 + 0.7j]), GRID_RECTS[0]))
    def test_room_ties_equal_each_level(self, case):
        sm, rect = case
        tags = np.concatenate(list(stieltjes._level_tags(sm, rect, 62, 8)))
        for level, row in enumerate(tags, 1):
            oracle = grid_tags_per_level(sm, rect, dyadic_axes_per_level(rect, level))
            assert row.tobytes() == oracle[1].tobytes(), level

    def test_a_raw_cell_off_its_coordinate_takes_the_rule(self):
        # line 1 moves, as 1 + 1e-10 lies by it, which changes the lower line
        # of 1.5; the raw cell of 1 + 1e-10 is [2, 2 + 1e-9) (rounding can put
        # a raw cell more than the tolerance off on a deep grid), too narrow
        # for its own lines to move
        lines = np.array([0.0, 1.0, 2.0, 2.0 + 1e-9, 3.0, 4.0])
        axis = (lambda i, at=None: lines[i], lambda x: np.array([1, 2]), 5)
        coords = np.array([1.5, 1.0 + 1e-10])
        located = stieltjes._locate(coords, axis, 1e-8, 2e-8)
        oracle = locate_per_level(coords, axis, 1e-8, 2e-8)
        assert oracle[2][0] == 1.0 - 2e-8
        for part, want in zip(located, oracle):
            assert part.tobytes() == want.tobytes()

    def test_no_level_takes_the_rule_without_an_atom_by_a_line(self, monkeypatch):
        # thirds and fifths of the sides lie at least a fifth of the line
        # spacing from every line, more than an edge tolerance wherever the
        # spacing leaves room for a move
        rect = GRID_RECTS[1]
        at = lambda s, t: complex(rect.a + s * rect.width, rect.c + t * rect.height)
        sm = diagonal_measure([at(1 / 3, 2 / 3), at(2 / 5, 1 / 5), at(4 / 5, 1 / 3)])
        seen = rule_levels(monkeypatch)
        _, report = integrate_right(OperatorFunction.affine(1.0, 2.0, 3), sm, rect,
                                    tol=1e-10, max_levels=60)
        assert report.converged and seen == (set(), set())

    def test_stalled_atoms_take_the_rule_where_they_sit_on_lines(self, monkeypatch):
        sm, F, rect, _, _ = STALLED_TAGS_CASE
        seen = rule_levels(monkeypatch)
        _, report, _ = refine(F, sm, rect)
        z = sm.eigenvalues[sm.atoms_in(rect)]
        for axis, x, lo, width in ((0, z.real, rect.a, rect.width),
                                   (1, z.imag, rect.c, rect.height)):
            expected = set()
            for level in range(1, 61):
                h = width / 2.0 ** level
                off = np.abs(x - (lo + np.round((x - lo) / h) * h))
                if 8.0 * sm._edge_tol <= h and np.any(off <= sm._edge_tol):
                    expected.add(level)
            assert seen[axis] == expected == set(range(4, 26))
        assert len(report.levels) > 26


@st.composite
def clustered_sum_case(draw):
    """A measure of n <= 12 dimensions whose eigenvalues repeat among at
    most n // 2 + 1 atoms in [-1, 1]^2, an integrand of one of three
    kinds with h x n values (h != n unless scalar), and a partition."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 12))
    atoms = rng.uniform(-1.0, 1.0, n // 2 + 1) + 1j * rng.uniform(-1.0, 1.0, n // 2 + 1)
    U = random_unitary(rng, n)
    C = U @ np.diag(atoms[rng.integers(len(atoms), size=n)]) @ U.conj().T
    kind = draw(st.sampled_from(["scalar", "constant", "resolvent"]))
    h = draw(st.integers(1, 12).filter(lambda h: h != n))
    if kind == "scalar":
        F = OperatorFunction.from_scalar(lambda w: w + 0.3 * w * w, n)
    elif kind == "constant":
        F = OperatorFunction.constant(random_complex(rng, h, n))
    else:
        A, _ = random_normal(rng, n, re=(2.5, 3.5))
        F = OperatorFunction.resolvent_family(A, random_complex(rng, h, n))
    p = GridPartition.uniform(GRID_RECTS[0], draw(st.integers(1, 9)),
                              draw(st.integers(1, 9)),
                              draw(st.sampled_from(["lower_left", "center"])))
    return decompose_normal(C), F, p, draw(st.integers(1, 6))


def resolvent_sums_loop(F, sm, atoms):
    """`stieltjes._resolvent_sums` by `spectral_sum_loop`, one level at a time."""
    zero = np.zeros((len(F._resolvent[2]), sm.dim), dtype=np.complex128)
    return lambda tags: np.stack([spectral_sum_loop(F, sm, atoms, t, None) if len(atoms)
                                  else zero for t in tags])


def with_cell_loop(fn, *args):
    """fn(*args) with every Stieltjes sum taken by `spectral_sum_loop`, the
    blocks of levels of a resolvent family's refinement too."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stieltjes, "_spectral_sum", spectral_sum_loop)
        mp.setattr(stieltjes, "_resolvent_sums", resolvent_sums_loop)
        return fn(*args)


def every_sum(F, sm, p, rect, level):
    """(function, arguments) of each sum that `_spectral_sum` serves."""
    G = OperatorFunction(lambda lam, mu: adjoint(F(lam, mu)))
    return [(right_sum, (F, sm, p)), (dyadic_level_sum, (F, sm, rect, level)),
            (exact_right_integral, (F, sm, rect)), (left_sum, (G, sm, p))]


class TestFactoredSum:
    """Each Stieltjes sum is one factored product; the per-cell loop it
    replaced is the oracle."""

    @settings(max_examples=60, deadline=None)
    @given(clustered_sum_case())
    def test_matches_cell_loop(self, case):
        sm, F, p, level = case
        for fn, args in every_sum(F, sm, p, GRID_RECTS[0], level):
            J, loop = fn(*args), with_cell_loop(fn, *args)
            assert J.shape == loop.shape
            assert operator_norm(J - loop) <= 1e-13 * max(1.0, operator_norm(loop))

    @settings(max_examples=20, deadline=None)
    @given(clustered_sum_case())
    def test_empty_rect_gives_zero_of_integrand_shape(self, case):
        sm, F, _, level = case
        empty = Rect(5.0, 6.0, 5.0, 6.0)
        p = GridPartition.uniform(empty, 2, 3)
        h = F(0.0, 0.0).shape[0]
        for (fn, args), shape in zip(every_sum(F, sm, p, empty, level),
                                     [(h, sm.dim)] * 3 + [(sm.dim, h)]):
            J = fn(*args)
            assert np.array_equal(J, np.zeros(shape))
            assert np.array_equal(J, with_cell_loop(fn, *args))

    @pytest.mark.parametrize("value", [np.ones((2, 5)), np.ones(4)])
    @pytest.mark.parametrize("rect", [GRID_RECTS[0], Rect(5.0, 6.0, 5.0, 6.0)])
    def test_bad_shape_raises_as_the_loop(self, rng, value, rect):
        C, _ = random_normal(rng, 4, repeat=True)
        sm = decompose_normal(C)
        F = OperatorFunction(lambda lam, mu: value)
        p = GridPartition.uniform(rect, 3, 2)
        for fn, args in every_sum(F, sm, p, rect, 2):
            with pytest.raises(ShapeMismatchError) as factored:
                fn(*args)
            with pytest.raises(ShapeMismatchError) as loop:
                with_cell_loop(fn, *args)
            assert str(factored.value) == str(loop.value)


# odd multiples of 1/4 lie on dyadic lines of both rectangles from level 3
RESOLVENT_RECTS = [Rect(-2.0, 2.0, -2.0, 2.0), Rect(-0.5, 1.5, -1.0, 1.0)]
QUARTERS = np.array([-0.75, -0.25, 0.25, 0.75])


def resolvent_measure_and_family(seed, n, non_normal, h):
    """The measure of C and the family D (A - z)^{-1} of `resolvent_case`
    for the seed of its generator, its n, whether A is non-normal and h."""
    rng = np.random.default_rng(seed)
    k = n // 2 + 1
    on_lines = rng.choice(QUARTERS, k) + 1j * rng.choice(QUARTERS, k)
    atoms = np.where(rng.random(k) < 0.5, on_lines,
                     rng.uniform(-1.0, 1.0, k) + 1j * rng.uniform(-1.0, 1.0, k))
    U = random_unitary(rng, n)
    C = U @ np.diag(atoms[rng.integers(k, size=n)]) @ U.conj().T
    A, _ = random_normal(rng, n, re=(2.5, 3.5))
    if non_normal:
        A = A + 0.5 * np.triu(random_complex(rng, n, n), 1)
    return decompose_normal(C), OperatorFunction.resolvent_family(A, random_complex(rng, h, n))


@st.composite
def resolvent_case(draw):
    """A resolvent family D (A - z)^{-1} with h x n values, h != n, and a
    normal or non-normal A with spectrum in Re z in (2.5, 3.5); a measure
    of n <= 12 dimensions whose eigenvalues repeat among n // 2 + 1 atoms
    in (-1, 1)^2, about half of them on dyadic lines; a rectangle that
    holds the spectrum or cuts it, a partition of it and a level."""
    seed, n = draw(st.integers(0, 2 ** 32 - 1)), draw(st.integers(1, 12))
    sm, F = resolvent_measure_and_family(seed, n, draw(st.booleans()),
                                         draw(st.integers(1, 12).filter(lambda h: h != n)))
    rect = draw(st.sampled_from(RESOLVENT_RECTS))
    p = GridPartition.uniform(rect, draw(st.integers(1, 9)), draw(st.integers(1, 9)),
                              draw(st.sampled_from(["lower_left", "center"])))
    return sm, F, rect, p, draw(st.integers(1, 8))


# atoms -0.75 - 0.25i (twice) and 0.25 - 0.75i, a few ulps off their dyadic
# lines, whose tags stay on those lines until level 54
STALLED_TAGS_CASE = (*resolvent_measure_and_family(3372, 3, True, 1), RESOLVENT_RECTS[0],
                     GridPartition.uniform(RESOLVENT_RECTS[0], 1, 1), 1)


def past_the_stop_family(D):
    """(measure, family D (A - z)^{-1}, t) on RECT: atom 0.5 + 0.25i is its
    own tag from level 4, atom 2 - 2^-10 (both parts) moves its tag on both
    axes at every level, and A = diag(3, t), t that atom's level-7 tag.
    With D = [[1, 0]] the second atom adds nothing, so a refinement at tol
    1e-10 stops at level 5 with the first block of eight levels unfinished."""
    x = 2.0 - 2.0 ** -10
    sm = SpectralMeasure([0.5 + 0.25j, complex(x, x)], np.eye(2), [1, 1])
    t = stieltjes._grid_tags(sm, RECT, stieltjes._dyadic_axes(RECT, 7))[1][1]
    return sm, OperatorFunction.resolvent_family(np.diag([3.0, t]), D), t


def refinement_levels(F, sm, rect):
    """((mesh, diff_prev), sum, done) of each level of `stieltjes._refinement`."""
    return [(level, value(), done)
            for level, value, done in stieltjes._refinement(F, sm, rect, 1e-10, 60)]


class TestResolventSums:
    """A resolvent family sums all its cells in one triangular solve; the
    per-cell loop of its values, one triangular solve per tag, is the oracle."""

    @settings(max_examples=40, deadline=None)
    @given(resolvent_case())
    def test_sums_match_cell_loop(self, case):
        sm, F, rect, p, level = case
        for fn, args in [(right_sum, (F, sm, p)), (dyadic_level_sum, (F, sm, rect, level)),
                         (exact_right_integral, (F, sm, rect))]:
            J, loop = fn(*args), with_cell_loop(fn, *args)
            assert J.shape == loop.shape
            assert operator_norm(J - loop) <= 1e-13 * max(1.0, operator_norm(loop))

    @settings(max_examples=15, deadline=None)
    @given(resolvent_case())
    @example(STALLED_TAGS_CASE)
    def test_refinement_matches_cell_loop(self, case):
        sm, F, rect, _, _ = case
        J, report, sums = refine(F, sm, rect)
        J_ref, ref, sums_ref = with_cell_loop(refine, F, sm, rect)
        assert operator_norm(J - J_ref) <= 1e-13 * max(1.0, operator_norm(J_ref))
        # every level both runs computed: the same mesh, sums that agree to
        # 1e-13, and so Cauchy differences that agree to 2e-13 of the scale
        scale = max(1.0, max(operator_norm(V) for V in sums_ref))
        for (mesh, diff), (mesh_ref, diff_ref), V, V_ref in zip(
                report.levels, ref.levels, sums, sums_ref):
            assert mesh == mesh_ref
            assert operator_norm(V - V_ref) <= 1e-13 * max(1.0, operator_norm(V_ref))
            assert (math.isnan(diff) and math.isnan(diff_ref)
                    or abs(diff - diff_ref) <= 2e-13 * scale)
        # the runs part only where that rounding decides the stop: a tag
        # that moves by an ulp changes one route's sum and leaves the
        # other's bit for bit, so one route ends on a difference <= tol
        # while the other goes on with an exact zero, or the two
        # differences lie on either side of tol
        if (len(report.levels), report.converged) != (len(ref.levels), ref.converged):
            last = min(len(report.levels), len(ref.levels)) - 1
            diff, diff_ref = report.levels[last][1], ref.levels[last][1]
            assert 0.0 in (diff, diff_ref) or abs(max(diff, diff_ref) - 1e-10) <= 2e-13 * scale

    @pytest.mark.parametrize("with_d", [True, False])
    def test_one_schur_form_and_no_resolvent(self, rng, monkeypatch, with_d):
        C, _ = random_normal(rng, 6, repeat=True)
        A, _ = random_normal(rng, 6, re=(2.5, 3.5))
        D = random_complex(rng, 3, 6) if with_d else None
        sm = decompose_normal(C)
        schurs = count_calls(monkeypatch, scipy.linalg.schur, [scipy.linalg])
        resolvents = count_calls(monkeypatch, linalg.resolvent)
        solves = count_calls(monkeypatch, linalg._triangular_resolvents)
        F = OperatorFunction.resolvent_family(A, D)
        J, report = integrate_right(F, sm, RECT, tol=1e-10, max_levels=60)
        exact = exact_right_integral(F, sm, RECT)
        dyadic_level_sum(F, sm, RECT, 5)
        assert report.converged and len(report.levels) > 20
        assert len(schurs) == 1 and resolvents == []
        assert operator_norm(J - exact) <= 1e-8 * operator_norm(exact)
        # F(lambda, mu) and the left sums take one triangular solve per tag
        # on the same Schur form
        before = len(solves)
        value = F(0.25, 0.5)
        assert len(solves) == before + 1
        R = scipy.linalg.inv(A - (0.25 + 0.5j) * np.eye(6))
        assert_allclose(value, R if D is None else D @ R, rtol=1e-12, atol=1e-14)
        left = exact_left_integral(OperatorFunction(lambda lam, mu: adjoint(F(lam, mu))),
                                   sm, RECT)
        assert len(solves) == before + 1 + len(sm)
        assert len(schurs) == 1 and resolvents == []
        assert operator_norm(adjoint(left) - exact) <= 1e-13 * operator_norm(exact)

    def test_no_tag_passes_that_resolvent_rejects(self, rng):
        A0, _ = random_normal(rng, 4)
        jordan = 2.0 * np.eye(4) + np.diag(np.ones(3), 1)
        matrices = [np.diag([3.0, 2.0 + 1.0j, 1e3, -1e-3j]), jordan,
                    A0 + 0.5 * np.triu(random_complex(rng, 4, 4), 1), 1e4 * A0]
        swept = hits = 0
        for M in matrices:
            far = 10.0 * max(1.0, operator_norm(M)) * (1.0 + 1.0j)
            for z in shift_sweep(np.linalg.eigvals(M)):
                old_raises = lu_resolvent_raises(M, z)
                # a 2-fold atom at z and one far from spec(M), as tags
                sm = SpectralMeasure([z, far], np.eye(4), [2, 2])
                F = OperatorFunction.resolvent_family(M)
                try:
                    exact_right_integral(F, sm, bounding_rect(sm))
                    new_raises = False
                except SingularResolventError as exc:
                    assert f"z = {complex(z)}" in str(exc)
                    new_raises = True
                assert new_raises or not old_raises, (M, z)
                swept += 1
                hits += old_raises
        assert swept == 4 * 4 * 16 * 3
        assert hits > 0  # the exact hits at p = 16 make the sweep bite

    def test_singular_tag_past_the_stop_raises_nothing(self):
        sm, F, t = past_the_stop_family([[1.0, 0.0]])
        with pytest.raises(SingularResolventError, match=rf"singular at z = {re.escape(str(t))}"):
            dyadic_level_sum(F, sm, RECT, 7)
        J, report = integrate_right(F, sm, RECT, tol=1e-10, max_levels=60)
        assert report.converged and len(report.levels) == 5
        exact = exact_right_integral(F, sm, RECT)
        assert operator_norm(J - exact) <= 1e-15 * operator_norm(exact)

    def test_failing_level_raises_as_level_by_level(self, monkeypatch):
        sm, F, t = past_the_stop_family([[1.0, 1.0]])
        messages = []
        for budget in (linalg._BLOCK_ENTRIES, 2 * (1 + 2)):  # one level: n (h + rows)
            monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", budget)
            with pytest.raises(SingularResolventError) as exc:
                integrate_right(F, sm, RECT, tol=1e-10, max_levels=60)
            messages.append(str(exc.value))
        with pytest.raises(SingularResolventError) as exc:
            dyadic_level_sum(F, sm, RECT, 7)
        assert messages == [str(exc.value)] * 2
        assert messages[0] == f"M - zI is singular at z = {t}"

    @pytest.mark.parametrize("seed, n, non_normal, h", [
        (3372, 3, True, 1), (5, 6, False, 4), (11, 9, True, 12), (12, 12, False, 2)])
    def test_budget_of_one_level_gives_blocks_of_one(self, monkeypatch, seed, n,
                                                      non_normal, h):
        sm, F = resolvent_measure_and_family(seed, n, non_normal, h)
        rect = RESOLVENT_RECTS[seed % 2]
        shifts, real = [], stieltjes._triangular_resolvents
        monkeypatch.setattr(stieltjes, "_triangular_resolvents",
                            lambda T, R, s, *args: shifts.append(len(s)) or real(T, R, s, *args))
        blocked = refinement_levels(F, sm, rect)
        K = len(sm.atoms_in(rect))
        assert shifts[0] == 8 * K and len(shifts) == -(-len(blocked) // 8)
        rows = int(sm.multiplicities[sm.atoms_in(rect)].sum())
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", sm.dim * (h + rows))
        shifts.clear()
        single = refinement_levels(F, sm, rect)
        assert shifts == [K] * len(single)
        assert len(single) == len(blocked) and single[-1][2] == blocked[-1][2]
        scale = max(1.0, max(operator_norm(V) for _, V, _ in single))
        for ((mesh, diff), V, _), ((mesh1, diff1), V1, _) in zip(blocked, single):
            assert mesh == mesh1
            assert operator_norm(V - V1) <= 1e-13 * max(1.0, operator_norm(V1))
            assert math.isnan(diff) and math.isnan(diff1) or abs(diff - diff1) <= 1e-13 * scale

    def test_cancelling_tag_raises(self):
        z = 0.5 + 0.25j
        A = z * np.eye(4) + 1e-15 * np.triu(np.ones((4, 4)))
        sm = SpectralMeasure([z, 5.0], np.eye(4), [2, 2])
        F = OperatorFunction.resolvent_family(A, np.ones((1, 4)))
        with pytest.raises(SingularResolventError, match=r"cancels.*z = \(0\.5\+0\.25j\)"):
            exact_right_integral(F, sm, bounding_rect(sm))
        p = GridPartition([-1.0, 0.5, 1.0], [0.0, 0.25, 1.0])
        with pytest.raises(SingularResolventError, match="cancels"):
            right_sum(F, sm, p)

    @pytest.mark.parametrize("fault", ["inexact", "nan"])
    def test_guard_rejects_faulty_solves(self, rng, monkeypatch, fault):
        sm = decompose_normal(random_normal(rng, 5, repeat=True)[0])
        A = random_normal(rng, 5, re=(2.5, 3.5))[0] + np.triu(random_complex(rng, 5, 5), 1)
        F = OperatorFunction.resolvent_family(A, random_complex(rng, 2, 5))
        dyadic_level_sum(F, sm, RECT, 4)
        monkeypatch.setattr(linalg, "_substitute", faulty_solve(fault))
        with pytest.raises(SingularResolventError):
            dyadic_level_sum(F, sm, RECT, 4)

    @pytest.mark.parametrize("A, D", [
        (np.ones((2, 3)), None),
        (np.array([[1.0, np.nan], [0.0, 1.0]]), None),
        (np.eye(2), np.ones((3, 3))),
        (np.eye(2), np.array([[1.0, np.inf]])),
    ])
    def test_family_validates_a_and_d(self, A, D):
        with pytest.raises(ShapeMismatchError):
            OperatorFunction.resolvent_family(A, D)

    def test_record_is_not_an_init_argument(self):
        with pytest.raises(TypeError):
            OperatorFunction(lambda lam, mu: np.eye(2), _resolvent=(np.eye(2), None, None))
        assert OperatorFunction.constant(np.eye(2))._resolvent is None
        assert OperatorFunction.affine(1.0, 2.0, 2)._resolvent is None


class TestResolventValues:
    """A value F(lambda, mu) of a resolvent family is one triangular solve
    on the Schur form the family keeps; a dense LU inverse is the oracle."""

    @pytest.mark.parametrize("non_normal", [False, True])
    def test_values_match_an_lu_inverse(self, rng, monkeypatch, non_normal):
        schurs = count_calls(monkeypatch, scipy.linalg.schur, [scipy.linalg])
        resolvents = count_calls(monkeypatch, linalg.resolvent)
        for n in (1, 2, 5, 12, 24):
            A, _ = random_normal(rng, n)
            if non_normal:
                A = A + 0.5 * np.triu(random_complex(rng, n, n), 1)
            D = random_complex(rng, 3, n)
            F = OperatorFunction.resolvent_family(A, D)
            for z in rng.standard_normal(5) + 1j * rng.standard_normal(5):
                S = A - z * np.eye(n)
                ref = D @ scipy.linalg.lu_solve(scipy.linalg.lu_factor(S), np.eye(n))
                value = F(z.real, z.imag)
                assert np.linalg.norm(value - ref) <= 1e-13 * np.linalg.norm(ref), (n, z)
        assert len(schurs) == 5 and resolvents == []

    def test_refuses_every_shift_an_lu_inverse_refuses(self, rng):
        A0, _ = random_normal(rng, 4)
        jordan = 2.0 * np.eye(4) + np.diag(np.ones(3), 1)
        matrices = [np.diag([3.0, 2.0 + 1.0j, 1e3, -1e-3j]), jordan,
                    A0 + 0.5 * np.triu(random_complex(rng, 4, 4), 1), 1e4 * A0]
        swept = hits = 0
        for M in matrices:
            F = OperatorFunction.resolvent_family(M)
            for z in shift_sweep(np.linalg.eigvals(M)):
                old_raises = lu_resolvent_raises(M, z)
                try:
                    F(z.real, z.imag)
                    new_raises = False
                except SingularResolventError as exc:
                    assert f"z = {complex(z)}" in str(exc)
                    new_raises = True
                assert new_raises or not old_raises, (M, z)
                swept += 1
                hits += old_raises
        assert swept == 4 * 4 * 16 * 3
        assert hits > 0  # the exact hits at p = 16 make the sweep bite


class TestExactIntegrals:
    def test_reconstruction(self, rng):
        C, _ = random_normal(rng, 7)
        sm = decompose_normal(C)
        J = exact_right_integral(z_function(7), sm, RECT)
        assert operator_norm(J - C) <= 1e-12

    def test_empty_rect_is_zero(self, rng):
        C, _ = random_normal(rng, 4)
        sm = decompose_normal(C)
        J = exact_right_integral(z_function(4), sm, Rect(5.0, 6.0, 5.0, 6.0))
        assert operator_norm(J) == 0.0

    def test_boundary_eigenvalue_raises(self):
        sm = decompose_normal(np.diag([1.0, 1j]))
        with pytest.raises(BoundaryEigenvalueError):
            exact_right_integral(z_function(2), sm, Rect(0.0, 1.0, -1.0, 2.0))

    def test_left_integral_solves_sylvester(self, rng):
        # the left integral of D (A - z)^{-1} over a rect covering
        # spec(C) is the solution of XA - CX = D
        k, h = 5, 4
        C, _ = random_normal(rng, k)
        A, _ = random_normal(rng, h, re=(2.5, 4.0))
        D = random_complex(rng, k, h)
        sm = decompose_normal(C)
        G = OperatorFunction.resolvent_family(A, D)
        X = exact_left_integral(G, sm, RECT)
        oracle = solve_kronecker(SylvesterProblem(A, C, D)).X
        assert operator_norm(X - oracle) <= 1e-10 * max(1.0, operator_norm(oracle))


class TestIntegrateRight:
    def test_affine_matches_exact(self):
        sm = decompose_normal(np.diag([1.0, 1j]))
        F = OperatorFunction.affine(1.0, 2.0, 2)
        J, report = integrate_right(F, sm, RECT, tol=1e-12, max_levels=40)
        exact = exact_right_integral(F, sm, RECT)
        expected = projections(sm)[np.argmin(np.abs(sm.eigenvalues - 1))] * 1.0 \
            + projections(sm)[np.argmin(np.abs(sm.eigenvalues - 1j))] * 2.0
        assert report.converged
        assert operator_norm(J - exact) <= 1e-10
        assert operator_norm(J - expected) <= 1e-10

    def test_constant_converges_quickly_and_exactly(self, rng):
        C, _ = random_normal(rng, 5)
        sm = decompose_normal(C)
        J, report = integrate_right(OperatorFunction.constant(np.eye(5)),
                                    sm, RECT, tol=1e-14, max_levels=10)
        assert report.converged
        # Cauchy differences are zero up to summation-order roundoff;
        # the loop stops as soon as the zero streak has probed the tags
        assert math.isnan(report.levels[0][1])
        assert all(diff <= 1e-14 for _, diff in report.levels[1:])
        assert len(report.levels) <= 8
        assert operator_norm(J - np.eye(5)) <= 1e-12

    def test_resolvent_family_matches_exact(self, rng):
        k = 6
        C, _ = random_normal(rng, k)
        A, _ = random_normal(rng, k, re=(3.0, 4.0))
        D = random_complex(rng, 3, k)
        sm = decompose_normal(C)
        F = OperatorFunction.resolvent_family(A, D)
        rect = Rect(-1.2, 1.2, -1.2, 1.2)
        J, report = integrate_right(F, sm, rect, tol=2e-9, max_levels=50)
        exact = exact_right_integral(F, sm, rect)
        assert report.converged
        assert operator_norm(J - exact) <= 1e-8

    def test_no_convergence_carries_report(self, rng):
        C, _ = random_normal(rng, 4)
        sm = decompose_normal(C)
        # wildly oscillating integrand: tags keep landing on fresh values
        F = OperatorFunction(
            lambda lam, mu: np.sin(1e6 * lam + 1e5 * mu) * np.eye(4))
        with pytest.raises(NoConvergenceError) as err:
            integrate_right(F, sm, RECT, tol=1e-13, max_levels=6)
        assert err.value.report is not None
        assert not err.value.report.converged
        assert err.value.value is not None

    def test_max_levels_validated(self, rng):
        C, _ = random_normal(rng, 3)
        sm = decompose_normal(C)
        with pytest.raises(ValueError):
            integrate_right(OperatorFunction.constant(np.eye(3)), sm, RECT,
                            tol=1e-10, max_levels=1)


    def test_levels_past_62_raise_value_error(self):
        # cell indices are int64: level 63 overflowed inside the cell rule
        sm = decompose_normal(np.diag([0.311 + 0.013j, -0.573 + 0.771j]))
        F = OperatorFunction.affine(1.0, 2.0, 2)
        for call in (lambda: integrate_right(F, sm, RECT, tol=0.0, max_levels=63),
                     lambda: dyadic_level_sum(F, sm, RECT, 63)):
            with pytest.raises(ValueError, match="largest supported dyadic level, 62"):
                call()
        assert np.all(np.isfinite(dyadic_level_sum(F, sm, RECT, 62)))
        with pytest.raises(NoConvergenceError) as err:
            integrate_right(F, sm, RECT, tol=0.0, max_levels=62)
        assert len(err.value.report.levels) == 62
        # a refinement that stops before level 63 may still allow more
        _, report = integrate_right(F, sm, RECT, tol=1e-10, max_levels=100)
        assert report.converged and len(report.levels) < 62

    def test_max_levels_past_62_is_fine_when_it_converges_first(self):
        sm = decompose_normal(np.diag([0.311 + 0.013j, -0.573 + 0.771j]))
        F = OperatorFunction.affine(1.0, 2.0, 2)
        J, report = integrate_right(F, sm, RECT, tol=1e-10, max_levels=63)
        assert report.converged and len(report.levels) < 62
        assert operator_norm(J - exact_right_integral(F, sm, RECT)) <= 1e-9

    def test_huge_max_levels_locates_at_most_62_levels(self):
        # a refinement locates its levels in one pass, up to the deepest
        # valid one: an array of max_levels levels would not fit in memory
        sm = decompose_normal(np.diag([0.25 + 0.5j, -0.3 + 0.1j, 0.7 - 0.2j]))
        rect = GRID_RECTS[0]
        F = OperatorFunction.affine(1.0, 2.0, 3)
        J, report = integrate_right(F, sm, rect, tol=1e-10, max_levels=10 ** 12)
        assert report.converged and len(report.levels) == 36
        blocks = stieltjes._level_tags(sm, rect, 10 ** 12, 8)
        assert [len(next(blocks)) for _ in range(8)] == [8] * 7 + [6]
        with pytest.raises(ValueError, match="level 63 exceeds"):
            next(blocks)
        assert operator_norm(J - exact_right_integral(F, sm, rect)) <= 1e-9

    def test_bad_spacing_raises_once_its_level_is_reached(self):
        # levels 1 .. 10 of [0, 2^-1064) are spaced down to 2^-1074, and
        # level 11 by 0: each of the ten levels evaluates F once
        tiny = Rect(0.0, 2.0 ** -1064, -1.0, 1.0)
        seen = []
        F = OperatorFunction(lambda lam, mu: seen.append(mu) or np.array([[mu + 0j]]))
        with pytest.raises(ValueError, match=r"level-11 grid .* not finite and positive"):
            integrate_right(F, diagonal_measure([1.0j / 3.0]), tiny, tol=0.0,
                            max_levels=20)
        assert len(seen) == 10

    def test_overflowing_grid_spacing_raises_value_error(self):
        # the width of [-1e308, 1e308) is inf, so every dyadic line was NaN
        sm = diagonal_measure([-1.0, 0.5 + 0.25j])
        F = OperatorFunction.affine(1.0, 2.0, 2)
        wide = Rect(-1e308, 1e308, -2.0, 2.0)
        for call in (lambda: integrate_right(F, sm, wide, tol=1e-10, max_levels=10),
                     lambda: dyadic_level_sum(F, sm, wide, 1)):
            with pytest.raises(ValueError, match=r"spacing \(inf, 2\.0\), which is not"):
                call()
        # explicit lines over the same span stay valid: the tags are
        # (-1e308, 0) for -1 and (0, 0) for 0.5 + 0.25i
        J = right_sum(F, sm, GridPartition([-1e308, 0.0, 1e308], [-2.0, 0.0, 2.0]))
        assert np.array_equal(J, np.diag([-1e308, 0.0]))


def refine(F, sm, rect, max_levels=60):
    """integrate_right at tol 1e-10: (J, report, sums), with the partial
    value and report when it does not converge, and the sum of each
    reported level from `dyadic_level_sum`, which `TestLevelBlocks` pins
    to the refinement's levels bit for bit."""
    try:
        J, report = integrate_right(F, sm, rect, tol=1e-10, max_levels=max_levels)
    except NoConvergenceError as exc:
        J, report = exc.value, exc.report
    return J, report, [dyadic_level_sum(F, sm, rect, level)
                       for level in range(1, len(report.levels) + 1)]


@st.composite
def scalar_case(draw):
    """An affine or polynomial integrand with nonzero leading terms on a
    simple or clustered measure of n <= 10 dimensions in [-1.5, 1.5]^2,
    and a rectangle that holds the spectrum or cuts it."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 10))
    C, _ = random_normal(rng, n, re=(-1.5, 1.5), im=(-1.5, 1.5),
                         repeat=draw(st.booleans()))
    if draw(st.booleans()):
        p, q = rng.uniform(0.5, 2.0, 2) * rng.choice([-1.0, 1.0], 2)
        F = OperatorFunction.affine(p, q, n)
    else:
        coeffs = (rng.uniform(-1.0, 1.0, draw(st.integers(2, 4)))
                  + 1j * rng.uniform(-1.0, 1.0))
        F = OperatorFunction.polynomial(coeffs, n)
    rect = draw(st.sampled_from([RECT, Rect(-0.9, 1.3, -1.1, 0.7)]))
    return decompose_normal(C), F, rect


class TestScalarLevels:
    """A scalar integrand f I refines on one value per atom; the same
    function without its scalar runs the general path and is the oracle."""

    @settings(max_examples=60, deadline=None)
    @given(scalar_case())
    def test_matches_general_path(self, case):
        sm, F, rect = case
        assert F.scalar is not None
        J, report, sums = refine(F, sm, rect)
        J_ref, ref, sums_ref = refine(OperatorFunction(F.evaluate), sm, rect)
        assert len(report.levels) == len(ref.levels)
        assert report.converged == ref.converged
        assert operator_norm(J - J_ref) <= 1e-13 * max(1.0, operator_norm(J_ref))
        sup_F = max(operator_norm(K) for K in sums_ref)
        for (mesh, diff), (mesh_ref, diff_ref) in zip(report.levels, ref.levels):
            assert mesh == mesh_ref
            assert (math.isnan(diff) and math.isnan(diff_ref)
                    or abs(diff - diff_ref) <= 1e-12 * max(1.0, sup_F))
        # the value returned is its level's sum, and each level's sum on
        # one value per atom matches the general path's
        assert np.array_equal(J, sums[-1])
        for K, K_ref in zip(sums, sums_ref):
            assert operator_norm(K - K_ref) <= 1e-13 * max(1.0, operator_norm(K_ref))

    def test_diff_bounds_the_dense_difference_for_any_basis(self):
        # basis 2I: each level sum is 4 diag(v), so the dense difference
        # is 4 max|dv| and the bound (1 + ||3 I||_F) max|dv| exceeds it
        n = 4
        sm = SpectralMeasure([0.3 + 0.1j, -0.7 + 0.4j, 0.2 - 0.9j, -0.5 - 0.6j],
                             2.0 * np.eye(n), [1] * n)
        F = OperatorFunction.polynomial([0.5, -1.0, 0.25], n)
        _, report, sums = refine(F, sm, RECT)
        diffs = [diff for _, diff in report.levels[1:]]
        dense = [operator_norm(J - K) for J, K in zip(sums[1:], sums)]
        assert max(dense) > 0.0
        assert all(diff >= d for diff, d in zip(diffs, dense))

    def test_no_operator_norm_per_level(self, rng, monkeypatch):
        sm = decompose_normal(random_normal(rng, 6, repeat=True)[0])
        calls = []
        real = stieltjes.operator_norm
        monkeypatch.setattr(stieltjes, "operator_norm",
                            lambda M: calls.append(1) or real(M))
        svds = count_calls(monkeypatch, np.linalg.svd, [np.linalg])
        F = OperatorFunction.affine(1.0, 2.0, 6)
        _, report = integrate_right(F, sm, RECT, tol=1e-10, max_levels=60)
        assert report.converged and len(report.levels) > 2
        assert calls == [] and svds == []
        # the general path takes one SVD per level difference
        _, report = integrate_right(OperatorFunction(F.evaluate), sm, RECT,
                                    tol=1e-10, max_levels=60)
        assert calls == [] and len(svds) == len(report.levels) - 1

    @pytest.mark.parametrize("rect", [RECT, Rect(5.0, 6.0, 5.0, 6.0)])
    def test_dimension_mismatch_raises_as_before(self, rng, rect):
        sm = decompose_normal(random_normal(rng, 4)[0])
        F = OperatorFunction.affine(1.0, 2.0, 3)
        with pytest.raises(ShapeMismatchError) as scalar:
            integrate_right(F, sm, rect, tol=1e-10, max_levels=10)
        with pytest.raises(ShapeMismatchError) as general:
            integrate_right(OperatorFunction(F.evaluate), sm, rect, tol=1e-10,
                            max_levels=10)
        assert str(scalar.value) == str(general.value)
        assert str(scalar.value).startswith(
            "integrand of shape (3, 3) does not fit a measure on dimension n = 4")

    def test_scalar_is_not_an_init_argument(self):
        with pytest.raises(TypeError):
            OperatorFunction(lambda lam, mu: np.eye(2), scalar=(abs, 2))
        assert OperatorFunction.constant(np.eye(2)).scalar is None

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("scalar", [True, False])
    def test_non_finite_value_names_tag_and_value(self, scalar):
        sm = decompose_normal(np.diag([-0.5, 0.5]))
        F = OperatorFunction.from_scalar(
            lambda z: math.inf if z.real < 0 else 1.0, 2)
        if not scalar:
            F = OperatorFunction(F.evaluate)
        with pytest.raises(ValueError,
                           match=r"integrand value \(inf.*at tag \(-2\.0, 0\.0\) "
                                 r"is not finite"):
            integrate_right(F, sm, RECT, tol=1e-10, max_levels=10)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_bad_tol_rejected(self, tol):
        sm = decompose_normal(np.diag([0.5, 1j]))
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            integrate_right(OperatorFunction.affine(1.0, 2.0, 2), sm, RECT,
                            tol=tol, max_levels=10)


class TestLipschitz:
    def test_affine(self):
        F = OperatorFunction.affine(1.0, 2.0, 3)
        g1, g2 = estimate_lipschitz(F, Rect(0.0, 1.0, 0.0, 1.0), 5)
        assert g1 == pytest.approx(2.0, abs=1e-12)
        assert g2 == pytest.approx(0.0, abs=1e-12)

    def test_constant(self):
        F = OperatorFunction.constant(np.eye(2) * 3.7)
        assert estimate_lipschitz(F, RECT, 4) == (0.0, 0.0)

    def test_product_mixed_constant(self):
        F = OperatorFunction(lambda lam, mu: lam * mu * np.eye(2))
        g1, g2 = estimate_lipschitz(F, Rect(0.0, 1.0, 0.0, 1.0), 6)
        assert g2 == pytest.approx(1.0, abs=1e-12)

    def test_needs_three_samples(self):
        with pytest.raises(ValueError):
            estimate_lipschitz(OperatorFunction.constant(np.eye(2)), RECT, 2)

    @pytest.mark.parametrize("samples", [3, 6, 11])
    def test_equals_pairwise_loop(self, rng, samples):
        M = random_complex(rng, 3, 4)
        N = rng.standard_normal((3, 4))
        rect = Rect(-1.0, 2.0, -0.5, 1.5)
        for F in (OperatorFunction.affine(1.0, -2.0, 3),
                  OperatorFunction(lambda lam, mu: np.sin(lam * mu) * M
                                   + np.exp(0.3 * lam) * mu ** 2 * N)):
            assert (estimate_lipschitz(F, rect, samples)
                    == estimate_lipschitz_loop(F, rect, samples))


class TestLnest:
    def test_constant_on_unit_square(self):
        assert lnest_bound(1.0, 0.0, 0.0, Rect(0.0, 1.0, 0.0, 1.0)) == 4.0

    def test_zero_function(self):
        assert lnest_bound(0.0, 0.0, 0.0, RECT) == 0.0

    def test_affine_example(self):
        rect = Rect(0.0, 1.0, 0.0, 1.0)
        # sup |lam + 2 mu| = 3, gamma1 = 2, gamma2 = 0
        assert lnest_bound(3.0, 2.0, 0.0, rect) == pytest.approx(20.0)

    def test_bound_dominates_integral(self, rng):
        C, _ = random_normal(rng, 6)
        sm = decompose_normal(C)
        F = OperatorFunction.affine(1.0, 2.0, 6)
        J = exact_right_integral(F, sm, RECT)
        g1, g2 = estimate_lipschitz(F, RECT, 5)
        sup = max(abs(z.real + 2 * z.imag) for z in sm.eigenvalues)
        assert operator_norm(J) <= lnest_bound(sup, g1, g2, RECT)

    def test_bound_dominates_partition_sums(self, rng):
        # the bound holds for integral sums too, up to a mesh-size slack
        C, _ = random_normal(rng, 6)
        sm = decompose_normal(C)
        F = OperatorFunction.affine(1.0, 2.0, 6)
        sup = 2.0 + 2 * 2.0  # sup over the rectangle
        bound = lnest_bound(sup, F.gamma1, F.gamma2, RECT)
        for m in (2, 5, 16):
            p = GridPartition.uniform(RECT, m, m)
            slack = F.gamma1 * p.mesh
            assert operator_norm(right_sum(F, sm, p)) <= bound + slack

    def test_rejects_negative(self):
        # negative and NaN inputs are both refused
        for bad in (-1.0, np.nan):
            for args in ((bad, 0.0, 0.0), (0.0, bad, 0.0), (0.0, 0.0, bad)):
                with pytest.raises(ValueError, match="must be nonnegative"):
                    lnest_bound(*args, RECT)
            for name in ("gamma1", "gamma2"):
                with pytest.raises(ValueError, match="must be nonnegative"):
                    OperatorFunction(lambda lam, mu: np.eye(1),
                                     **{name: bad})


class TestCZero:
    def test_constant_identity(self, rng):
        C, _ = random_normal(rng, 6)
        sm = decompose_normal(C)
        G = OperatorFunction.constant(np.eye(6))
        assert czero_check(G, sm, C, RECT) <= 1e-12

    def test_linear(self, rng):
        C, _ = random_normal(rng, 6)
        sm = decompose_normal(C)
        assert czero_check(z_function(6), sm, C, RECT) <= 1e-12

    def test_resolvent_type_family(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 21))
            C, _ = random_normal(rng, n)
            sm = decompose_normal(C)
            T = random_complex(rng, n, 3)
            G = OperatorFunction(lambda lam, mu, T=T:
                                 np.linalg.solve(
                                     5.0 * np.eye(n) - complex(lam, mu) * np.eye(n),
                                     T))
            scale = max(1.0, operator_norm(C))
            assert czero_check(G, sm, C, RECT) <= 1e-10 * scale
