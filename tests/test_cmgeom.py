"""Cayley-Menger determinants, volumes, and point reconstruction."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simplexdist.cmgeom import (
    SquaredDistanceMatrix,
    _bareiss_det,
    cayley_menger_det,
    complete_distance_tuple,
    probe_realizability,
    reconstruct_point,
    relation_vs_cayley_menger,
    simplex_volume,
)
from simplexdist.geom import CartesianSimplex, EmbeddedSimplex, SampleConfig, sample_points
from simplexdist.poly import MultiPoly, distance_relation, relation_residual_exact


# -- determinants ---------------------------------------------------------------


def test_unit_equilateral_determinant():
    # bordered matrix is all-ones minus identity: eigenvalues 3, -1, -1, -1
    m = SquaredDistanceMatrix.regular(3, 1)
    assert cayley_menger_det(m) == -3


@pytest.mark.parametrize("q", [Fraction(1), Fraction(4, 9), Fraction(7)])
def test_two_point_determinant(q):
    # expanding [[0,1,1],[1,0,q],[1,q,0]] by hand gives 2q
    m = SquaredDistanceMatrix([[0, q], [q, 0]])
    assert cayley_menger_det(m) == 2 * q


def test_collinear_points_degenerate():
    # points at 0, 1, 2 on a line
    m = SquaredDistanceMatrix([[0, 1, 4], [1, 0, 1], [4, 1, 0]])
    assert cayley_menger_det(m) == 0


def reference_bareiss_det(rows):
    """The Fraction elimination that the integer one replaced."""
    m = [row[:] for row in rows]
    n = len(m)
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            m[i][k] = Fraction(0)
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


entries = st.one_of(
    st.integers(-30, 30),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 60)),
)


@st.composite
def rational_matrices(draw):
    n = draw(st.integers(1, 8))
    m = [[draw(entries) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(["generic", "zero row", "zero pivot", "singular"]))
    if shape == "zero row":
        m[draw(st.integers(0, n - 1))] = [0] * n
    elif shape == "zero pivot":
        # the leading (k+1)-minor vanishes, so after k steps the pivot is 0
        # and elimination has to swap in a later row (or return 0)
        k = draw(st.integers(0, n - 1))
        coeffs = [draw(entries) for _ in range(k)]
        for j in range(k + 1):
            m[k][j] = sum((c * m[i][j] for i, c in enumerate(coeffs)), Fraction(0))
    elif shape == "singular" and n > 1:
        r = draw(st.integers(0, n - 1))
        coeffs = [draw(entries) for _ in range(n)]
        m[r] = [
            sum((c * m[i][j] for i, c in enumerate(coeffs) if i != r), Fraction(0))
            for j in range(n)
        ]
    return m


@settings(max_examples=200, deadline=None)
@given(rational_matrices())
@example([[Fraction(2, 3)]])
@example([[0, 1], [1, 0]])
@example([[0, 0], [0, 1]])
@example([[1, 2, 3], [2, 4, 7], [1, 1, 1]])
@example([[Fraction(1, 2), Fraction(-1, 3)], [Fraction(5, 6), Fraction(7, 4)]])
def test_integer_bareiss_matches_fraction_reference(m):
    det = _bareiss_det(m)
    assert isinstance(det, Fraction)
    assert det == reference_bareiss_det(m)


@pytest.mark.parametrize("n", [2, 3, 10, 25, 40])
@pytest.mark.parametrize("a", [Fraction(1), Fraction(3, 7), Fraction(8, 9), Fraction(5, 3)])
def test_regular_determinant_closed_form(n, a):
    # n points at common squared distance a^2
    det = cayley_menger_det(SquaredDistanceMatrix.regular(n, a * a))
    assert det == (-1) ** n * n * a ** (2 * (n - 1))


def test_float_matrix_determinant_is_exact():
    m = SquaredDistanceMatrix([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    assert not m.exact
    det = cayley_menger_det(m)
    assert isinstance(det, Fraction) and det == -3


def test_float_entries_are_kept_as_the_fractions_they_equal():
    m = SquaredDistanceMatrix([[0.0, 0.1], [0.1, 0.0]])
    assert m.rows[0][1] == Fraction(0.1) != Fraction(1, 10)
    assert cayley_menger_det(m) == 2 * Fraction(0.1)
    # a rational phantom point does not make a float matrix exact
    assert not m.extended_with([Fraction(1, 4), Fraction(1, 4)]).exact
    assert SquaredDistanceMatrix.regular(2, 1).extended_with(["1/4", 1]).exact


def test_matrix_validation():
    with pytest.raises(ValueError):
        SquaredDistanceMatrix([[0, 1], [2, 0]])  # asymmetric
    with pytest.raises(ValueError):
        SquaredDistanceMatrix([[0, -1], [-1, 0]])  # negative
    with pytest.raises(ValueError):
        SquaredDistanceMatrix([[1, 1], [1, 0]])  # nonzero diagonal
    with pytest.raises(ValueError):
        SquaredDistanceMatrix([[0]])  # single point
    with pytest.raises(ValueError):
        SquaredDistanceMatrix(5)  # not a sequence of rows
    with pytest.raises(ValueError):
        SquaredDistanceMatrix(["01", "10"])  # rows that are strings
    with pytest.raises(ValueError):
        SquaredDistanceMatrix([[0, None], [None, 0]])  # neither rational nor real
    with pytest.raises(ValueError):
        SquaredDistanceMatrix([[0.0, math.inf], [math.inf, 0.0]])  # not finite
    with pytest.raises(ValueError):
        SquaredDistanceMatrix([[0.0, 10**400], [10**400, 0.0]])  # beyond the float range


# -- volumes ----------------------------------------------------------------------


def test_equilateral_triangle_area():
    m = SquaredDistanceMatrix.regular(3, 1)
    assert abs(simplex_volume(m) - math.sqrt(3) / 4) < 1e-15


def test_regular_tetrahedron_volume():
    m = SquaredDistanceMatrix.regular(4, 1)
    assert abs(simplex_volume(m) - 1 / (6 * math.sqrt(2))) < 1e-15


def test_collinear_volume_zero():
    m = SquaredDistanceMatrix([[0, 1, 4], [1, 0, 1], [4, 1, 0]])
    assert simplex_volume(m) == 0.0
    assert math.copysign(1.0, simplex_volume(m)) == 1.0


def test_collinear_float_volume_is_positive_zero():
    # the float determinant is 0.0 and (-1)^(d+1) * 0.0 is -0.0 for even d;
    # the float path must report +0.0 like the exact one
    m = SquaredDistanceMatrix([[0.0, 1.0, 4.0], [1.0, 0.0, 1.0], [4.0, 1.0, 0.0]])
    assert simplex_volume(m) == 0.0
    assert math.copysign(1.0, simplex_volume(m)) == 1.0


def test_flat_rule_applies_to_float_input_only():
    # points 0, 0.1 and 0.1 + 0.2 on a line: rounding in the squared
    # distances leaves volume^2 at about -3.5e-20, inside -1e-9 * max^2
    a, b = 0.1, 0.2
    rows = [[0.0, a * a, (a + b) ** 2], [a * a, 0.0, b * b], [(a + b) ** 2, b * b, 0.0]]
    m = SquaredDistanceMatrix(rows)
    v2 = -cayley_menger_det(m) / 16
    assert -Fraction(1, 10**9) * max(map(max, m.rows)) ** 2 < v2 < 0
    assert simplex_volume(m) == 0.0
    # the same numbers as rationals are exact input, and not flat
    with pytest.raises(ValueError, match="is negative"):
        simplex_volume(SquaredDistanceMatrix([[Fraction(x) for x in r] for r in rows]))
    # far below the rule, float input is rejected too
    with pytest.raises(ValueError, match="volume\\^2 = -45/16 is negative"):
        simplex_volume(SquaredDistanceMatrix([[0.0, 1.0, 9.0], [1.0, 0.0, 1.0], [9.0, 1.0, 0.0]]))


def test_non_embeddable_distances_rejected():
    # side lengths 1, 1, 3 violate the triangle inequality
    m = SquaredDistanceMatrix([[0, 1, 9], [1, 0, 1], [9, 1, 0]])
    with pytest.raises(ValueError):
        simplex_volume(m)


def coordinate_volume(d: int, edge: float) -> float:
    s = CartesianSimplex.build(d, edge)
    span = s.vertices[1:] - s.vertices[0]
    return abs(float(np.linalg.det(span))) / math.factorial(d)


@pytest.mark.parametrize("d", range(2, 9))
def test_volume_matches_coordinate_oracle(d):
    via_cm = simplex_volume(SquaredDistanceMatrix.regular(d + 1, 1))
    via_coords = coordinate_volume(d, 1.0)
    assert abs(via_cm - via_coords) <= 1e-12 * via_coords


# -- the relation and the determinant ---------------------------------------------


def test_relation_vs_cm_on_exact_samples():
    for d in range(2, 7):
        s = EmbeddedSimplex(d, Fraction(4, 9))
        for _, sample in sample_points(s, SampleConfig(seed=d, count=10)):
            rel, cm = relation_vs_cayley_menger(d, Fraction(4, 9), sample.squared)
            assert rel == 0 and cm == 0


@pytest.mark.parametrize("d", range(1, 8))
@pytest.mark.parametrize("a2", [Fraction(1), Fraction(3, 2), Fraction(4, 9), Fraction(7, 3)])
def test_relation_proportional_to_cm(d, a2):
    # relation = (-1)^(d+1) a^(-2(d-1)) CM on every tuple, realizable or not
    rng = random.Random(f"{d}|{a2}")
    for _ in range(20):
        squared = [Fraction(rng.randint(0, 200), rng.randint(1, 30)) for _ in range(d + 1)]
        rel, cm = relation_vs_cayley_menger(d, a2, squared)
        assert rel * a2 ** (d - 1) == (-1) ** (d + 1) * cm


def test_relation_vs_cm_on_off_surface_tuple():
    rel, cm = relation_vs_cayley_menger(2, 1, [1, 1, 1])
    assert rel == -4 and cm != 0


def test_relation_vs_cm_at_vertex():
    rel, cm = relation_vs_cayley_menger(2, 1, [0, 1, 1])
    assert rel == 0 and cm == 0


# -- reconstruction ----------------------------------------------------------------


def test_reconstruct_round_trip_simple():
    s = CartesianSimplex.build(2, 1.0)
    result = reconstruct_point(s, s.distances([0.5, 0.5]))
    assert result.feasible
    assert np.allclose(result.point, [0.5, 0.5], atol=1e-9)


def test_reconstruct_vertex():
    s = CartesianSimplex.build(2, 1.0)
    result = reconstruct_point(s, [0.0, 1.0, 1.0])
    assert result.feasible
    assert np.allclose(result.point, s.vertices[0], atol=1e-12)


def test_reconstruct_infeasible_tuple():
    # all-ones distances put the linear solve at the circumcenter, where
    # the first sphere equation misses by |1/3 - 1| = 2/3
    s = CartesianSimplex.build(2, 1.0)
    result = reconstruct_point(s, [1.0, 1.0, 1.0])
    assert not result.feasible
    assert abs(result.residual - 2 / 3) < 1e-9
    assert np.allclose(result.point, s.vertices.mean(axis=0), atol=1e-12)


def test_reconstruct_validates_input():
    s = CartesianSimplex.build(2, 1.0)
    with pytest.raises(ValueError):
        reconstruct_point(s, [1.0, 1.0])
    with pytest.raises(ValueError):
        reconstruct_point(s, [-1.0, 1.0, 1.0])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            reconstruct_point(s, [1.0, bad, 1.0])


@pytest.mark.parametrize("d", range(2, 6))
def test_reconstruct_many_round_trips(d):
    s = CartesianSimplex.build(d, 1.0)
    rng = random.Random(d)
    for _ in range(100):
        x = np.array([rng.uniform(-2.0, 2.0) for _ in range(d)])
        result = reconstruct_point(s, s.distances(x))
        assert result.feasible
        assert np.linalg.norm(result.point - x) < 1e-9


def test_residual_grows_with_last_distance_perturbation():
    s = CartesianSimplex.build(3, 1.0)
    rng = random.Random(42)
    for _ in range(10):
        x = np.array([rng.uniform(-1.5, 1.5) for _ in range(3)])
        t = s.distances(x)
        residuals = []
        for eps in (1e-6, 1e-5, 1e-4):
            bumped = t.copy()
            bumped[-1] *= 1 + eps
            residuals.append(reconstruct_point(s, bumped).residual)
        assert residuals[0] < residuals[1] < residuals[2]


# -- the realizability identity ------------------------------------------------------


def _invert(m):
    """Gauss-Jordan inverse of a nonsingular Fraction matrix."""
    n = len(m)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for k in range(n):
        pivot = next(i for i in range(k, n) if aug[i][k] != 0)
        aug[k], aug[pivot] = aug[pivot], aug[k]
        aug[k] = [x / aug[k][k] for x in aug[k]]
        for i in range(n):
            if i != k and aug[i][k] != 0:
                aug[i] = [x - aug[i][k] * y for x, y in zip(aug[i], aug[k])]
    return [row[n:] for row in aug]


def _relation_in_squares(d, a2):
    # every exponent of the relation in the distances is even
    rel = distance_relation(d, a2)
    return MultiPoly(d + 1, {tuple(e // 2 for e in exps): c for exps, c in rel.terms.items()})


@pytest.mark.parametrize("d", range(1, 7))
@pytest.mark.parametrize("a2", [Fraction(1), Fraction(4, 9), Fraction(7, 3)])
def test_height_above_solution_is_relation(d, a2):
    # u_j = v_j - v_0 has Gram entries (|u_i|^2 + |u_j|^2 - |v_i - v_j|^2)/2;
    # the linear solve gives u_j . y = b_j, so |y|^2 = b^T G^{-1} b, and
    # s_0 - |y|^2 is the relation on the squared distances up to a constant
    rows = SquaredDistanceMatrix.regular(d + 1, a2).rows
    labels = range(1, d + 1)
    gram = [[(rows[0][i] + rows[0][j] - rows[i][j]) / 2 for j in labels] for i in labels]
    inverse = _invert(gram)
    assert inverse == [
        [(2 / a2) * (int(i == j) - Fraction(1, d + 1)) for j in range(d)] for i in range(d)
    ]
    s = [MultiPoly.variable(j, d + 1) for j in range(d + 1)]
    b = [(MultiPoly.constant(a2, d + 1) + s[0] - s[j]).scale(Fraction(1, 2)) for j in labels]
    height_sq = MultiPoly.zero(d + 1)
    for i in range(d):
        for j in range(d):
            height_sq = height_sq + (b[i] * b[j]).scale(inverse[i][j])
    relation = _relation_in_squares(d, a2)
    assert s[0] - height_sq == relation.scale(Fraction(-1, 2 * (d + 1)) / a2)


@pytest.mark.parametrize("d", range(1, 7))
def test_reconstruction_residual_is_relation(d):
    a2 = Fraction(7, 3)
    simplex = CartesianSimplex.build(d, math.sqrt(a2))
    rng = random.Random(f"residual|{d}")
    for _ in range(100):
        t = [rng.uniform(0.0, 3.0) * simplex.edge for _ in range(d + 1)]
        exact = relation_residual_exact(d, a2, [Fraction(x) ** 2 for x in t])
        expected = float(abs(exact) / (2 * (d + 1) * a2))
        residual = reconstruct_point(simplex, t).residual
        # the residual is a difference of terms of size t_0^2 + a^2, whose
        # rounding error stays relative to that size when the difference
        # is tiny, i.e. next to a tuple that satisfies the relation
        scale = max(expected, t[0] ** 2 + float(a2))
        assert abs(residual - expected) <= 1e-12 * scale


# -- completing a tuple through the quadratic ---------------------------------------


def test_complete_tuple_recovers_actual_point():
    s = CartesianSimplex.build(2, 1.0)
    t = s.distances([0.31, -0.54])
    roots = complete_distance_tuple(2, 1, list(t[:2]))
    assert any(abs(r - t[2]) < 1e-9 for r in roots)


def test_complete_tuple_at_circumcenter():
    r = 1 / math.sqrt(3)
    roots = complete_distance_tuple(2, 1, [r, r])
    assert abs(roots[0] - r) < 1e-12  # the circumcenter root comes first


def test_complete_tuple_exact_discriminant_path():
    roots = complete_distance_tuple(2, 1, [Fraction(1), Fraction(1)])
    # p = 3, disc = 3*(9 - 2*3) = 9, roots s = (3 +- 3)/2 -> 0 and 3
    assert abs(roots[0] - 0.0) < 1e-15
    assert abs(roots[1] - math.sqrt(3)) < 1e-15


def test_complete_tuple_no_real_root():
    # wildly unbalanced distances leave a negative discriminant
    assert complete_distance_tuple(2, 1, [10.0, 0.1]) == []


def test_complete_tuple_arity():
    with pytest.raises(ValueError):
        complete_distance_tuple(2, 1, [1.0])
    with pytest.raises(ValueError):
        complete_distance_tuple(2, 1, [[1.0, 1.0, 1.0]])
    with pytest.raises(ValueError):
        complete_distance_tuple(0, 1, [])


@pytest.mark.parametrize("edge_sq, first, message", [
    (-1, [1.0, 1.0], "edge_sq must be a positive finite number"),
    (0, [1.0, 1.0], "edge_sq must be a positive finite number"),
    (math.nan, [1.0, 1.0], "edge_sq must be a positive finite number"),
    (math.inf, [1.0, 1.0], "edge_sq must be a positive finite number"),
    (1, [-1.0, 1.0], "distances must be non-negative"),
    (1, [[1.0, 1.0], [1.0, -0.5]], "distances must be non-negative"),
    (1, [math.nan, 1.0], "distances must be finite"),
    (1, [1.0, math.inf], "distances must be finite"),
], ids=["edge-neg", "edge-zero", "edge-nan", "edge-inf", "t-neg", "rows-neg", "t-nan", "t-inf"])
def test_complete_tuple_rejects_bad_input(edge_sq, first, message):
    # bad input is an error, as in reconstruct_point, not a tuple with no
    # root: a negative distance would be completed as its absolute value
    with pytest.raises(ValueError, match=message):
        complete_distance_tuple(2, edge_sq, first)


def reference_completion(d, a2, first):
    """The completion one tuple at a time in Python floats, the power sums
    added left to right."""
    p, q = 0.0, 0.0
    for x in first:
        p, q = p + x * x, q + x**4
    p, q = a2 + p, a2**2 + q
    disc = (d + 1) * (p * p - d * q)
    if disc < 0:
        if disc > -1e-9 * (p * p + abs(q) + a2 * a2):
            disc = 0.0
        else:
            return []
    root = math.sqrt(disc)
    out = [math.sqrt(max(s, 0.0)) for s in ((p - root) / d, (p + root) / d) if s >= -1e-12 * a2]
    return sorted(set(out))


@pytest.mark.parametrize(
    "d, a2, rows, lengths",
    [
        # two roots; no root (a negative discriminant); a double root (a zero
        # discriminant); a discriminant of about -1.2e-11, clamped to 0
        (2, 1.0, [[0.9, 0.6], [10.0, 0.1], [0.5, 0.5], [0.5 - 1e-12, 0.5 - 1e-12], [1.0, 1.0]], [2, 0, 1, 1, 2]),
        # the low root of t_j^2 = a^2 is 0, and rounds to -2.3e-10 here,
        # within the cutoff at this edge: two roots, as at unit edge
        (2, 1e6, [[999.9999999999911] * 2, [1000.0] * 2], [2, 2]),
        (1, 1.0, [[0.0], [0.7], [3.0]], [1, 2, 2]),
        (5, 4 / 9, [[0.5, 0.6, 0.7, 0.8, 0.9], [9.0, 0.1, 0.1, 0.1, 0.1]], [2, 0]),
    ],
)
def test_complete_tuple_rows_match_single_tuples(d, a2, rows, lengths):
    batched = complete_distance_tuple(d, a2, np.array(rows))
    assert batched == [complete_distance_tuple(d, a2, row) for row in rows]
    assert batched == [reference_completion(d, a2, row) for row in rows]
    assert [len(roots) for roots in batched] == lengths
    assert complete_distance_tuple(d, a2, np.empty((0, d))) == []


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_completion_scales_with_the_edge(d):
    # the roots are homogeneous of degree 1 in (a, t): at a^2 = 1e6 they are
    # 1000 times those at unit edge, the zero root of a vertex included
    rng = random.Random(f"completion|{d}")
    rows = [[rng.uniform(0.0, 2.0) for _ in range(d)] for _ in range(200)]
    rows += [[0.9999999999999911] * d, [1.0] * d, [0.5 - 1e-12] * d]
    unit = complete_distance_tuple(d, 1.0, np.array(rows))
    large = complete_distance_tuple(d, 1e6, 1000.0 * np.array(rows))
    assert [len(roots) for roots in large] == [len(roots) for roots in unit]
    for big, small in zip(large, unit):
        assert big == pytest.approx([1000.0 * r for r in small], rel=1e-9, abs=1e-9)
    # a power-of-two scale rounds nothing differently: the roots are exact
    scaled = complete_distance_tuple(d, 4.0**10, 1024.0 * np.array(rows))
    assert scaled == [[1024.0 * r for r in roots] for roots in unit]


# -- the realizability probe ---------------------------------------------------------


def test_probe_report_shape_and_determinism():
    rep = probe_realizability(2, 1, trials=50, seed=3)
    assert len(rep.trials) == 50
    assert set(rep.counts) == {"no_real_root", "feasible", "infeasible"}
    roots_total = rep.counts["feasible"] + rep.counts["infeasible"]
    assert roots_total == sum(len(t["verdicts"]) for t in rep.trials)
    again = probe_realizability(2, 1, trials=50, seed=3)
    assert rep.to_json() == again.to_json()


def test_probe_counts_trials_without_roots():
    rep = probe_realizability(2, 1, trials=80, seed=1)
    no_roots = sum(1 for t in rep.trials if not t["roots"])
    assert rep.counts["no_real_root"] == no_roots


def test_probe_validates_trials():
    with pytest.raises(ValueError):
        probe_realizability(2, 1, trials=0)


@pytest.mark.parametrize("d", [0, -1, 2.0])
def test_probe_validates_dimension(d):
    with pytest.raises(ValueError):
        probe_realizability(d, 1, 10)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_probe_verdicts_follow_the_identity(d):
    # every real non-negative completion satisfies the relation, so the
    # probe marks each root feasible and never reconstructs a point
    rep = probe_realizability(d, Fraction(4, 9), trials=60, seed=2)
    assert rep.counts["infeasible"] == 0
    assert rep.counts["feasible"] == sum(len(t["roots"]) for t in rep.trials)
    for trial in rep.trials:
        assert trial["verdicts"] == [{"t_last": r, "status": "feasible"} for r in trial["roots"]]
    assert "tol" not in rep.config
