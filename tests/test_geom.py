"""Simplex representations, exact distance queries, and samplers."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexdist import discover
from simplexdist.geom import (
    BarycentricPoint,
    CartesianSimplex,
    DistanceSample,
    EmbeddedSimplex,
    SampleConfig,
    _distance_numerators,
    _exact_squared,
    _rng_for,
    _weight_draws,
    circle_distance_profile,
    sample_circumsphere,
    sample_document,
    sample_points,
)
from simplexdist.poly import _relation_numerator, relation_residual_exact


def bp(*weights):
    return BarycentricPoint(tuple(Fraction(w) for w in weights))


# -- embedded simplex ---------------------------------------------------------


def test_vertex_pairwise_squared_distance_is_edge_sq():
    for d, a2 in [(2, Fraction(1)), (5, Fraction(4, 9))]:
        s = EmbeddedSimplex(d, a2)
        for i in range(d + 1):
            sq = s.squared_distances(s.vertex(i))
            for j in range(d + 1):
                assert sq[j] == (0 if i == j else a2)


def test_embedded_rejects_bad_input():
    with pytest.raises(ValueError):
        EmbeddedSimplex(0, 1)
    with pytest.raises(ValueError):
        EmbeddedSimplex(2, 0)
    with pytest.raises(ValueError):
        EmbeddedSimplex(2, Fraction(-1, 2))


def test_squared_distances_at_vertex_weight():
    s = EmbeddedSimplex(2, 1)
    assert s.squared_distances(bp(1, 0, 0)) == (0, 1, 1)


def test_squared_distances_at_centroid():
    # direct computation: ||(1/3,1/3,1/3) - e_1||^2 = 4/9 + 1/9 + 1/9 = 2/3,
    # times a^2/2 gives 1/3; also the squared circumradius a^2*d/(2(d+1))
    s = EmbeddedSimplex(2, 1)
    sq = s.squared_distances(bp(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)))
    assert sq == (Fraction(1, 3),) * 3
    assert sq[0] == s.circumradius_sq


def test_squared_distances_at_edge_midpoint():
    # ||(1/2,1/2,0) - e_1||^2 = 1/4 + 1/4 = 1/2 -> s_1 = 1/4;
    # ||(1/2,1/2,0) - e_3||^2 = 1/4 + 1/4 + 1 = 3/2 -> s_3 = 3/4
    s = EmbeddedSimplex(2, 1)
    assert s.squared_distances(bp(Fraction(1, 2), Fraction(1, 2), 0)) == (
        Fraction(1, 4),
        Fraction(1, 4),
        Fraction(3, 4),
    )


def test_squared_distances_arity_checked():
    s = EmbeddedSimplex(2, 1)
    with pytest.raises(ValueError):
        s.squared_distances(bp(Fraction(1, 2), Fraction(1, 2)))


def test_barycentric_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        bp(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))


# -- cartesian simplex --------------------------------------------------------


def test_cartesian_triangle_vertices():
    s = CartesianSimplex.build(2, 1.0)
    expected = np.array([[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]])
    assert np.allclose(s.vertices, expected, atol=1e-12)


def test_cartesian_tetrahedron_apex_height():
    s = CartesianSimplex.build(3, 1.0)
    base_centroid = s.vertices[:3].mean(axis=0)
    apex = s.vertices[3]
    assert abs(apex[2] - math.sqrt(2 / 3)) < 1e-12
    assert np.allclose(apex[:2], base_centroid[:2], atol=1e-12)


def test_cartesian_segment():
    s = CartesianSimplex.build(1, 2.0)
    assert np.allclose(s.vertices, [[0.0], [2.0]])


@pytest.mark.parametrize("d", range(1, 9))
def test_cartesian_edges_equal(d):
    s = CartesianSimplex.build(d, 1.25)
    dists = np.linalg.norm(s.vertices[:, None, :] - s.vertices[None, :, :], axis=2)
    off = dists[np.triu_indices(d + 1, k=1)]
    assert np.allclose(off, 1.25, rtol=1e-12, atol=0)


def test_cartesian_rejects_bad_input():
    with pytest.raises(ValueError):
        CartesianSimplex.build(0, 1.0)
    with pytest.raises(ValueError):
        CartesianSimplex.build(2, 0.0)


def test_distances_at_vertex():
    s = CartesianSimplex.build(2, 1.0)
    assert np.allclose(s.distances([0, 0]), [0, 1, 1], atol=1e-15)


def test_distances_at_half_half():
    s = CartesianSimplex.build(2, 1.0)
    expected = [
        math.hypot(0.5, 0.5),
        math.hypot(0.5, 0.5),
        abs(0.5 - math.sqrt(3) / 2),
    ]
    assert np.allclose(s.distances([0.5, 0.5]), expected, atol=1e-12)


def test_distances_from_circumcenter():
    s = CartesianSimplex.build(2, 1.0)
    center = np.array([0.5, math.sqrt(3) / 6])
    assert np.allclose(s.circumcenter, center, atol=1e-12)
    assert np.allclose(s.distances(center), 1 / math.sqrt(3), atol=1e-12)


def test_distances_arity_checked():
    s = CartesianSimplex.build(2, 1.0)
    with pytest.raises(ValueError):
        s.distances([0, 0, 0])


@pytest.mark.parametrize("d", range(2, 9))
def test_circumradius_formula(d):
    s = CartesianSimplex.build(d, 1.0)
    assert np.allclose(s.distances(s.circumcenter), s.circumradius, atol=1e-12)
    assert abs(s.circumradius - math.sqrt(d / (2 * (d + 1)))) < 1e-15


# -- exact sampling -----------------------------------------------------------


def test_sample_points_deterministic():
    s = EmbeddedSimplex(2, 1)
    cfg = SampleConfig(seed=7, count=3)
    first = sample_points(s, cfg)
    second = sample_points(s, cfg)
    assert len(first) == 3
    assert [p.weights for p, _ in first] == [p.weights for p, _ in second]


def test_sample_prefix_stability():
    # sample k depends on (seed, k) alone, so prefixes agree across counts
    s = EmbeddedSimplex(3, Fraction(4, 9))
    long = sample_points(s, SampleConfig(seed=11, count=10))
    short = sample_points(s, SampleConfig(seed=11, count=4))
    assert [p.weights for p, _ in long[:4]] == [p.weights for p, _ in short]


def test_sample_points_respect_box_and_sum():
    s = EmbeddedSimplex(2, 1)
    cfg = SampleConfig(seed=3, count=40, box=Fraction(2))
    for point, _ in sample_points(s, cfg):
        assert sum(point.weights) == 1
        assert all(abs(w) <= 2 for w in point.weights)


def test_sample_count_validated():
    with pytest.raises(ValueError):
        SampleConfig(seed=1, count=0)


@pytest.mark.parametrize("d", range(1, 9))
def test_samples_satisfy_relation_exactly(d):
    s = EmbeddedSimplex(d, Fraction(4, 9))
    for _, sample in sample_points(s, SampleConfig(seed=d, count=50)):
        assert relation_residual_exact(d, Fraction(4, 9), sample.squared) == 0


def test_exact_sample_mode_invariants():
    sample = DistanceSample([Fraction(1, 4), Fraction(1)])
    dists = sample.float_distances()
    assert dists == (0.5, 1.0)
    assert sample.to_json() == {"mode": "exact", "squared": ["1/4", "1"]}
    with pytest.raises(ValueError):
        DistanceSample([Fraction(-1)])


# -- the integer core against the Fraction reference ----------------------------


def reference_weights(config, n):
    """The Fraction sampler that the integer draws replaced: weights on the
    1/64 grid, renormalised by their sum, with the same redraw rules."""
    hi = int(config.box * 64)
    out = []
    for k in range(config.count):
        for attempt in itertools.count():
            rng = _rng_for(config.seed, "weights", k, attempt)
            raw = [Fraction(rng.randint(-hi, hi), 64) for _ in range(n)]
            total = sum(raw)
            if abs(total) < Fraction(1, 2):
                continue
            weights = tuple(r / total for r in raw)
            if all(abs(w) <= config.box for w in weights):
                break
        out.append(weights)
    return out


def reference_discovery_weights(d, seed, count):
    """Fraction form of the discovery samples: every third one pulled
    toward a vertex by a random power of a 1/64 grid value."""
    base = reference_weights(SampleConfig(seed=seed, count=count, box=Fraction(3, 2)), d + 1)
    out = []
    for k, weights in enumerate(base):
        if k % 3 == 2:
            vertex = (k // 3) % (d + 1)
            rng = _rng_for(seed, "radial", k)
            pull = Fraction(rng.randint(1, 64), 64) ** rng.randint(1, 3)
            weights = tuple(
                (1 - pull) * (1 if i == vertex else 0) + pull * w for i, w in enumerate(weights)
            )
        out.append(weights)
    return out


EDGES_SQ = (Fraction(1), Fraction(4, 9), Fraction(7, 3))


@pytest.mark.parametrize("box", [Fraction(3), Fraction(3, 2), Fraction(5, 2)])
@pytest.mark.parametrize("d", range(1, 9))
def test_integer_draws_match_fraction_reference(d, box):
    config = SampleConfig(seed=d, count=120, box=box)
    expected = reference_weights(config, d + 1)
    draws = list(_weight_draws(d + 1, config))
    assert [tuple(Fraction(r, den) for r in nums) for nums, den in draws] == expected
    assert all(den > 0 for _, den in draws)
    for a2 in EDGES_SQ:
        s = EmbeddedSimplex(d, a2)
        samples = sample_points(s, config)
        assert [point.weights for point, _ in samples] == expected
        for (point, sample), (nums, den) in zip(samples, draws):
            assert sample.squared == s.squared_distances(point)
            assert _exact_squared(a2, nums, den) == sample.squared
            assert _relation_numerator(2 * den * den, _distance_numerators(nums, den)) == 0


@pytest.mark.parametrize("d", range(1, 9))
def test_discovery_pull_matches_fraction_reference(d):
    expected = reference_discovery_weights(d, seed=d + 40, count=30)
    draws = discover._discovery_draws(d, d + 40, 30)
    assert [tuple(Fraction(r, den) for r in nums) for nums, den in draws] == expected
    for a2 in EDGES_SQ:
        s = EmbeddedSimplex(d, a2)
        floats, _ = discover._sample_distance_tuples(d, a2, 30, d + 40)
        reference = [
            [math.sqrt(float(x)) for x in s.squared_distances(BarycentricPoint(w))]
            for w in expected
        ]
        assert np.array_equal(floats, np.array(reference))


@pytest.mark.parametrize("d", range(1, 9))
def test_integer_residual_matches_exact_off_relation(d):
    # arbitrary integer numerators are off the relation: the integer form,
    # scaled back by (p / (2 q T^2))^2, must equal the Fraction residual
    rng = random.Random(f"off-relation|{d}")
    for a2 in EDGES_SQ:
        p, q = a2.numerator, a2.denominator
        for _ in range(20):
            den = rng.randint(1, 10**9)
            nums = [rng.randint(0, 10**12) for _ in range(d + 1)]
            scale = Fraction(p, 2 * q * den * den)
            residual = _relation_numerator(2 * den * den, nums)
            assert residual != 0
            exact = relation_residual_exact(d, a2, [scale * n for n in nums])
            assert exact == scale * scale * residual


# -- consistency between the two representations -------------------------------


def test_cartesian_matches_embedded_squared_distances():
    rng_weights = [
        (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3), 0),
        (Fraction(-1, 2), Fraction(3, 4), Fraction(1, 2), Fraction(1, 4)),
        (Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)),
    ]
    emb = EmbeddedSimplex(3, Fraction(25, 16))
    cart = CartesianSimplex.build(3, 1.25)
    for weights in rng_weights:
        point = BarycentricPoint(tuple(Fraction(w) for w in weights))
        exact = [float(x) for x in emb.squared_distances(point)]
        approx = cart.distances(cart.point_from_weights(weights)) ** 2
        assert np.allclose(approx, exact, rtol=1e-9)


def test_cartesian_matches_embedded_on_samples():
    emb = EmbeddedSimplex(2, 1)
    cart = CartesianSimplex.build(2, 1.0)
    for point, sample in sample_points(emb, SampleConfig(seed=5, count=25)):
        approx = cart.distances(cart.point_from_weights(point.weights)) ** 2
        assert np.allclose(approx, [float(x) for x in sample.squared], rtol=1e-9)


# -- circumsphere sampling ------------------------------------------------------


def test_sphere_samples_on_sphere():
    s = CartesianSimplex.build(2, 1.0)
    pts = sample_circumsphere(s, SampleConfig(seed=1, count=30))
    center = np.array([0.5, math.sqrt(3) / 6])
    for p in pts:
        assert abs(np.linalg.norm(p - center) - 1 / math.sqrt(3)) < 1e-12


def test_sphere_vertex_tuple_power_sums():
    # a vertex lies on the circumsphere and its distance tuple (0, 1, 1)
    # has squared sum 2 = d * a^2
    s = CartesianSimplex.build(2, 1.0)
    t = s.distances(s.vertices[0])
    assert abs(np.sum(t**2) - 2.0) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_sphere_samples_power_sum_identity(d):
    s = CartesianSimplex.build(d, 1.0)
    for p in sample_circumsphere(s, SampleConfig(seed=4, count=20)):
        t = s.distances(p)
        assert abs(np.sum(t**2) - d) < 1e-9


def test_sphere_sampling_deterministic():
    s = CartesianSimplex.build(3, 1.0)
    cfg = SampleConfig(seed=9, count=5)
    a = sample_circumsphere(s, cfg)
    b = sample_circumsphere(s, cfg)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_sphere_sampling_rejects_segment():
    s = CartesianSimplex.build(1, 1.0)
    with pytest.raises(ValueError):
        sample_circumsphere(s, SampleConfig(seed=0, count=1))


# -- circle distance profile -----------------------------------------------------


def test_profile_matches_closed_form():
    # distances from (-3.6, 0) to the circle of radius 5 about the origin:
    # sqrt(37.96 - 36*cos(theta)), from 1.4 at the near crossing to 8.6
    profile = circle_distance_profile((0, 0), 5.0, (-3.6, 0), 5)
    thetas = [k * math.pi / 4 for k in range(5)]
    expected = [math.sqrt(37.96 - 36 * math.cos(t)) for t in thetas]
    assert np.allclose(profile, expected, atol=1e-12)
    assert abs(profile[0] - 1.4) < 1e-12
    assert abs(profile[-1] - 8.6) < 1e-12
    assert np.all(np.diff(profile) > 0)


def test_profile_starts_at_zero_on_circle():
    profile = circle_distance_profile((0, 0), 5.0, (-5.0, 0), 7)
    assert profile[0] == 0.0
    assert np.all(np.diff(profile) > 0)


def test_profile_rejects_center():
    with pytest.raises(ValueError):
        circle_distance_profile((1, 2), 3.0, (1, 2), 5)
    with pytest.raises(ValueError):
        circle_distance_profile((0, 0), 3.0, (1, 0), 2)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=10),
    st.floats(min_value=-4, max_value=4),
    st.floats(min_value=-4, max_value=4),
    st.integers(min_value=3, max_value=12),
)
def test_profile_strictly_increasing(radius, bx, by, n):
    # interior or exterior points away from the centre
    off = math.hypot(bx, by)
    if off < 1e-3 or abs(off - radius) < 1e-3:
        return
    profile = circle_distance_profile((0, 0), radius, (bx, by), n)
    assert np.all(np.diff(profile) > 0)


# -- serialization ----------------------------------------------------------------


def test_sample_document_shape():
    s = EmbeddedSimplex(2, Fraction(4, 9))
    cfg = SampleConfig(seed=2, count=2)
    doc = sample_document(s, cfg, sample_points(s, cfg))
    assert doc["edge_sq"] == "4/9"
    assert len(doc["samples"]) == 2
    item = doc["samples"][0]
    assert len(item["weights"]) == 3 and len(item["squared"]) == 3
    assert all(isinstance(w, str) for w in item["weights"])
