"""Simplex representations, exact distance queries, and samplers."""

import hashlib
import itertools
import math
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from simplexdist import cli, discover, geom
from simplexdist.geom import (
    BarycentricPoint,
    CartesianSimplex,
    DistanceSample,
    EmbeddedSimplex,
    SampleConfig,
    _distance_numerators,
    _exact_squared,
    _digest_ints,
    _unit_float_rows,
    _uniform_rule,
    _weight_draws,
    _weight_rows,
    sample_circumsphere,
    sample_document,
    sample_points,
)
from simplexdist.poly import _relation_numerator, relation_residual_exact
from simplexdist.rationals import rational_sqrt


def bp(*weights):
    return BarycentricPoint(tuple(Fraction(w) for w in weights))


# -- embedded simplex ---------------------------------------------------------


def test_vertex_pairwise_squared_distance_is_edge_sq():
    for d, a2 in [(2, Fraction(1)), (5, Fraction(4, 9))]:
        s = EmbeddedSimplex(d, a2)
        for i in range(d + 1):
            sq = s.squared_distances(bp(*(1 if j == i else 0 for j in range(d + 1))))
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


@pytest.mark.parametrize("d", [*range(1, 9), 64, 200])
def test_cartesian_edges_equal(d):
    # |v_i - v_j|^2 from the Gram matrix, without a (d+1)^2 * d array
    v = CartesianSimplex.build(d, 1.25).vertices
    gram = v @ v.T
    sq = np.diag(gram)[:, None] + np.diag(gram)[None, :] - 2.0 * gram
    off = np.sqrt(sq[np.triu_indices(d + 1, k=1)])
    assert np.allclose(off, 1.25, rtol=1e-12, atol=0)


def test_cartesian_rejects_bad_input():
    with pytest.raises(ValueError):
        CartesianSimplex.build(0, 1.0)
    for edge in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            CartesianSimplex.build(2, edge)


def test_cartesian_build_needs_no_quadratic_work_array():
    # the closed form allocates O(d^2) floats: 200 dimensions take well
    # under a MiB, where a (d+1)^2 * d array of differences takes 62
    tracemalloc.start()
    try:
        CartesianSimplex.build(200, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


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
    assert np.allclose(s.vertices.mean(axis=0), center, atol=1e-12)
    assert np.allclose(s.distances(center), 1 / math.sqrt(3), atol=1e-12)


def test_distances_arity_checked():
    s = CartesianSimplex.build(2, 1.0)
    with pytest.raises(ValueError):
        s.distances([0, 0, 0])


@pytest.mark.parametrize("d", range(2, 9))
def test_circumradius_formula(d):
    s = CartesianSimplex.build(d, 1.0)
    radius = math.sqrt(d / (2 * (d + 1)))
    assert np.allclose(s.distances(s.vertices.mean(axis=0)), radius, atol=1e-12)
    assert abs(radius**2 - float(EmbeddedSimplex(d, 1).circumradius_sq)) < 1e-15


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


def test_sample_config_box_defaults_to_three():
    config = SampleConfig(seed=1, count=2)
    assert config.box == Fraction(3) and isinstance(config.box, Fraction)
    assert SampleConfig(seed=1, count=2, box="3/2").box == Fraction(3, 2)


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
    assert sample.to_json() == {"mode": "exact", "squared": ["1/4", "1"]}
    with pytest.raises(ValueError):
        DistanceSample([Fraction(-1)])


# -- the integer core against the Fraction reference ----------------------------


def reference_chunks(key, size):
    """The digest stream of the weight draws, by the letter of its
    definition: the ``size``-byte little-endian chunks of ``blake2b(key)``,
    then of ``blake2b(key|1)``, ``blake2b(key|2)``, ..."""
    for block in itertools.count():
        digest = hashlib.blake2b((key if block == 0 else f"{key}|{block}").encode()).digest()
        for i in range(len(digest) // size):
            yield sum(byte << (8 * j) for j, byte in enumerate(digest[i * size : (i + 1) * size]))


def reference_weights(config, n, accept=None):
    """Fraction weights of the digest rule: raw numerators on the 1/64 grid,
    uniform in [-box, box] by rejection, renormalised by their sum, with the
    redraw rules of ``_weight_draws``."""
    hi = int(config.box * 64)
    width = 2 * hi + 1
    size = next(c for c in itertools.count(1) if Fraction(256**c % width, 256**c) < Fraction(1, 64))
    limit = 256**size // width * width
    out = []
    for k in range(config.count):
        for attempt in itertools.count():
            chunks = (v for v in reference_chunks(f"{config.seed}|weights|{k}|{attempt}", size) if v < limit)
            raw = [Fraction(next(chunks) % width - hi, 64) for _ in range(n)]
            total = sum(raw)
            if abs(total) < Fraction(1, 2):
                continue
            weights = tuple(r / total for r in raw)
            if all(abs(w) <= config.box for w in weights) and (
                accept is None or accept(k, weights)
            ):
                break
        out.append(weights)
    return out


EDGES_SQ = (Fraction(1), Fraction(4, 9), Fraction(7, 3))


@pytest.mark.parametrize("box", [Fraction(3), Fraction(3, 2), Fraction(5, 2)])
@pytest.mark.parametrize("d", range(1, 9))
def test_integer_draws_match_fraction_reference(d, box):
    config = SampleConfig(seed=d, count=120, box=box)
    expected = reference_weights(config, d + 1)
    draws = _weight_rows(d + 1, config)
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


@pytest.mark.parametrize("d, box", [(40, Fraction(3)), (40, Fraction(1000)), (25, Fraction(1000))])
def test_draws_run_past_one_digest(d, box):
    # d+1 chunks do not fit in one 64-byte digest: the draws go on in the
    # digests of key|1, key|2, ...
    size, _ = _uniform_rule(int(box * 64))
    assert d + 1 > 64 // size
    config = SampleConfig(seed=d, count=20, box=box)
    draws = _weight_rows(d + 1, config)
    assert [tuple(Fraction(r, den) for r in nums) for nums, den in draws] == reference_weights(config, d + 1)


@pytest.mark.parametrize("box, size", [
    (Fraction(3), 2), (Fraction(100), 3), (Fraction(100000), 4), (Fraction(10**30), 14),
], ids=["2-byte", "3-byte", "4-byte", "14-byte"])
@pytest.mark.parametrize("d", [1, 4, 15, 31, 40])
def test_batched_draws_match_fraction_reference_at_every_chunk_size(d, box, size):
    # the rounds parse n chunks of each digest at once (padded to 8 bytes);
    # a rejected chunk among them, n chunks past one digest and chunks wider
    # than 8 bytes take the per-key rule instead
    assert _uniform_rule(int(box * 64))[0] == size
    config = SampleConfig(seed=d + size, count=30, box=box)
    draws = _weight_rows(d + 1, config)
    assert [tuple(Fraction(r, den) for r in nums) for nums, den in draws] == reference_weights(config, d + 1)
    (nums, dens), = _weight_draws(d + 1, config)
    # int64 exactly when the box keeps every N_j and 2*T^2 below 2^62
    assert nums.dtype == dens.dtype == (object if size == 14 else np.int64)


@pytest.mark.parametrize("block", [1, 7, 64])
def test_blocks_and_rounds_leave_the_draws_alone(monkeypatch, block):
    # sample k depends only on (seed, k): cutting the samples into blocks,
    # and the rounds of each block, changes nothing
    config = SampleConfig(seed=3, count=50, box=Fraction(3, 2))
    expected = _weight_rows(6, config)
    segment = _weight_rows(2, config, discover._segment_branch)
    monkeypatch.setattr(geom, "_BLOCK", block)
    assert _weight_rows(6, config) == expected
    assert _weight_rows(2, config, discover._segment_branch) == segment
    assert [len(dens) for _, dens in _weight_draws(6, config)] == [
        min(block, 50 - start) for start in range(0, 50, block)
    ]


def test_a_sample_with_no_passing_draw_is_named_in_sample_order(monkeypatch):
    # samples 2 and 4 never pass; 0, 1 and 3 do, and the error names 2, the
    # first sample a one-at-a-time loop would have given up on.  The rounds
    # favour the lowest open sample, so sample 4 takes a small share of the
    # attempts hashed, not another 65536
    raw_weights, hashed = geom._raw_weights, []

    def counting(keys, *rest):
        hashed.append(len(keys))
        return raw_weights(keys, *rest)

    def refuse(ks, nums):
        return (ks != 2) & (ks != 4)

    monkeypatch.setattr(geom, "_raw_weights", counting)
    message = r"^box 3 is too small for d = 2: sample 2 found no passing draw in 65536 attempts$"
    with pytest.raises(ValueError, match=message):
        list(_weight_draws(3, SampleConfig(seed=1, count=6), refuse))
    assert 65536 < sum(hashed) < 65536 * 5 // 4


@pytest.mark.parametrize("d, box", [(1, Fraction(3, 2)), (3, Fraction(3, 2)), (8, Fraction(5, 2))])
def test_accept_sees_only_rows_that_pass_the_sum_and_box_rules(monkeypatch, d, box):
    # accept may cost more than the other rules (a caller's test may look at
    # each row in Python), so it is asked only about the rows with 2T >= 64
    # whose weights stay in the box, and the draws are those of the rule
    # that asks it about every row
    raw_weights, hashed, seen = geom._raw_weights, [], []

    def counting(keys, *rest):
        hashed.append(len(keys))
        return raw_weights(keys, *rest)

    def recording(ks, nums):
        seen.extend(nums.tolist())
        return nums[:, 0] > 0

    monkeypatch.setattr(geom, "_raw_weights", counting)
    config = SampleConfig(seed=d, count=60, box=box)
    draws = _weight_rows(d + 1, config, recording)
    expected = reference_weights(config, d + 1, lambda k, weights: weights[0] > 0)
    assert [tuple(Fraction(r, den) for r in nums) for nums, den in draws] == expected
    p, q = box.numerator, box.denominator
    assert seen and all(2 * sum(r) >= 64 and q * max(map(abs, r)) <= p * sum(r) for r in seen)
    # the rules turned some rows down before accept saw them
    assert len(seen) < sum(hashed)


@pytest.mark.parametrize("d, box, dtype", [
    (2, 3, np.int64), (8, 3, np.int64), (40, 3, np.int64), (40, 1000, object),
])
def test_relation_residuals_are_exact_on_both_integer_paths(monkeypatch, d, box, dtype):
    # verify takes the residuals of a block in int64 only under the bound
    # n(n+1)*max(N, 2T^2)^2 < 2^62; at d = 40 and box 1000 it falls back to
    # Python ints, where int64 arithmetic wraps
    config = SampleConfig(seed=d, count=40, box=Fraction(box))
    (nums, dens), = _weight_draws(d + 1, config)
    assert not cli._relation_residuals(nums, dens).any()
    exact = geom._distance_numerators

    def shifted(nums, den):
        # doubling N_0 moves the point far off the relation
        first, *rest = exact(nums, den)
        return (2 * first, *rest)

    monkeypatch.setattr(geom, "_distance_numerators", shifted)
    residuals = cli._relation_residuals(nums, dens)
    assert residuals.dtype == dtype
    expected = [
        _relation_numerator(2 * den * den, shifted(r, den)) for r, den in zip(nums.tolist(), dens.tolist())
    ]
    assert all(expected) and residuals.tolist() == expected
    # the same draws as Python ints give the same residuals
    assert cli._relation_residuals(nums.astype(object), dens.astype(object)).tolist() == expected
    if dtype is object:
        with np.errstate(over="ignore"):
            wrapped = _relation_numerator(2 * dens * dens, shifted(nums.T, dens))
        assert wrapped.tolist() != expected


def test_uniform_rule_makes_every_value_equally_likely():
    for hi in [*range(300), 2**20, 64000, 64 * 10**6, 2**64, 3**70]:
        size, limit = _uniform_rule(hi)
        width = 2 * hi + 1
        # limit is the largest multiple of width within the chunk range, so
        # each of the width values takes limit // width chunk values
        assert limit % width == 0 and 0 < limit <= 256**size < limit + width
        # fewer than one chunk in 64 is rejected, and a smaller chunk would not do
        assert 64 * (256**size - limit) < 256**size
        assert size == 1 or 64 * (256 ** (size - 1) % width) >= 256 ** (size - 1)


def test_digest_ints_follow_the_reference():
    for size in (1, 2, 3, 8, 13):
        limit = 256**size * 5 // 7  # rejects about two chunks in seven
        expected = [v for v in itertools.islice(reference_chunks("7|probe|3", size), 200) if v < limit]
        assert _digest_ints("7|probe|3", len(expected), size, limit) == expected


@pytest.mark.parametrize("n", [1, 2, 8, 9, 16, 17, 40])
def test_unit_float_rows_follow_the_reference(n):
    # the top 53 bits of the first n 8-byte chunks, past one digest from n = 9
    keys = [f"{seed}|probe|{i}" for seed in (0, 5) for i in range(4)]
    expected = [[(v >> 11) * 2.0**-53 for v in itertools.islice(reference_chunks(key, 8), n)] for key in keys]
    rows = _unit_float_rows(keys, n)
    assert rows.dtype == np.float64 and rows.shape == (len(keys), n)
    assert rows.tolist() == expected


def test_sphere_redraws_a_degenerate_attempt(monkeypatch):
    # attempt 0 of sample 1 gives equal Gaussians, which leave nothing to
    # rescale: sample 1 is then attempt 1, and the other samples stay
    real = geom._unit_float_rows

    def degenerate(keys, n):
        rows = real(keys, n)
        if len(keys) > 1:
            rows[1] = [0.5, 0.125] * (n // 2)  # radius sqrt(2 ln 2), angle pi/4
        return rows

    simplex, config = EmbeddedSimplex(3, 1), SampleConfig(seed=2, count=3)
    rows = sample_circumsphere(simplex, config)
    monkeypatch.setattr(geom, "_unit_float_rows", degenerate)
    redrawn = sample_circumsphere(simplex, config)
    assert np.array_equal(redrawn[[0, 2]], rows[[0, 2]])
    assert not np.array_equal(redrawn[1], rows[1])
    monkeypatch.setattr(geom, "_unit_float_rows", lambda keys, n: real([k.replace("|1|0", "|1|1") for k in keys], n))
    assert np.array_equal(redrawn[1], sample_circumsphere(simplex, config)[1])


def _segment_branch_of(weights):
    # 0 inside the segment, 1 beyond vertex 1, 2 before vertex 0
    w0, w1 = weights
    return 0 if 0 <= w1 <= 1 else 1 if w1 > 1 else 2


@pytest.mark.parametrize("degree", range(3, 9))
def test_segment_samples_spread_over_the_three_branches(degree):
    # a d = 1 discovery of degree D draws 3 * C(D+2, 2) samples, sample k on
    # branch k mod 3, so each branch line holds C(D+2, 2) >= D+1 of them
    count = 3 * math.comb(degree + 2, 2)
    config = SampleConfig(seed=degree, count=count, box=Fraction(3, 2))
    draws = _weight_rows(2, config, discover._segment_branch)
    weights = [tuple(Fraction(r, den) for r in nums) for nums, den in draws]
    assert weights == reference_weights(config, 2, lambda k, w: _segment_branch_of(w) == k % 3)
    branches = [_segment_branch_of(w) for w in weights]
    assert branches == [k % 3 for k in range(count)]
    assert [branches.count(b) for b in range(3)] == [count // 3] * 3 and count // 3 >= degree + 1
    # on the branch lines t1 + t2 = a, t1 - t2 = a and t2 - t1 = a
    for (w0, w1), branch in zip(weights, branches):
        t1, t2 = abs(w1), abs(w0)
        assert (t1 + t2, t1 - t2, t2 - t1)[branch] == 1


def test_weight_draws_accept_a_box_of_exactly_1_over_n():
    # n*box = 1 leaves only the draws of n equal weights, which still pass
    config = SampleConfig(seed=1, count=5, box=Fraction(1, 2))
    assert [Fraction(nums[0], den) for nums, den in _weight_rows(2, config)] == [Fraction(1, 2)] * 5


def test_import_leaves_hashlib_out():
    # hashlib loads OpenSSL; the draws take BLAKE2b from the builtin module
    code = (
        "import sys, simplexdist, simplexdist.cli; "
        "sys.exit(bool({'hashlib', '_hashlib'} & set(sys.modules)))"
    )
    assert subprocess.run([sys.executable, "-c", code], check=False).returncode == 0


@pytest.mark.parametrize("d", range(1, 9))
def test_discovery_rows_are_the_exact_samples(monkeypatch, d):
    # the rows a run reduces modulo a prime are exact ratios of the box-3/2
    # samples: at d >= 2 the ratios s/a^2 of a prefix of the stream of
    # sample_points, at d = 1 the ratios t/a of the draws redrawn onto branch
    # k mod 3 of the segment, whose squares are s/a^2.  The run draws count
    # samples and eliminates the first count - 1: the columns less the one
    # expected null vector (R_1 in u at degree 2, the cubic in v at degree
    # 3), plus 8
    null_forms, ratios = discover._null_forms, []

    def recording_forms(numerators, scales, *rest):
        ratios.append([[Fraction(x, s) for x in row] for row, s in zip(numerators, scales)])
        return null_forms(numerators, scales, *rest)

    monkeypatch.setattr(discover, "_null_forms", recording_forms)
    degree = 3 if d == 1 else 4
    count = math.comb(degree + 2, 2) + 8 if d == 1 else math.comb(degree // 2 + d + 1, d + 1) + 8
    config = SampleConfig(seed=d + 40, count=count, box=Fraction(3, 2))
    for a2 in EDGES_SQ:
        if d == 1 and rational_sqrt(a2) is None:
            continue  # d = 1 certifies only rational edges
        discover.discover_vanishing(d, a2, degree, seed=d + 40)
        (kernel,) = ratios
        assert len(kernel) == count - 1
        if d == 1:
            draws = _weight_rows(2, config, discover._segment_branch)
            exact = [_exact_squared(a2, nums, den) for nums, den in draws][: count - 1]
            assert [[v * v for v in row] for row in kernel] == [[x / a2 for x in squared] for squared in exact]
            # t1 + t2 = a, t1 - t2 = a, t2 - t1 = a on the three branches
            sides = [(v1 + v2, v1 - v2, v2 - v1)[k % 3] for k, (v1, v2) in enumerate(kernel)]
            assert sides == [1] * (count - 1)
        else:
            exact = [sample.squared for _, sample in sample_points(EmbeddedSimplex(d, a2), config)][: count - 1]
            assert kernel == [[x / a2 for x in squared] for squared in exact]
        ratios.clear()


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
        approx = cart.distances(np.array([float(w) for w in weights]) @ cart.vertices) ** 2
        assert np.allclose(approx, exact, rtol=1e-9)


def test_cartesian_matches_embedded_on_samples():
    emb = EmbeddedSimplex(2, 1)
    cart = CartesianSimplex.build(2, 1.0)
    for point, sample in sample_points(emb, SampleConfig(seed=5, count=25)):
        approx = cart.distances(np.array([float(w) for w in point.weights]) @ cart.vertices) ** 2
        assert np.allclose(approx, [float(x) for x in sample.squared], rtol=1e-9)


# -- circumsphere sampling ------------------------------------------------------


def test_sphere_samples_on_sphere():
    s = CartesianSimplex.build(2, 1.0)
    rows = sample_circumsphere(EmbeddedSimplex(2, 1), SampleConfig(seed=1, count=30))
    center = np.array([0.5, math.sqrt(3) / 6])
    for t in rows:
        # the point of weights w_j = 1 - t_j^2 / a^2, at distances t
        p = (1 - t**2) @ s.vertices
        assert np.allclose(s.distances(p), t, atol=1e-12)
        assert abs(np.linalg.norm(p - center) - 1 / math.sqrt(3)) < 1e-12


def test_sphere_vertex_tuple_power_sums():
    # a vertex lies on the circumsphere and its distance tuple (0, 1, 1)
    # has squared sum 2 = d * a^2
    s = CartesianSimplex.build(2, 1.0)
    t = s.distances(s.vertices[0])
    assert abs(np.sum(t**2) - 2.0) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_sphere_samples_power_sum_identity(d):
    for t in sample_circumsphere(EmbeddedSimplex(d, 1), SampleConfig(seed=4, count=20)):
        assert abs(np.sum(t**2) - d) < 1e-9


def test_sphere_sampling_deterministic():
    s = EmbeddedSimplex(3, 1)
    cfg = SampleConfig(seed=9, count=5)
    a = sample_circumsphere(s, cfg)
    b = sample_circumsphere(s, cfg)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize("edge_sq", [Fraction(1), Fraction(7, 3), Fraction(12345, 677)])
@pytest.mark.parametrize("d", range(2, 9))
def test_sphere_rows_satisfy_both_power_sums(d, edge_sq):
    # on the circumsphere sum t^2 = d*a^2 and sum t^4 = d*a^4
    a2 = float(edge_sq)
    rows = sample_circumsphere(EmbeddedSimplex(d, edge_sq), SampleConfig(seed=d, count=50))
    assert rows.shape == (50, d + 1)
    for t in rows:
        assert math.isclose(math.fsum(t**2), d * a2, rel_tol=1e-12)
        assert math.isclose(math.fsum(t**4), d * a2 * a2, rel_tol=1e-12)


def test_sphere_sample_k_depends_only_on_seed_and_k():
    s = EmbeddedSimplex(4, Fraction(7, 3))
    short = sample_circumsphere(s, SampleConfig(seed=5, count=5))
    long = sample_circumsphere(s, SampleConfig(seed=5, count=20))
    assert np.array_equal(short, long[:5])
    assert not np.array_equal(long[:5], sample_circumsphere(s, SampleConfig(seed=6, count=5)))


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
