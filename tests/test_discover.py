"""The vanishing-polynomial pipelines, exact modulo primes at every d, on
the whole space and on the circumsphere, and the numeric library
functions that no run calls."""

import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from simplexdist import discover, modular
from simplexdist.cmgeom import _bareiss_det
from simplexdist.discover import (
    CERT_CIRCUMCIRCLE,
    CERT_DIVISIBLE,
    CERT_SPHERE_IDEAL,
    CERT_UNCERTIFIED,
    _chord,
    _chord_points,
    _conic_certificate,
    _conic_points,
    _membership,
    _sphere_ideal,
    _square_free,
    discover_on_sphere,
    discover_vanishing,
    enumerate_monomials,
    independence_test,
    numeric_nullspace,
    rationalize,
)
from simplexdist.geom import EmbeddedSimplex, SampleConfig, _weight_rows, sample_circumsphere, sample_points
from simplexdist.poly import (
    MultiPoly,
    _divisor,
    _pack,
    _packing_base,
    _remainder,
    circumsphere_quadratic,
    distance_relation,
    divide_last_variable,
    poly_to_dict,
    proportional,
    segment_generator,
)
from simplexdist.rationals import frac_str


# -- monomial bases ---------------------------------------------------------------


def test_monomial_count_three_vars_degree_four():
    basis = enumerate_monomials(3, 4)
    assert len(basis) == math.comb(7, 3) == 35


def test_monomials_univariate():
    basis = enumerate_monomials(1, 3)
    assert basis == ((0,), (1,), (2,), (3,))


def test_monomials_degree_zero():
    assert enumerate_monomials(2, 0) == ((0, 0),)


def test_monomials_graded_and_strictly_ordered():
    basis = enumerate_monomials(3, 5)
    keys = [(sum(e), e) for e in basis]
    assert keys == sorted(keys)
    assert len(set(basis)) == len(basis)


@pytest.mark.parametrize("arity", range(1, 6))
def test_lower_degree_monomials_are_a_prefix(arity):
    # discover_on_sphere reads each lower-degree matrix as a column prefix
    bases = [enumerate_monomials(arity, degree) for degree in range(9)]
    for top in range(1, 9):
        for k in range(top):
            assert bases[k] == bases[top][: math.comb(k + arity, arity)]


# -- evaluation matrix ---------------------------------------------------------------


def _degree_four_matrix():
    # the degree-<=4 monomials at float distances, each column scaled to
    # unit norm
    simplex = EmbeddedSimplex(2, 1)
    samples = sample_points(simplex, SampleConfig(seed=2, count=105))
    floats = np.array([[math.sqrt(float(x)) for x in s.squared] for _, s in samples])
    exponents = np.asarray(enumerate_monomials(3, 4))
    matrix = np.prod(floats[:, None, :] ** exponents[None, :, :], axis=2)
    return matrix / np.linalg.norm(matrix, axis=0)


def test_rank_of_degree_four_matrix():
    # the degree-<=4 slice of the vanishing ideal is one-dimensional, so a
    # 105 x 35 evaluation matrix has rank 35 - 1
    matrix = _degree_four_matrix()
    assert matrix.shape == (105, 35)
    assert np.linalg.matrix_rank(matrix, tol=1e-8 * np.linalg.norm(matrix, 2)) == 34


# -- numeric nullspace ----------------------------------------------------------------


def test_nullspace_of_degree_four_matrix():
    report = numeric_nullspace(_degree_four_matrix(), 1e-8)
    assert report.null_dim == 1
    assert report.gap > 1e4
    assert not report.inconclusive


def test_nullspace_identity_matrix():
    report = numeric_nullspace(np.eye(5), 1e-8)
    assert report.null_dim == 0
    assert report.null_basis.shape == (0, 5)


def test_nullspace_basis_orthonormal():
    rng = np.random.default_rng(0)
    base = rng.normal(size=(40, 6))
    matrix = np.hstack([base, base[:, :2] @ np.array([[1.0, 2.0], [3.0, -1.0]])])
    report = numeric_nullspace(matrix, 1e-10)
    assert report.null_dim == 2
    gram = report.null_basis @ report.null_basis.T
    assert np.allclose(gram, np.eye(2), atol=1e-10)
    residual = np.linalg.norm(matrix @ report.null_basis.T, axis=0)
    assert np.all(residual <= 1e-10 * np.linalg.norm(matrix, 2) * 1.01)


def test_nullspace_wide_matrix_pads_spectrum():
    report = numeric_nullspace(np.array([[1.0, 0.0, 0.0]]), 1e-8)
    assert report.null_dim == 2
    assert len(report.singular_values) == 3


def test_nullspace_flags_small_gap_as_inconclusive():
    matrix = np.diag([1.0, 2e-7, 5e-8])  # kept and cut values only 4x apart
    report = numeric_nullspace(matrix, 1e-7)
    assert report.null_dim == 1
    assert report.gap == pytest.approx(4.0)
    assert report.inconclusive


def test_nullspace_rejects_empty():
    with pytest.raises(ValueError):
        numeric_nullspace(np.zeros((0, 3)))


# -- rational reconstruction -------------------------------------------------------------


def test_rationalize_scales_first_nonzero_to_one():
    assert rationalize([0.3333333333, 1.0]) == (Fraction(1), Fraction(3))


def test_rationalize_snaps_noise_to_zero():
    vec = rationalize([1e-12, 0.5, 0.25])
    assert vec == (0, 1, Fraction(1, 2))


def test_rationalize_respects_denominator_cap():
    (value,) = rationalize([1 / math.sqrt(2)], max_denominator=1000)
    assert value.denominator <= 1000
    assert value != Fraction(1, 2) ** Fraction(1, 2)  # no exact match exists


@pytest.mark.parametrize("cap", [1, 1000, 10**6])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rationalize_non_finite_raises_like_reference(bad, cap):
    # as Fraction(x) does: ValueError for NaN, OverflowError for infinities
    error = ValueError if math.isnan(bad) else OverflowError
    for row in ([bad], [0.0, 1e-12, bad], [0.5, bad, 0.25]):
        with pytest.raises(error):
            rationalize(row, cap)
        with pytest.raises(error):
            rationalize(np.array(row), cap)


def test_rationalize_rejects_zero_cap():
    with pytest.raises(ValueError):
        rationalize([0.5], 0)


# -- full-space discovery ------------------------------------------------------------------


def test_discover_recovers_relation_d2():
    report = discover_vanishing(2, 1, 4, seed=1)
    assert report.nullspace.null_dim == 1
    assert report.nullspace.complete
    (candidate,) = report.candidates
    assert candidate.certificate == CERT_DIVISIBLE
    assert proportional(candidate.poly, distance_relation(2, 1))


def test_discover_cubic_degree_finds_nothing():
    report = discover_vanishing(2, 1, 3, seed=1)
    assert report.nullspace.null_dim == 0
    assert report.candidates == []


@pytest.mark.parametrize("d", [2, 3])
def test_discover_degree_five_dimension_law(d):
    # degree-<=5 members are exactly (linear) * relation: dimension d + 2
    report = discover_vanishing(d, 1, 5, seed=1)
    assert report.nullspace.null_dim == d + 2
    assert len(report.candidates) == d + 2
    relation = distance_relation(d, 1)
    for candidate in report.candidates:
        assert candidate.certificate == CERT_DIVISIBLE
        assert divide_last_variable(candidate.poly, relation).remainder.is_zero


def test_discover_segment_case():
    report = discover_vanishing(1, 1, 3, seed=1)
    (candidate,) = report.candidates
    assert candidate.certificate == CERT_DIVISIBLE
    assert proportional(candidate.poly, segment_generator(1))


def test_segment_report_keeps_its_candidates():
    # the candidates of the float pipeline this exact run replaced, by
    # digest; the rest of the report is pinned by its own digest
    doc = discover_vanishing(1, 1, 5, seed=3).to_json()
    digest = hashlib.sha256(json.dumps(doc["candidates"], sort_keys=True).encode()).hexdigest()
    assert digest == "89de939234e72a5efe2ebf9db5a6e79bd8e7d087be9fe66d5469df6f5d44d7e0"
    assert doc["config"]["matrix_basis"] == "monomial-mod-p(t/edge)"
    assert doc["nullspace"] == {
        "null_dim": 6, "corank": {"5": 6}, "ideal_dim": {"5": 6}, "primes": [16777213],
        "complete": True, "inconclusive": False,
    }
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == "8d507e77a3af37031682f5d8098e8ba23f984e3df44f098ecbb28d7b1058a9bf"


@pytest.mark.parametrize("degree, seed", [(8, 1), (8, 2), (8, 3), (7, 5)])
def test_segment_runs_at_edge_three_halves(degree, seed):
    # at edge 3/2 the float pipeline reported wrong rows on these runs
    report = discover_vanishing(1, Fraction(9, 4), degree, seed=seed)
    assert report.nullspace.complete
    # the multiples of the cubic of degree <= D, C(D - 1, 2) of them, with
    # distinct pivots
    assert len(report.candidates) == report.nullspace.null_dim == math.comb(degree - 1, 2)
    generator = segment_generator(Fraction(3, 2))
    pivots = set()
    for candidate in report.candidates:
        assert candidate.certificate == CERT_DIVISIBLE
        assert divide_last_variable(candidate.poly, generator).remainder.is_zero
        pivots.add(min(candidate.poly.terms, key=lambda e: (sum(e), e)))
    assert len(pivots) == len(report.candidates)


def _divisor_case(data, m):
    """A generator at unit edge in its own variables, cubic in v at d = 1 or
    R_1(u), quadric in u at d = 2..4, with its arity."""
    if m == 3:
        return 2, segment_generator(1)
    d = data.draw(st.integers(2, 4))
    terms = {tuple(x // 2 for x in e): c for e, c in distance_relation(d, 1).terms.items()}
    return d + 1, MultiPoly(d + 1, terms)


def _numerators(entries):
    """Rational ``entries`` by key as the integer row a certificate takes:
    their numerators over their least common denominator."""
    common = math.lcm(*(c.denominator for c in entries.values()))
    return {k: c.numerator * (common // c.denominator) for k, c in entries.items()}


def _unpacked(codes, base, n):
    return MultiPoly(n, {_unpack(code, base, n): c for code, c in codes.items()})


def _pseudo_division(row, divisor, generator, base):
    """The remainder of the packed pseudo-division of ``row`` by
    ``divisor``, ``generator`` packed in ``base``, checked by its defining
    identity: ``lead^k * row = q * generator + r`` for ``k = max(top - m +
    1, 0)``, top the level of the row's largest code, with r of degree below
    m in x.  The generator's lead is constant, so the identity fixes q and
    r: no second division is needed."""
    lead, high, m, _ = divisor
    n = generator.arity
    quotient, remainder = _remainder(row, divisor)
    k = max(max(row, default=0) // high - m + 1, 0)
    expected = _unpacked(row, base, n).scale(lead**k)
    assert _unpacked(quotient, base, n) * generator + _unpacked(remainder, base, n) == expected
    assert all(code // high < m for code in remainder)
    return remainder


def _coefficients(values):
    """One flat strategy for the coefficients of a dividend, simplest first
    (where hypothesis shrinks to): the nested strategies of fractions and of
    filtered integers cost more to draw than the division they feed."""
    return st.sampled_from(sorted(set(values), key=lambda c: (Fraction(c).denominator, abs(c), c)))


@functools.cache
def _terms(n, degree, coeff, min_size, max_size):
    """The terms of a dividend in n variables of degree <= ``degree``, a
    strategy built once for each shape rather than once per example."""
    return st.dictionaries(st.sampled_from(enumerate_monomials(n, degree)), coeff, min_size=min_size, max_size=max_size)


# the fractions with denominators up to 7 in [-9, 9], and the nonzero
# integers in [-9, 9] and [-3, 3]
_FRACTIONS = _coefficients(Fraction(a, b) for b in range(1, 8) for a in range(-9 * b, 9 * b + 1))
_NONZERO_9 = _coefficients(c for c in range(-9, 10) if c)
_NONZERO_3 = _coefficients(c for c in range(-3, 4) if c)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from([2, 3]), st.booleans())
def test_divisible_agrees_with_division(data, m, multiple):
    n, generator = _divisor_case(data, m)
    degree = data.draw(st.integers(m, 6))
    columns = enumerate_monomials(n, degree)
    quotient = MultiPoly(n, data.draw(_terms(n, degree - m, _FRACTIONS, 1, 4)))
    noise = {} if multiple else data.draw(_terms(n, degree, _FRACTIONS, 1, 3))
    p = quotient * generator + MultiPoly(n, noise)
    assume(not p.is_zero)
    # the packing of the kernel: base degree + 1, the last variable highest
    base = degree + 1
    divisor = _divisor(generator, base)
    assert divisor[:3] == (generator.terms[(0,) * (n - 1) + (m,)], base ** (n - 1), m)
    index = {e: j for j, e in enumerate(columns)}
    codes = [_pack(e, base) for e in columns]
    row = {codes[j]: z for j, z in _numerators({index[e]: c for e, c in p.terms.items()}).items()}
    remainder = _pseudo_division(row, divisor, generator, base)
    assert not (multiple and remainder)


def _remainder_case(data, m):
    """A divisor with a constant integer lead in its last variable, of
    degree m there, and integer coefficients: Q_u or the image of S_u of a
    sphere run at d = 2..5, with their arity."""
    d = data.draw(st.integers(2, 5))
    n = d + 1
    others = [MultiPoly.variable(j, n) for j in range(n - 1)]
    rest = MultiPoly.constant(d, n) - sum(others, MultiPoly.zero(n))
    if m == 1:
        return n, MultiPoly.variable(n - 1, n) - rest
    # S_u's image lives in the first n - 1 variables, the last of them of degree 2
    image = sum((x * x for x in others), rest * rest) - MultiPoly.constant(d, n)
    return n - 1, MultiPoly(n - 1, {e[:-1]: c for e, c in image.terms.items()})


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from([1, 2]))
def test_remainder_is_the_scaled_remainder_of_division(data, m):
    # the pseudo-remainder of lead^(top - m + 1) * p is that multiple of the
    # remainder of true division, at m = 1 (lead 1) and m = 2 (lead 2): the
    # identity of the pseudo-division fixes it
    n, divisor = _remainder_case(data, m)
    degree = data.draw(st.integers(1, 5))
    terms = data.draw(_terms(n, degree, _NONZERO_9, 1, 8))
    base = max(degree, 2) + 1
    _pseudo_division({_pack(e, base): c for e, c in terms.items()}, _divisor(divisor, base), divisor, base)


def _remainder_by_level(poly, divisor):
    """The pseudo-division of ``poly._remainder``, level by level: each
    level of x is found by a scan of the whole remainder."""
    lead, high, m, rest = divisor
    top = max((code // high for code in poly), default=0)
    scale = lead ** max(top - m + 1, 0)
    quotient, remainder = {}, {code: c * scale for code, c in poly.items()}
    for level in range(top, m - 1, -1):
        for code in [code for code in remainder if code // high == level]:
            shift = code - m * high
            quotient[shift] = remainder.pop(code) // lead
            for rc, rv in rest:
                key = shift + rc
                value = remainder.get(key, 0) - quotient[shift] * rv
                if value:
                    remainder[key] = value
                else:
                    del remainder[key]
    return quotient, remainder


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from([1, 2]), st.booleans())
def test_one_pass_remainder_is_the_remainder_level_by_level(data, m, multiple):
    # Q_u (lead 1) and the image of S_u (lead 2); a multiple of the divisor
    # plus a little noise makes codes cancel and come back while the levels
    # are cleared
    n, divisor = _remainder_case(data, m)
    degree = data.draw(st.integers(1, 5))
    p = MultiPoly(n, data.draw(_terms(n, degree, _NONZERO_3, 1, 8)))
    if multiple:
        p = p * divisor + MultiPoly(n, data.draw(_terms(n, 2, _NONZERO_3, 0, 2)))
    assume(not p.is_zero)
    base = p.total_degree() + 3
    packed = _divisor(divisor, base)
    poly = {_pack(e, base): int(c) for e, c in p.terms.items()}
    assert _remainder(poly, packed) == _remainder_by_level(poly, packed)


def test_one_pass_remainder_keeps_a_code_that_cancels_and_comes_back():
    # by x - y - z in (y, z, x): clearing x^2 y cancels the -xyz of the row,
    # and clearing x^2 z makes xyz again (or the other way round); the row
    # is (y + z)^3 - yz(y + z) at x = y + z
    base = 4
    divisor = _divisor(MultiPoly(3, {(0, 0, 1): 1, (1, 0, 0): -1, (0, 1, 0): -1}), base)
    poly = {_pack(e, base): c for e, c in {(1, 0, 2): 1, (0, 1, 2): 1, (1, 1, 1): -1}.items()}
    expected = {_pack(e, base): c for e, c in {(3, 0, 0): 1, (2, 1, 0): 2, (1, 2, 0): 2, (0, 3, 0): 1}.items()}
    quotient, remainder = _remainder(poly, divisor)
    assert (quotient, remainder) == _remainder_by_level(poly, divisor)
    assert remainder == expected


def _r1(d):
    """R_1(u), the quartic relation at unit edge in u = s = t^2."""
    return MultiPoly(d + 1, {tuple(x // 2 for x in e): c for e, c in distance_relation(d, 1).terms.items()})


def _conic_divisors():
    """The lex Groebner basis of the ideal of each Ptolemy conic i, ``{v_i
    = v_j + v_l, sum v^2 = 2}``, in conic order: its line solved for v_2,
    ``v_2 - x``, and the circle at ``v_2 = x``, whose lead in v_1 is 2."""
    v0, v1, v2 = (MultiPoly.variable(j, 3) for j in range(3))
    two = MultiPoly.constant(2, 3)
    return [(v2 - x, v0 * v0 + v1 * v1 + x * x - two) for x in (v0 - v1, v1 - v0, v0 + v1)]


def _sphere_generators(n):
    """The divisors of a sphere run's certificate at d >= 3, and of the
    reference test of the conics at d = 2."""
    return [*itertools.chain(*_conic_divisors())] if n == 3 else _sphere_ideal(n)


def _unpack(code, base, n):
    return tuple(code // base**i % base for i in range(n))


@pytest.mark.parametrize(
    "columns, generators",
    [
        # discover at d = 1, degree 2 and 8 (at degree 2 the columns stop
        # below the cubic's exponent 3), and at d = 2, 3 and 5
        (enumerate_monomials(2, 2), [segment_generator(1)]),
        (enumerate_monomials(2, 8), [segment_generator(1)]),
        (enumerate_monomials(3, 1), [_r1(2)]),
        (enumerate_monomials(4, 4), [_r1(3)]),
        (enumerate_monomials(6, 3), [_r1(5)]),
        # the reference of sphere at d = 2, degree 1 and 4, and sphere at d =
        # 3, degree 2 and 6
        (enumerate_monomials(3, 1), _sphere_generators(3)),
        (enumerate_monomials(3, 4), _sphere_generators(3)),
        (enumerate_monomials(4, 1), _sphere_generators(4)),
        (enumerate_monomials(4, 3), _sphere_generators(4)),
    ],
)
def test_divisor_keeps_every_term_at_the_packing_base(columns, generators):
    # every column and every term of every divisor unpacks to itself at the
    # base of the run's certificate
    n = len(columns[0])
    base = _packing_base(columns, generators)
    assert [_unpack(_pack(f, base), base, n) for f in columns] == list(columns)
    for generator in generators:
        lead, high, m, rest = _divisor(generator, base)
        terms = {_unpack(code, base, n): c for code, c in [(m * high, lead), *rest]}
        assert terms == generator.terms


def test_discover_segment_needs_rational_edge():
    with pytest.raises(ValueError):
        discover_vanishing(1, 2, 3)  # sqrt(2) edge cannot be certified


def test_discover_nonunit_edge():
    report = discover_vanishing(2, Fraction(4, 9), 4, seed=5)
    (candidate,) = report.candidates
    assert candidate.certificate == CERT_DIVISIBLE
    assert proportional(candidate.poly, distance_relation(2, Fraction(4, 9)))


def test_discover_deterministic():
    a = discover_vanishing(2, 1, 4, seed=9)
    b = discover_vanishing(2, 1, 4, seed=9)
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)


def test_discover_validates_input():
    with pytest.raises(ValueError):
        discover_vanishing(0, 1, 4)
    with pytest.raises(ValueError):
        discover_vanishing(2, 1, 0)


def test_discover_sample_count_follows_the_matrix():
    # runs in s: the matrix of degree D // 2 in s, C(D // 2 + n, n) columns,
    # takes 8 samples beyond its columns; at degree <= 3 in three variables
    # its columns are {1, s1, s2, s3}
    assert discover_vanishing(2, 1, 3, seed=0).config["n_samples"] == 4 + 8
    assert discover_vanishing(5, 1, 6, seed=0).config["n_samples"] == math.comb(3 + 6, 6) + 8 == 92
    # d = 1 follows the same rule in v = t/a, whose matrix has all the
    # C(D + 2, 2) monomials of degree <= D as columns
    assert discover_vanishing(1, 1, 3, seed=0).config["n_samples"] == math.comb(3 + 2, 2) + 8 == 18
    # sphere runs follow it too: at d >= 3 in u, at d = 2 in v
    assert discover_on_sphere(3, 1, 6, seed=0).config["n_samples"] == math.comb(3 + 4, 4) + 8 == 43
    assert discover_on_sphere(2, 1, 3, seed=0).config["n_samples"] == math.comb(3 + 3, 3) + 8 == 28


# -- discovery in the squared distances -----------------------------------------------------


def _parity(exponent):
    return tuple(e % 2 for e in exponent)


@pytest.mark.parametrize("d, degree, seed", [(2, 10, 1), (2, 12, 1), (3, 8, 1), (3, 8, 7), (5, 6, 1)])
def test_parity_split_finds_the_ideal_dimension(d, degree, seed):
    # the quartic generates the ideal, so its degree-D part has dimension
    # C(D - 4 + n, n), and every candidate must divide by it; in s, the part
    # of degree <= k is R(s) times the polynomials of degree <= k - 2
    n = d + 1
    report = discover_vanishing(d, 1, degree, seed=seed)
    assert report.config["matrix_basis"] == "monomial-mod-p(s/edge_sq)"
    assert report.nullspace.null_dim == len(report.candidates) == math.comb(degree - 4 + n, n)
    assert all(c.certificate == CERT_DIVISIBLE for c in report.candidates)
    assert report.nullspace.complete
    # one entry per prefix degree (D - |e|) // 2 of a parity class e
    prefixes = {(degree - size) // 2 for size in range(min(degree, n) + 1)}
    assert set(report.nullspace.corank) == prefixes
    for k in prefixes:
        assert report.nullspace.corank[k] == report.nullspace.ideal_dim[k] == math.comb(k - 2 + n, n)


def _candidates_digest(report):
    doc = json.dumps([c.to_json() for c in report.candidates], sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


_PINNED_CANDIDATES = [  # d, degree, seed, sha256 of the candidate list
    (5, 6, 1, "d4710f5ea72a1cc677d768168419c3cf6a92a21a90fc5bd07e4efc062af4839c"),
    (4, 7, 1, "b973fe01d9886b275e53cca936269a46008fc688f3f013f4023d0d7b34619e50"),
    (2, 10, 1, "2aa1309abfa73de7985baf4f8b4471d01ea86315001053c55f13fa2977e1e59c"),
    (2, 12, 1, "cf646c422e1821bed0e2b8cbf533ae86e6f691dc69a13ae30e328a028c3779e5"),
    (3, 8, 1, "14997317a95ad9ccb8c717d13d55f0c8a6d98c06e7d8ee3191051b54532eac8f"),
    (3, 8, 7, "14997317a95ad9ccb8c717d13d55f0c8a6d98c06e7d8ee3191051b54532eac8f"),
]


@pytest.mark.parametrize(
    "d, degree, seed, expected",
    _PINNED_CANDIDATES,
    ids=[
        f"{d}-{degree}-{digest}" if seed == 1 else f"{d}-{degree}-seed{seed}-{digest}"
        for d, degree, seed, digest in _PINNED_CANDIDATES
    ],
)
def test_parity_split_keeps_certified_candidate_lists(d, degree, seed, expected):
    # recorded from the earlier pipelines in t, which certified every
    # candidate of these runs: the RREF basis of the ideal slice is
    # canonical, so the runs in s = t^2 must give the same exact polynomials
    report = discover_vanishing(d, 1, degree, seed=seed)
    assert all(c.certificate != CERT_UNCERTIFIED for c in report.candidates)
    assert _candidates_digest(report) == expected


def _primes_from(start, count=16):
    return [p for p in range(start, 10**4) if all(p % f for f in range(2, math.isqrt(p) + 1))][:count]


def test_small_primes_join_by_crt_to_the_same_candidates(monkeypatch):
    # one prime from 101 up is mostly too small to carry the coefficients,
    # and some are unlucky: the runs join several by CRT, drop the unlucky
    # ones, and end with the candidate lists of one word prime
    monkeypatch.setattr(discover, "word_primes", lambda: iter(_primes_from(101)))
    used = []
    for d, degree, seed, expected in _PINNED_CANDIDATES:
        report = discover_vanishing(d, 1, degree, seed=seed)
        assert report.nullspace.complete and _candidates_digest(report) == expected
        used.append(report.nullspace.primes)
    assert max(map(len, used)) > 1 and max(primes[0] for primes in used) > 101


_P, _Q = itertools.islice(modular.word_primes(), 2)
_BOUND = math.isqrt(_P // 2)
# the first residue modulo _P past the integers up to the bound with no
# rational reconstruction
_NO_FRACTION = next(x for x in range(_BOUND + 1, _P) if modular.rational_reconstruction(x, _P) is None)
# the entries of a row: zeros, fractions with terms up to the bound of one
# prime over a few denominators, which rows share, and raw residues, some of
# them fractions with terms up to the bound and some not
_ROW_ENTRIES = st.one_of(
    st.just(0),
    st.builds(Fraction, st.integers(-_BOUND, _BOUND), st.sampled_from([1, 2, 3, 4, 6, 35, 2310, _BOUND])),
    st.integers(1, _P - 1),
)


def _fraction_reconstruct(pivot, columns, row, modulus):
    """The null-form row of ``pivot`` as ``Fraction``s by column, each entry
    by ``rational_reconstruction`` on its own, or None: the rational row that
    ``_reconstruct`` gives as integers."""
    entries = {pivot: Fraction(1)}
    for j, x in zip(columns, row):
        if x:
            pair = modular.rational_reconstruction(x, modulus)
            if pair is None:
                return None
            entries[j] = Fraction(*pair)
    return entries


@settings(max_examples=300, deadline=None)
@given(st.lists(_ROW_ENTRIES, max_size=12), st.booleans())
@example([Fraction(1, 2), Fraction(3, 2), 0, Fraction(1, 3), Fraction(5, 6), Fraction(-7, 12), Fraction(1, 2)], False)
@example([Fraction(1, 2), Fraction(1, 3), _NO_FRACTION, Fraction(1, 5)], False)
def test_integer_reconstruction_equals_the_fraction_one(entries, two_primes):
    # the row comes back as its numerators over their least common
    # denominator, entry by entry the fractions that each residue gives on
    # its own, also where the denominator changes part-way through the row
    # (the first example); a residue with no reconstruction leaves None
    modulus = _P * _Q if two_primes else _P
    row = [x if isinstance(x, int) else x.numerator * pow(x.denominator, -1, modulus) % modulus for x in entries]
    columns = range(1, len(row) + 1)
    expected = _fraction_reconstruct(0, columns, row, modulus)
    got = discover._reconstruct(0, columns, row, modulus)
    if expected is None:
        assert got is None
        return
    common, numerators = got
    assert common == math.lcm(*(c.denominator for c in expected.values())) == numerators[0]
    assert list(numerators) == list(expected)
    assert all(type(z) is int and Fraction(z, common) == expected[j] for j, z in numerators.items())


def test_a_two_prime_run_certifies_each_row_once(monkeypatch):
    # d = 1 deg 24 needs two primes: the first certifies 198 of its 253
    # rows, and the join keeps them, so the second prime reconstructs and
    # certifies only the other 55
    membership, null_forms, calls, before_prime = discover._membership, discover._null_forms, [], []

    def counting_membership(*args):
        certify = membership(*args)

        def counted(row):
            calls.append(row)
            return certify(row)

        return counted

    def marking_null_forms(*args):
        before_prime.append(len(calls))
        return null_forms(*args)

    monkeypatch.setattr(discover, "_membership", counting_membership)
    monkeypatch.setattr(discover, "_null_forms", marking_null_forms)
    report = discover_vanishing(1, 1, 24)
    assert len(report.nullspace.primes) == 2
    assert all(c.certificate != CERT_UNCERTIFIED for c in report.candidates)
    assert before_prime == [0, 198]
    assert len(calls) == report.nullspace.null_dim == len(report.candidates) == 253
    # each row reaches its certificate as integers by column
    assert all(type(z) is int for row in calls for z in row.values())


def test_a_run_out_of_primes_is_incomplete_and_exits_1(monkeypatch, tmp_path):
    # the 16 primes from 11 to 67 reconstruct only 14 of the 15 rows of the
    # degree-4 prefix; the run reports what it certified, and says so
    from simplexdist.cli import main

    monkeypatch.setattr(discover, "word_primes", lambda: iter(_primes_from(11)))
    out = tmp_path / "report.json"
    assert main(["discover", "--d", "3", "--max-degree", "8", "--seed", "1", "--out", str(out)]) == 1
    nullspace = json.loads(out.read_text())["result"]["nullspace"]
    assert nullspace["complete"] is False and nullspace["inconclusive"] is True
    assert nullspace["corank"] == {"2": 1, "3": 5, "4": 15} and nullspace["ideal_dim"]["4"] < 15
    assert len(nullspace["primes"]) <= discover._MAX_PRIMES
    report = discover_vanishing(3, 1, 8, seed=1)
    relation = distance_relation(3, 1)
    uncertified = any(c.certificate == CERT_UNCERTIFIED for c in report.candidates)
    assert uncertified or len(report.candidates) < report.nullspace.null_dim
    for candidate in report.candidates:
        divides = divide_last_variable(candidate.poly, relation).remainder.is_zero
        assert divides == (candidate.certificate == CERT_DIVISIBLE)


@pytest.mark.parametrize(
    "run, corank, d, degrees",
    [
        (discover_vanishing, discover._discover_corank, 1, range(1, 16)),
        (discover_vanishing, discover._discover_corank, 2, range(1, 13)),
        (discover_vanishing, discover._discover_corank, 3, range(1, 11)),
        *((discover_vanishing, discover._discover_corank, d, range(1, 9)) for d in (4, 5, 6)),
        (discover_on_sphere, discover._sphere_corank, 2, range(1, 11)),
        (discover_on_sphere, discover._sphere_corank, 3, range(1, 9)),
        *((discover_on_sphere, discover._sphere_corank, d, range(1, 7)) for d in (4, 5, 6)),
    ],
    ids=[f"discover-d{d}" for d in range(1, 7)] + [f"sphere-d{d}" for d in range(2, 7)],
)
def test_expected_coranks_are_the_coranks_of_every_prefix(monkeypatch, run, corank, d, degrees):
    # the Hilbert functions that size the prefix pass are the coranks that
    # the runs report, prefix by prefix at seeds 0 and 1, and every run
    # proves itself in one pass: on its prefix, or on every row when the
    # prefix would take them all
    run_primes, passes = discover._run_primes, []

    def counting(*args):
        passes.append(args)
        return run_primes(*args)

    monkeypatch.setattr(discover, "_run_primes", counting)
    for degree in degrees:
        for seed in (0, 1):
            passes.clear()
            nullspace = run(d, 1, degree, seed=seed).nullspace
            assert nullspace.corank == {k: corank(d + 1)(k) for k in nullspace.corank}
            assert nullspace.complete and len(passes) == 1


def _report(argv):
    from simplexdist.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    doc = json.loads(out.getvalue())
    del doc["generated_at"]
    return code, doc


@pytest.mark.parametrize("error", [-1, 1], ids=["too-low", "too-high"])
@pytest.mark.parametrize(
    "argv",
    [["sphere", "--d", "2", "--max-degree", "8"], ["discover", "--d", "5", "--max-degree", "6", "--seed", "1"]],
    ids=["sphere-d2", "discover-d5"],
)
def test_a_wrong_expected_corank_falls_back_after_one_prime(monkeypatch, argv, error):
    # an expected corank off by one sizes the prefix wrongly, and the prefix
    # pass stops at its first prime: the run on every row gives the report
    # and the exit code of the true counts
    expected = _report(argv)
    null_forms, rows = discover._null_forms, []

    def recording(numerators, *rest):
        rows.append(len(numerators))
        return null_forms(numerators, *rest)

    for name in ("_discover_corank", "_sphere_corank"):
        counts = getattr(discover, name)
        monkeypatch.setattr(discover, name, lambda n, counts=counts: lambda k: counts(n)(k) + error)
    monkeypatch.setattr(discover, "_null_forms", recording)
    assert _report(argv) == expected
    samples = expected[1]["result"]["config"]["n_samples"]
    assert len(rows) == 2 and rows[0] < rows[1] == samples


def test_an_incomplete_prefix_pass_falls_back_to_every_row(monkeypatch):
    # discover --d 1 --max-degree 24 needs two primes: with one, the prefix
    # pass on the first 325 - 253 + 8 = 80 rows ends with rows uncertified,
    # and the run eliminates all 333 before it reports itself incomplete
    null_forms, rows = discover._null_forms, []

    def recording(numerators, *rest):
        rows.append(len(numerators))
        return null_forms(numerators, *rest)

    monkeypatch.setattr(discover, "_MAX_PRIMES", 1)
    monkeypatch.setattr(discover, "_null_forms", recording)
    report = discover_vanishing(1, 1, 24)
    assert not report.nullspace.complete and report.nullspace.corank == {24: 253}
    assert rows == [80, 333] and report.config["n_samples"] == 333


def test_squared_distance_run_reads_every_prefix_from_one_elimination(monkeypatch):
    # d=5 deg 6: the 64 parity classes e need the prefixes of degree
    # (6 - |e|) // 2 = 3, 2, 1, 0 of one matrix in s over C(3 + 6, 6) = 84
    # monomials: one elimination of the first 84 - 7 + 8 = 85 of its 92
    # rows (the rank the expected corank 7 leaves, plus 8), then one of the
    # nullspace basis of each prefix; the report counts each prefix once
    # per class
    rref_mod, shapes = discover.rref_mod, []

    def recording_rref_mod(matrix, prime):
        shapes.append(np.shape(matrix))
        return rref_mod(matrix, prime)

    monkeypatch.setattr(discover, "rref_mod", recording_rref_mod)
    monkeypatch.setattr(modular, "rref_mod", recording_rref_mod)
    report = discover_vanishing(5, 1, 6, seed=1)
    assert report.nullspace.primes == (16777213,)
    assert shapes == [(85, 84), (0, 1), (0, 7), (1, 28), (7, 84)]
    assert report.config["n_samples"] == 84 + 8
    assert report.nullspace.corank == {0: 0, 1: 0, 2: 1, 3: 7}
    assert report.nullspace.ideal_dim == report.nullspace.corank
    classes = {3: 1, 2: 6 + 15, 1: 20 + 15, 0: 6 + 1}  # classes by |e| in {0}, {1, 2}, {3, 4}, {5, 6}
    assert sum(classes.values()) == sum(math.comb(6, size) for size in range(7))
    assert report.nullspace.null_dim == sum(report.nullspace.corank[k] * c for k, c in classes.items()) == 28
    assert all(c.certificate == CERT_DIVISIBLE for c in report.candidates)
    # each candidate lies in one parity class, and the list is in pivot order
    pivots = []
    for candidate in report.candidates:
        assert len({_parity(e) for e in candidate.poly.terms}) == 1
        pivots.append(min((sum(e), e) for e in candidate.poly.terms))
    assert pivots == sorted(pivots) and len(pivots) == 28


@pytest.mark.parametrize("args, expected", [
    ((2, 1, 4), "7a496a960d7ffe14766559412a8cd879dab5fc549114d5c82d252e0bb13e1c50"),
    ((3, 1, 3), "4d6660f8da5edad98397f44d2fcfbf2d0c799221f690109bf722e1a5ee141335"),
    ((2, 1, 8), "b404749a51a00b38db0349ce56e384d1e91cfb687092939b57c049f933761717"),
    ((2, Fraction(9, 4), 6), "e07f403f2df95ab3b648e619f788aa5480e3bf2b7db413a25cb27d5e642883b4"),
])
def test_sphere_runs_keep_their_reports(args, expected):
    # the exact sphere runs, pinned by the digest of the whole report
    doc = discover_on_sphere(*args, seed=3).to_json()
    assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() == expected


def _discover_with_blas_threads(threads):
    src = str(Path(discover.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(threads)
    argv = ["discover", "--d", "3", "--max-degree", "8", "--seed", "7"]
    done = subprocess.run(
        [sys.executable, "-m", "simplexdist.cli", *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)["result"]["candidates"]


def test_discovery_counts_do_not_depend_on_blas_threads():
    one, two = _discover_with_blas_threads(1), _discover_with_blas_threads(2)
    assert one == two
    assert sum(c["certificate"] == CERT_DIVISIBLE for c in one) == 70


# -- independence ---------------------------------------------------------------------------


@pytest.mark.parametrize("subset", [(1, 2), (1, 3), (2, 3)])
def test_independence_d2_pairs(subset):
    report = independence_test(2, 1, subset)
    assert report.verdict == "no-relation-found"
    assert report.certificate == "jacobian-rank"
    assert report.gram_det == Fraction(1, 3)


def test_independence_d3_triple_low_degree():
    report = independence_test(3, 1, (1, 2, 3))
    assert report.verdict == "no-relation-found"
    assert report.to_json()["gram_det"] == "1/4"


def _gradient_gram(d, a2, subset):
    """The Gram matrix of the gradients ``2(c - v_j)``, j in ``subset``, of
    the squared distances at the centroid c, from the exact squared
    distances: ``<c - v_i, c - v_j> = (|c - v_i|^2 + |c - v_j|^2 -
    |v_i - v_j|^2) / 2``, with every ``|c - v_j|^2`` the squared circumradius."""
    r2 = EmbeddedSimplex(d, a2).circumradius_sq
    return [[4 * (r2 - (0 if i == j else a2 / 2)) for j in subset] for i in subset]


@pytest.mark.parametrize("a2", [Fraction(1), Fraction(7, 3), Fraction(12345, 677)])
def test_independence_gram_det_is_the_gradient_gram_determinant(a2):
    # the certificate (d+1-k)/(d+1) is the Gram determinant of the weight
    # vectors c - e_j; the gradients have (2a^2)^k times it
    for d in range(1, 9):
        for k in range(1, d + 1):
            gram_det = independence_test(d, a2, range(1, k + 1)).gram_det
            assert gram_det == Fraction(d + 1 - k, d + 1) > 0
            assert _bareiss_det(_gradient_gram(d, a2, range(k))) == (2 * a2) ** k * gram_det


def test_independence_rejects_full_set():
    with pytest.raises(ValueError):
        independence_test(2, 1, (1, 2, 3))


def test_independence_rejects_bad_labels():
    with pytest.raises(ValueError):
        independence_test(2, 1, (0, 1))
    with pytest.raises(ValueError):
        independence_test(2, 1, (1, 1))
    with pytest.raises(ValueError):
        independence_test(2, 1, ())


# -- circumsphere discovery ------------------------------------------------------------------


def test_sphere_degree_two_finds_quadratic():
    report = discover_on_sphere(2, 1, 2, seed=3)
    assert report.null_dim_by_degree == {1: 0, 2: 1}
    (candidate,) = report.certified
    assert candidate.certificate == CERT_CIRCUMCIRCLE
    assert proportional(candidate.poly, circumsphere_quadratic(2, 1))
    assert report.extras == []


def test_sphere_degree_one_empty():
    report = discover_on_sphere(2, 1, 1, seed=3)
    assert report.nullspace.null_dim == 0
    assert report.certified == [] and report.extras == []


def test_sphere_degree_two_d3():
    report = discover_on_sphere(3, 1, 2, seed=3)
    (candidate,) = report.certified
    assert candidate.certificate == CERT_SPHERE_IDEAL
    assert proportional(candidate.poly, circumsphere_quadratic(3, 1))


def _in_sphere_ideal_reference(p, d, a2):
    """Membership in the ideal (Q, R) of the circumsphere quadratic and the
    quartic, in t: Q is monic in the last variable and R's image modulo Q
    has no last-variable term, so p is a member exactly when both parts A
    and B of its remainder ``A + B*T_last`` by Q are multiples of that
    image."""
    quad = circumsphere_quadratic(d, a2)
    image = divide_last_variable(distance_relation(d, a2), quad).remainder
    image = MultiPoly(d, {e[:-1]: c for e, c in image.terms.items()})
    reduced = divide_last_variable(p, quad).remainder
    parts = (MultiPoly(d, {e[:-1]: c for e, c in reduced.terms.items() if e[-1] == k}) for k in (0, 1))
    return all(divide_last_variable(part, image).remainder.is_zero for part in parts)


def _certifies(certify, columns, p):
    """The sphere certificate ``certify`` of a run on the monomials
    ``columns`` applied to the polynomial p in the run's variables, given as
    a run gives its rows: integers by column."""
    index = {e: j for j, e in enumerate(columns)}
    return certify(_numerators({index[e]: c for e, c in p.terms.items()}))


def _u_certificate(d, degree):
    columns = enumerate_monomials(d + 1, degree)
    return lambda p: _certifies(_membership(_sphere_ideal(d + 1), columns), columns, p)


def _u_generators(d):
    """``Q_u = sum u - d`` and ``S_u = sum u^2 - d``."""
    u = [MultiPoly.variable(j, d + 1) for j in range(d + 1)]
    constant = MultiPoly.constant(d, d + 1)
    return sum(u, MultiPoly.zero(d + 1)) - constant, sum((x * x for x in u), MultiPoly.zero(d + 1)) - constant


def test_sphere_ideal_membership_is_complete():
    # the certificate of d >= 3 in u: Q_u, S_u and their combinations pass,
    # and so does R_1(u), which is (d + 1) * S_u modulo Q_u
    certifies = _u_certificate(3, 4)
    q_u, s_u = _u_generators(3)
    u1 = MultiPoly.variable(0, 4)
    relation = MultiPoly(4, {tuple(x // 2 for x in e): c for e, c in distance_relation(3, 1).terms.items()})
    assert certifies(q_u) and certifies(s_u) and certifies(relation)
    assert certifies(q_u * u1 + s_u * (u1**2))
    assert not certifies(u1) and not certifies(s_u + u1)


def test_sphere_ideal_membership_checks_the_last_variable_part():
    # u4 reduces by Q_u to 3 - u1 - u2 - u3, which S_u's image does not divide
    certifies = _u_certificate(3, 3)
    q_u, _ = _u_generators(3)
    u4 = MultiPoly.variable(3, 4)
    assert not certifies(u4)
    assert certifies(q_u * u4)


def test_sphere_degree_four_certifies_quartic_span():
    # on the circumcircle of a triangle the vanishing ideal is larger than
    # the two-generator ideal (the Pompeiu cubic also vanishes): degree 4
    # carries 14 rows, of which the quadratic multiples and the relation
    # make 11, and the run certifies them all on the Ptolemy conics
    report = discover_on_sphere(2, 1, 4, seed=3)
    assert report.null_dim_by_degree == {1: 0, 2: 1, 3: 5, 4: 14}
    assert len(report.certified) == 14 and report.extras == []
    assert all(c.certificate == CERT_CIRCUMCIRCLE for c in report.certified)
    rows = sample_circumsphere(EmbeddedSimplex(2, 1), SampleConfig(seed=8, count=40))
    for candidate in report.certified:
        assert max(abs(candidate.poly.eval_float(t)) for t in rows) < 1e-9


def _pompeiu():
    t1, t2, t3 = (MultiPoly.variable(i, 3) for i in range(3))
    return (t1 + t2 - t3) * (t1 - t2 + t3) * (t2 + t3 - t1)


def _span_rank(polys):
    """The rank of a list of polynomials over the rationals."""
    exps = sorted({e for p in polys for e in p.terms})
    rows = [[p.terms.get(e, Fraction(0)) for e in exps] for p in polys]
    rank = 0
    for col in range(len(exps)):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col] / rows[rank][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_pompeiu_cubic_vanishes_on_circle_but_outside_ideal():
    pompeiu = _pompeiu()
    assert not _in_sphere_ideal_reference(pompeiu, 2, 1)
    rows = sample_circumsphere(EmbeddedSimplex(2, 1), SampleConfig(seed=8, count=40))
    values = [pompeiu.eval_float(t) for t in rows]
    assert max(abs(v) for v in values) < 1e-12
    # the degree-3 run certifies 5 rows: the quadratic times 1, t1, t2, t3,
    # and a fifth direction, which the Pompeiu cubic completes
    report = discover_on_sphere(2, 1, 3, seed=3)
    polys = [c.poly for c in report.certified]
    assert len(polys) == 5 and report.extras == []
    assert _span_rank(polys) == _span_rank(polys + [pompeiu]) == 5


@pytest.mark.parametrize("d, max_degree", [(2, 6), (3, 4)])
def test_sphere_lower_degrees_match_rebuilt_matrices(d, max_degree):
    # every lower degree is read from the pivots of the degree-D matrix; its
    # null dimension must equal that of the run of degree k, whose matrix
    # is built from scratch
    report = discover_on_sphere(d, 1, max_degree, seed=2)
    for k in range(1, max_degree + 1):
        rebuilt = discover_on_sphere(d, 1, k, seed=2)
        assert report.null_dim_by_degree[k] == rebuilt.nullspace.null_dim == rebuilt.null_dim_by_degree[k]
    assert report.null_dim_by_degree[max_degree] == report.nullspace.null_dim


_NULL_DIMS = {  # d, D: the null dimension at every degree up to D
    (2, 8): [0, 1, 5, 14, 29, 51, 81, 120],
    (3, 8): [0, 1, 5, 16, 40, 84, 156, 265],
    (4, 6): [0, 1, 6, 22, 62, 146],
    (5, 6): [0, 1, 7, 29, 91, 237],
}


@pytest.mark.parametrize("edge_sq", ["1", "7/3", "2", "12345/677"])
@pytest.mark.parametrize("d, degree", sorted(_NULL_DIMS))
def test_sphere_null_dimensions_are_the_ideal_dimensions(d, degree, edge_sq):
    # at d >= 3 the complete-intersection counts of (Q, R),
    # C(k-2+n, n) + C(k-4+n, n) - C(k-6+n, n); at d = 2 the Hilbert
    # function of the three conics; every row certified with one prime
    report = discover_on_sphere(d, Fraction(edge_sq), degree, seed=1)
    assert list(report.null_dim_by_degree.values()) == _NULL_DIMS[d, degree]
    assert report.nullspace.complete and len(report.nullspace.primes) == 1
    assert len(report.certified) == report.nullspace.null_dim and report.extras == []
    if d >= 3:
        n = d + 1
        counts = [sum(s * math.comb(k - j + n, n) for s, j in [(1, 2), (1, 4), (-1, 6)] if k >= j) for k in range(1, degree + 1)]
        assert counts == _NULL_DIMS[d, degree]


def test_sphere_deterministic():
    a = discover_on_sphere(2, 1, 3, seed=4)
    b = discover_on_sphere(2, 1, 3, seed=4)
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)


# -- report serialization ----------------------------------------------------------------------


def test_discovery_report_json_round_trips_through_dumps():
    report = discover_vanishing(2, 1, 4, seed=1)
    doc = report.to_json()
    text = json.dumps(doc, sort_keys=True)
    parsed = json.loads(text)
    assert parsed["nullspace"]["null_dim"] == 1
    assert parsed["config"]["d"] == 2
    assert parsed["candidates"][0]["certificate"] == CERT_DIVISIBLE


_TALL_EDGE = Fraction(12345, 677)
_LIFT_RUNS = [
    *((discover_vanishing, d, a2, 6) for d in range(2, 6) for a2 in (Fraction(1), _TALL_EDGE)),
    # d = 1 needs a rational edge
    *((discover_vanishing, 1, a2, 6) for a2 in (Fraction(1), _TALL_EDGE**2)),
    *((discover_on_sphere, d, a2, 6) for d in (2, 3, 4) for a2 in (Fraction(1), _TALL_EDGE)),
]


@pytest.mark.parametrize(
    "run, d, a2, degree", _LIFT_RUNS, ids=[f"{run.__name__}-d{d}-{a2}" for run, d, a2, _ in _LIFT_RUNS]
)
def test_candidates_are_their_rows_shifted_by_their_class(run, d, a2, degree):
    # a run lifts each row of its echelon form in t to one candidate per
    # parity class e, t^e times the row, sharing the row's sorted and
    # formatted integer terms: the report and the MultiPoly built on first read
    # must both be the lift built term by term
    report = run(d, a2, degree, seed=1)
    candidates = report.candidates if run is discover_vanishing else report.certified + report.extras
    assert candidates
    by_row = {}
    for candidate in candidates:
        terms, shift = candidate._terms, candidate._shift
        exponents = [f for f, _, _, _ in terms]
        assert exponents == sorted(exponents, key=lambda f: (sum(f), f), reverse=True)
        # each coefficient is held as integers in lowest terms, and formatted
        assert all(type(n) is type(q) is int and q > 0 and math.gcd(n, q) == 1 for _, n, q, _ in terms)
        assert all(text == frac_str(Fraction(n, q)) for _, n, q, text in terms)
        lift = MultiPoly(d + 1, {tuple(x + y for x, y in zip(shift, f)): Fraction(n, q) for f, n, q, _ in terms})
        poly = candidate.poly
        assert poly is candidate.poly and poly == lift
        # in the order of the columns, as a lift of the columns builds it
        assert list(poly.terms) == sorted(poly.terms, key=lambda f: (sum(f), f))
        assert candidate.to_json()["poly"] == poly_to_dict(poly)
        by_row.setdefault(id(terms), []).append((shift, poly))
    # the candidates of one row are t^e g for one g: t^e2 * p1 == t^e1 * p2
    for lifts in by_row.values():
        (e1, p1), *others = lifts
        for e2, p2 in others:
            assert MultiPoly(d + 1, {e2: 1}) * p1 == MultiPoly(d + 1, {e1: 1}) * p2
    if d >= 2 and run is discover_vanishing:
        assert len(by_row) < len(candidates)


# -- the screens of a sphere run: the sample filter and the certificates -------------------


def _squares_free_reference(nums, s):
    """The filter by its definition: no nonempty subset product of the
    ``u_j = nums[j] / s`` is a rational square, 0 included."""
    for size in range(1, len(nums) + 1):
        for subset in itertools.combinations(nums, size):
            y = math.prod(subset) * s ** (size % 2)
            if math.isqrt(y) ** 2 == y:
                return False
    return True


def _sphere_points(d, count, seed=1):
    config = SampleConfig(seed=seed, count=count, box=Fraction(3, 2))
    return _conic_points(config) if d == 2 else _chord_points(d + 1, config)


def _s_relation(d, a2):
    """The quartic relation as a polynomial in the squares ``s = t^2``."""
    return MultiPoly(d + 1, {tuple(x // 2 for x in e): c for e, c in distance_relation(d, a2).terms.items()})


_SCREEN_EDGES = (Fraction(1), Fraction(7, 3), Fraction(12345, 677))


@pytest.mark.parametrize("a2", _SCREEN_EDGES)
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_screen_points_lie_on_the_circumsphere_variety(d, a2):
    # the sample points lie exactly on the circumsphere, and at d >= 3 they
    # pass the square-product filter; at d = 2 each lies on its Ptolemy conic
    numerators, scales = _sphere_points(d, 30)
    assert len(set(map(tuple, numerators))) == 30
    relation = _s_relation(d, a2)
    for k, (nums, s) in enumerate(zip(numerators, scales)):
        x = [Fraction(c, s) for c in nums]
        if d == 2:
            i = k % 3
            assert x[i] == x[(i + 1) % 3] + x[(i + 2) % 3]
            squares = [a2 * c * c for c in x]  # s = t^2 with t = a*v
            assert sum(c * c for c in x) == 2
        else:
            assert _square_free(nums, s) and _squares_free_reference(nums, s)
            squares = [a2 * c for c in x]  # s = a^2 * u
            assert sum(x) == d and sum(c * c for c in x) == d
        assert sum(squares) == d * a2 and sum(c * c for c in squares) == d * a2 * a2
        assert relation.eval(squares) == 0


@pytest.mark.parametrize("d", [3, 5])
def test_square_free_is_the_subset_product_test(d):
    # on raw chords, redrawn or not, and on points built to fail
    rows = [r for r, _ in _weight_rows(d + 1, SampleConfig(seed=1, count=200, box=Fraction(3, 2)))]
    verdicts = [_square_free(*_chord(k, r)) for k, r in enumerate(rows)]
    assert verdicts == [_squares_free_reference(*_chord(k, r)) for k, r in enumerate(rows)]
    assert not all(verdicts)
    assert not _square_free([2, 8, 3], 5) and not _square_free([3, 0, 7], 11)
    assert not _square_free([6, 10, 15], 1) and _square_free([2, 3, 5], 7)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_sphere_sample_k_depends_only_on_seed_and_k(d):
    short, long = _sphere_points(d, 7, seed=5), _sphere_points(d, 40, seed=5)
    assert [list(x[:7]) for x in long] == [list(x) for x in short]
    assert _sphere_points(d, 7, seed=6) != short


def _random_poly(rng, arity, degree):
    terms = {}
    for e in enumerate_monomials(arity, degree):
        if rng.random() < 0.5:
            terms[e] = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
    return MultiPoly(arity, terms)


@functools.cache
def _v_certificate(degree):
    """The membership test of a d = 2 run of degree ``degree``, in the
    ideals of the three Ptolemy conics: one certificate, whose tables serve
    every call."""
    columns = enumerate_monomials(3, degree)
    certify = _conic_certificate(columns)
    return lambda p: _certifies(certify, columns, p)


def _on_conics_reference(p):
    """Whether p in v vanishes on each Ptolemy conic, in conic order: its
    remainder by ``v_2 - x`` is a polynomial in (v_0, v_1), whose remainder
    by the circle at ``v_2 = x`` is 0 (``_conic_divisors``)."""

    def in_plane(f):
        return MultiPoly(2, {e[:2]: c for e, c in f.terms.items()})

    rests = ((divide_last_variable(p, line).remainder, circle) for line, circle in _conic_divisors())
    return [divide_last_variable(in_plane(rest), in_plane(circle)).remainder.is_zero for rest, circle in rests]


_V = [MultiPoly.variable(j, 3) for j in range(3)]
_CIRCLE = sum((x * x for x in _V), MultiPoly.constant(-2, 3))
# form i vanishes on conic i alone
_PTOLEMY_FORMS = [_V[1] + _V[2] - _V[0], _V[2] + _V[0] - _V[1], _V[0] + _V[1] - _V[2]]


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(["member", "two conics", "non-member"]), st.integers(0, 40))
def test_conic_certificate_agrees_with_division_by_each_conic(data, kind, power):
    # the far-point certificate of a degree-6 run against the Groebner basis
    # of each conic: members of (sum v^2 - 2, Pompeiu cubic) pass, products
    # of two Ptolemy forms vanish on their two conics and, but for a rare
    # factor, not on the third, and random rows rarely vanish anywhere; a
    # row scaled by 10^power past about 10^16 is tested at a far point
    # beyond 2^64, with a table of its own
    def random_poly(degree, size):
        return MultiPoly(3, data.draw(_terms(3, degree, _FRACTIONS, 1, size)))

    if kind == "member":
        p = random_poly(4, 4) * _CIRCLE + random_poly(3, 4) * _pompeiu()
    elif kind == "two conics":
        i, j = data.draw(st.sampled_from(list(itertools.combinations(range(3), 2))))
        p = _PTOLEMY_FORMS[i] * _PTOLEMY_FORMS[j] * random_poly(4, 4) + random_poly(4, 2) * _CIRCLE
    else:
        p = random_poly(6, 8)
    assume(not p.is_zero)
    p = p.scale(10**power)
    verdicts = _on_conics_reference(p)
    assert _v_certificate(6)(p) == all(verdicts)
    if kind == "member":
        assert all(verdicts)
    elif kind == "two conics":
        assert verdicts[i] and verdicts[j]


@pytest.mark.parametrize("a2", _SCREEN_EDGES)
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_screen_never_refutes_a_member(d, a2):
    # members of the ideal pass the certificate, and non-members fail it:
    # at d >= 3 members of (Q, R) in s = t^2 at edge a^2, taken to u = s/a^2;
    # at d = 2 members of (Q_v, C_v) in v, C_v the Pompeiu cubic
    rng = random.Random(d * 1000 + a2.denominator)
    n = d + 1
    if d == 2:
        certifies = _v_certificate(6)
        v = [MultiPoly.variable(j, 3) for j in range(3)]
        generators = [sum((x * x for x in v), MultiPoly.constant(-2, 3)), _pompeiu()]
        members = [_random_poly(rng, 3, 4) * generators[0] + _random_poly(rng, 3, 3) * generators[1] for _ in range(4)]
    else:
        certifies = _u_certificate(d, 3)
        s = [MultiPoly.variable(j, n) for j in range(n)]
        generators = [sum(s, MultiPoly.constant(-d * a2, n)), _s_relation(d, a2)]
        members = []
        for _ in range(4):
            member = _random_poly(rng, n, 1) * generators[1] + _random_poly(rng, n, 2) * generators[0]
            # s = a^2 * u scales the coefficient of s^f by a^(2|f|)
            members.append(MultiPoly(n, {f: c * a2 ** sum(f) for f, c in member.terms.items()}))
    for member in members:
        assert not member.is_zero and certifies(member)
    x1, last = MultiPoly.variable(0, n), MultiPoly.variable(d, n)
    assert not certifies(x1) and not certifies(last)
    assert not certifies(generators[0] * x1 + x1**3)


def test_circumcircle_certificate_needs_all_three_conics():
    # the Ptolemy form of conic i vanishes on conic i alone, so the Pompeiu
    # cubic, their product, vanishes on the image, and no product of two of
    # them does: the far point of each conic refutes what misses the conic
    certifies = _v_certificate(6)
    v, forms, circle = _V, _PTOLEMY_FORMS, _CIRCLE
    assert forms[0] * forms[1] * forms[2] == _pompeiu()
    assert certifies(_pompeiu())
    assert certifies(circle) and certifies(circle * v[0]) and certifies(circle * forms[2] ** 3)
    for form in forms:
        assert not certifies(form)
    for i, j in itertools.combinations(range(3), 2):
        assert not certifies(forms[i] * forms[j])
        assert not certifies(forms[i] * forms[j] * v[0] + circle)


def test_screen_refutes_only_non_members_of_a_run():
    # a d = 2 run at unit edge, where t = v: each row passes the membership
    # test, and the same row with one coefficient perturbed fails it, and
    # is no member: it does not vanish on the circle
    report = discover_on_sphere(2, 1, 6, seed=1)
    certifies = _v_certificate(6)
    rows = sample_circumsphere(EmbeddedSimplex(2, 1), SampleConfig(seed=8, count=20))
    for candidate in report.certified:
        p = candidate.poly
        assert certifies(p)
        e, c = max(p.terms.items())
        perturbed = p + MultiPoly(3, {e: c / 1000})
        assert not certifies(perturbed)
        assert max(abs(perturbed.eval_float(t)) for t in rows) > 1e-9


@pytest.mark.parametrize("d, max_degree", [(2, 8), (3, 6)])
def test_screened_labels_equal_the_exact_membership_test(d, max_degree):
    # every row is certified, and each lies in the ideal by an independent
    # test: membership in (Q, R) in t at d = 3, vanishing at float points
    # of the circle at d = 2
    report = discover_on_sphere(d, 1, max_degree, seed=1)
    assert len(report.certified) == report.nullspace.null_dim and report.extras == []
    rows = sample_circumsphere(EmbeddedSimplex(d, 1), SampleConfig(seed=8, count=30))
    for candidate in report.certified:
        if d == 2:
            assert candidate.certificate == CERT_CIRCUMCIRCLE
            assert max(abs(candidate.poly.eval_float(t)) for t in rows) < 1e-6
        else:
            assert candidate.certificate == CERT_SPHERE_IDEAL
            assert _in_sphere_ideal_reference(candidate.poly, d, 1)
