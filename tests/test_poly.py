"""Exact polynomial arithmetic, the named quartics, and division."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexdist.poly import (
    DivisionResult,
    MultiPoly,
    circumsphere_quadratic,
    circumsphere_quartic,
    distance_relation,
    distance_relation_homogeneous,
    divide_last_variable,
    poly_from_dict,
    poly_to_dict,
    proportional,
    reduce_by_relation,
    relation_residual_exact,
    segment_factors,
    segment_generator,
    verify_circumsphere_identity,
    verify_segment_factorization,
)

T = MultiPoly.variable
C = MultiPoly.constant


def small_fractions():
    return st.builds(
        Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=6)
    )


def polys(arity=3, max_terms=5, max_exp=3):
    exps = st.tuples(*[st.integers(min_value=0, max_value=max_exp)] * arity)
    return st.dictionaries(exps, small_fractions(), max_size=max_terms).map(
        lambda terms: MultiPoly(arity, terms)
    )


# -- ring arithmetic ----------------------------------------------------------


def test_additive_inverse_is_zero():
    t1 = T(0, 2)
    assert (t1 + (-t1)).is_zero


def test_product_difference_of_squares():
    t1 = T(0, 1)
    assert (t1 + C(1, 1)) * (t1 - C(1, 1)) == t1 * t1 - C(1, 1)


def test_total_degree_of_relation_is_four():
    assert distance_relation(2, 1).total_degree() == 4


def test_zero_polynomial_has_empty_terms():
    p = T(0, 2) - T(0, 2)
    assert p.terms == {} and p.total_degree() == -1


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        T(0, 2) + T(0, 3)
    with pytest.raises(ValueError):
        T(0, 2) * T(0, 3)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_distributive_law(p, q, r):
    assert (p + q) * r == p * r + q * r


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), st.lists(small_fractions(), min_size=3, max_size=3))
def test_eval_is_ring_homomorphism(p, q, point):
    assert (p * q).eval(point) == p.eval(point) * q.eval(point)
    assert (p + q).eval(point) == p.eval(point) + q.eval(point)


# -- evaluation ---------------------------------------------------------------


def test_eval_relation_at_vertex_tuple():
    assert distance_relation(2, 1).eval([0, 1, 1]) == 0


def test_eval_relation_at_equal_ones():
    # 3*(1 + 3) - (1 + 3)^2 = 12 - 16
    assert distance_relation(2, 1).eval([1, 1, 1]) == -4


def test_eval_sum_of_squares():
    p = T(0, 2) ** 2 + T(1, 2) ** 2
    assert p.eval([3, 4]) == 25


def test_eval_arity_checked():
    with pytest.raises(ValueError):
        distance_relation(2, 1).eval([1, 1])


def test_eval_float_matches_exact():
    p = distance_relation(2, Fraction(4, 9))
    exact = p.eval([Fraction(1, 2), Fraction(1, 3), Fraction(2, 7)])
    approx = p.eval_float([0.5, 1 / 3, 2 / 7])
    assert abs(float(exact) - approx) < 1e-12


# -- the quartic relation -----------------------------------------------------


def test_relation_d1_matches_hand_expansion():
    t1, t2 = T(0, 2), T(1, 2)
    expected = 2 * (C(1, 2) + t1**4 + t2**4) - (C(1, 2) + t1**2 + t2**2) ** 2
    assert distance_relation(1, 1) == expected


@pytest.mark.parametrize("a2", [Fraction(1), Fraction(3, 7), Fraction(2), Fraction(12345, 677)], ids=str)
@pytest.mark.parametrize("d", range(1, 13))
def test_closed_form_relation_is_the_definition(d, a2):
    # (d+1)*(a^4 + sum T^4) - (a^2 + sum T^2)^2, by MultiPoly arithmetic
    n = d + 1
    squares = sum((T(i, n) ** 2 for i in range(n)), MultiPoly.zero(n))
    fourths = sum((T(i, n) ** 4 for i in range(n)), MultiPoly.zero(n))
    definition = (d + 1) * (C(a2 * a2, n) + fourths) - (C(a2, n) + squares) ** 2
    relation = distance_relation(d, a2)
    assert relation.terms == definition.terms and list(relation.terms) == list(definition.terms)
    assert all(type(c) is Fraction for c in relation.terms.values())
    assert poly_to_dict(relation) == poly_to_dict(definition)
    assert len(relation.terms) == 1 + 2 * n + n * (n - 1) // 2


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_leading_coefficient_in_last_variable(d):
    rel = distance_relation(d, Fraction(3, 7))
    exps = tuple(4 if i == d else 0 for i in range(d + 1))
    assert rel.terms[exps] == d


@pytest.mark.parametrize("d", [1, 2, 4])
def test_relation_only_even_exponents(d):
    rel = distance_relation(d, Fraction(2, 5))
    assert all(k % 2 == 0 for e in rel.terms for k in e)


def is_symmetric_under(p, perm):
    """Whether renaming variable ``perm[i]`` to ``i`` maps every term of p
    onto a term with the same coefficient; the renaming is a bijection of
    exponent tuples, so then it leaves p unchanged."""
    return all(p.terms.get(tuple(e[i] for i in perm)) == c for e, c in p.terms.items())


def test_relation_symmetric_under_permutations():
    rel = distance_relation(3, Fraction(5, 3))
    assert is_symmetric_under(rel, (1, 2, 3, 0))
    assert is_symmetric_under(rel, (3, 1, 0, 2))
    # a polynomial that is not symmetric fails the check
    assert not is_symmetric_under(rel + T(0, 4), (1, 2, 3, 0))


def test_relation_rejects_bad_input():
    with pytest.raises(ValueError):
        distance_relation(0, 1)
    with pytest.raises(ValueError):
        distance_relation(2, 0)
    with pytest.raises(ValueError):
        distance_relation(2, Fraction(-1, 3))


def test_residual_exact_matches_polynomial_eval():
    squared = [Fraction(1, 4), Fraction(1, 4), Fraction(3, 4)]
    # relation is even, so evaluating at the square roots equals the
    # squared-variable form
    assert relation_residual_exact(2, 1, squared) == 0
    assert relation_residual_exact(2, 1, [1, 1, 1]) == -4


# -- homogeneous variant ------------------------------------------------------


def test_homogeneous_specializes_to_relation():
    hom = distance_relation_homogeneous(2)
    for edge in (1, Fraction(2, 3)):
        # substitute the edge for variable 0: sum the coefficients over its powers
        terms = {}
        for e, c in hom.terms.items():
            terms[e[1:]] = terms.get(e[1:], 0) + c * Fraction(edge) ** e[0]
        assert MultiPoly(3, terms) == distance_relation(2, edge * edge)


def test_homogeneous_fully_symmetric():
    hom = distance_relation_homogeneous(2)
    assert is_symmetric_under(hom, (3, 0, 2, 1))


def test_homogeneous_degree_four_scaling():
    hom = distance_relation_homogeneous(3)
    point = [Fraction(1, 2), 2, Fraction(3, 5), 1, Fraction(7, 3)]
    doubled = [2 * x for x in point]
    assert hom.eval(doubled) == 16 * hom.eval(point)


# -- circumsphere polynomials -------------------------------------------------


def test_circumsphere_polynomials_at_vertex():
    assert circumsphere_quadratic(2, 1).eval([0, 1, 1]) == 0
    assert circumsphere_quartic(2, 1).eval([0, 1, 1]) == 0


@pytest.mark.parametrize("d,edge_sq", [(2, 1), (5, Fraction(3, 7)), (8, Fraction(2))])
def test_circumsphere_identity(d, edge_sq):
    assert verify_circumsphere_identity(d, edge_sq)


def test_circumsphere_identity_detects_perturbation():
    # the identity is an equality of specific polynomials; perturbing one
    # side must be visible, which we simulate by comparing against a wrong
    # quartic directly
    d, a2 = 2, Fraction(1)
    relation = distance_relation(d, a2)
    quad = circumsphere_quadratic(d, a2)
    quart = circumsphere_quartic(d, a2) + T(0, 3) ** 2
    shift = C((d + 1) * a2, 3) + quad
    rhs = relation + shift**2 - C(((d + 1) * a2) ** 2, 3)
    assert (d + 1) * quart != rhs


# -- division and membership --------------------------------------------------


def test_divide_constructed_multiple():
    rel = distance_relation(2, 1)
    q = T(0, 3) ** 2 + C(3, 3)
    result = reduce_by_relation(q * rel, 2, 1)
    assert result.quotient == q and result.remainder.is_zero


def test_divide_with_additive_offset():
    rel = distance_relation(2, 1)
    result = reduce_by_relation(rel + T(1, 3), 2, 1)
    assert result.remainder == T(1, 3)
    assert result.quotient == C(1, 3)


def test_divide_low_degree_is_pure_remainder():
    result = reduce_by_relation(T(0, 3), 2, 1)
    assert result.quotient.is_zero and result.remainder == T(0, 3)


def test_divide_arity_mismatch():
    with pytest.raises(ValueError):
        reduce_by_relation(T(0, 2), 2, 1)


def test_divide_requires_constant_lead():
    # T1 * T2^2 has leading coefficient T1 in the last variable
    with pytest.raises(ValueError):
        divide_last_variable(T(1, 2) ** 3, T(0, 2) * T(1, 2) ** 2)


@settings(max_examples=40, deadline=None)
@given(polys(arity=3, max_terms=4, max_exp=4))
def test_division_reconstructs_dividend(g):
    rel = distance_relation(2, Fraction(4, 9))
    result = divide_last_variable(g, rel)
    assert result.quotient * rel + result.remainder == g
    assert result.remainder.is_zero or result.remainder.degree_in(2) < 4


@pytest.mark.parametrize("d", [3, 4])
def test_division_reconstructs_dividend_higher_dims(d):
    import random

    rng = random.Random(d)
    rel = distance_relation(d, Fraction(2, 3))
    arity = d + 1
    for _ in range(8):
        terms = {}
        for _ in range(6):
            exps = [0] * arity
            for _ in range(rng.randint(0, 8)):  # total degree up to 8
                exps[rng.randrange(arity)] += 1
            terms[tuple(exps)] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        g = MultiPoly(arity, terms)
        result = divide_last_variable(g, rel)
        assert result.quotient * rel + result.remainder == g
        assert result.remainder.is_zero or result.remainder.degree_in(d) < 4


@settings(max_examples=30, deadline=None)
@given(polys(arity=3, max_terms=3, max_exp=2), polys(arity=3, max_terms=3, max_exp=3))
def test_membership_soundness(q, r):
    rel = distance_relation(2, 1)
    # force the offset below the divisor's degree in the last variable
    r = MultiPoly(3, {e: c for e, c in r.terms.items() if e[2] < 4})
    result = divide_last_variable(q * rel + r, rel)
    assert result.remainder == r
    assert divide_last_variable(q * rel, rel).remainder.is_zero


def test_divide_rejects_the_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        divide_last_variable(T(0, 2), MultiPoly.zero(2))


def test_division_keeps_the_exponents_the_divisor_makes():
    # by x - y^3 the dividend x^2 leaves y^6, twice the largest exponent of
    # either: the division packs at a base that allows for that growth
    y, x = T(0, 2), T(1, 2)
    result = divide_last_variable(x * x, x - y**3)
    assert (result.quotient, result.remainder) == (x + y**3, y**6)


def test_division_by_a_constant_divides_every_coefficient():
    # no variable occurs in the divisor, so every term has degree m = 0 or
    # more in the last variable and is cleared
    p = T(0, 3) ** 2 * T(2, 3) - T(1, 3) + C(Fraction(5, 2), 3)
    result = divide_last_variable(p, C(Fraction(-3, 4), 3))
    assert result.quotient == p.scale(Fraction(-4, 3)) and result.remainder.is_zero


@settings(max_examples=60, deadline=None)
@given(polys(arity=3, max_terms=4, max_exp=3), st.integers(1, 3), small_fractions().filter(bool), polys(max_exp=4))
def test_division_by_a_divisor_whose_rest_outranks_its_lead(dividend, m, lead, rest):
    # lead * x^m plus y^4 z^4 and terms of degree below m in x: the rest has
    # a higher total degree than the lead, and each term cleared from the
    # dividend raises the exponents of y and z by up to 4
    rest = MultiPoly(3, {e: c for e, c in rest.terms.items() if e[2] < m})
    divisor = C(lead, 3) * T(2, 3) ** m + T(0, 3) ** 4 * T(1, 3) ** 4 + rest
    result = divide_last_variable(dividend, divisor)
    assert result.quotient * divisor + result.remainder == dividend
    assert result.remainder.degree_in(2) < m


def _lift(q, parity):
    """``t^parity * q(t^2)``."""
    return MultiPoly(q.arity, {tuple(e + 2 * f for e, f in zip(parity, fs)): c for fs, c in q.terms.items()})


def _random_poly(rng, arity, degree, last_degree):
    terms = {}
    for _ in range(5):
        exps = [0] * arity
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(arity)] += 1
        if exps[-1] <= last_degree:
            terms[tuple(exps)] = Fraction(rng.randint(1, 9), rng.randint(1, 5)) * rng.choice((-1, 1))
    return MultiPoly(arity, terms)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_certificate_transfers_from_squared_distances(d):
    # discovery certifies q(s) by the quadric R(s) in s = t^2 and reports
    # every t^e * q(t^2) with that certificate: dividing the lift by the
    # quartic R(t^2) leaves the lift of q's remainder, so both vanish together
    import itertools
    import random

    rng = random.Random(d)
    n, a2 = d + 1, Fraction(2, 3)
    s = [T(i, n) for i in range(n)]
    linear = C(a2, n) + sum(s[1:], s[0])
    quadric = (d + 1) * (C(a2 * a2, n) + sum((x * x for x in s[1:]), s[0] * s[0])) - linear * linear
    quartic = distance_relation(d, a2)
    assert _lift(quadric, (0,) * n) == quartic
    parities = [e for e in itertools.product((0, 1), repeat=n) if sum(e) <= 2]
    for _ in range(3):
        multiple = quadric * _random_poly(rng, n, 2, 2)
        offset = _random_poly(rng, n, 3, 1) + T(0, n)  # degree <= 1 in the last s, nonzero
        cases = [(multiple, True), (multiple + offset, False), (_random_poly(rng, n, 4, 4), None)]
        for q, divisible in cases:
            remainder = divide_last_variable(q, quadric).remainder
            assert divisible is None or remainder.is_zero == divisible
            for e in parities:
                lifted = divide_last_variable(_lift(q, e), quartic).remainder
                assert lifted == _lift(remainder, e)
                assert lifted.is_zero == remainder.is_zero


# -- the segment case ---------------------------------------------------------


@pytest.mark.parametrize("edge", [1, 2, Fraction(3, 4)])
def test_segment_factorization(edge):
    assert verify_segment_factorization(edge)


def test_segment_generator_is_cubic_with_unit_lead():
    gen = segment_generator(1)
    assert gen.total_degree() == 3
    assert gen.terms[(0, 3)] == 1


def test_segment_factors_multiply_to_relation():
    a = Fraction(2)
    f_plus, h3, h2, h1 = segment_factors(a)
    assert f_plus * h3 * h2 * h1 == distance_relation(1, a * a)
    assert f_plus * segment_generator(a) == distance_relation(1, a * a)


def test_segment_rejects_nonpositive_edge():
    with pytest.raises(ValueError):
        segment_factors(0)


# -- proportionality helper ---------------------------------------------------


def test_proportional():
    rel = distance_relation(2, 1)
    assert proportional(rel.scale(Fraction(-3, 7)), rel)
    assert not proportional(rel + T(0, 3), rel)
    assert proportional(MultiPoly.zero(3), MultiPoly.zero(3))
    assert not proportional(MultiPoly.zero(3), rel)


# -- JSON wire format ---------------------------------------------------------


def test_poly_json_round_trip():
    rel = distance_relation(2, Fraction(4, 9))
    doc = poly_to_dict(rel)
    assert doc["vars"] == ["T1", "T2", "T3"]
    text = json.dumps(doc)
    assert poly_from_dict(json.loads(text)) == rel


def test_poly_json_graded_lex_leading_first():
    doc = poly_to_dict(distance_relation(2, 1))
    degrees = [sum(t["exps"]) for t in doc["terms"]]
    assert degrees == sorted(degrees, reverse=True)
    keys = [(sum(t["exps"]), tuple(t["exps"])) for t in doc["terms"]]
    assert keys == sorted(keys, reverse=True)


def test_poly_json_coefficients_lowest_terms():
    p = MultiPoly(2, {(1, 0): Fraction(2, 4)})
    doc = poly_to_dict(p)
    assert doc["terms"][0]["coeff"] == "1/2"


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ({"vars": ["T1"], "terms": [{"coeff": "x", "exps": [1]}]}, "term 0"),
        ({"vars": ["T1"], "terms": [{"coeff": "1", "exps": [1, 2]}]}, "term 0"),
        (
            {"vars": ["T1"], "terms": [{"coeff": "1", "exps": [1]}, {"coeff": "2", "exps": [1]}]},
            "term 1",
        ),
        ({"vars": ["T1"], "terms": [{"coeff": "0", "exps": [1]}]}, "term 0"),
        ({"vars": [], "terms": []}, "vars"),
    ],
)
def test_poly_json_errors_name_offender(doc, fragment):
    with pytest.raises(ValueError, match=fragment):
        poly_from_dict(doc)


def test_division_result_fields():
    rel = distance_relation(2, 1)
    result = reduce_by_relation(rel, 2, 1)
    assert isinstance(result, DivisionResult)
    assert result.quotient == C(1, 3)
