"""Exact linear algebra modulo word primes: elimination, nullspaces, CRT,
rational reconstruction and the detection of unlucky primes."""

import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simplexdist import discover, modular
from simplexdist.discover import discover_on_sphere
from simplexdist.modular import (
    WORD_PRIME_BOUND,
    ResidueImage,
    crt,
    null_form,
    nullspace_mod,
    rational_reconstruction,
    rref_mod,
    word_primes,
)

P, Q, R, S = itertools.islice(word_primes(), 4)


def _rref_exact(rows, ncols):
    """Leftmost-pivot reduced row echelon form over the rationals."""
    a = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        a[rank] = [x / a[rank][col] for x in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][col]:
                factor = a[i][col]
                a[i] = [x - factor * y for x, y in zip(a[i], a[rank])]
        pivots.append(col)
    return a[: len(pivots)], tuple(pivots)


def _mod(x: Fraction, prime: int) -> int:
    return x.numerator * pow(x.denominator, -1, prime) % prime


@st.composite
def _small_matrices(draw):
    # entries at most 12 in absolute value and at most five rows: every
    # nonzero minor is below (12 * sqrt(5))^5 ~ 1.39e7 < 2^24, so no word
    # prime divides it, and the echelon form reduces modulo the prime
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        return [draw(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols)) for _ in range(rows)]
    rank = draw(st.integers(0, 3))
    small = st.integers(-2, 2)
    left = [draw(st.lists(small, min_size=rank, max_size=rank)) for _ in range(rows)]
    right = [draw(st.lists(small, min_size=cols, max_size=cols)) for _ in range(rank)]
    return [[sum(x * y for x, y in zip(row, column)) for column in zip(*right)] or [0] * cols for row in left]


def test_word_primes_descend_from_the_largest_prime_below_2_to_the_24():
    primes = list(itertools.islice(word_primes(), 16))
    assert primes[:3] == [16777213, 16777199, 16777183]
    assert primes == sorted(primes, reverse=True) and primes[-1] < WORD_PRIME_BOUND
    # by trial division: these are primes, and every number between them is not
    for n in range(primes[-1], primes[0] + 1):
        assert (n in primes) == all(n % f for f in range(2, math.isqrt(n) + 1))


@settings(max_examples=300, deadline=None)
@given(_small_matrices(), st.sampled_from([P, Q]))
def test_rref_mod_is_the_exact_rref_reduced_mod_p(rows, prime):
    ncols = len(rows[0])
    exact, pivots = _rref_exact(rows, ncols)
    got, got_pivots = rref_mod(np.array(rows, dtype=np.int64), prime)
    assert got_pivots == pivots
    assert got.dtype == np.int64
    assert got.tolist() == [[_mod(x, prime) for x in row] for row in exact]


def _rref_int(rows, prime):
    """Leftmost-pivot Gauss-Jordan elimination modulo ``prime`` in Python
    ints, every entry reduced at every step."""
    a = [[x % prime for x in row] for row in rows]
    pivots = []
    for col in range(len(a[0]) if a else 0):
        rank = len(pivots)
        pivot = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inverse = pow(a[rank][col], -1, prime)
        row = a[rank] = [x * inverse % prime for x in a[rank]]
        for i, other in enumerate(a):
            factor = other[col]
            if i != rank and factor:
                a[i] = other[:col] + [(x - factor * y) % prime for x, y in zip(other[col:], row[col:])]
        pivots.append(col)
    return a[: len(pivots)], tuple(pivots)


@st.composite
def _tall_matrices(draw):
    # residues up to P - 1, full or of low rank, with empty columns: every
    # row takes one unreduced update per pivot above or below it
    rows, cols = draw(st.integers(40, 120)), draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        a = rng.integers(0, P, size=(rows, cols)).tolist()
    else:
        rank = draw(st.integers(0, min(rows, cols)))
        left, right = rng.integers(0, P, size=(rows, rank)).tolist(), rng.integers(0, P, size=(rank, cols)).tolist()
        a = [[sum(x * y for x, y in zip(row, column)) % P for column in zip(*right)] or [0] * cols for row in left]
    for col in rng.integers(0, cols, size=draw(st.integers(0, cols // 3))):
        for row in a:
            row[col] = 0
    return a


@settings(max_examples=25, deadline=None)
@given(_tall_matrices())
def test_rref_mod_with_delayed_reduction_is_the_python_int_rref(rows):
    got, pivots = rref_mod(np.array(rows, dtype=np.int64), P)
    assert (got.tolist(), pivots) == _rref_int(rows, P)


@pytest.mark.parametrize("period", [1, 2, 3])
def test_rref_mod_is_the_same_at_any_fold_period(monkeypatch, period):
    rng = np.random.default_rng(period)
    matrices = [rng.integers(0, P, size=(60, 50)), rng.integers(0, P, size=(50, 60))]
    low = rng.integers(0, P, size=(80, 6)) @ rng.integers(0, 100, size=(6, 40)) % P
    matrices += [low, np.zeros((5, 4), dtype=np.int64), np.eye(7, dtype=np.int64)[::-1] * (P - 1)]
    # the row side of the nullspace form of low: its 6 rows, columns reversed
    rref, pivots = rref_mod(low, P)
    side = rref[: len(pivots), :40][:, ::-1]
    assert side.shape == (6, 40)
    matrices.append(side)
    assert modular._FOLD_PERIOD == 2**15
    expected = [rref_mod(m, P) for m in matrices]
    monkeypatch.setattr(modular, "_FOLD_PERIOD", period)
    for m, (rref, pivots) in zip(matrices, expected):
        got, got_pivots = rref_mod(m, P)
        assert got_pivots == pivots and (got == rref).all()
        assert (got.tolist(), got_pivots) == _rref_int(m.tolist(), P)


def _assert_same_rref(matrix, prime):
    rows, pivots = rref_mod(matrix, prime)
    assert (rows.tolist(), pivots) == _rref_int(matrix.tolist(), prime)


def test_rref_matches_reference_on_rank_deficient_matrices():
    rng = np.random.default_rng(3)
    for prime in (7, 16777213):
        for rows, rank, cols in [(3, 1, 4), (5, 3, 8), (8, 5, 12), (12, 12, 12), (6, 2, 30)]:
            a = rng.integers(-5, 6, size=(rows, rank)) @ rng.integers(-5, 6, size=(rank, cols))
            a[:, rng.integers(0, cols, size=cols // 3)] = 0  # empty columns skip pivots
            _assert_same_rref(a, prime)


def test_rref_matches_reference_on_discovery_rows(monkeypatch):
    seen = []

    def recording(matrix, prime):
        seen.append((np.array(matrix), prime))
        return rref_mod(matrix, prime)

    monkeypatch.setattr(discover, "rref_mod", recording)
    monkeypatch.setattr(modular, "rref_mod", recording)
    discover_on_sphere(2, 1, 6, seed=1)
    discover_on_sphere(3, 1, 4, seed=1)
    # one elimination of the first rank + 8 sample rows per run, then one per
    # prefix on the smaller side of its rank: 41 of the 92 rows in v at d = 2
    # degree 6 and its row space of rank 33 < 51, columns reversed, and 17
    # of the 23 rows in u at d = 3 degree 4 and the nullspace bases of its
    # prefixes of degree 0, 1, 2 (coranks 0, 1, 6 against ranks 1, 4, 9)
    assert [matrix.shape for matrix, _ in seen] == [(41, 84), (33, 84), (17, 15), (0, 1), (1, 5), (6, 15)]
    for matrix, prime in seen:
        _assert_same_rref(matrix, prime)


def test_rref_mod_refuses_a_prime_past_the_bound():
    with pytest.raises(ValueError, match="below 2"):
        rref_mod(np.eye(2, dtype=np.int64), 2**31 - 1)


@settings(max_examples=300, deadline=None)
@given(_small_matrices())
def test_nullspace_of_every_prefix_from_one_elimination(rows):
    ncols = len(rows[0])
    rref, pivots = rref_mod(np.array(rows, dtype=np.int64), P)
    matrix = np.array(rows, dtype=object)
    for width in range(1, ncols + 1):
        basis = nullspace_mod(rref, pivots, width, P)
        _, prefix_pivots = _rref_exact([row[:width] for row in rows], width)
        assert basis.shape == (width - len(prefix_pivots), width)
        assert not (matrix[:, :width].dot(basis.T.astype(object)) % P).any()
        # independent: each vector ends in a 1 at its own free column
        ends = [max(np.flatnonzero(v)) for v in basis]
        assert len(set(ends)) == len(ends) and all(basis[i, e] == 1 for i, e in enumerate(ends))


def _null_form_int(rows, width, prime):
    """The leftmost-pivot echelon form of the nullspace of the first
    ``width`` columns modulo ``prime``, in Python ints: the nullspace basis
    read off ``_rref_int`` of the prefix, eliminated by ``_rref_int``."""
    form, pivots = _rref_int([row[:width] for row in rows], prime)
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for f in free:
        vector = [int(c == f) for c in range(width)]
        for row, pivot in zip(form, pivots):
            vector[pivot] = -row[f] % prime
        basis.append(vector)
    rows, null_pivots = _rref_int(basis, prime)
    return null_pivots, rows


@settings(max_examples=300, deadline=None)
@given(_small_matrices(), st.sampled_from([7, 16777213]))
@example(rows=[[1, 2, 3, 4, 5], [2, 4, 6, 8, 10]], prime=7)
@example(rows=[[1, 2, 3, 4, 5], [2, 4, 6, 8, 10]], prime=16777213)
def test_null_form_is_the_form_of_the_nullspace_on_its_non_pivot_columns(rows, prime):
    # 7 divides many minors of these matrices and drops their ranks; in the
    # examples the prefix of width 1 takes the nullspace basis (rank 1,
    # corank 0), the prefix of width 2 ties (rank 1, corank 1) and takes the
    # basis too, and the wider ones take the row space
    rref, pivots = rref_mod(np.array(rows, dtype=np.int64), prime)
    for width in range(1, len(rows[0]) + 1):
        rank = sum(1 for c in pivots if c < width)
        with mock.patch.object(modular, "rref_mod", wraps=rref_mod) as second:
            null_pivots, got = null_form(rref, pivots, width, prime)
        (call,) = second.call_args_list
        side = call.args[0]
        if rank >= width - rank:
            assert (side == nullspace_mod(rref, pivots, width, prime)).all()
        else:
            assert (side == rref[:rank, :width][:, ::-1]).all()
        assert side.shape == (min(rank, width - rank), width)
        expected_pivots, form = _null_form_int(rows, width, prime)
        # the columns left out hold 1 at the row's own pivot and 0 at the others
        assert all(row[c] == (c == pivot) for row, pivot in zip(form, expected_pivots) for c in expected_pivots)
        others = [c for c in range(width) if c not in expected_pivots]
        assert len(others) == rank
        assert (null_pivots, got) == (expected_pivots, [[row[c] for c in others] for row in form])


def test_discovery_keeps_each_null_form_row_on_the_rank_many_columns(monkeypatch):
    # sphere --d 2 --max-degree 8 has one prefix of C(8 + 3, 3) = 165
    # columns, of rank 45: each of its 120 rows keeps 45 entries
    null_forms, seen = discover._null_forms, []

    def recording(*args):
        seen.append(null_forms(*args))
        return seen[-1]

    monkeypatch.setattr(discover, "_null_forms", recording)
    assert discover_on_sphere(2, 1, 8).nullspace.primes == (P,)
    ((pivots, forms),) = seen
    null_pivots, rows = forms[8]
    assert len(pivots) == 45 and len(null_pivots) == len(rows) == 120
    assert {len(row) for row in rows} == {45}


B = math.isqrt(P // 2)


def _pair(f: Fraction) -> tuple[int, int]:
    return f.numerator, f.denominator


@settings(max_examples=500, deadline=None)
@given(st.integers(-B, B), st.integers(1, B))
def test_rational_reconstruction_round_trips_inside_its_bound(n, d):
    # the pair is in lowest terms, with a positive denominator
    assert rational_reconstruction(n * pow(d, -1, P) % P, P) == _pair(Fraction(n, d))


@pytest.mark.parametrize("modulus", [101, 1009, 101 * 103])
def test_rational_reconstruction_is_none_exactly_outside_its_bound(modulus):
    # every residue of a fraction with terms up to the bound reconstructs to
    # it, and every other residue to None
    bound = math.isqrt(modulus // 2)
    inside = {}
    for d in range(1, bound + 1):
        for n in range(-bound, bound + 1):
            inside[n * pow(d, -1, modulus) % modulus] = _pair(Fraction(n, d))
    assert len(inside) < modulus
    for x in range(modulus):
        assert rational_reconstruction(x, modulus) == inside.get(x)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, P * Q - 1), min_size=1, max_size=5))
def test_crt_joins_two_primes(values):
    assert crt([x % P for x in values], P, [x % Q for x in values], Q) == values


def test_crt_recovers_a_fraction_too_tall_for_one_prime():
    # one prime carries terms up to 2,896, two up to 11,863,276
    assert math.isqrt(P // 2) == 2896 and math.isqrt(P * Q // 2) == 11863276
    x = Fraction(1234567, 98765)
    assert rational_reconstruction(_mod(x, P), P) != _pair(x)
    joined = crt([_mod(x, P)], P, [_mod(x, Q)], Q)
    assert rational_reconstruction(joined[0], P * Q) == _pair(x)


def _sparse_residues():
    # mostly zeros, as in a row of a null form, values below both primes,
    # whose residues agree, and values that are 0 modulo one prime only
    return st.one_of(
        st.just(0),
        st.just(0),
        st.integers(1, Q - 1),
        st.integers(1, Q - 1).map(lambda k: k * P),
        st.integers(1, P - 1).map(lambda k: k * Q),
        st.integers(0, P * Q - 1),
    )


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.lists(st.lists(_sparse_residues(), min_size=n, max_size=n), max_size=4)))
def test_fold_joins_rows_with_structural_zeros_by_crt(rows):
    pivots = tuple(range(len(rows)))
    image = ResidueImage(P, (P,), {"A": (pivots, [[x % P for x in row] for row in rows])})
    more = {"A": (pivots, [[x % Q for x in row] for row in rows])}
    joined = image.fold(Q, more)
    assert joined.modulus == P * Q and joined.primes == (P, Q)
    assert joined.forms["A"] == (pivots, rows)
    assert joined.forms["A"][1] == [crt(a, P, b, Q) for a, b in zip(image.forms["A"][1], more["A"][1])]


def _null_form(rows, prime):
    rref, pivots = rref_mod(np.array(rows, dtype=np.int64), prime)
    basis, null_pivots = rref_mod(nullspace_mod(rref, pivots, len(rows[0]), prime), prime)
    return null_pivots, basis.tolist()


def test_a_prime_that_drops_a_pivot_is_discarded():
    # the determinant is P: rank 2 over the rationals, 1 modulo P
    rows = [[1, 1], [1, 1 + P]]
    lucky, unlucky = {"A": _null_form(rows, Q)}, {"A": _null_form(rows, P)}
    assert lucky["A"] == ((), []) and unlucky["A"][0] == (0,)
    image = ResidueImage(Q, (Q,), lucky)
    assert image.fold(P, unlucky) is image
    replaced = ResidueImage(P, (P,), unlucky).fold(Q, lucky)
    assert replaced.primes == (Q,) and replaced.forms == lucky


def test_a_prime_that_shifts_a_pivot_right_is_discarded():
    # the nullspace is spanned by (P, 1), whose echelon form (1, 1/P) has
    # its pivot at 0 except modulo P, where it is (0, 1)
    rows = [[1, -P]]
    shifted, lucky = _null_form(rows, P), _null_form(rows, Q)
    assert shifted == ((1,), [[0, 1]]) and lucky[0] == (0,)
    image = ResidueImage(Q, (Q,), {"A": lucky, "B": ((), [])})
    assert image.fold(P, {"A": shifted, "B": ((), [])}) is image
    replaced = ResidueImage(P, (P,), {"A": shifted, "B": ((), [])}).fold(Q, image.forms)
    assert replaced.primes == (Q,)
    # lucky primes join by CRT until 1/P reconstructs
    joined = image.fold(R, {"A": _null_form(rows, R), "B": ((), [])})
    assert joined.primes == (Q, R) and joined.modulus == Q * R
    assert rational_reconstruction(joined.forms["A"][1][0][1], joined.modulus) != (1, P)
    joined = joined.fold(S, {"A": _null_form(rows, S), "B": ((), [])})
    (row,) = joined.forms["A"][1]
    assert [rational_reconstruction(x, joined.modulus) for x in row] == [(1, 1), (1, P)]
