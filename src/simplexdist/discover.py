"""Discovery of vanishing polynomials of the distance map from samples.

The pipeline is numeric-then-exact: the evaluation matrix is floating,
and rigor is restored afterwards by exact certification:

1. evaluate a degree-bounded polynomial basis at many sampled values
   (rows: samples, columns: basis elements): the squared distances s of
   the exact box-3/2 samples of ``sample_points``, each rounded once from
   its integer form, or for sphere runs and d = 1 the distances t (the
   d = 1 samples spread evenly over the three branches of the segment, the
   sphere ones taken from weights on the circumsphere, not coordinates),
2. take the numeric nullspace of the column-equilibrated matrix by SVD,
   at each column prefix the run needs (see below), recording the full
   singular spectrum and the gap at the cut,
3. map the nullspace basis back to monomial coefficients and bring it to
   reduced row echelon form, so each basis vector approximates a canonical
   rational one, then reconstruct exact rational coefficients by continued
   fractions,
4. certify each candidate exactly, with one certificate per ideal: exact
   division by the generator of the vanishing ideal (the quartic relation
   for d >= 2, the segment cubic for d = 1) in ``discover_vanishing``, and
   membership in the ideal of the circumsphere quadratic and the quartic
   (``_in_sphere_ideal``) in ``discover_on_sphere``.  Most sphere
   candidates are not members, so a screen refutes them first without
   any division (``_sphere_screen``): a member's image modulo the prime
   ``q = 2^61 - 1`` vanishes on the circumsphere variety over the field of
   q elements, so a nonzero value at one of eight points of it, drawn from
   fixed digests, proves non-membership.  This is sound when q is a unit
   for ``a^2``, for the constant leads of the two divisors and for every
   denominator of the candidate, since then the exact normal form reduces
   modulo q step by step; otherwise, and for every candidate that the
   screen does not refute, the exact division decides.

Raw monomials make dreadful numerics at degree 6 (their Gram matrices are
Hilbert-like), so internally the pipeline evaluates Chebyshev products in
the variables scaled from ``[0, max]`` to ``[-1, 1]``, which span the same
polynomial space; the basis change back to monomial coordinates happens
before any rationalization, leaving the exact side untouched.  It divides
by powers of the scale up to the degree, so a run whose scale has such a
power outside the normal floats is bad configuration.  Candidates
that fail certification are reported as uncertified, never silently
dropped; a singular-value gap under 10 marks the whole run inconclusive
rather than pretending to a clean answer.

The basis is graded, so its degree <= k part is its first ``C(k + n, n)``
monomials; each Chebyshev column depends only on its exponent and on the
scale, and each column is normalised on its own, so those first columns of
the equilibrated degree-D matrix are exactly the degree-k one.  Sphere
runs read the null dimension at every degree below D from these prefixes.

The quartic has only even powers of the distances, so for d >= 2 it is a
quadric ``R(s)`` in ``s = t^2``.  Its ideal is invariant under every flip
``t_j -> -t_j``, so it is the direct sum of its parts in each
exponent-parity class e, whose members are ``t^e * q(t^2)``; degree D
allows only the classes with at most D odd exponents, not all ``2^(d+1)``
of them.  Away from zero distances such a member
vanishes where q vanishes at the squares.  So these runs evaluate one
matrix in s of degree ``D // 2``, at values that need no square root: an
exact sample has ``s_j = a^2 * N_j / (2*T^2)`` with integers ``N_j`` and
``T``.  The class-e part of the vanishing space is ``t^e`` times the
nullspace of its prefix of degree ``(D - |e|) // 2``.  Each vector q of a
prefix nullspace is rationalized and certified once, by dividing by
``R(s)``: from ``q = R*g + r`` with r of degree <= 1 in the last s,
``t^e * r(t^2)``, of degree <= 3 < 4 in the last t, is the remainder of
``t^e * q(t^2)`` by ``R(t^2)``.  Classes have disjoint columns and
``f -> e + 2f`` keeps the graded order, so the lifted rows sorted by pivot
are the RREF of the whole space.  The reported spectrum is the descending
union over the classes of their prefix spectra, the null dimension their
sum and the gap the least over the prefixes.  Sphere runs and d = 1 stay in
t: the Pompeiu cubic on the circumsphere and the segment cubic mix
parities, so their ideals do not split.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .geom import (
    EmbeddedSimplex,
    SampleConfig,
    _digest_ints,
    _distance_numerators,
    _weight_draws,
    sample_circumsphere,
)
# bound but not called: bench/tracing.py patches a hooked function in every
# module that binds it, and bench/test_bench.py checks this binding
from .geom import sample_points  # noqa: F401
from .poly import (
    MultiPoly,
    circumsphere_quadratic,
    distance_relation,
    divide_last_variable,
    poly_to_dict,
    segment_generator,
)
from .rationals import as_fraction, frac_str, rational_sqrt

CERT_DIVISIBLE = "divisible-by-relation"
CERT_SPHERE_IDEAL = "in-circumsphere-ideal"
CERT_UNCERTIFIED = "uncertified"
CERT_JACOBIAN_RANK = "jacobian-rank"

# a spectral gap below this flags the run as inconclusive
_GAP_FLOOR = 10.0
_RREF_TOL = 1e-6
# the relative singular-value cutoff and the denominator bound of every
# discovery run, which its report echoes as ``threshold`` and ``max_denominator``
_THRESHOLD = 1e-8
_MAX_DENOMINATOR = 10**6


@dataclass(frozen=True)
class MonomialBasis:
    """All exponent vectors of total degree <= max_degree, graded-lex
    ascending (constant monomial first)."""

    arity: int
    max_degree: int
    exponents: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.exponents)


def enumerate_monomials(arity: int, max_degree: int) -> MonomialBasis:
    if not isinstance(arity, int) or arity < 1:
        raise ValueError("arity must be a positive integer")
    if not isinstance(max_degree, int) or max_degree < 0:
        raise ValueError("max_degree must be a non-negative integer")

    def gen(nvars: int, budget: int):
        if nvars == 1:
            for e in range(budget + 1):
                yield (e,)
            return
        for e in range(budget + 1):
            for rest in gen(nvars - 1, budget - e):
                yield (e, *rest)

    exps = sorted(gen(arity, max_degree), key=lambda e: (sum(e), e))
    assert len(exps) == math.comb(max_degree + arity, arity)
    return MonomialBasis(arity, max_degree, tuple(exps))


@dataclass(frozen=True)
class NullspaceReport:
    """Numeric nullspace with its singular spectrum and decision gap.

    ``gap`` measures how decisively the spectrum separates at the cut:
    smallest kept singular value over largest discarded one when the
    nullspace is non-trivial, and smallest singular value over the absolute
    threshold when it is empty.  A run's nullspace, merged over the column
    prefixes it takes, reports the smallest prefix gap and has no
    ``null_basis``.
    ``inconclusive`` flags gaps under 10.
    """

    singular_values: tuple[float, ...]
    null_dim: int
    null_basis: np.ndarray | None
    gap: float
    threshold: float

    @property
    def inconclusive(self) -> bool:
        return self.gap < _GAP_FLOOR

    def to_json(self) -> dict:
        return {
            "singular_values": list(self.singular_values),
            "null_dim": self.null_dim,
            "gap": None if math.isinf(self.gap) else self.gap,
            "threshold": self.threshold,
            "inconclusive": self.inconclusive,
        }


def numeric_nullspace(matrix: np.ndarray, threshold: float = _THRESHOLD) -> NullspaceReport:
    """SVD nullspace: singular values at or below ``threshold`` times the
    largest one count as zero.

    The returned basis rows are unit-norm and mutually orthogonal, and each
    satisfies ``|A v| / |A| <= threshold``.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("need a non-empty 2-D matrix")
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    n, m = a.shape
    _, svals, vh = np.linalg.svd(a, full_matrices=(n < m))
    sigmas = np.zeros(m)
    sigmas[: len(svals)] = svals
    smax = float(sigmas[0])
    if smax == 0.0:
        return NullspaceReport(tuple(sigmas), m, vh.copy(), math.inf, threshold)
    cut = threshold * smax
    k = int(np.sum(sigmas <= cut))
    if k == 0:
        gap = float(sigmas[-1]) / cut
    elif k == m:
        gap = math.inf
    else:
        below = float(sigmas[m - k])
        gap = math.inf if below == 0.0 else float(sigmas[m - k - 1]) / below
    basis = vh[m - k :].copy() if k else np.zeros((0, m))
    return NullspaceReport(tuple(float(s) for s in sigmas), k, basis, float(gap), threshold)


def _limit_denominator(x: float, max_denominator: int) -> Fraction:
    """``Fraction(x).limit_denominator(max_denominator)``, computed in ints.

    The same continued-fraction recurrence runs on ``x.as_integer_ratio()``.
    The last convergent ``p1/q1`` and the semiconvergent ``(p0 + k*p1) /
    (q0 + k*q1)`` bracket x; the convergent is at distance ``d/(q1*den)``
    from x and the two are ``1/(q1*(q0 + k*q1))`` apart, so the convergent
    is at least as near exactly when ``2*d*(q0 + k*q1) <= den`` (the
    comparison CPython 3.12 makes, ties going to the convergent as in
    every version).  Both bounds are in lowest terms.  NaN and infinities
    raise ``ValueError`` and ``OverflowError``, as ``Fraction(x)`` does.
    """
    n, den = x.as_integer_ratio()
    if den <= max_denominator:
        return Fraction(n, den)
    p0, q0, p1, q1 = 0, 1, 1, 0
    d = den
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > max_denominator:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (max_denominator - q0) // q1
    if 2 * d * (q0 + k * q1) <= den:
        return Fraction(p1, q1)
    return Fraction(p0 + k * p1, q0 + k * q1)


def rationalize(vector: Sequence[float], max_denominator: int = _MAX_DENOMINATOR) -> tuple[Fraction, ...]:
    """Best bounded-denominator rational for each entry (continued
    fractions), then scaled so the first nonzero entry is 1.

    Entries below the noise floor ``|x| < 1/(2*max_denominator)`` become 0
    without a continued fraction.  This is exact: for such x the continued
    fraction ends between the bounds 0 and ``+-1/max_denominator``, and 0 is
    strictly nearer, so ``Fraction(x).limit_denominator`` returns 0 too.
    The floor is a correctly rounded float, so no float lies between it and
    the exact value.  Only the entries above it, and NaN or infinities
    (which raise as before), go through ``_limit_denominator``.

    Wrong guesses are not detected here; they surface downstream as
    certification failures.
    """
    if max_denominator < 1:
        raise ValueError("max_denominator must be at least 1")
    values = np.asarray(vector, dtype=float)
    survivors = np.flatnonzero(~(np.abs(values) < 1 / (2 * max_denominator))).tolist()
    fracs = [Fraction(0)] * len(values)
    for i, x in zip(survivors, values[survivors].tolist()):
        fracs[i] = _limit_denominator(x, max_denominator)
    lead = next((fracs[i] for i in survivors if fracs[i] != 0), None)
    if lead is not None and lead != 1:
        for i in survivors:
            fracs[i] /= lead
    return tuple(fracs)


def _rref(rows: np.ndarray) -> np.ndarray:
    """Reduced row echelon form with leftmost-pivot selection.

    Rows are max-normalised first so the pivot tolerance is scale-free.
    The input rows span a rational subspace, so the output rows approximate
    its canonical rational basis.
    """
    a = np.array(rows, dtype=float)
    if a.size == 0:
        return a
    scale = np.max(np.abs(a), axis=1, keepdims=True)
    scale[scale == 0] = 1.0
    a = a / scale
    rank = 0
    for col in range(a.shape[1]):
        if rank == a.shape[0]:
            break
        pivot = rank + int(np.argmax(np.abs(a[rank:, col])))
        if abs(a[pivot, col]) <= _RREF_TOL:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        a[rank] = a[rank] / a[rank, col]
        # the pivot row stays out: subtracting 0*x would turn -0.0 into +0.0
        others = np.arange(a.shape[0]) != rank
        a[others] -= a[others, col][:, None] * a[rank][None, :]
        rank += 1
    return a[:rank]


@dataclass(frozen=True)
class CertifiedCandidate:
    """A rationalized nullspace vector with its exactness certificate."""

    poly: MultiPoly
    certificate: str

    def to_json(self) -> dict:
        return {"poly": poly_to_dict(self.poly), "certificate": self.certificate}


@dataclass
class DiscoveryReport:
    config: dict
    basis: MonomialBasis
    nullspace: NullspaceReport
    candidates: list[CertifiedCandidate] = field(default_factory=list)

    @property
    def inconclusive(self) -> bool:
        return self.nullspace.inconclusive

    @property
    def all_certified(self) -> bool:
        return all(c.certificate != CERT_UNCERTIFIED for c in self.candidates)

    def to_json(self) -> dict:
        return {
            "config": self.config,
            "basis_size": len(self.basis),
            "nullspace": self.nullspace.to_json(),
            "candidates": [c.to_json() for c in self.candidates],
        }


def _poly_from_coeffs(basis: MonomialBasis, coeffs: Sequence[Fraction]) -> MultiPoly:
    terms = {e: c for e, c in zip(basis.exponents, coeffs) if c != 0}
    return MultiPoly(basis.arity, terms)


def _chebyshev_eval_matrix(samples: np.ndarray, basis: MonomialBasis, half: float) -> np.ndarray:
    """Evaluate products of Chebyshev polynomials in the variables rescaled
    from ``[0, 2*half]`` to ``[-1, 1]``; column j spans the same space as
    monomial j."""
    scaled = (samples - half) / half
    vander = np.polynomial.chebyshev.chebvander(scaled, basis.max_degree)
    exps = np.asarray(basis.exponents)
    cols = np.ones((samples.shape[0], len(basis)))
    for var in range(samples.shape[1]):
        cols *= vander[:, var, exps[:, var]]
    return cols


def _chebyshev_to_monomial(exponents: np.ndarray, half: float) -> np.ndarray:
    """Change-of-basis matrix B among the basis elements whose exponents
    are the rows of ``exponents``: B[m, e] is the coefficient of monomial m
    in the Chebyshev product element e of ``_chebyshev_eval_matrix`` with
    the same ``half``.  Over a whole graded basis it is triangular and
    invertible."""
    degree = int(exponents.max())
    one_d = np.zeros((degree + 1, degree + 1))
    for k in range(degree + 1):
        unit = np.zeros(k + 1)
        unit[k] = 1.0
        in_scaled = np.polynomial.chebyshev.cheb2poly(unit)
        for j, cj in enumerate(in_scaled):
            if cj == 0.0:
                continue
            for i in range(j + 1):
                one_d[i, k] += cj * math.comb(j, i) * (-half) ** (j - i) / half**j
    change = np.ones((len(exponents), len(exponents)))
    for var in range(exponents.shape[1]):
        change *= one_d[np.ix_(exponents[:, var], exponents[:, var])]
    return change


def _prefix_nullspaces(matrix, arity: int, degrees) -> dict[int, NullspaceReport]:
    """The nullspace of each column prefix: for each k of ``degrees``, in
    that order, of the first ``C(k + arity, arity)`` columns of the
    equilibrated matrix of a graded basis, the degree-k basis's matrix."""
    return {k: numeric_nullspace(matrix[:, : math.comb(k + arity, arity)], _THRESHOLD) for k in degrees}


def _null_polys(
    report: NullspaceReport, basis: MonomialBasis, norms: np.ndarray, half: float
) -> list[MultiPoly]:
    """The null vectors of one prefix of the equilibrated Chebyshev matrix
    of ``basis``, taken back to monomial coefficients, brought to reduced
    row echelon form and rationalized."""
    if report.null_dim == 0:
        return []
    width = report.null_basis.shape[1]
    change = _chebyshev_to_monomial(np.asarray(basis.exponents[:width]), half)
    rows = _rref((report.null_basis / norms[:width]) @ change.T)
    return [_poly_from_coeffs(basis, rationalize(row, _MAX_DENOMINATOR)) for row in rows]


def _lift(q: MultiPoly, parity: tuple[int, ...], power: int) -> MultiPoly:
    """``t^parity * q(t^power)``; at power 1 the only class is 0 and this is q."""
    if power == 1:
        return q
    terms = {tuple(e + power * f for e, f in zip(parity, fs)): c for fs, c in q.terms.items()}
    return MultiPoly(q.arity, terms)


def _relation_mod_quadratic(relation: MultiPoly, quadratic: MultiPoly) -> MultiPoly:
    """The quartic relation's image modulo the circumsphere quadratic, which
    has no ``T_last`` term (the relation is even in the last variable), as a
    polynomial in the other variables; a run computes it once."""
    image = divide_last_variable(relation, quadratic).remainder
    assert image.is_zero or image.degree_in(image.arity - 1) == 0
    return MultiPoly(image.arity - 1, {e[:-1]: c for e, c in image.terms.items()})


def _in_sphere_ideal(p: MultiPoly, quadratic: MultiPoly, relation_image: MultiPoly) -> bool:
    """Exact membership test for the ideal generated by the circumsphere
    quadratic and the quartic relation, given the relation's image
    ``_relation_mod_quadratic(relation, quadratic)``.

    Reducing by the quadratic (monic in the last variable) leaves
    ``A + B*T_last``; because the relation's image modulo the quadratic has
    no ``T_last`` component, membership is equivalent to it dividing both A
    and B.  Sequential division by the two generators would be sound but
    blind: after the quadratic the remainder's degree is always below the
    quartic's.
    """
    reduced = divide_last_variable(p, quadratic).remainder
    parts = (
        MultiPoly(p.arity - 1, {e[:-1]: c for e, c in reduced.terms.items() if e[-1] == k})
        for k in (0, 1)
    )
    return all(divide_last_variable(part, relation_image).remainder.is_zero for part in parts)


# The membership screen works modulo this prime.  It is 3 mod 4, so a square
# x has the square root x^((q + 1) / 4).
_SCREEN_PRIME = 2**61 - 1
_SCREEN_POINTS = 8
_SCREEN_ATTEMPTS = 1024


def _residues(coeffs: Sequence[Fraction], prime: int) -> list[int] | None:
    """Each rational reduced modulo ``prime``, or None if a denominator is
    divisible by it.  One modular inverse serves all of them: the inverse
    of the product of the denominators, unwound from the back."""
    prefix, product = [], 1
    for c in coeffs:
        prefix.append(product)
        product = product * c.denominator % prime
    if product == 0:
        return None
    inverse = pow(product, -1, prime)
    out = [0] * len(prefix)
    for i in range(len(prefix) - 1, -1, -1):
        c = coeffs[i]
        out[i] = c.numerator * inverse * prefix[i] % prime
        inverse = inverse * c.denominator % prime
    return out


def _sqrt_mod(x: int, prime: int) -> int | None:
    """A square root of x modulo a prime that is 3 mod 4, or None if x is
    not a square."""
    root = pow(x, (prime + 1) // 4, prime)
    return root if root * root % prime == x else None


def _sphere_points_mod(d: int, a2: Fraction, count: int) -> list[tuple[int, ...]]:
    """Up to ``count`` points of the circumsphere variety ``V(Q, R)`` over
    the field of ``_SCREEN_PRIME`` elements, which must be a unit for
    ``a2``.

    In ``s = t^2`` the variety is ``{sum s = d*a^2, sum s^2 = d*a^4}``.  The
    first ``d - 1`` coordinates of attempt i are drawn uniformly from the
    8-byte digest chunks of the key ``screen|i`` (see ``geom._digest_ints``);
    the last two squares then have a known sum S and sum of squares P, so
    they are ``(S +- sqrt(2P - S^2)) / 2``.  An attempt that meets a
    non-square is dropped, and at most ``_SCREEN_ATTEMPTS`` are made.
    """
    n, prime = d + 1, _SCREEN_PRIME
    a2_mod = a2.numerator * pow(a2.denominator, -1, prime) % prime
    total, total_sq = d * a2_mod % prime, d * a2_mod * a2_mod % prime
    half = (prime + 1) // 2
    points = []
    for attempt in range(_SCREEN_ATTEMPTS):
        if len(points) == count:
            break
        # 8 * prime = 2^64 - 8 is the largest multiple of the prime in 8 bytes
        free = [v % prime for v in _digest_ints(f"screen|{attempt}", n - 2, 8, 8 * prime)]
        squares = [t * t % prime for t in free]
        s = (total - sum(squares)) % prime
        p = (total_sq - sum(x * x for x in squares)) % prime
        root = _sqrt_mod((2 * p - s * s) % prime, prime)
        if root is None:
            continue
        last = [_sqrt_mod((s + sign * root) * half % prime, prime) for sign in (1, -1)]
        if None not in last:
            points.append((*free, *last))
    return points


def _sphere_screen(d: int, a2: Fraction, quadratic: MultiPoly, relation_image: MultiPoly, max_degree: int):
    """A test ``refutes(p)`` that proves p is not in the ideal (Q, R) of
    the circumsphere quadratic and the quartic, without any division, or
    returns False when it cannot tell.

    ``_in_sphere_ideal`` is a normal form made of last-variable divisions by
    Q and by the relation's image, whose leads are the constants 1 and
    ``2(d + 1)``.  When a prime q is a unit for those leads, for ``a^2`` (so
    for every coefficient of Q and of the image) and for every denominator
    of p, each division step maps to the same step modulo q.  A member p is
    then ``G*Q + H*R`` with G and H free of q in their denominators, so its
    image modulo q vanishes at every point of ``V(Q, R)`` over the field of
    q elements.  A nonzero value at one of ``_SCREEN_POINTS`` such points
    refutes p; all zeros prove nothing, and ``_in_sphere_ideal`` decides.
    If q is not a unit where it must be, or too few points turn up, nothing
    is refuted.
    """
    prime = _SCREEN_PRIME
    last = relation_image.arity - 1
    lead = relation_image.terms[(0,) * last + (relation_image.degree_in(last),)]
    denominators = [c.denominator for p in (quadratic, relation_image) for c in p.terms.values()]
    units = all(x % prime for x in (a2.numerator, a2.denominator, lead.numerator, *denominators))
    points = _sphere_points_mod(d, a2, _SCREEN_POINTS) if units else []
    if len(points) < _SCREEN_POINTS:
        return lambda p: False
    # the value of every monomial of the basis at each point
    exponents = enumerate_monomials(d + 1, max_degree).exponents
    tables = []
    for point in points:
        powers = [[pow(t, k, prime) for k in range(max_degree + 1)] for t in point]
        tables.append({e: math.prod(pw[k] for pw, k in zip(powers, e)) % prime for e in exponents})

    def refutes(p: MultiPoly) -> bool:
        coeffs = _residues(list(p.terms.values()), prime)
        if coeffs is None:
            return False
        exps = list(p.terms)
        values = (sum(map(operator.mul, coeffs, map(table.__getitem__, exps))) for table in tables)
        return any(value % prime for value in values)

    return refutes


def _certify(p: MultiPoly, generator: MultiPoly) -> str:
    if not p.is_zero and divide_last_variable(p, generator).remainder.is_zero:
        return CERT_DIVISIBLE
    return CERT_UNCERTIFIED


# a barycentric box of 3/2 keeps the distance cloud from stretching into a
# thin tube, which conditions the evaluation matrix
_DISCOVERY_BOX = Fraction(3, 2)
_DISCOVERY_SAMPLING = f"weights(box={frac_str(_DISCOVERY_BOX)})"


def _segment_branch(k: int, nums: tuple[int, ...]) -> bool:
    """Whether the d = 1 weights ``nums`` lie on branch ``k mod 3`` of the
    segment image: inside the segment (``t1 + t2 = a``), beyond vertex 1
    (``t1 - t2 = a``, a negative weight on vertex 0) or before vertex 0
    (``t2 - t1 = a``).  A curve of degree D meets a branch line in at most D
    points unless it contains it, so each branch needs D+1 samples."""
    r0, r1 = nums
    return (1 if r0 < 0 else 2 if r1 < 0 else 0) == k % 3


def _sample_squared_distances(d, edge_sq, count, seed) -> np.ndarray:
    """Squared distances of the discovery samples as floats, one row per
    sample: the exact samples of ``sample_points`` at box 3/2, except that
    for d = 1 sample k is redrawn until it lies on branch ``k mod 3`` of the
    segment image (``_segment_branch``), so the three branches share the
    samples evenly.

    Each float is the squared distance ``p*N_j / (2*q*T^2)`` divided as
    Python ints, which rounds correctly, so it equals ``float(Fraction)``
    bit for bit; one beyond the float range raises ``ValueError``.
    """
    simplex = EmbeddedSimplex(d, edge_sq)
    p, q = simplex.edge_sq.numerator, simplex.edge_sq.denominator
    config = SampleConfig(seed=seed, count=count, box=_DISCOVERY_BOX)
    try:
        return np.array([
            [p * n / (2 * q * den * den) for n in _distance_numerators(nums, den)]
            for nums, den in _weight_draws(d + 1, config, _segment_branch if d == 1 else None)
        ])
    except OverflowError:
        raise ValueError(
            "edge_sq is out of float range: a squared distance of the samples is too large for a float"
        ) from None


def _discovery_run(
    operation: str,
    d: int,
    a2: Fraction,
    max_degree: int,
    seed: int,
    sample,
    sampling: str,
    certify,
    in_squares: bool,
) -> tuple[dict, MonomialBasis, np.ndarray, NullspaceReport, list[CertifiedCandidate]]:
    """The steps all discovery runs share: check the degree, draw rows of
    ``d + 1`` float values with ``sample(count)``, the squared distances s
    if ``in_squares`` and the distances t otherwise (a set that is all 0 or
    not all finite is bad configuration: a float cannot carry the edge),
    evaluate the equilibrated Chebyshev matrix of the degree ``D // 2``
    basis in s if ``in_squares`` (else of the degree-D basis in t), and take
    the nullspace of each column prefix that a parity class needs.  Each
    RREF row becomes a polynomial q, labelled ``certify(q)`` once and lifted
    to ``t^e * q(t^2)`` for every class e (see the module docstring).

    The run draws three samples per column of its matrix.  Sample k depends
    only on the seed and k, so a larger count draws a longer prefix of the
    same stream.

    Returns the config block, the degree-D basis in t, the equilibrated
    evaluation matrix, the nullspace and the candidates sorted by pivot.
    """
    if not isinstance(max_degree, int) or max_degree < 1:
        raise ValueError("max_degree must be a positive integer")
    arity = d + 1
    basis = enumerate_monomials(arity, max_degree)
    power = 2 if in_squares else 1
    # the classes of exponents mod power that degree D allows, the zero class
    # first: in s, the supports of at most D odd exponents; in t, only zero
    supports = range(min(max_degree, arity) + 1) if in_squares else [0]
    classes = [
        tuple(int(i in odd) for i in range(arity))
        for size in supports
        for odd in itertools.combinations(range(arity), size)
    ]
    # the degree in t^power that each class allows
    degrees = [(max_degree - sum(e)) // power for e in classes]
    columns = enumerate_monomials(arity, degrees[0])
    count = 3 * len(columns)
    values = sample(count)
    if not np.all(np.isfinite(values)) or not np.any(values):
        raise ValueError(
            "degenerate sample set: the sampled values are all 0 as floats, or not all "
            "finite, so edge_sq is out of float range"
        )
    half = float(np.max(values)) / 2.0
    matrix = _chebyshev_eval_matrix(values, columns, half)
    norms = np.linalg.norm(matrix, axis=0)
    norms[norms == 0] = 1.0
    matrix /= norms
    reports = _prefix_nullspaces(matrix, arity, sorted(set(degrees), reverse=True))
    # the back-transform (_chebyshev_to_monomial) of the prefixes with null
    # vectors divides by half**k for |k| up to back: keep each a normal float
    back = max((k for k, r in reports.items() if r.null_dim), default=0)
    if back * abs(math.log2(half)) > 1022:
        raise ValueError(
            f"edge_sq is out of float range at max_degree {max_degree}: the back-transform to "
            f"monomials needs the sample scale {half:.3g} to the powers +-{back} as normal floats"
        )
    found = {
        k: [(q, certify(q)) for q in _null_polys(report, columns, norms, half)]
        for k, report in reports.items()
    }
    per_class = [reports[k] for k in degrees]
    nullspace = NullspaceReport(
        tuple(sorted((x for r in per_class for x in r.singular_values), reverse=True)),
        sum(r.null_dim for r in per_class),
        None,
        min(r.gap for r in reports.values()),
        _THRESHOLD,
    )
    lifted = (
        [CertifiedCandidate(_lift(q, e, power), c) for q, c in found[k]] for e, k in zip(classes, degrees)
    )
    # an RREF row's pivot is its lowest monomial in the graded order
    candidates = list(heapq.merge(*lifted, key=lambda c: min((sum(e), e) for e in c.poly.terms)))
    config = {
        "operation": operation,
        "d": d,
        "edge_sq": frac_str(a2),
        "max_degree": max_degree,
        "n_samples": count,
        "seed": seed,
        "threshold": _THRESHOLD,
        "max_denominator": _MAX_DENOMINATOR,
        "matrix_basis": (
            "chebyshev-equilibrated(squared-distances)" if in_squares else "chebyshev-equilibrated"
        ),
        "sampling": sampling,
    }
    return config, basis, matrix, nullspace, candidates


def discover_vanishing(
    d: int,
    edge_sq,
    max_degree: int,
    seed: int = 0,
) -> DiscoveryReport:
    """Full discovery pipeline over the whole ambient space.

    For d >= 2 certification divides by the quartic relation, in the
    squared distances; in the segment case d = 1 the relation is not the
    generator and division is by the cubic segment generator instead, which
    requires the edge length (the exact square root of ``edge_sq``) to be
    rational.
    """
    if not isinstance(d, int) or d < 1:
        raise ValueError("dimension must be a positive integer")
    a2 = as_fraction(edge_sq)
    if d == 1:
        edge = rational_sqrt(a2)
        if edge is None:
            raise ValueError(
                "in dimension 1 certification needs a rational edge length: "
                f"edge_sq={a2} is not a perfect rational square"
            )
        generator = segment_generator(edge)
    else:
        # every exponent of the quartic is even: this is R(s) with R(t^2) the quartic
        terms = distance_relation(d, a2).terms.items()
        generator = MultiPoly(d + 1, {tuple(x // 2 for x in e): c for e, c in terms})

    def sample(count):
        squares = _sample_squared_distances(d, a2, count, seed)
        # the segment cubic mixes parities, so d = 1 stays in t
        return squares if d >= 2 else np.sqrt(squares)

    config, basis, _, report, candidates = _discovery_run(
        "discover", d, a2, max_degree, seed,
        sample=sample,
        sampling=_DISCOVERY_SAMPLING,
        certify=lambda q: _certify(q, generator),
        in_squares=d >= 2,
    )
    return DiscoveryReport(config=config, basis=basis, nullspace=report, candidates=candidates)


@dataclass(frozen=True)
class IndependenceReport:
    """The proof that the distances to a vertex subset satisfy no
    polynomial relation (see ``independence_test``): its certificate is the
    Gram determinant ``gram_det`` of the subset's weight vectors."""

    config: dict
    gram_det: Fraction
    verdict = "no-relation-found"
    certificate = CERT_JACOBIAN_RANK

    def to_json(self) -> dict:
        return {
            "config": self.config,
            "verdict": self.verdict,
            "certificate": self.certificate,
            "gram_det": frac_str(self.gram_det),
        }


def independence_test(d: int, edge_sq, subset: Sequence[int]) -> IndependenceReport:
    """Prove that the distances to a subset S of k <= d of the d+1 vertices
    (labels 1..d+1) satisfy no nonzero polynomial relation, of any degree.

    Proof.  At the centroid c every distance ``t_j = |c - v_j|`` is the
    circumradius, which is positive, so each t_j is smooth near c with
    gradient ``(c - v_j) / t_j``, and ``t_j^2`` has gradient ``2(c - v_j)``.
    The d+1 vectors ``c - v_j`` sum to 0 and span d-space, so their linear
    relations are the multiples of ``(1, ..., 1)``, and none is supported on
    k <= d of them: the k gradients of ``t_S`` are independent.  So the map
    ``x -> t_S(x)`` has rank k at c, it is a submersion near c, and its image
    contains an open set of R^k.  A polynomial that vanishes on an open set
    is zero.

    The certificate is exact.  In barycentric weights the vectors
    ``c - e_j`` have the Gram matrix ``I - J/(d+1)`` (``c = (1, ..., 1) /
    (d+1)``), whose k-by-k minor has the determinant ``(d+1-k) / (d+1) > 0``.
    Weight differences map to space with the inner product scaled by
    ``a^2 / 2``, so the gradients ``2(c - v_j)`` have the Gram determinant
    ``(2a^2)^k (d+1-k) / (d+1)``.

    Subsets of all d+1 vertices are rejected: the full tuple always
    satisfies the quartic relation.
    """
    simplex = EmbeddedSimplex(d, edge_sq)
    labels = sorted(set(int(j) for j in subset))
    if len(labels) != len(list(subset)):
        raise ValueError("subset labels must be distinct")
    if not labels:
        raise ValueError("subset must be non-empty")
    if any(j < 1 or j > d + 1 for j in labels):
        raise ValueError(f"vertex labels must lie in 1..{d + 1}")
    if len(labels) > d:
        raise ValueError(
            f"subset of size {len(labels)} exceeds d = {d}: the full set of distances "
            "always satisfies the quartic relation"
        )
    config = {"operation": "independence", "d": d, "edge_sq": frac_str(simplex.edge_sq), "subset": labels}
    return IndependenceReport(config=config, gram_det=Fraction(d + 1 - len(labels), d + 1))


@dataclass
class SphereDiscoveryReport:
    """Vanishing polynomials of the distance map restricted to the
    circumsphere, with null dimension tracked per degree.

    ``certified`` members lie in the ideal generated by the circumsphere
    quadratic and the quartic relation; ``extras`` are candidates that
    certify against neither, reported as evidence only.
    """

    config: dict
    null_dim_by_degree: dict[int, int]
    nullspace: NullspaceReport
    certified: list[CertifiedCandidate]
    extras: list[CertifiedCandidate]

    @property
    def inconclusive(self) -> bool:
        return self.nullspace.inconclusive

    def to_json(self) -> dict:
        return {
            "config": self.config,
            "null_dim_by_degree": {str(k): v for k, v in self.null_dim_by_degree.items()},
            "nullspace": self.nullspace.to_json(),
            "certified": [c.to_json() for c in self.certified],
            "extras": [c.to_json() for c in self.extras],
        }


def discover_on_sphere(
    d: int,
    edge_sq,
    max_degree: int,
    seed: int = 0,
) -> SphereDiscoveryReport:
    """Discovery pipeline with samples restricted to the circumsphere.

    Certification reduces by the circumsphere quadratic (monic in the last
    squared variable) and then tests the remainder against the quartic
    relation's image modulo the quadratic, an exact and complete membership
    test for the ideal the two generate; whatever fails it is reported as
    an extra.
    """
    if not isinstance(d, int) or d < 2:
        raise ValueError("circumsphere discovery needs dimension >= 2")
    a2 = as_fraction(edge_sq)
    if a2 <= 0:
        raise ValueError("squared edge length must be positive")

    def sample(count):
        return sample_circumsphere(EmbeddedSimplex(d, a2), SampleConfig(seed=seed, count=count))

    quadratic = circumsphere_quadratic(d, a2)
    relation_image = _relation_mod_quadratic(distance_relation(d, a2), quadratic)

    refutes = _sphere_screen(d, a2, quadratic, relation_image, max_degree)

    def certify(p):
        member = not p.is_zero and not refutes(p) and _in_sphere_ideal(p, quadratic, relation_image)
        return CERT_SPHERE_IDEAL if member else CERT_UNCERTIFIED

    config, _, matrix, report, candidates = _discovery_run(
        "sphere", d, a2, max_degree, seed,
        sample=sample,
        sampling="circumsphere(gaussian-direction)",
        certify=certify,
        # the Pompeiu cubic mixes parities, so sphere runs stay in t
        in_squares=False,
    )
    certified = [c for c in candidates if c.certificate == CERT_SPHERE_IDEAL]
    extras = [c for c in candidates if c.certificate == CERT_UNCERTIFIED]
    # lower degrees need only the null dimension
    lower = _prefix_nullspaces(matrix, d + 1, range(1, max_degree))
    null_by_degree = {k: r.null_dim for k, r in lower.items()}
    null_by_degree[max_degree] = report.null_dim
    return SphereDiscoveryReport(
        config=config,
        null_dim_by_degree=null_by_degree,
        nullspace=report,
        certified=certified,
        extras=extras,
    )
