"""Discovery of vanishing polynomials of the distance map from samples.

Every run evaluates a degree-bounded monomial basis at sampled points (rows:
samples, columns: basis elements), finds the polynomials that vanish on
the samples, and certifies each exactly, with one certificate per ideal:
exact division by the generator of the vanishing ideal (the quartic
relation for d >= 2, the segment cubic for d = 1) in ``discover_vanishing``,
which forms no float, and membership in the ideal of the circumsphere
quadratic and the quartic (``_in_sphere_ideal``) in ``discover_on_sphere``.

**d >= 2: exact, modulo primes.**  The quartic has only even powers of the
distances, so it is a quadric ``R(s)`` in ``s = t^2``.  Its ideal is
invariant under every flip ``t_j -> -t_j``, so it is the direct sum of its
parts in each exponent-parity class e, whose members are ``t^e * q(t^2)``;
degree D allows only the classes with at most D odd exponents, not all
``2^(d+1)`` of them.  Away from zero distances such a member vanishes where
q vanishes at the squares, so the class-e part of the vanishing space is
``t^e`` times the vanishing space of degree ``(D - |e|) // 2`` in s, the
nullspace of a column prefix of one matrix in s of degree ``D // 2``.

The quartic is homogeneous in ``(a, t)``, so ``R_{a^2}(s) = a^4 *
R_1(s/a^2)``, and the run works in ``u = s/a^2``: an exact sample has
``u_j = N_j / (2*T^2)`` with integers ``N_j`` and T, whatever the edge.  The
run reduces the matrix in u modulo a word prime P (``simplexdist.modular``)
and eliminates it once; the nullspace of the prefix of degree k is spanned
by the null vectors of the free columns below ``C(k + n, n)``, and each
prefix's nullspace is brought to its leftmost-pivot echelon form modulo P.
Rational reconstruction lifts each row, and exact division by ``R_1(u)``
certifies it.  Rows that fail either step call for another prime, joined by
CRT, up to ``_MAX_PRIMES``.  A certified row ``g(u)`` gives ``g(s/a^2)``,
divisible by ``R_{a^2}(s)``; scaled so that its pivot is 1 it is a row of
the reduced echelon form in s, which is unique.  Classes have disjoint
columns and ``f -> e + 2f`` keeps the graded order, so the lifted rows
sorted by pivot are the reduced echelon form of the whole space.

**d = 1: exact, in one class.**  The segment cubic ``G_a(t)`` generates
the vanishing ideal and mixes parities, so the run has the one class of
degree D in t.  As ``G_a(t) = a^3 * G_1(t/a)``, it works in ``v = t/a``,
``v = (|r_1|, |r_0|)/T`` for weights ``(r_0, r_1)/T``, with sample k redrawn
onto branch ``k mod 3`` of the segment (``_segment_branch``).  The rest is
the run of d >= 2, with ``G_1(v)``, cubic and monic in the last variable, as
the divisor, and rows scaled by powers of the edge a, which must be rational.

The report proves completeness: a prefix with ``c`` certified rows out of a
nullspace of dimension ``corank_P`` modulo P satisfies ``c <= dim V <=
corank_Q <= corank_P``, where V is its vanishing space and ``corank_Q`` the
dimension of the nullspace over the rationals, so ``c = corank_P`` on every
prefix means that the candidates span the whole vanishing space.

**The circumsphere: numeric, then exact.**  Sphere runs stay in t: the
Pompeiu cubic on the circumsphere mixes parities, so the ideal does not
split.  They evaluate the degree-D basis at the distances t of points
taken from weights on the circumsphere, take the numeric nullspace of the
column-equilibrated matrix by SVD, recording the full singular spectrum and
the gap at the cut, map the nullspace basis back to monomial coefficients,
bring it to reduced row echelon form, and reconstruct exact rational
coefficients by continued fractions.

Raw monomials make dreadful numerics at degree 6 (their Gram matrices are
Hilbert-like), so internally these runs evaluate Chebyshev products in the
variables scaled from ``[0, max]`` to ``[-1, 1]``, which span the same
polynomial space; the basis change back to monomial coordinates happens
before any rationalization.  It divides by powers of the scale up to the
degree, so a run whose scale has such a power outside the normal floats is
bad configuration.  A singular-value gap under 10 marks the run
inconclusive.  The basis is graded, so its degree <= k part is its first
``C(k + n, n)`` monomials; each Chebyshev column depends only on its
exponent and on the scale, and each column is normalised on its own, so
those first columns of the equilibrated degree-D matrix are exactly the
degree-k one.  Sphere runs read the null dimension at every degree below D
from these prefixes.

Most sphere candidates are not members, so a screen refutes them first
without any division (``_sphere_screen``): a member's image modulo the
prime ``q = 2^61 - 1`` vanishes on the circumsphere variety over the field
of q elements, so a nonzero value at one of eight points of it, drawn from
fixed digests, proves non-membership.  This is sound when q is a unit for
``a^2``, for the constant leads of the two divisors and for every
denominator of the candidate, since then the exact normal form reduces
modulo q step by step; otherwise, and for every candidate that the screen
does not refute, the exact division decides.

In every run, candidates that fail certification are reported as
uncertified, never silently dropped.
"""

from __future__ import annotations

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
    _weight_rows,
    sample_circumsphere,
)
from .modular import (
    ResidueImage,
    _residues,
    _sqrt_mod,
    nullspace_mod,
    rational_reconstruction,
    rref_mod,
    word_primes,
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

    graded: dict[tuple[int, int], list[tuple[int, ...]]] = {}

    def of_degree(nvars: int, degree: int) -> list[tuple[int, ...]]:
        """The exponent vectors of nvars variables and total degree exactly
        ``degree``, lexicographically ascending."""
        if (nvars, degree) not in graded:
            graded[nvars, degree] = [(degree,)] if nvars == 1 else [
                (e, *rest) for e in range(degree + 1) for rest in of_degree(nvars - 1, degree - e)
            ]
        return graded[nvars, degree]

    exps = [e for k in range(max_degree + 1) for e in of_degree(arity, k)]
    assert len(exps) == math.comb(max_degree + arity, arity)
    return MonomialBasis(arity, max_degree, tuple(exps))


@dataclass(frozen=True)
class NullspaceReport:
    """Numeric nullspace with its singular spectrum and decision gap.

    ``gap`` measures how decisively the spectrum separates at the cut:
    smallest kept singular value over largest discarded one when the
    nullspace is non-trivial, and smallest singular value over the absolute
    threshold when it is empty.  The nullspace in a run's report keeps no
    ``null_basis``.  ``inconclusive`` flags gaps under 10.
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
    nullspace: ExactNullspace
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


# the barycentric box of the discovery samples: 3/2 keeps the distance cloud,
# and so the integers of the exact runs, small
_DISCOVERY_BOX = Fraction(3, 2)
_DISCOVERY_SAMPLING = f"weights(box={frac_str(_DISCOVERY_BOX)})"


def _segment_branch(ks: np.ndarray, nums: np.ndarray) -> np.ndarray:
    """Which rows of d = 1 weights ``nums`` lie on branch ``k mod 3`` of the
    segment image, for the sample numbers ``ks``: inside the segment
    (``t1 + t2 = a``), beyond vertex 1 (``t1 - t2 = a``, a negative weight
    on vertex 0) or before vertex 0 (``t2 - t1 = a``).  A curve of degree D
    meets a branch line in at most D points unless it contains it, so each
    branch needs D+1 samples."""
    branch = np.where(nums[:, 0] < 0, 1, np.where(nums[:, 1] < 0, 2, 0))
    return branch == ks % 3


def _check_degree(max_degree) -> None:
    if not isinstance(max_degree, int) or max_degree < 1:
        raise ValueError("max_degree must be a positive integer")


# samples beyond the columns of a run's matrix (in u = s/a^2, or in v = t/a
# at d = 1): a square part has the rank of the whole map for almost every
# draw, and the extra rows spare a run from the draws where it has not; at
# d = 1 they also give each of the three branches more than D samples
_EXTRA_SAMPLES = 8
# primes a run tries before it reports itself incomplete
_MAX_PRIMES = 16
_SQUARES_BASIS = "monomial-mod-p(s/edge_sq)"
_SEGMENT_BASIS = "monomial-mod-p(t/edge)"


@dataclass(frozen=True)
class ExactNullspace:
    """The vanishing space of a run, by prefix degree k of its matrix in
    ``u = s/a^2`` (in ``v = t/a`` at d = 1, whose one prefix is D):
    ``corank[k]`` is the dimension of the nullspace of the prefix modulo the
    ``primes`` used, and ``ideal_dim[k]`` the number of its echelon rows
    certified in the ideal.  ``null_dim`` is the dimension in t, the corank
    summed over the parity classes.  The run is ``complete`` when every
    prefix certifies its whole corank, which proves that the candidates span
    the vanishing space (see the module docstring); ``inconclusive`` is its
    negation, the flag every discovery report carries."""

    null_dim: int
    corank: dict[int, int]
    ideal_dim: dict[int, int]
    primes: tuple[int, ...]

    @property
    def complete(self) -> bool:
        return self.ideal_dim == self.corank

    @property
    def inconclusive(self) -> bool:
        return not self.complete

    def to_json(self) -> dict:
        return {
            "null_dim": self.null_dim,
            "corank": {str(k): v for k, v in self.corank.items()},
            "ideal_dim": {str(k): v for k, v in self.ideal_dim.items()},
            "primes": list(self.primes),
            "complete": self.complete,
            "inconclusive": self.inconclusive,
        }


def _null_forms(numerators, scales, exponents: np.ndarray, widths: dict[int, int], prime: int) -> dict:
    """For each prefix degree k of ``widths``, the leftmost-pivot echelon
    form modulo ``prime`` of the nullspace of the first ``widths[k]``
    columns of the matrix of the monomials ``exponents`` at the points
    ``u_j = numerators[j] / scales`` (one row per sample): its pivots and
    its rows as int residues."""
    u = np.array(
        [[x * pow(s, -1, prime) % prime for x in row] for row, s in zip(numerators, scales)],
        dtype=np.int64,
    )
    top = int(exponents.max())
    powers = np.ones((*u.shape, top + 1), dtype=np.int64)
    for k in range(1, top + 1):
        powers[:, :, k] = powers[:, :, k - 1] * u % prime
    matrix = np.ones((u.shape[0], len(exponents)), dtype=np.int64)
    for var in range(u.shape[1]):
        matrix = matrix * powers[:, var, exponents[:, var]] % prime
    rref, pivots = rref_mod(matrix, prime)
    forms = {}
    for k, width in widths.items():
        rows, null_pivots = rref_mod(nullspace_mod(rref, pivots, width, prime), prime)
        forms[k] = (null_pivots, rows.tolist())
    return forms


def _reconstruct(row: Sequence[int], modulus: int) -> dict[int, Fraction] | None:
    """The nonzero entries, by column, of the rational row whose residues
    modulo ``modulus`` are ``row``, or None if an entry has no rational
    reconstruction.  The entries of a row share few denominators, so each
    first tries the last one found: if ``x*den`` modulo ``modulus`` lies
    within the bound B of ``rational_reconstruction``, it is the numerator,
    since two fractions with terms up to B that agree modulo ``modulus`` are
    equal (``2*B^2 < modulus``)."""
    bound = math.isqrt(modulus // 2)
    entries, den = {}, 1
    for j, x in enumerate(row):
        if not x:
            continue
        y = x * den % modulus
        if y > bound:
            y -= modulus
        if y >= -bound:
            entries[j] = Fraction(y, den)
            continue
        c = rational_reconstruction(x, modulus)
        if c is None:
            return None
        entries[j], den = c, c.denominator
    return entries


def _divisible(entries: dict[int, Fraction], codes: Sequence[int], rest, lead: int, high: int, m: int) -> bool:
    """Whether the polynomial with ``entries`` on the monomials of packed
    exponents ``codes`` is a multiple of ``lead * x^m + rest``, where x, the
    last variable, has the weight ``high`` in a packed exponent and ``rest``
    lists the packed exponents and integer coefficients of the other terms,
    all of degree below m in x.

    Integer pseudo-division: scaled by its common denominator and by
    ``lead^(top - m + 1)``, with top its degree in x, the polynomial has an
    integer quotient and remainder, and every quotient term comes out exact.
    No term of ``rest`` reaches the level of x being cleared, so each level
    is cleared in one pass."""
    top = max(codes[j] // high for j in entries)
    common = math.lcm(*(c.denominator for c in entries.values()))
    scale = common * lead ** max(top - m + 1, 0)
    remainder = {codes[j]: c.numerator * (scale // c.denominator) for j, c in entries.items()}
    for level in range(top, m - 1, -1):
        for code in [code for code in remainder if code // high == level]:
            quotient, inexact = divmod(remainder.pop(code), lead)
            if inexact:
                return False
            shift = code - m * high
            for rc, rv in rest:
                key = shift + rc
                value = remainder.get(key, 0) - quotient * rv
                if value:
                    remainder[key] = value
                else:
                    del remainder[key]
    return not remainder


def _discover_exact(d: int, a2: Fraction, max_degree: int, seed: int) -> DiscoveryReport:
    """``discover_vanishing``, exactly: see the module docstring."""
    n = d + 1
    basis = enumerate_monomials(n, max_degree)
    top = max_degree if d == 1 else max_degree // 2
    columns = enumerate_monomials(n, top).exponents
    count = len(columns) + _EXTRA_SAMPLES
    config = SampleConfig(seed=seed, count=count, box=_DISCOVERY_BOX)
    if d == 1:
        # the segment cubic mixes parities: one class, of degree D in v =
        # t/a; sample k lies on branch k mod 3, at t0 = a|w1| and t1 = a|w0|
        classes, degrees, step, unit = [(0, 0)], [top], 1, rational_sqrt(a2)
        generator, m = segment_generator(1).terms, 3
        draws = _weight_rows(n, config, _segment_branch)
        numerators = [(abs(r1), abs(r0)) for (r0, r1), _ in draws]
        scales = [den for _, den in draws]
    else:
        # the supports of at most D odd exponents, and the degree in s of each
        classes = [
            tuple(int(i in odd) for i in range(n))
            for size in range(min(max_degree, n) + 1)
            for odd in itertools.combinations(range(n), size)
        ]
        degrees = [(max_degree - sum(e)) // 2 for e in classes]
        step, unit, m = 2, a2, 2
        generator = {tuple(x // 2 for x in e): c for e, c in distance_relation(d, 1).terms.items()}
        draws = _weight_rows(n, config)
        numerators = [_distance_numerators(nums, den) for nums, den in draws]
        scales = [2 * den * den for _, den in draws]
    widths = {k: math.comb(k + n, n) for k in sorted(set(degrees))}
    # the generator at unit edge, R_1(u) or the segment cubic in v, with
    # each exponent packed into one int, base top + 1 (no product in the
    # prefixes has a larger exponent), the last variable most significant
    base = top + 1
    high = base ** (n - 1)

    def pack(f):
        return sum(x * base**i for i, x in enumerate(f))

    codes = [pack(f) for f in columns]
    divisor = {pack(f): int(c) for f, c in generator.items()}
    lead = divisor.pop(m * high)
    rest = list(divisor.items())
    exponents = np.asarray(columns)

    # a prime must be a unit for every scale; no word prime divides one
    primes = (p for p in word_primes() if all(s % p for s in scales))
    image = None
    for prime in itertools.islice(primes, _MAX_PRIMES):
        forms = _null_forms(numerators, scales, exponents, widths, prime)
        if image is None:
            image = ResidueImage(prime, (prime,), forms)
        else:
            joined = image.fold(prime, forms)
            if joined is image:  # an unlucky prime
                continue
            image = joined
        found = {}
        for k, (pivots, residues) in image.forms.items():
            found[k] = []
            for pivot, row in zip(pivots, residues):
                entries = _reconstruct(row, image.modulus)
                certified = entries is not None and _divisible(entries, codes, rest, lead, high, m)
                found[k].append((pivot, entries, certified))
        if all(certified for prefix in found.values() for _, _, certified in prefix):
            break

    # the row g(x) of pivot f0, x = u or v, gives c^|f0| * g(t^step / c)
    # with c = a^step, whose pivot is 1; a row with no rational
    # reconstruction has nothing to report
    inverse = [unit**-k for k in range(top + 1)]
    at_edge = {k: [] for k in found}
    for k, prefix in found.items():
        for pivot, entries, certified in prefix:
            if entries is None:
                continue
            if unit != 1:
                shift = sum(columns[pivot])
                entries = {j: c * inverse[sum(columns[j]) - shift] for j, c in entries.items()}
            at_edge[k].append((pivot, entries, certified))
    in_t = [tuple(step * x for x in f) for f in columns]
    lifted = []
    for e, k in zip(classes, degrees):
        for pivot, entries, certified in at_edge[k]:
            terms = {tuple(map(operator.add, e, in_t[j])): c for j, c in entries.items()}
            lead_exponent = tuple(map(operator.add, e, in_t[pivot]))
            candidate = CertifiedCandidate(
                MultiPoly._canonical(n, terms), CERT_DIVISIBLE if certified else CERT_UNCERTIFIED
            )
            lifted.append(((sum(lead_exponent), lead_exponent), candidate))
    lifted.sort(key=lambda item: item[0])
    nullspace = ExactNullspace(
        null_dim=sum(len(image.forms[k][0]) for k in degrees),
        corank={k: len(image.forms[k][0]) for k in widths},
        ideal_dim={k: sum(certified for _, _, certified in found[k]) for k in widths},
        primes=image.primes,
    )
    config = {
        "operation": "discover",
        "d": d,
        "edge_sq": frac_str(a2),
        "max_degree": max_degree,
        "n_samples": count,
        "seed": seed,
        "matrix_basis": _SEGMENT_BASIS if d == 1 else _SQUARES_BASIS,
        "sampling": _DISCOVERY_SAMPLING,
    }
    return DiscoveryReport(config, basis, nullspace, [c for _, c in lifted])


def discover_vanishing(
    d: int,
    edge_sq,
    max_degree: int,
    seed: int = 0,
) -> DiscoveryReport:
    """Full discovery pipeline over the whole ambient space, exact at every
    d.  Certification divides by the generator of the vanishing ideal: the
    quartic relation for d >= 2 and, in the segment case d = 1, where the
    relation is not the generator, the cubic segment generator, which
    requires the edge length (the exact square root of ``edge_sq``) to be
    rational.
    """
    if not isinstance(d, int) or d < 1:
        raise ValueError("dimension must be a positive integer")
    a2 = as_fraction(edge_sq)
    if d >= 2:
        EmbeddedSimplex(d, a2)
    else:
        edge = rational_sqrt(a2)
        if edge is None:
            raise ValueError(
                "in dimension 1 certification needs a rational edge length: "
                f"edge_sq={a2} is not a perfect rational square"
            )
        if edge == 0:
            raise ValueError("edge length must be positive, got 0")
    _check_degree(max_degree)
    return _discover_exact(d, a2, max_degree, seed)


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

    quadratic = circumsphere_quadratic(d, a2)
    relation_image = _relation_mod_quadratic(distance_relation(d, a2), quadratic)
    refutes = _sphere_screen(d, a2, quadratic, relation_image, max_degree)
    _check_degree(max_degree)

    # three samples per column; sample k depends only on the seed and k, so
    # a larger count draws a longer prefix of the same stream
    basis = enumerate_monomials(d + 1, max_degree)
    count = 3 * len(basis)
    values = sample_circumsphere(EmbeddedSimplex(d, a2), SampleConfig(seed=seed, count=count))
    if not np.all(np.isfinite(values)) or not np.any(values):
        raise ValueError(
            "degenerate sample set: the sampled values are all 0 as floats, or not all "
            "finite, so edge_sq is out of float range"
        )
    half = float(np.max(values)) / 2.0
    matrix = _chebyshev_eval_matrix(values, basis, half)
    norms = np.linalg.norm(matrix, axis=0)
    norms[norms == 0] = 1.0
    matrix /= norms
    report = numeric_nullspace(matrix, _THRESHOLD)
    # the back-transform (_chebyshev_to_monomial) divides by half**k for k up
    # to the degree: keep each a normal float
    if report.null_dim and max_degree * abs(math.log2(half)) > 1022:
        raise ValueError(
            f"edge_sq is out of float range at max_degree {max_degree}: the back-transform to "
            f"monomials needs the sample scale {half:.3g} to the powers +-{max_degree} as normal floats"
        )
    certified, extras = [], []
    for p in _null_polys(report, basis, norms, half):
        if not p.is_zero and not refutes(p) and _in_sphere_ideal(p, quadratic, relation_image):
            certified.append(CertifiedCandidate(p, CERT_SPHERE_IDEAL))
        else:
            extras.append(CertifiedCandidate(p, CERT_UNCERTIFIED))
    # lower degrees need only the null dimension
    lower = _prefix_nullspaces(matrix, d + 1, range(1, max_degree))
    null_by_degree = {k: r.null_dim for k, r in lower.items()}
    null_by_degree[max_degree] = report.null_dim
    config = {
        "operation": "sphere",
        "d": d,
        "edge_sq": frac_str(a2),
        "max_degree": max_degree,
        "n_samples": count,
        "seed": seed,
        "threshold": _THRESHOLD,
        "max_denominator": _MAX_DENOMINATOR,
        "matrix_basis": "chebyshev-equilibrated",
        "sampling": "circumsphere(gaussian-direction)",
    }
    return SphereDiscoveryReport(
        config=config,
        null_dim_by_degree=null_by_degree,
        nullspace=NullspaceReport(report.singular_values, report.null_dim, None, report.gap, _THRESHOLD),
        certified=certified,
        extras=extras,
    )
