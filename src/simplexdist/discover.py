"""Discovery of vanishing polynomials of the distance map from samples.

Every run evaluates a monomial basis at exact sample points, finds the
polynomials that vanish on them modulo word primes, lifts them to the
rationals and certifies each exactly; no run forms a float.  One path
(``_exact_run``) sets up and runs the four run kinds, ``discover`` at d = 1
and d >= 2 and ``sphere`` at d = 2 and d >= 3.  A kind supplies its step,
its sample points, the generators of its certificate, the label of a
certified row and the name of its sampling; the step decides the rest.
Step 2 means columns in ``u = s/a^2``, of degree ``D // 2``, split by
parity; step 1 means columns in ``v = t/a``, of degree D, in one class.
The columns fix the sample count, and the step the basis name and the
rescale to the edge.  Every certificate is membership in
the ideal of the image (``_membership``): the row, scaled to integers, is
pseudo-divided by the generators in turn and certified when nothing is
left.  Candidates that fail certification are reported as uncertified,
never dropped.

**d >= 2: split by parity, in u.**  The quartic relation has only even
powers of the distances, so it is a quadric ``R(s)`` in ``s = t^2``, and its
ideal is the direct sum of its parts in each exponent-parity class e, whose
members are ``t^e * q(t^2)``; degree D allows the classes with at most D odd
exponents.  The class-e part of the vanishing space is ``t^e`` times the
vanishing space of degree ``(D - |e|) // 2`` in s, the nullspace of a column
prefix of one matrix in s of degree ``D // 2``.  As ``R_{a^2}(s) = a^4 *
R_1(s/a^2)``, the run works in ``u = s/a^2``, where a sample is ``u_j = N_j /
(2*T^2)`` in integers.  It eliminates the matrix once modulo a prime P
(``simplexdist.modular``): the null vectors of the free columns below ``C(k
+ n, n)`` span the nullspace of the prefix of degree k, and each prefix's
nullspace is brought to its leftmost-pivot echelon form by a second
elimination, of its own basis or of the prefix's row space with the columns
reversed, whichever has fewer rows (``nullspace_side``).  Rational
reconstruction lifts each row and exact division by ``R_1(u)`` certifies it;
rows that fail call for another prime, joined by CRT, up to
``_MAX_PRIMES``.  A certified row ``g(u)`` gives ``g(s/a^2)``, which scaled to
pivot 1 is a row of the unique reduced echelon form in s; classes have
disjoint columns and ``f -> e + 2f`` keeps the graded order, so the lifted
rows sorted by pivot are the reduced echelon form of the whole space.

**d = 1: one class, in v = t/a.**  The segment cubic ``G_a(t) = a^3 *
G_1(t/a)`` generates the vanishing ideal and mixes parities, so the run has
one class of degree D in ``v = (|r_1|, |r_0|)/T`` for weights ``(r_0,
r_1)/T``, sample k redrawn onto branch ``k mod 3`` of the segment
(``_segment_branch``), and divides by ``G_1(v)``; the edge must be rational.

The report proves completeness: a prefix with c certified rows out of a
nullspace of dimension ``corank_P`` modulo P has ``c <= dim V <= corank_Q <=
corank_P``, for V its vanishing space and ``corank_Q`` the dimension over the
rationals, so ``c = corank_P`` on every prefix means that the candidates span
the whole vanishing space.

**The circumsphere, d >= 3: chords, in u.**  There ``u_j = 1 - w_j`` for
weights with ``sum w = sum w^2 = 1``, so the image is ``V(Q_u, S_u)``, ``Q_u =
sum u - d``, ``S_u = sum u^2 - d``.  Sample k is the second point where the
line through vertex ``i = k mod n`` and the k-th box-3/2 draw meets the
sphere (``_chord``), redrawn when a nonempty subset product of the ``u_j``
is a rational square, 0 included (``_square_free``).  At the points kept the
square roots of those products are linearly independent over the rationals
(Besicovitch, "On the linear independence of fractional powers of
integers", J. London Math. Soc., 1940), so the parity split of d >= 2 holds:
its classes, its columns and ``dim V_D <= sum_e corank``.  A row is certified
by membership in ``(Q_u, S_u)``: dividing by ``Q_u`` (``u_last = d - sum
others``) must leave a multiple of the image of ``S_u``, whose lead in
``u_{n-2}`` is 2.  ``u = t^2/a^2`` maps ``(Q_u, S_u)`` into the ideal (Q, R) of
the circumsphere quadratic and the quartic (``verify_circumsphere_identity``).

**The circumcircle, d = 2: the Ptolemy conics, in v = t/a.**  One distance
is the sum of the other two (Ptolemy), so the image is three conics ``{v_i =
v_j + v_l, sum v^2 = 2}``, on which the Pompeiu cubic vanishes outside (Q,
R).  Sample k lies on conic ``i = k mod 3`` (``_conic_points``).  The curve is
symmetric under ``v -> -v``, so its ideal is graded by the parity of the
total degree: the run has one class, every monomial of degree <= D, and its
rows rescale to t by powers of ``a^2``.  A row is certified by membership
in the ideal of each conic.  A conic is irreducible, so its ideal is
generated by its line solved for ``v_2``, ``v_2 - x``, and the circle at
``v_2 = x``, whose lead in ``v_1`` is 2.  That pair is a lex Groebner basis,
so a row vanishes on the image exactly when its remainder by each of the
three pairs is 0 (Cox, Little & O'Shea, "Ideals, Varieties, and
Algorithms", ch. 2).  The circle ``sum v^2 - 2`` lies in all three ideals,
and the remainder by it is taken once, before the three branches.

``enumerate_monomials`` gives the columns of every run, as the graded-lex
tuple of exponent vectors.  ``numeric_nullspace`` (an SVD with a
singular-value cutoff) and ``rationalize`` (``Fraction.limit_denominator``
per entry) are library functions that no run calls.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .geom import EmbeddedSimplex, SampleConfig, _distance_numerators, _weight_rows
from .modular import ResidueImage, nullspace_side, rational_reconstruction, rref_mod, word_primes
# bound but not called: bench/tracing.py patches a hooked function in every
# module that binds it, and bench/test_bench.py checks this binding
from .geom import sample_points  # noqa: F401
from .poly import MultiPoly, _poly_doc, distance_relation, segment_generator
from .rationals import frac_str, rational_sqrt

CERT_DIVISIBLE = "divisible-by-relation"
CERT_SPHERE_IDEAL = "in-circumsphere-ideal"
CERT_CIRCUMCIRCLE = "in-circumcircle-ideal"
CERT_UNCERTIFIED = "uncertified"
CERT_JACOBIAN_RANK = "jacobian-rank"

# the defaults of numeric_nullspace and rationalize: a spectral gap below
# _GAP_FLOOR flags a nullspace as inconclusive
_GAP_FLOOR = 10.0
_THRESHOLD = 1e-8
_MAX_DENOMINATOR = 10**6


def enumerate_monomials(arity: int, max_degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors of total degree <= max_degree, graded-lex
    ascending (constant monomial first)."""
    if not isinstance(arity, int) or arity < 1:
        raise ValueError("arity must be a positive integer")
    if not isinstance(max_degree, int) or max_degree < 0:
        raise ValueError("max_degree must be a non-negative integer")

    # combinations_with_replacement gives the exponents of each degree
    # lexicographically descending
    return tuple(
        tuple(map(combo.count, range(arity)))
        for k in range(max_degree + 1)
        for combo in reversed(list(itertools.combinations_with_replacement(range(arity), k)))
    )


class NullspaceReport:
    """Numeric nullspace with its singular spectrum and decision gap.

    ``gap`` measures how decisively the spectrum separates at the cut:
    smallest kept singular value over largest discarded one when the
    nullspace is non-trivial, and smallest singular value over the absolute
    threshold when it is empty.  ``inconclusive`` flags gaps under 10.
    """

    __slots__ = ("singular_values", "null_dim", "null_basis", "gap")

    def __init__(
        self, singular_values: tuple[float, ...], null_dim: int, null_basis: np.ndarray | None, gap: float
    ):
        self.singular_values = singular_values
        self.null_dim = null_dim
        self.null_basis = null_basis
        self.gap = gap

    @property
    def inconclusive(self) -> bool:
        return self.gap < _GAP_FLOOR


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
        return NullspaceReport(tuple(sigmas), m, vh.copy(), math.inf)
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
    return NullspaceReport(tuple(float(s) for s in sigmas), k, basis, float(gap))


def rationalize(vector: Sequence[float], max_denominator: int = _MAX_DENOMINATOR) -> tuple[Fraction, ...]:
    """``Fraction(x).limit_denominator(max_denominator)`` for each entry x,
    the best rational with a denominator up to the cap, then scaled so the
    first nonzero entry is 1.  NaN raises ``ValueError`` and infinities
    ``OverflowError``, as ``Fraction(x)`` does.

    Wrong guesses are not detected here; they surface downstream as
    certification failures.
    """
    if max_denominator < 1:
        raise ValueError("max_denominator must be at least 1")
    fracs = [Fraction(x).limit_denominator(max_denominator) for x in np.asarray(vector, dtype=float).tolist()]
    lead = next((f for f in fracs if f != 0), None)
    if lead is None:
        return tuple(fracs)
    return tuple(f / lead for f in fracs)


class CertifiedCandidate:
    """A reconstructed nullspace row with its exactness certificate.

    A candidate is held as terms sorted leading first, each with its
    coefficient and the coefficient's string, and an exponent ``shift``
    added to every term.  A run shares one tuple of terms among the
    candidates of every parity class e that lifts the same row, each with
    shift e: adding a fixed vector to every exponent keeps the graded-lex
    order, so the shifted terms are still sorted.  ``to_json`` emits from
    them; ``poly``, the ``MultiPoly``, is built on first read."""

    __slots__ = ("certificate", "_terms", "_shift", "_poly")

    def __init__(self, terms: tuple, shift: tuple[int, ...], certificate: str):
        self.certificate = certificate
        self._terms, self._shift, self._poly = terms, shift, None

    @property
    def poly(self) -> MultiPoly:
        if self._poly is None:
            shift = self._shift
            terms = {tuple(map(operator.add, shift, e)): c for e, c, _ in reversed(self._terms)}
            self._poly = MultiPoly._canonical(len(shift), terms)
        return self._poly

    def to_json(self) -> dict:
        shift = self._shift
        terms = ((list(map(operator.add, shift, e)), text) for e, _, text in self._terms)
        return {"poly": _poly_doc(len(shift), terms), "certificate": self.certificate}


class DiscoveryReport:
    __slots__ = ("config", "basis_size", "nullspace", "candidates")

    def __init__(
        self,
        config: dict,
        basis_size: int,
        nullspace: ExactNullspace,
        candidates: list[CertifiedCandidate] | None = None,
    ):
        self.config = config
        self.basis_size = basis_size
        self.nullspace = nullspace
        self.candidates = [] if candidates is None else candidates

    @property
    def inconclusive(self) -> bool:
        return self.nullspace.inconclusive

    @property
    def all_certified(self) -> bool:
        return all(c.certificate != CERT_UNCERTIFIED for c in self.candidates)

    def to_json(self) -> dict:
        return {
            "config": self.config,
            "basis_size": self.basis_size,
            "nullspace": self.nullspace.to_json(),
            "candidates": [c.to_json() for c in self.candidates],
        }


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


# samples beyond the columns of a run's matrix: a square part has the rank
# of the whole map for almost every draw, and the extra rows spare a run
# from the draws where it has not.  They serve the rank alone: no
# certificate reads the samples
_EXTRA_SAMPLES = 8
# primes a run tries before it reports itself incomplete
_MAX_PRIMES = 16
_SQUARES_BASIS = "monomial-mod-p(s/edge_sq)"
_SEGMENT_BASIS = "monomial-mod-p(t/edge)"


class ExactNullspace:
    """The vanishing space of a run, by prefix degree k of its matrix in
    the variables of its columns: ``u = s/a^2`` in the parity-split runs
    (``discover`` at d >= 2, ``sphere`` at d >= 3), ``v = t/a`` in the runs
    of one class (``discover`` at d = 1, ``sphere`` at d = 2), whose one
    prefix is D.  ``corank[k]`` is the dimension of the nullspace of the
    prefix modulo the ``primes`` used, and ``ideal_dim[k]`` the number of
    its echelon rows certified in the ideal.  ``null_dim`` is the dimension
    in t, the corank summed over the parity classes.  The run is
    ``complete`` when every prefix certifies its whole corank, which proves
    that the candidates span the vanishing space (see the module
    docstring); ``inconclusive`` is its negation, the flag every discovery
    report carries."""

    __slots__ = ("null_dim", "corank", "ideal_dim", "primes")

    def __init__(self, null_dim: int, corank: dict[int, int], ideal_dim: dict[int, int], primes: tuple[int, ...]):
        self.null_dim = null_dim
        self.corank = corank
        self.ideal_dim = ideal_dim
        self.primes = primes

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


def _null_forms(numerators, scales, exponents: np.ndarray, widths: dict[int, int], prime: int):
    """The pivots modulo ``prime`` of the matrix of the monomials
    ``exponents`` at the points ``numerators[j] / scales[j]`` (one row per
    sample), and, for each prefix degree k of ``widths``, the leftmost-pivot
    echelon form modulo ``prime`` of the nullspace of its first
    ``widths[k]`` columns: its pivots and its rows as int residues.  The
    matrix is eliminated once; each prefix's form then takes a second
    elimination of min(rank, corank) pivots (``nullspace_side``)."""
    inverses = (pow(s, -1, prime) for s in scales)
    u = np.array([[x * inv % prime for x in row] for row, inv in zip(numerators, inverses)], dtype=np.int64)
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
        side, form = nullspace_side(rref, pivots, width, prime)
        null_pivots, rows = form(*rref_mod(side, prime))
        forms[k] = (null_pivots, rows.tolist())
    return pivots, forms


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


def _pack(exponent: Sequence[int], base: int) -> int:
    """One int for an exponent vector, in base ``base``, the last variable
    most significant."""
    return sum(x * base**i for i, x in enumerate(exponent))


def _divisor(poly: MultiPoly, base: int) -> tuple:
    """``poly``, with integer coefficients and a constant lead in the last
    variable x that occurs in it, as ``(lead, high, m, rest)`` packed in
    ``base``: ``lead * x^m + rest``, m the degree in x, x of weight
    ``high``, and ``rest`` the packed exponents and coefficients of the
    other terms."""
    var = max(i for f in poly.terms for i, x in enumerate(f) if x)
    m = max(f[var] for f in poly.terms)
    high = base**var
    packed = {_pack(f, base): int(c) for f, c in poly.terms.items()}
    return packed.pop(m * high), high, m, list(packed.items())


def _integer_row(entries: dict[int, Fraction], codes: Sequence[int]) -> dict[int, int]:
    """The row with ``entries`` by column, scaled by the common denominator,
    on the packed exponents ``codes`` of the columns."""
    common = math.lcm(*(c.denominator for c in entries.values()))
    return {codes[j]: c.numerator * (common // c.denominator) for j, c in entries.items()}


def _remainder(poly: dict[int, int], divisor: tuple) -> dict[int, int]:
    """The integer pseudo-remainder of the polynomial with integer
    coefficients ``poly``, by packed exponent, by ``divisor``: the remainder
    of ``lead^(top - m + 1) * poly``, with top its degree in x, which is 0
    exactly when the divisor divides ``poly``.  No variable after x occurs
    in ``poly``, and x is the most significant digit of a code, so top is
    the level of the largest code.

    Every quotient term is exact.  After the scaling each coefficient at
    level ``L >= m`` of x is divisible by ``lead^(L - m + 1)``: clearing
    level L divides its coefficients by lead once, and adds their quotients
    times terms of ``rest``, divisible by ``lead^(L - m)``, to lower levels
    only.  So the codes of level at least m are put in buckets by level
    once, and the levels are cleared from the top down in one pass: a code
    that a quotient term creates joins the bucket of its level, below the
    one being cleared, and a code that cancels is skipped when its bucket
    comes."""
    lead, high, m, rest = divisor
    top = max(poly, default=0) // high
    scale = lead ** max(top - m + 1, 0)
    remainder = {code: c * scale for code, c in poly.items()}
    buckets = [[] for _ in range(m, top + 1)]
    for code in remainder:
        if code // high >= m:
            buckets[code // high - m].append(code)
    for bucket in reversed(buckets):
        for code in bucket:
            value = remainder.pop(code, 0)
            if not value:
                continue
            quotient = value // lead
            shift = code - m * high
            for rc, rv in rest:
                key = shift + rc
                old = remainder.get(key, 0)
                value = old - quotient * rv
                if not value:
                    del remainder[key]
                    continue
                remainder[key] = value
                if not old and key // high >= m:
                    buckets[key // high - m].append(key)
    return remainder


def _packing_base(columns, polys: Sequence[MultiPoly]) -> int:
    """The base that packs the rows on the monomials ``columns`` and the
    divisors ``polys`` of a certificate: one above their largest exponent.
    The columns hold every monomial up to their degree, so their largest
    exponent is their largest total degree, and a divisor's lead has its top
    total degree, so reduction never raises a term's total degree: no
    exponent outgrows the base."""
    return 1 + max(map(max, itertools.chain(columns, *(p.terms for p in polys))))


def _membership(columns, common, branches) -> Callable[[dict[int, Fraction]], bool]:
    """The certificate of a run's rows, each given by its entries by column
    on the monomials ``columns``: membership in the ideal of every branch,
    generated by the polynomials ``common`` and those of the branch.  The
    row, scaled to integers, is replaced by its pseudo-remainder
    (``_remainder``) by each polynomial of ``common`` in turn, then by those
    of each branch in turn; it is a member when every branch leaves 0.

    The polynomials of ``common`` must lie in the ideal of every branch, and
    each polynomial must have a constant lead in the last variable that
    those before it leave, a new variable for each polynomial of a branch.
    A branch is then a lex Groebner basis of its ideal, and what it leaves,
    divisible by none of the leads, is the row's normal form, 0 exactly when
    the row is a member."""
    base = _packing_base(columns, [*common, *itertools.chain(*branches)])
    codes = [_pack(f, base) for f in columns]
    common = [_divisor(p, base) for p in common]
    branches = [[_divisor(p, base) for p in branch] for branch in branches]

    def certify(entries: dict[int, Fraction]) -> bool:
        row = functools.reduce(_remainder, common, _integer_row(entries, codes))
        return not any(functools.reduce(_remainder, branch, row) for branch in branches)

    return certify


def _parity_classes(n: int, max_degree: int) -> list[tuple[int, ...]]:
    """The exponent-parity classes of degree D in n distances, the supports
    of at most D odd exponents."""
    return [
        tuple(int(i in odd) for i in range(n))
        for size in range(min(max_degree, n) + 1)
        for odd in itertools.combinations(range(n), size)
    ]


def _exact_run(operation, d, a2, max_degree, seed, step, points, common, branches, label, sampling):
    """The one set-up path and loop of every run.  A run kind supplies its
    ``step``, its ``points`` (the numerators and scales of the samples of a
    ``SampleConfig``, sample j the point ``numerators[j] / scales[j]``), the
    generators ``common`` and ``branches`` of its certificate
    (``_membership``), the ``label`` of a certified row and its
    ``sampling``.  The step decides the rest: the columns are in ``x =
    t^step / a^step`` (``u = s/a^2`` at step 2, ``v = t/a`` at step 1), of
    degree ``D // step``, with ``_EXTRA_SAMPLES`` samples beyond them; step
    2 splits them by parity (``_parity_classes``), and step 1 has the one
    class 0, of degree D.

    The loop: primes, then ``_null_forms``, ``_reconstruct`` and the
    certificate, then the rescaling to the edge and the lift to t.  Class e
    lifts each row ``g(x)`` of prefix degree k to ``t^e * g(t^step)``, its
    entry j first scaled by ``a^-(step * (|f_j| - |f0|))`` for its pivot
    f0; certified rows carry ``label``.  Each row is rescaled, sorted and
    formatted once, and its candidates in every class share it
    (``CertifiedCandidate``).  Returns the report's ``config``, the classes,
    the candidates in pivot order, the nullspace, and the pivots of the
    whole matrix modulo the prime of the forms kept."""
    n, top = d + 1, max_degree // step
    columns = enumerate_monomials(n, top)
    count = len(columns) + _EXTRA_SAMPLES
    numerators, scales = points(SampleConfig(seed=seed, count=count, box=_DISCOVERY_BOX))
    classes = _parity_classes(n, max_degree) if step == 2 else [(0,) * n]
    degrees = [(max_degree - sum(e)) // step for e in classes]
    certify = _membership(columns, common, branches)
    widths = {k: math.comb(k + n, k) for k in sorted(set(degrees))}
    exponents = np.asarray(columns)
    # a prime must be a unit for every scale: one that divides a scale is
    # skipped
    primes = (p for p in word_primes() if all(s % p for s in scales))
    image, found = None, {}
    for prime in itertools.islice(primes, _MAX_PRIMES):
        pivots, forms = _null_forms(numerators, scales, exponents, widths, prime)
        if image is None:
            image, rank_pivots = ResidueImage(prime, (prime,), forms), pivots
        else:
            joined = image.fold(prime, forms)
            if joined is image:  # an unlucky prime
                continue
            if joined.primes == (prime,):
                rank_pivots, found = pivots, {}
            image = joined
        # a certified row lies in the ideal, so in the rational nullspace,
        # with 1 at its pivot and 0 at the other pivots of the image: while
        # the image keeps its pattern, it is the row that a join with a new
        # prime reconstructs, so only the other rows are reconstructed and
        # certified again (a replaced image starts afresh)
        kept = {(k, pivot): entries for k, prefix in found.items() for pivot, entries, certified in prefix if certified}
        found = {}
        for k, (null_pivots, residues) in image.forms.items():
            found[k] = []
            for pivot, row in zip(null_pivots, residues):
                entries = kept.get((k, pivot))
                certified = entries is not None
                if not certified:
                    entries = _reconstruct(row, image.modulus)
                    certified = entries is not None and certify(entries)
                found[k].append((pivot, entries, certified))
        if all(certified for prefix in found.values() for _, _, certified in prefix):
            break

    # the row g(x) of pivot f0, x = t^step / c with c = a^step, gives
    # c^|f0| * g(t^step / c), whose pivot is 1; a row with no rational
    # reconstruction has nothing to report.  a^-m is a power of a^2 over a
    # where m is odd, which only d = 1 discover has, at a rational edge; the
    # rows of a sphere run at d = 2 are parity-homogeneous, so an irrational
    # edge never needs a.  The columns are in graded-lex order, and so are
    # their exponents in t, so a row's terms are sorted leading first by
    # their columns, once, and formatted once
    root = rational_sqrt(a2)
    inverse = functools.cache(lambda m: a2 ** -(m // 2) / (root if m % 2 else 1))
    in_t = [tuple(step * x for x in f) for f in columns]
    at_edge = {k: [] for k in found}
    for k, prefix in found.items():
        for pivot, entries, certified in prefix:
            if entries is None:
                continue
            if a2 != 1:
                shift = sum(columns[pivot])
                entries = {j: c * inverse(step * (sum(columns[j]) - shift)) for j, c in entries.items()}
            terms = tuple((in_t[j], c, frac_str(c)) for j, c in sorted(entries.items(), reverse=True))
            at_edge[k].append((in_t[pivot], terms, label if certified else CERT_UNCERTIFIED))
    lifted = []
    for e, k in zip(classes, degrees):
        for pivot, terms, certificate in at_edge[k]:
            lead = tuple(map(operator.add, e, pivot))
            lifted.append(((sum(lead), lead), CertifiedCandidate(terms, e, certificate)))
    lifted.sort(key=lambda item: item[0])
    nullspace = ExactNullspace(
        null_dim=sum(len(image.forms[k][0]) for k in degrees),
        corank={k: len(image.forms[k][0]) for k in widths},
        ideal_dim={k: sum(certified for _, _, certified in found[k]) for k in widths},
        primes=image.primes,
    )
    config = {
        "operation": operation,
        "d": d,
        "edge_sq": frac_str(a2),
        "max_degree": max_degree,
        "n_samples": count,
        "seed": seed,
        "matrix_basis": _SQUARES_BASIS if step == 2 else _SEGMENT_BASIS,
        "sampling": sampling,
    }
    return config, classes, [c for _, c in lifted], nullspace, rank_pivots


def _discover_exact(d: int, a2: Fraction, max_degree: int, seed: int) -> DiscoveryReport:
    """``discover_vanishing``, exactly (see the module docstring): step 1 at
    d = 1, where the segment cubic mixes parities, and step 2 at d >= 2."""
    n = d + 1
    # the generator at unit edge: the segment cubic in v or R_1(u)
    if d == 1:
        step, generator = 1, segment_generator(1)
    else:
        step = 2
        generator = MultiPoly(n, {tuple(x // 2 for x in e): c for e, c in distance_relation(d, 1).terms.items()})

    def points(config: SampleConfig):
        draws = _weight_rows(n, config, _segment_branch if d == 1 else None)
        if d == 1:
            # sample k lies on branch k mod 3, at t0 = a|w1| and t1 = a|w0|
            return [(abs(r1), abs(r0)) for (r0, r1), _ in draws], [den for _, den in draws]
        return [_distance_numerators(nums, den) for nums, den in draws], [2 * den * den for _, den in draws]

    config, _, candidates, nullspace, _ = _exact_run(
        "discover", d, a2, max_degree, seed, step, points, [generator], ((),), CERT_DIVISIBLE, _DISCOVERY_SAMPLING
    )
    return DiscoveryReport(config, math.comb(max_degree + n, n), nullspace, candidates)


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
    a2 = EmbeddedSimplex(d, edge_sq).edge_sq
    if d == 1 and rational_sqrt(a2) is None:
        raise ValueError(
            "in dimension 1 certification needs a rational edge length: "
            f"edge_sq={a2} is not a perfect rational square"
        )
    _check_degree(max_degree)
    return _discover_exact(d, a2, max_degree, seed)


class IndependenceReport:
    """The proof that the distances to a vertex subset satisfy no
    polynomial relation (see ``independence_test``): its certificate is the
    Gram determinant ``gram_det`` of the subset's weight vectors."""

    __slots__ = ("config", "gram_det")
    verdict = "no-relation-found"
    certificate = CERT_JACOBIAN_RANK

    def __init__(self, config: dict, gram_det: Fraction):
        self.config = config
        self.gram_det = gram_det

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


class SphereDiscoveryReport:
    """Vanishing polynomials of the distance map restricted to the
    circumsphere, with the null dimension at every degree up to D: the rows
    ``certified`` in the circumsphere's ideal, and the ``extras`` that
    failed their certificate, reported as evidence only."""

    __slots__ = ("config", "null_dim_by_degree", "nullspace", "certified", "extras")

    def __init__(
        self,
        config: dict,
        null_dim_by_degree: dict[int, int],
        nullspace: ExactNullspace,
        certified: list[CertifiedCandidate],
        extras: list[CertifiedCandidate],
    ):
        self.config = config
        self.null_dim_by_degree = null_dim_by_degree
        self.nullspace = nullspace
        self.certified = certified
        self.extras = extras

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


_CHORD_SAMPLING = f"circumsphere-chords({_DISCOVERY_SAMPLING})"
_CONIC_SAMPLING = f"ptolemy-conics({_DISCOVERY_SAMPLING})"


def _chord(k: int, r: Sequence[int]) -> tuple[list[int], int]:
    """The point ``u = N/S`` of sample k on the circumsphere, in integers,
    from its draw ``r/T``: with ``i = k mod n`` and ``V = r - T*e_i``, the
    line through vertex i in the direction V meets the sphere again at ``w
    = e_i - 2*V_i*V/|V|^2``, so ``S = |V|^2``, ``N_i = 2*V_i^2`` and ``N_j =
    S + 2*V_i*V_j`` for j != i.  Every ``N_j`` is nonnegative, and all are 0
    when V is."""
    i = k % len(r)
    v = list(r)
    v[i] -= sum(r)
    s = sum(x * x for x in v)
    nums = [s + 2 * v[i] * x for x in v]
    nums[i] = 2 * v[i] * v[i]
    return nums, s


def _odd_primes(x: int) -> set[int]:
    """The primes that divide the positive integer x to an odd power, by
    trial division."""
    odd, p = set(), 2
    while p * p <= x:
        while x % p == 0:
            x //= p
            odd ^= {p}
        p += 1 + (p > 2)
    return odd ^ {x} if x > 1 else odd


def _square_free(nums: Sequence[int], s: int) -> bool:
    """Whether no nonempty subset product of the ``u_j = nums[j] / s`` is a
    rational square, 0 included.

    ``u_j * s^2 = N_j * s``, so the product over U is a square exactly when
    the sets of primes that divide the ``N_j * s`` to an odd power have an
    empty symmetric difference over U.  The points pass when no ``N_j`` is 0
    and these n sets are linearly independent over GF(2), which an
    elimination on them decides without forming the ``2^n - 1`` products."""
    if 0 in nums:
        return False
    shared = _odd_primes(s)
    pivots = {}
    for x in nums:
        row = _odd_primes(x) ^ shared
        while row and max(row) in pivots:
            row ^= pivots[max(row)]
        if not row:
            return False
        pivots[max(row)] = row
    return True


def _chord_points(n: int, config: SampleConfig) -> tuple[list[list[int]], list[int]]:
    """The numerators and scales of the points u of a sphere run at d >= 3:
    the chords of the box draws, each draw redrawn until its point passes
    ``_square_free``, so sample k depends only on the seed and k."""

    def accept(ks: np.ndarray, nums: np.ndarray) -> np.ndarray:
        return np.array([_square_free(*_chord(k, r)) for k, r in zip(ks.tolist(), nums.tolist())], dtype=bool)

    points = [_chord(k, r) for k, (r, _) in enumerate(_weight_rows(n, config, accept))]
    return [nums for nums, _ in points], [s for _, s in points]


def _conic_points(config: SampleConfig) -> tuple[list[tuple[int, int, int]], list[int]]:
    """The numerators and scales of the points v of a sphere run at d = 2:
    sample k on conic ``i = k mod 3``, ``{v_i = v_j + v_l, sum v^2 = 2}``,
    ``(j, l) = (i + 1, i + 2) mod 3``, at ``v_j = (p^2 - q^2)/w``, ``v_l =
    -p(p + 2q)/w`` and ``v_i = -q(2p + q)/w``, ``w = p^2 + pq + q^2``, for the
    k-th 2-weight draw ``(p, q)``, redrawn when ``q = 0``."""
    numerators, scales = [], []
    draws = _weight_rows(2, config, lambda ks, nums: nums[:, 1] != 0)
    for k, ((p, q), _) in enumerate(draws):
        i = k % 3
        x = [0, 0, 0]
        x[i], x[(i + 1) % 3], x[(i + 2) % 3] = -q * (2 * p + q), p * p - q * q, -p * (p + 2 * q)
        numerators.append(tuple(x))
        scales.append(p * p + p * q + q * q)
    return numerators, scales


def _sphere_ideal(n: int) -> tuple[list[MultiPoly], tuple[list[MultiPoly], ...]]:
    """The ``common`` generators and the ``branches`` of ``_membership`` for
    a sphere run in n variables (see the module docstring): at d = 2 the
    circle ``sum v^2 - 2``, then, on conic i, ``v_2 - x`` and the circle at
    ``v_2 = x``, for ``x = v_0 + v_1``, ``v_0 - v_1`` and ``v_1 - v_0``
    (conics 2, 0 and 1); at d >= 3 ``Q_u`` (``u_last = d - sum others``) and
    the image of ``S_u`` modulo ``Q_u``, whose lead in ``u_{n-2}`` is 2."""
    x = [MultiPoly.variable(j, n) for j in range(n)]
    if n == 3:
        v0, v1, v2 = x
        two = MultiPoly.constant(2, 3)
        conics = tuple([v2 - w, v0 * v0 + v1 * v1 + w * w - two] for w in (v0 + v1, v0 - v1, v1 - v0))
        return [v0 * v0 + v1 * v1 + v2 * v2 - two], conics
    d = MultiPoly.constant(n - 1, n)
    rest = d - sum(x[:-1], MultiPoly.zero(n))
    return [x[-1] - rest, sum((y * y for y in x[:-1]), rest * rest) - d], ((),)


def discover_on_sphere(
    d: int,
    edge_sq,
    max_degree: int,
    seed: int = 0,
) -> SphereDiscoveryReport:
    """Discovery with samples restricted to the circumsphere, exact at every
    d >= 2: in the ideal of the circumsphere quadratic and the quartic at
    d >= 3, on the Ptolemy conics at d = 2 (see the module docstring).  Rows
    that fail their certificate are reported as extras."""
    if not isinstance(d, int) or d < 2:
        raise ValueError("circumsphere discovery needs dimension >= 2")
    a2 = EmbeddedSimplex(d, edge_sq).edge_sq
    _check_degree(max_degree)

    n = d + 1
    if d == 2:
        step, points, label, sampling = 1, _conic_points, CERT_CIRCUMCIRCLE, _CONIC_SAMPLING
    else:
        step, points, label, sampling = 2, functools.partial(_chord_points, n), CERT_SPHERE_IDEAL, _CHORD_SAMPLING
    config, classes, candidates, nullspace, pivots = _exact_run(
        "sphere", d, a2, max_degree, seed, step, points, *_sphere_ideal(n), label, sampling
    )

    # the null dimension at degree k <= D: the coranks of the prefixes of
    # degree (k - |e|) // step, summed over the classes e
    widths = [math.comb(j + n, n) for j in range(max_degree // step + 1)]
    corank = [width - sum(p < width for p in pivots) for width in widths]
    sizes = [sum(e) for e in classes]
    by_degree = {k: sum(corank[(k - s) // step] for s in sizes if s <= k) for k in range(1, max_degree + 1)}
    return SphereDiscoveryReport(
        config=config,
        null_dim_by_degree=by_degree,
        nullspace=nullspace,
        certified=[c for c in candidates if c.certificate != CERT_UNCERTIFIED],
        extras=[c for c in candidates if c.certificate == CERT_UNCERTIFIED],
    )
