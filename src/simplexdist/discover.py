"""Discovery of vanishing polynomials of the distance map from samples.

Every run evaluates a monomial basis at exact sample points, finds the
polynomials that vanish on them modulo word primes, lifts them to the
rationals and certifies each exactly; no run forms a float.  One loop
(``_exact_run``) serves every run; only the samples, the columns and the
certificate differ.  Candidates that fail certification are reported as
uncertified, never dropped.

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
nullspace is brought to its leftmost-pivot echelon form.  Rational
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
rows rescale to t by powers of ``a^2``.  A row is certified by Bezout's
theorem: a curve of degree <= D that does not contain an irreducible conic
meets it in at most 2D points, so vanishing, in exact integers, at 2D + 1
distinct points of each conic means vanishing on the whole image.

``enumerate_monomials`` gives the columns of every run, as the graded-lex
tuple of exponent vectors.  ``numeric_nullspace`` (an SVD with a
singular-value cutoff) and ``rationalize`` (``Fraction.limit_denominator``
per entry) are library functions that no run calls.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .geom import EmbeddedSimplex, SampleConfig, _distance_numerators, _weight_rows
from .modular import ResidueImage, nullspace_mod, rational_reconstruction, rref_mod, word_primes
# bound but not called: bench/tracing.py patches a hooked function in every
# module that binds it, and bench/test_bench.py checks this binding
from .geom import sample_points  # noqa: F401
from .poly import MultiPoly, distance_relation, poly_to_dict, segment_generator
from .rationals import as_fraction, frac_str, rational_sqrt

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
    return tuple(exps)


@dataclass(frozen=True)
class NullspaceReport:
    """Numeric nullspace with its singular spectrum and decision gap.

    ``gap`` measures how decisively the spectrum separates at the cut:
    smallest kept singular value over largest discarded one when the
    nullspace is non-trivial, and smallest singular value over the absolute
    threshold when it is empty.  ``inconclusive`` flags gaps under 10.
    """

    singular_values: tuple[float, ...]
    null_dim: int
    null_basis: np.ndarray | None
    gap: float

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


@dataclass(frozen=True)
class CertifiedCandidate:
    """A reconstructed nullspace row with its exactness certificate."""

    poly: MultiPoly
    certificate: str

    def to_json(self) -> dict:
        return {"poly": poly_to_dict(self.poly), "certificate": self.certificate}


@dataclass
class DiscoveryReport:
    config: dict
    basis_size: int
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
# from the draws where it has not; at d = 1 and on the circumcircle they
# also give each branch or conic the samples its certificate needs
_EXTRA_SAMPLES = 8
# primes a run tries before it reports itself incomplete
_MAX_PRIMES = 16
_SQUARES_BASIS = "monomial-mod-p(s/edge_sq)"
_SEGMENT_BASIS = "monomial-mod-p(t/edge)"


@dataclass(frozen=True)
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


def _null_forms(numerators, scales, exponents: np.ndarray, widths: dict[int, int], prime: int):
    """The pivots modulo ``prime`` of the matrix of the monomials
    ``exponents`` at the points ``numerators[j] / scales[j]`` (one row per
    sample), and, for each prefix degree k of ``widths``, the leftmost-pivot
    echelon form modulo ``prime`` of the nullspace of its first
    ``widths[k]`` columns: its pivots and its rows as int residues."""
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


def _divisor(poly: MultiPoly, base: int, var: int, m: int) -> tuple:
    """``poly``, with integer coefficients and of degree m in the variable
    x of index ``var`` with a constant lead there, as ``(lead, high, m,
    rest)`` packed in ``base``: ``lead * x^m + rest``, x of weight ``high``,
    and ``rest`` the packed exponents and coefficients of the other
    terms."""
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
    exactly when the divisor divides ``poly``.

    Every quotient term is exact.  After the scaling each coefficient at
    level ``L >= m`` of x is divisible by ``lead^(L - m + 1)``: clearing
    level L divides its coefficients by lead once, and adds their quotients
    times terms of ``rest``, divisible by ``lead^(L - m)``, to lower levels
    only.  No term of ``rest`` reaches the level being cleared, so each
    level is cleared in one pass."""
    lead, high, m, rest = divisor
    top = max((code // high for code in poly), default=0)
    scale = lead ** max(top - m + 1, 0)
    remainder = {code: c * scale for code, c in poly.items()}
    for level in range(top, m - 1, -1):
        for code in [code for code in remainder if code // high == level]:
            quotient = remainder.pop(code) // lead
            shift = code - m * high
            for rc, rv in rest:
                key = shift + rc
                value = remainder.get(key, 0) - quotient * rv
                if value:
                    remainder[key] = value
                else:
                    del remainder[key]
    return remainder


def _parity_classes(n: int, max_degree: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """The exponent-parity classes of degree D in n distances, the supports
    of at most D odd exponents, and the degree in s of each."""
    classes = [
        tuple(int(i in odd) for i in range(n))
        for size in range(min(max_degree, n) + 1)
        for odd in itertools.combinations(range(n), size)
    ]
    return classes, [(max_degree - sum(e)) // 2 for e in classes]


def _exact_run(columns, numerators, scales, classes, degrees, step, inverse, certify, label):
    """The loop of every run: primes, then ``_null_forms``, ``_reconstruct``
    and ``certify`` (of a row's entries by column), then the rescaling to
    the edge and the lift to t.  Sample j is the point ``numerators[j] /
    scales[j]`` in the variables x of the ``columns`` (u or v).  Class e
    lifts each row ``g(x)`` of prefix degree k to ``t^e * g(t^step)``, its
    entry j first scaled by ``inverse[|f_j| - |f0|]`` for its pivot f0
    (None at unit edge); certified rows carry ``label``.  Returns the
    candidates in pivot order, the nullspace, and the pivots of the whole
    matrix modulo the prime of the forms kept."""
    widths = {k: math.comb(k + len(columns[0]), k) for k in sorted(set(degrees))}
    exponents = np.asarray(columns)
    # a prime must be a unit for every scale: one that divides a scale is
    # skipped
    primes = (p for p in word_primes() if all(s % p for s in scales))
    image = None
    for prime in itertools.islice(primes, _MAX_PRIMES):
        pivots, forms = _null_forms(numerators, scales, exponents, widths, prime)
        if image is None:
            image, rank_pivots = ResidueImage(prime, (prime,), forms), pivots
        else:
            joined = image.fold(prime, forms)
            if joined is image:  # an unlucky prime
                continue
            if joined.primes == (prime,):
                rank_pivots = pivots
            image = joined
        found = {}
        for k, (null_pivots, residues) in image.forms.items():
            found[k] = []
            for pivot, row in zip(null_pivots, residues):
                entries = _reconstruct(row, image.modulus)
                found[k].append((pivot, entries, entries is not None and certify(entries)))
        if all(certified for prefix in found.values() for _, _, certified in prefix):
            break

    # the row g(x) of pivot f0, x = t^step / c with c = a^step, gives
    # c^|f0| * g(t^step / c), whose pivot is 1; a row with no rational
    # reconstruction has nothing to report
    at_edge = {k: [] for k in found}
    for k, prefix in found.items():
        for pivot, entries, certified in prefix:
            if entries is None:
                continue
            if inverse is not None:
                shift = sum(columns[pivot])
                entries = {j: c * inverse[sum(columns[j]) - shift] for j, c in entries.items()}
            at_edge[k].append((pivot, entries, certified))
    n = len(classes[0])
    in_t = [tuple(step * x for x in f) for f in columns]
    lifted = []
    for e, k in zip(classes, degrees):
        for pivot, entries, certified in at_edge[k]:
            terms = {tuple(map(operator.add, e, in_t[j])): c for j, c in entries.items()}
            lead_exponent = tuple(map(operator.add, e, in_t[pivot]))
            candidate = CertifiedCandidate(
                MultiPoly._canonical(n, terms), label if certified else CERT_UNCERTIFIED
            )
            lifted.append(((sum(lead_exponent), lead_exponent), candidate))
    lifted.sort(key=lambda item: item[0])
    nullspace = ExactNullspace(
        null_dim=sum(len(image.forms[k][0]) for k in degrees),
        corank={k: len(image.forms[k][0]) for k in widths},
        ideal_dim={k: sum(certified for _, _, certified in found[k]) for k in widths},
        primes=image.primes,
    )
    return [c for _, c in lifted], nullspace, rank_pivots


def _discover_exact(d: int, a2: Fraction, max_degree: int, seed: int) -> DiscoveryReport:
    """``discover_vanishing``, exactly: see the module docstring."""
    n = d + 1
    top = max_degree if d == 1 else max_degree // 2
    columns = enumerate_monomials(n, top)
    count = len(columns) + _EXTRA_SAMPLES
    config = SampleConfig(seed=seed, count=count, box=_DISCOVERY_BOX)
    # the generator at unit edge, R_1(u) or the segment cubic in v, with
    # each exponent packed into one int, base top + 1 (no product in the
    # prefixes has a larger exponent), the last variable most significant
    base = top + 1
    if d == 1:
        # the segment cubic mixes parities: one class, of degree D in v =
        # t/a; sample k lies on branch k mod 3, at t0 = a|w1| and t1 = a|w0|
        classes, degrees, step, unit = [(0, 0)], [top], 1, rational_sqrt(a2)
        divisor = _divisor(segment_generator(1), base, 1, 3)
        draws = _weight_rows(n, config, _segment_branch)
        numerators = [(abs(r1), abs(r0)) for (r0, r1), _ in draws]
        scales = [den for _, den in draws]
    else:
        classes, degrees = _parity_classes(n, max_degree)
        step, unit = 2, a2
        generator = {tuple(x // 2 for x in e): c for e, c in distance_relation(d, 1).terms.items()}
        divisor = _divisor(MultiPoly(n, generator), base, n - 1, 2)
        draws = _weight_rows(n, config)
        numerators = [_distance_numerators(nums, den) for nums, den in draws]
        scales = [2 * den * den for _, den in draws]
    codes = [_pack(f, base) for f in columns]
    inverse = None if unit == 1 else [unit**-k for k in range(top + 1)]
    candidates, nullspace, _ = _exact_run(
        columns, numerators, scales, classes, degrees, step, inverse,
        lambda entries: not _remainder(_integer_row(entries, codes), divisor), CERT_DIVISIBLE,
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
    circumsphere, with the null dimension at every degree up to D: the rows
    ``certified`` in the circumsphere's ideal, and the ``extras`` that
    failed their certificate, reported as evidence only."""

    config: dict
    null_dim_by_degree: dict[int, int]
    nullspace: ExactNullspace
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


def _conic_certificate(numerators, scales, columns, max_degree: int) -> Callable[[dict[int, Fraction]], bool]:
    """Bezout's test for the rows of a run at d = 2: a row of degree <= D
    vanishes on the three conics when it vanishes at ``2D + 1`` distinct
    points of each, here the first distinct samples of the conic.  At the
    point ``x/w`` the row is zero exactly when ``sum_f c_f * x^f *
    w^(D - |f|)`` is, in integers.  With too few distinct points on a conic
    nothing is certified."""
    need = 2 * max_degree + 1
    chosen = [{}, {}, {}]
    for k, (x, w) in enumerate(zip(numerators, scales)):
        g = math.gcd(*x, w)
        point = tuple(c // g for c in (*x, w))
        if len(chosen[k % 3]) < need:
            chosen[k % 3][point] = None
    if any(len(points) < need for points in chosen):
        return lambda entries: False
    # the value of every column at every point, as Python ints
    exponents = np.array([(*f, max_degree - sum(f)) for f in columns]).T
    tables = np.ones((sum(map(len, chosen)), len(columns)), dtype=object)
    for i, point in enumerate(itertools.chain(*chosen)):
        for c, e in zip(point, exponents):
            tables[i] *= np.array([c**k for k in range(max_degree + 1)], dtype=object)[e]

    def certify(entries: dict[int, Fraction]) -> bool:
        row = _integer_row(entries, range(len(columns)))
        return not tables[:, list(row)].dot(np.array(list(row.values()), dtype=object)).any()

    return certify


def _sphere_certificate(columns) -> Callable[[dict[int, Fraction]], bool]:
    """The membership test in ``(Q_u, S_u)`` for the rows of a run at
    d >= 3 on the monomials ``columns`` in u: the substitution ``u_last = d
    - sum others``, the remainder by ``Q_u``, must leave a multiple of the
    image of ``S_u``, ``sum_{j < n-1} u_j^2 + (d - sum_{j < n-1} u_j)^2 -
    d``, whose lead in ``u_{n-2}`` is 2."""
    n = len(columns[0])
    # the packing base: above every exponent of the rows and of S_u's image
    d, base = n - 1, max(2, *map(max, columns)) + 1
    codes = [_pack(f, base) for f in columns]
    others = [MultiPoly.variable(j, n) for j in range(n - 1)]
    rest = MultiPoly.constant(d, n) - sum(others, MultiPoly.zero(n))
    q_u = _divisor(MultiPoly.variable(n - 1, n) - rest, base, n - 1, 1)
    s_u = _divisor(sum((x * x for x in others), rest * rest) - MultiPoly.constant(d, n), base, n - 2, 2)
    return lambda entries: not _remainder(_remainder(_integer_row(entries, codes), q_u), s_u)


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
    a2 = as_fraction(edge_sq)
    if a2 <= 0:
        raise ValueError("squared edge length must be positive")
    _check_degree(max_degree)

    n = d + 1
    top = max_degree if d == 2 else max_degree // 2
    columns = enumerate_monomials(n, top)
    count = len(columns) + _EXTRA_SAMPLES
    config = SampleConfig(seed=seed, count=count, box=_DISCOVERY_BOX)
    if d == 2:
        numerators, scales = _conic_points(config)
        certify = _conic_certificate(numerators, scales, columns, max_degree)
        inverse = None if a2 == 1 else [a2 ** -(k // 2) for k in range(top + 1)]
        classes, degrees, step, label = [(0, 0, 0)], [top], 1, CERT_CIRCUMCIRCLE
    else:
        numerators, scales = _chord_points(n, config)
        certify = _sphere_certificate(columns)
        classes, degrees = _parity_classes(n, max_degree)
        inverse = None if a2 == 1 else [a2**-k for k in range(top + 1)]
        step, label = 2, CERT_SPHERE_IDEAL
    candidates, nullspace, pivots = _exact_run(
        columns, numerators, scales, classes, degrees, step, inverse, certify, label
    )

    # the null dimension at degree k <= D: the coranks of the prefixes of
    # degree (k - |e|) // step, summed over the classes e
    corank = [math.comb(j + n, n) - sum(p < math.comb(j + n, n) for p in pivots) for j in range(top + 1)]
    sizes = [sum(e) for e in classes]
    by_degree = {k: sum(corank[(k - s) // step] for s in sizes if s <= k) for k in range(1, max_degree + 1)}
    config = {
        "operation": "sphere",
        "d": d,
        "edge_sq": frac_str(a2),
        "max_degree": max_degree,
        "n_samples": count,
        "seed": seed,
        "matrix_basis": _SEGMENT_BASIS if d == 2 else _SQUARES_BASIS,
        "sampling": _CONIC_SAMPLING if d == 2 else _CHORD_SAMPLING,
    }
    return SphereDiscoveryReport(
        config=config,
        null_dim_by_degree=by_degree,
        nullspace=nullspace,
        certified=[c for c in candidates if c.certificate != CERT_UNCERTIFIED],
        extras=[c for c in candidates if c.certificate == CERT_UNCERTIFIED],
    )
