"""Discovery of vanishing polynomials of the distance map from samples.

Every run evaluates a monomial basis at exact sample points, finds the
polynomials that vanish on them modulo word primes, lifts them to the
rationals and certifies each exactly; no run forms a float.  One path
(``_exact_run``) sets up and runs the four run kinds, ``discover`` at d = 1
and d >= 2 and ``sphere`` at d = 2 and d >= 3.  A kind supplies its step,
its sample points, the coranks it expects (see the prefix pass below), its
certificate, the label of a certified row and the name of its sampling; the
step decides the rest.
Step 2 means columns in ``u = s/a^2``, of degree ``D // 2``, split by
parity; step 1 means columns in ``v = t/a``, of degree D, in one class.
The columns fix the sample count, and the step the basis name and the
rescale to the edge.  A row is an integer vector from its reconstruction
to the report: ``_reconstruct`` gives its numerators by column over one
common denominator, the certificates take those integers as they are, and
the lift forms each coefficient and its string from them; a ``Fraction`` is
built only when a candidate's ``poly`` is first read.  Every certificate is
membership in the ideal of the image.  ``_membership`` pseudo-divides the
row by the generators in turn (``poly._remainder``) and certifies it when
nothing is left; at d = 2 ``_conic_certificate`` evaluates it exactly at
one far point of each conic instead.  Candidates that fail certification
are reported as uncertified, never dropped.

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
reversed, whichever has fewer rows (``modular.null_form``).  A row of the
form is 1 at its pivot and 0 at the other pivots, so it is kept on the
prefix's rank-many non-pivot columns, 0 left of its pivot.  Rational
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

**The prefix pass.**  The same proof holds on a prefix of the samples, so a
run first eliminates only the first ``r = columns - e + _EXTRA_SAMPLES`` of
them, for e the corank its kind expects of the top prefix: the Hilbert
function of the image's ideal in that degree (Cox, Little & O'Shea,
"Ideals, Varieties, and Algorithms", ch. 9).  Let ``N_r`` be the nullspace
of those rows and N that of all of them.  The vanishing space I lies in
both, and N in ``N_r``, so ``I <= N <= N_r`` as spaces; when every row of
``N_r`` certifies, ``N_r = I``, and the forms, the pivots and the
candidates are those of all the rows.  So are the primes: if at every
prime P of the pass each prefix has its expected corank e_k modulo P, a
complete pass gives ``e_k <= dim I <= corank_P(all rows) <= corank_P(r
rows) = e_k``, so modulo every prime used the nullspace of all the rows is
that of the prefix.  A pass that meets another corank stops at once, and
one that ends with a row uncertified is dropped: the run then eliminates
every row, as it would without the pass.  A prefix too short leaves rows
uncertified; it never certifies a wrong one.

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
rows rescale to t by powers of ``a^2``.  A conic is irreducible, so a row
lies in its ideal exactly when it vanishes on it, and ``v = x/w``
(``_conic_point``) parametrizes conic i by quadratic forms in ``(p, q)``:
for the row's integer numerators z, the binary form ``F_i = sum_f z_f *
x^f * w^(D - |f|)`` must be 0.  The coefficients of each of ``x_0, x_1,
x_2, w`` have an absolute sum of at most 3, so those of F_i are at most ``A
= 3^D * sum |z_f|``, and at ``Q > A`` the top nonzero term ``c_K * Q^K`` of
``F_i(1, Q)`` outweighs the rest, ``A * (Q^K - 1) / (Q - 1) < Q^K``:
``F_i(1, Q) = 0`` forces ``F_i = 0`` (Kronecker substitution; von zur
Gathen & Gerhard, "Modern Computer Algebra", ch. 8).  ``Q = 2^b``, for b
the bit length of A rounded up to a multiple of 64, lets a few tables serve
every row.

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

from .geom import EmbeddedSimplex, SampleConfig, _distance_numerators, _weight_rows, circumsphere_dim
from .modular import ResidueImage, null_form, rational_reconstruction, rref_mod, word_primes
# bound but not called: bench/tracing.py patches a hooked function in every
# module that binds it, and bench/test_bench.py checks this binding
from .geom import sample_points  # noqa: F401
from .poly import MultiPoly, _poly_doc, distance_relation, segment_generator
from .poly import _divisor, _pack, _packing_base, _remainder
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
    coefficient as integers, numerator and positive denominator in lowest
    terms, and the coefficient's string, and an exponent ``shift`` added to
    every term.  A run shares one tuple of terms among the candidates of
    every parity class e that lifts the same row, each with shift e: adding
    a fixed vector to every exponent keeps the graded-lex order, so the
    shifted terms are still sorted.  ``to_json`` emits from them; ``poly``,
    the ``MultiPoly``, is built on first read, and its ``Fraction``
    coefficients with it."""

    __slots__ = ("certificate", "_terms", "_shift", "_poly")

    def __init__(self, terms: tuple, shift: tuple[int, ...], certificate: str):
        self.certificate = certificate
        self._terms, self._shift, self._poly = terms, shift, None

    @property
    def poly(self) -> MultiPoly:
        if self._poly is None:
            shift = self._shift
            terms = {tuple(map(operator.add, shift, e)): Fraction(n, d) for e, n, d, _ in reversed(self._terms)}
            self._poly = MultiPoly._canonical(len(shift), terms)
        return self._poly

    def to_json(self) -> dict:
        shift = self._shift
        terms = ((list(map(operator.add, shift, e)), text) for e, _, _, text in self._terms)
        return {"poly": _poly_doc(len(shift), terms), "certificate": self.certificate}


class DiscoveryReport:
    __slots__ = ("config", "basis_size", "nullspace", "candidates")

    def __init__(self, config: dict, basis_size: int, nullspace: ExactNullspace, candidates: list[CertifiedCandidate]):
        self.config = config
        self.basis_size = basis_size
        self.nullspace = nullspace
        self.candidates = candidates

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


# rows beyond the rank that a run expects: every run draws this many
# samples beyond the columns of its matrix, and its prefix pass eliminates
# this many beyond the expected rank.  A square part has the rank of the
# whole map for almost every draw, and the extra rows spare a run from the
# draws where it has not.  They serve the rank alone: no certificate reads
# the samples
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
    docstring).  It is the verdict of a run: it holds exactly when no
    candidate is uncertified and no row is dropped for want of a rational
    reconstruction, and the report writes its negation as
    ``inconclusive``."""

    __slots__ = ("null_dim", "corank", "ideal_dim", "primes")

    def __init__(self, null_dim: int, corank: dict[int, int], ideal_dim: dict[int, int], primes: tuple[int, ...]):
        self.null_dim = null_dim
        self.corank = corank
        self.ideal_dim = ideal_dim
        self.primes = primes

    @property
    def complete(self) -> bool:
        return self.ideal_dim == self.corank

    def to_json(self) -> dict:
        return {
            "null_dim": self.null_dim,
            "corank": {str(k): v for k, v in self.corank.items()},
            "ideal_dim": {str(k): v for k, v in self.ideal_dim.items()},
            "primes": list(self.primes),
            "complete": self.complete,
            "inconclusive": not self.complete,
        }


def _null_forms(numerators, scales, exponents: np.ndarray, widths: dict[int, int], prime: int):
    """The pivots modulo ``prime`` of the matrix of the monomials
    ``exponents`` at the points ``numerators[j] / scales[j]``, one row per
    point given (the first samples of a run in its prefix pass, all of them
    after), and, for each prefix degree k of ``widths``, the leftmost-pivot
    echelon form modulo ``prime`` of the nullspace of its first
    ``widths[k]`` columns: its pivots and its rows as int residues on the
    prefix's non-pivot columns.  The matrix is eliminated once; each
    prefix's form then takes a second elimination of min(rank, corank)
    pivots (``null_form``)."""
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
    return pivots, {k: null_form(rref, pivots, width, prime) for k, width in widths.items()}


def _reconstruct(
    pivot: int, columns: Sequence[int], row: Sequence[int], modulus: int
) -> tuple[int, dict[int, int]] | None:
    """The rational null-form row of ``pivot`` whose residues modulo
    ``modulus`` on the non-pivot ``columns`` are ``row``, as ``(common,
    numerators)``: its nonzero entries are ``numerators[j] / common`` by
    column j, over their least common denominator, so ``numerators[pivot]
    = common`` and the numerators have no factor in common with it.  None
    if an entry has no rational reconstruction.  The entries of a row share
    few denominators, so each first tries the last one found, den: if
    ``x*den`` modulo ``modulus`` lies within the bound B of
    ``rational_reconstruction``, it is the numerator over den, since two
    fractions with terms up to B that agree modulo ``modulus`` are equal
    (``2*B^2 < modulus``).  A new den that does not divide ``common`` raises
    it to their lcm, and the numerators found so far with it."""
    bound = math.isqrt(modulus // 2)
    numerators, common, den, scale = {pivot: 1}, 1, 1, 1
    for j, x in zip(columns, row):
        if not x:
            continue
        y = x * den % modulus
        if y > bound:
            y -= modulus
        if y < -bound:
            pair = rational_reconstruction(x, modulus)
            if pair is None:
                return None
            y, den = pair
            grow = den // math.gcd(common, den)
            if grow > 1:
                common *= grow
                for k in numerators:
                    numerators[k] *= grow
            scale = common // den
        numerators[j] = y * scale
    return common, numerators


def _membership(generators, columns) -> Callable[[dict[int, int]], bool]:
    """The certificate of a run's rows, each given as integers by column on
    the monomials ``columns`` (the numerators of ``_reconstruct``):
    membership in the ideal of the polynomials ``generators``.  The row,
    packed, is replaced by its pseudo-remainder (``_remainder``) by each
    generator in turn, and is a member when nothing is left.  Each
    generator must have a constant lead in the last variable that those
    before it leave, a new variable for each: they are then a lex Groebner
    basis of their ideal, and what they leave is the row's normal form, 0
    exactly when the row is a member."""
    base = _packing_base(columns, generators)
    codes = [_pack(f, base) for f in columns]
    divisors = [_divisor(p, base) for p in generators]

    def certify(numerators: dict[int, int]) -> bool:
        row = {codes[j]: z for j, z in numerators.items()}
        for divisor in divisors:
            row = _remainder(row, divisor)[1]
        return not row

    return certify


def _parity_classes(n: int, max_degree: int) -> list[tuple[int, ...]]:
    """The exponent-parity classes of degree D in n distances, the supports
    of at most D odd exponents."""
    return [
        tuple(int(i in odd) for i in range(n))
        for size in range(min(max_degree, n) + 1)
        for odd in itertools.combinations(range(n), size)
    ]


def _run_primes(numerators, scales, exponents, widths, primes, certify, expected):
    """The prime loop of a run on the samples ``numerators[j] / scales[j]``:
    for each of ``primes``, ``_null_forms``, then ``_reconstruct`` and
    ``certify`` of each row not yet certified, until every prefix of
    ``widths`` certifies its whole corank.  Returns the image, the rows
    found by prefix, as ``(pivot, entries, certified)`` with ``entries`` the
    ``(common, numerators)`` of ``_reconstruct``, and the pivots of
    the whole matrix modulo the prime of the forms kept.

    A prefix pass gives ``expected``, the corank of each prefix: it returns
    None at the first prime at which a corank differs from it, and when it
    ends with a row uncertified.  Every prime it uses then has the coranks
    and, by the module docstring, the forms of the run on every sample, so
    its folds, and with them its result and primes, are that run's."""
    image, found = None, {}
    for prime in primes:
        pivots, forms = _null_forms(numerators, scales, exponents, widths, prime)
        if expected is not None and any(len(forms[k][0]) != expected[k] for k in widths):
            return None
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
            others = sorted(set(range(widths[k])) - set(null_pivots))
            for pivot, row in zip(null_pivots, residues):
                entries = kept.get((k, pivot))
                certified = entries is not None
                if not certified:
                    entries = _reconstruct(pivot, others, row, image.modulus)
                    certified = entries is not None and certify(entries[1])
                found[k].append((pivot, entries, certified))
        if all(certified for prefix in found.values() for _, _, certified in prefix):
            return image, found, rank_pivots
    return None if expected is not None else (image, found, rank_pivots)


def _binomial(a: int, b: int) -> int:
    """``C(a, b)``, 0 when ``a < b``."""
    return math.comb(a, b) if a >= b else 0


def _exact_run(operation, d, a2, max_degree, seed, step, points, corank, certificate, label, sampling):
    """The one set-up path and loop of every run.  A run kind supplies its
    ``step``, its ``points`` (the numerators and scales of the samples of a
    ``SampleConfig``, sample j the point ``numerators[j] / scales[j]``), the
    expected ``corank(k)`` of the prefix of degree k (the Hilbert function
    of its ideal, which decides only how many rows the prefix pass
    eliminates), its ``certificate``, which maps the columns to the test of
    a row given by its integer numerators by column (``_membership``, or
    ``_conic_certificate`` at d = 2), the ``label`` of a certified row and
    its ``sampling``.  The step decides the rest: the columns are in ``x =
    t^step / a^step`` (``u = s/a^2`` at step 2, ``v = t/a`` at step 1), of
    degree ``D // step``, with ``_EXTRA_SAMPLES`` samples beyond them; step
    2 splits them by parity (``_parity_classes``), and step 1 has the one
    class 0, of degree D.

    The loop (``_run_primes``) runs first on the first ``columns -
    corank(D // step) + _EXTRA_SAMPLES`` samples, when they are fewer than
    all, and on every sample when that prefix pass returns None.  Then come
    the rescaling to the edge and the lift to t.  Class e
    lifts each row ``g(x)`` of prefix degree k to ``t^e * g(t^step)``, its
    entry j first scaled by ``a^-(step * (|f_j| - |f0|))`` for its pivot
    f0; certified rows carry ``label``.  A row stays in integers throughout:
    its numerators over one common denominator (``_reconstruct``) are what
    the certificate tests, and each lifted coefficient is that numerator
    times an integer power of a^2 (or of the rational a), over the common
    denominator times another, in lowest terms by one gcd.  Each row is
    rescaled, sorted and formatted once, and its candidates in every class
    share it (``CertifiedCandidate``).  Returns the report's ``config``, the
    classes, the candidates in pivot order, the nullspace, and the pivots of
    the whole matrix modulo the prime of the forms kept."""
    n, top = d + 1, max_degree // step
    columns = enumerate_monomials(n, top)
    count = len(columns) + _EXTRA_SAMPLES
    numerators, scales = points(SampleConfig(seed=seed, count=count, box=_DISCOVERY_BOX))
    classes = _parity_classes(n, max_degree) if step == 2 else [(0,) * n]
    degrees = [(max_degree - sum(e)) // step for e in classes]
    certify = certificate(columns)
    widths = {k: math.comb(k + n, k) for k in sorted(set(degrees))}
    expected = {k: corank(k) for k in widths}
    exponents = np.asarray(columns)

    def primes():
        # a prime must be a unit for every scale, also of the rows that the
        # prefix pass leaves out, so that both passes try the same primes:
        # one that divides a scale is skipped
        return itertools.islice((p for p in word_primes() if all(s % p for s in scales)), _MAX_PRIMES)

    rows = len(columns) - expected[top] + _EXTRA_SAMPLES
    run = None
    if rows < count:
        run = _run_primes(numerators[:rows], scales[:rows], exponents, widths, primes(), certify, expected)
    if run is None:
        run = _run_primes(numerators, scales, exponents, widths, primes(), certify, None)
    image, found, rank_pivots = run

    # the row g(x) of pivot f0, x = t^step / c with c = a^step, gives
    # c^|f0| * g(t^step / c), whose pivot is 1: its numerator z at column f
    # gives the coefficient z * a^-m / common, m = step * (|f| - |f0|) >= 0;
    # a row with no rational reconstruction has nothing to report.  a^-m is
    # a power of 1/a^2, times 1/a where m is odd, which only d = 1
    # discover has, at a rational edge; the rows of a sphere run at d = 2
    # are parity-homogeneous, so an irrational edge never needs a.  The
    # columns are in graded-lex order, and so are their exponents in t, so a
    # row's terms are sorted leading first by their columns, once, and
    # formatted once
    root = rational_sqrt(a2)

    @functools.cache
    def inverse(m: int) -> tuple[int, int]:
        # a^-m as (numerator, denominator)
        if m % 2:
            return root.denominator**m, root.numerator**m
        return a2.denominator ** (m // 2), a2.numerator ** (m // 2)

    unit, degree = a2 == 1, [sum(f) for f in columns]
    in_t = [tuple(step * x for x in f) for f in columns]
    at_edge = {k: [] for k in found}
    for k, prefix in found.items():
        for pivot, entries, certified in prefix:
            if entries is None:
                continue
            common, numerators = entries
            terms = []
            for j, num in sorted(numerators.items(), reverse=True):
                den = common
                if not unit:
                    up, down = inverse(step * (degree[j] - degree[pivot]))
                    num, den = num * up, den * down
                g = math.gcd(num, den)
                num, den = num // g, den // g
                terms.append((in_t[j], num, den, f"{num}/{den}" if den != 1 else str(num)))
            at_edge[k].append((in_t[pivot], tuple(terms), label if certified else CERT_UNCERTIFIED))
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


def _discover_corank(n: int) -> Callable[[int], int]:
    """The dimension of the degree-k part of the ideal of a ``discover`` run
    in n variables: the multiples of its generator, the cubic in v at d = 1
    and ``R_1(u)`` at d >= 2."""
    if n == 2:
        return lambda k: _binomial(k - 1, 2)
    return lambda k: _binomial(k - 2 + n, n)


def discover_vanishing(
    d: int,
    edge_sq,
    max_degree: int,
    seed: int = 0,
) -> DiscoveryReport:
    """Full discovery pipeline over the whole ambient space, exact at every
    d (see the module docstring): step 1 at d = 1, where the segment cubic
    mixes parities, and step 2 at d >= 2.  Certification divides by the
    generator of the vanishing ideal: the quartic relation for d >= 2 and,
    in the segment case d = 1, where the relation is not the generator, the
    cubic segment generator, which requires the edge length (the exact
    square root of ``edge_sq``) to be rational.
    """
    a2 = EmbeddedSimplex(d, edge_sq).edge_sq
    if d == 1 and rational_sqrt(a2) is None:
        raise ValueError(
            "in dimension 1 certification needs a rational edge length: "
            f"edge_sq={a2} is not a perfect rational square"
        )
    _check_degree(max_degree)
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
        "discover", d, a2, max_degree, seed, step, points, _discover_corank(n),
        functools.partial(_membership, [generator]), CERT_DIVISIBLE, _DISCOVERY_SAMPLING,
    )
    return DiscoveryReport(config, math.comb(max_degree + n, n), nullspace, candidates)


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


def _conic_point(i: int, p: int, q: int) -> tuple[tuple[int, int, int], int]:
    """The point ``v = x/w`` at ``(p, q)`` of conic i, ``{v_i = v_j + v_l,
    sum v^2 = 2}`` for ``(j, l) = (i + 1, i + 2) mod 3``."""
    x = [0, 0, 0]
    x[i], x[(i + 1) % 3], x[(i + 2) % 3] = -q * (2 * p + q), p * p - q * q, -p * (p + 2 * q)
    return tuple(x), p * p + p * q + q * q


def _conic_points(config: SampleConfig) -> tuple[list[tuple[int, int, int]], list[int]]:
    """The numerators and scales of the points v of a sphere run at d = 2:
    sample k at the point of conic ``k mod 3`` (``_conic_point``) of the
    k-th 2-weight draw ``(p, q)``, redrawn when ``q = 0``."""
    draws = _weight_rows(2, config, lambda ks, nums: nums[:, 1] != 0)
    points = [_conic_point(k % 3, p, q) for k, ((p, q), _) in enumerate(draws)]
    return [x for x, _ in points], [w for _, w in points]


def _conic_certificate(columns) -> Callable[[dict[int, int]], bool]:
    """The certificate of a sphere run at d = 2 on the monomials ``columns``
    of degree <= D: a row, given as integers by column (the numerators of
    ``_reconstruct``), is 0 at the far point ``(p, q) = (1, 2^b)`` of each
    conic (see the module docstring).  The tables of b hold ``x^f * w^(D -
    |f|)`` there by column f; conic i's at f is conic 0's at f rotated by i."""
    top = sum(columns[-1])

    @functools.cache
    def tables(bits: int) -> list[list[int]]:
        x, w = _conic_point(0, 1, 1 << bits)
        powers = [list(itertools.accumulate(itertools.repeat(y, top), operator.mul, initial=1)) for y in (*x, w)]
        value = {f: powers[0][f[0]] * powers[1][f[1]] * powers[2][f[2]] * powers[3][top - sum(f)] for f in columns}
        return [[value[f[i:] + f[:i]] for f in columns] for i in range(3)]

    def certify(row: dict[int, int]) -> bool:
        bound = 3**top * sum(map(abs, row.values()))
        bits = -(-bound.bit_length() // 64) * 64
        return not any(sum(z * table[j] for j, z in row.items()) for table in tables(bits))

    return certify


def _sphere_ideal(n: int) -> list[MultiPoly]:
    """The generators of ``_membership`` for a sphere run in n variables at
    d >= 3: ``Q_u`` (``u_last = d - sum others``) and the image of ``S_u``
    modulo ``Q_u``, whose lead in ``u_{n-2}`` is 2."""
    x = [MultiPoly.variable(j, n) for j in range(n)]
    d = MultiPoly.constant(n - 1, n)
    rest = d - sum(x[:-1], MultiPoly.zero(n))
    return [x[-1] - rest, sum((y * y for y in x[:-1]), rest * rest) - d]


def _sphere_corank(n: int) -> Callable[[int], int]:
    """The dimension of the degree-k part of the ideal of a sphere run in n
    variables, its Hilbert function (Cox, Little & O'Shea, "Ideals,
    Varieties, and Algorithms", ch. 9).  At d >= 3 ``(Q_u, S_u)`` is a
    complete intersection of degrees 1 and 2, which gives ``C(k - 1 + n, n)
    + C(k - 2 + n, n) - C(k - 3 + n, n)``.  At d = 2 the three conics meet
    pairwise in 2 points, a curve of degree 6 and arithmetic genus 4, on
    which the polynomials of degree <= k span ``6k - 3`` dimensions for k >=
    2; at k = 1 no plane contains it."""
    if n == 3:
        return lambda k: math.comb(k + 3, 3) - 6 * k + 3 if k >= 2 else 0
    return lambda k: _binomial(k - 1 + n, n) + _binomial(k - 2 + n, n) - _binomial(k - 3 + n, n)


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
    a2 = EmbeddedSimplex(circumsphere_dim(d), edge_sq).edge_sq
    _check_degree(max_degree)

    n = d + 1
    if d == 2:
        step, points, certificate = 1, _conic_points, _conic_certificate
        label, sampling = CERT_CIRCUMCIRCLE, _CONIC_SAMPLING
    else:
        step, points = 2, functools.partial(_chord_points, n)
        certificate = functools.partial(_membership, _sphere_ideal(n))
        label, sampling = CERT_SPHERE_IDEAL, _CHORD_SAMPLING
    config, classes, candidates, nullspace, pivots = _exact_run(
        "sphere", d, a2, max_degree, seed, step, points, _sphere_corank(n), certificate, label, sampling
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
