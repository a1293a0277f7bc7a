"""Exact multivariate polynomials over the rationals, and the named
polynomials of the regular-simplex distance toolkit.

The central object is :class:`MultiPoly`, a sparse exponent-map polynomial
with ``Fraction`` coefficients.  All arithmetic is exact; the only floating
point in this module lives in :meth:`MultiPoly.eval_float`.

Named builders
--------------

``distance_relation(d, edge_sq)``
    The quartic tying the edge length ``a`` of a regular d-simplex to the
    d+1 distances from its vertices to a free point of the ambient space:
    ``(d+1)*(a^4 + sum_j T_j^4) - (a^2 + sum_j T_j^2)^2``.  Only ``a^2``
    and ``a^4`` appear, so a rational ``edge_sq`` keeps it rational.

``distance_relation_homogeneous(d)``
    The same form with the edge length promoted to an extra variable,
    making it homogeneous of degree 4 and symmetric in all d+2 variables.

``circumsphere_quadratic(d, edge_sq)`` / ``circumsphere_quartic(d, edge_sq)``
    ``sum_j T_j^2 - d*a^2`` and ``sum_j T_j^4 - d*a^4``, both of which
    vanish when the free point lies on the circumsphere.

``segment_generator(edge)``
    In the one-dimensional case (a segment) the quartic relation factors
    into four linear forms and the vanishing ideal is generated by the
    cubic product of three of them; this builds that cubic.

Ideal membership in the principal ideal of the quartic relation is decided
by :func:`reduce_by_relation`.  The relation, viewed in its last variable,
has the nonzero constant ``d`` as leading coefficient, so ordinary
last-variable division terminates with a unique remainder and membership
is exactly ``remainder == 0``; no term-order machinery is required.

The package divides polynomials in one loop, ``_remainder``: integer
pseudo-division (Knuth, TAOCP vol. 2, 4.6.1) with exponent vectors packed
into ints.  :func:`divide_last_variable` clears denominators, packs both
polynomials, runs it and scales the quotient and remainder back; the
certificates of ``simplexdist.discover`` run it on rows scaled to integers.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .geom import EmbeddedSimplex, circumsphere_dim
from .rationals import as_fraction, frac_str

_ZERO = Fraction(0)


def _grlex_key(exps: tuple[int, ...]) -> tuple:
    return (sum(exps), exps)


class MultiPoly:
    """Sparse multivariate polynomial with exact rational coefficients.

    ``terms`` maps exponent tuples (one entry per variable) to nonzero
    coefficients.  Instances are value objects: treat them as immutable.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: Mapping[tuple[int, ...], object] | None = None):
        if not isinstance(arity, int) or arity < 1:
            raise ValueError(f"arity must be a positive integer, got {arity!r}")
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in (terms or {}).items():
            e = tuple(int(x) for x in exps)
            if len(e) != arity:
                raise ValueError(f"exponent vector {e} does not match arity {arity}")
            if any(x < 0 for x in e):
                raise ValueError(f"negative exponent in {e}")
            c = as_fraction(coeff)
            if c != 0:
                clean[e] = c
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _canonical(cls, arity: int, terms: dict[tuple[int, ...], Fraction]) -> "MultiPoly":
        """A polynomial from terms that are already canonical: int exponent
        tuples of length ``arity`` and nonzero ``Fraction`` coefficients.
        It skips the checks of ``__init__``, for the discovery kernel, which
        builds thousands of terms of that form, and the closed-form quartic."""
        p = object.__new__(cls)
        object.__setattr__(p, "arity", arity)
        object.__setattr__(p, "terms", terms)
        return p

    @classmethod
    def zero(cls, arity: int) -> "MultiPoly":
        return cls(arity, {})

    @classmethod
    def constant(cls, value, arity: int) -> "MultiPoly":
        return cls(arity, {(0,) * arity: as_fraction(value)})

    @classmethod
    def variable(cls, index: int, arity: int) -> "MultiPoly":
        if not 0 <= index < arity:
            raise ValueError(f"variable index {index} out of range for arity {arity}")
        exps = tuple(1 if i == index else 0 for i in range(arity))
        return cls(arity, {exps: 1})

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Largest total degree among the terms; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, var: int) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(e[var] for e in self.terms)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in graded-lex order, leading (largest) term first."""
        return sorted(self.terms.items(), key=lambda item: _grlex_key(item[0]), reverse=True)

    # -- arithmetic --------------------------------------------------------

    def _check_arity(self, other: "MultiPoly") -> None:
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_arity(other)
        res = dict(self.terms)
        for e, c in other.terms.items():
            new = res.get(e, _ZERO) + c
            if new:
                res[e] = new
            else:
                res.pop(e, None)
        return MultiPoly(self.arity, res)

    def __neg__(self):
        return MultiPoly(self.arity, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def scale(self, value) -> "MultiPoly":
        c = as_fraction(value)
        if c == 0:
            return MultiPoly.zero(self.arity)
        return MultiPoly(self.arity, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, str)):
            return self.scale(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_arity(other)
        res: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                new = res.get(e, _ZERO) + c1 * c2
                if new:
                    res[e] = new
                else:
                    res.pop(e, None)
        return MultiPoly(self.arity, res)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, str)):
            return self.scale(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, str)):
            return self.scale(Fraction(1) / as_fraction(other))
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = MultiPoly.constant(1, self.arity)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    # -- evaluation and substitution ----------------------------------------

    def eval(self, point: Sequence) -> Fraction:
        """Exact evaluation at a rational point."""
        xs = [as_fraction(x) for x in point]
        if len(xs) != self.arity:
            raise ValueError(f"point arity {len(xs)} does not match {self.arity}")
        total = _ZERO
        for e, c in self.terms.items():
            term = c
            for x, k in zip(xs, e):
                if k:
                    term *= x**k
            total += term
        return total

    def eval_float(self, point: Sequence[float]) -> float:
        """Floating evaluation; accepts any reals."""
        xs = [float(x) for x in point]
        if len(xs) != self.arity:
            raise ValueError(f"point arity {len(xs)} does not match {self.arity}")
        total = 0.0
        for e, c in self.terms.items():
            term = float(c)
            for x, k in zip(xs, e):
                if k:
                    term *= x**k
            total += term
        return total

    # -- display -----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"T{i + 1}^{k}" if k > 1 else f"T{i + 1}" for i, k in enumerate(e) if k
            )
            if not mono:
                body = str(c)
            elif c == 1:
                body = mono
            elif c == -1:
                body = f"-{mono}"
            else:
                body = f"{c}*{mono}"
            parts.append(body)
        out = parts[0]
        for body in parts[1:]:
            out += f" - {body[1:]}" if body.startswith("-") else f" + {body}"
        return out

    def __repr__(self):
        return f"MultiPoly({self.arity}, {len(self.terms)} terms, deg {self.total_degree()})"


def proportional(p: MultiPoly, q: MultiPoly) -> bool:
    """True when ``p`` is a nonzero rational multiple of ``q`` (or both zero)."""
    if p.arity != q.arity:
        return False
    if p.is_zero or q.is_zero:
        return p.is_zero and q.is_zero
    anchor = min(q.terms, key=_grlex_key)
    if anchor not in p.terms:
        return False
    ratio = p.terms[anchor] / q.terms[anchor]
    return p == q.scale(ratio)


# -- division ---------------------------------------------------------------


class DivisionResult:
    """Outcome of last-variable division: dividend = quotient*divisor + remainder."""

    __slots__ = ("quotient", "remainder")

    def __init__(self, quotient: MultiPoly, remainder: MultiPoly):
        self.quotient = quotient
        self.remainder = remainder


def _pack(exponent: Sequence[int], base: int) -> int:
    """One int for an exponent vector, in base ``base``, the last variable
    most significant."""
    return sum(x * base**i for i, x in enumerate(exponent))


def _divisor(poly: MultiPoly, base: int) -> tuple:
    """``poly``, with integer coefficients and a constant lead in the last
    variable x that occurs in it (the last variable, for a constant), as
    ``(lead, high, m, rest)`` packed in ``base``: ``lead * x^m + rest``, m
    the degree in x, x of weight ``high``, and ``rest`` the packed exponents
    and coefficients of the other terms."""
    var = max((i for f in poly.terms for i, x in enumerate(f) if x), default=poly.arity - 1)
    m = max(f[var] for f in poly.terms)
    high = base**var
    packed = {_pack(f, base): int(c) for f, c in poly.terms.items()}
    return packed.pop(m * high), high, m, list(packed.items())


def _remainder(poly: dict[int, int], divisor: tuple) -> tuple[dict[int, int], dict[int, int]]:
    """The integer pseudo-division of the polynomial with integer
    coefficients ``poly``, by packed exponent, by ``divisor``: the quotient
    q and the remainder r, of degree below m in x, of ``lead^k * poly = q *
    divisor + r`` for ``k = max(top - m + 1, 0)``, with top the degree of
    ``poly`` in x.  They are unique, and r is 0 exactly when the divisor
    divides ``poly``.  No variable after x occurs in ``poly``, and x is the
    most significant digit of a code, so top is the level of the largest
    code.

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
    quotient, remainder = {}, {code: c * scale for code, c in poly.items()}
    buckets = [[] for _ in range(m, top + 1)]
    for code in remainder:
        if code // high >= m:
            buckets[code // high - m].append(code)
    for bucket in reversed(buckets):
        for code in bucket:
            value = remainder.pop(code, 0)
            if not value:
                continue
            shift = code - m * high
            quotient[shift] = factor = value // lead
            for rc, rv in rest:
                key = shift + rc
                old = remainder.get(key, 0)
                value = old - factor * rv
                if not value:
                    del remainder[key]
                    continue
                remainder[key] = value
                if not old and key // high >= m:
                    buckets[key // high - m].append(key)
    return quotient, remainder


def _packing_base(columns, polys: Sequence[MultiPoly]) -> int:
    """The base that packs the rows on the monomials ``columns`` and the
    divisors ``polys`` of a certificate: one above their largest exponent.
    The columns hold every monomial up to their degree, so their largest
    exponent is their largest total degree, and a divisor's lead has its top
    total degree, so reduction never raises a term's total degree: no
    exponent outgrows the base."""
    return 1 + max(map(max, itertools.chain(columns, *(p.terms for p in polys))))


def divide_last_variable(dividend: MultiPoly, divisor: MultiPoly) -> DivisionResult:
    """Divide by a polynomial whose last-variable leading coefficient is constant.

    Both inputs are read as polynomials in their last variable with
    coefficients in the remaining ones.  When the divisor's leading
    coefficient in that variable is a nonzero rational constant, true
    division applies: the quotient and remainder are unique with
    ``degree_in(last)(remainder) < degree_in(last)(divisor)``, and
    divisibility is certified by a zero remainder.

    The two are scaled to integers, ``P = dp * dividend`` and ``G = dg *
    divisor``, packed and pseudo-divided (``_remainder``): ``lead^k * P = Q
    * G + R`` gives the quotient ``Q * dg / (lead^k * dp)`` and the
    remainder ``R / (lead^k * dp)``.  The base bounds every exponent the
    division makes: clearing a term lowers its degree in the last variable
    by at least 1 and raises each other exponent by at most the divisor's
    largest exponent, at most k times in a row, so by ``x - y^3`` the
    dividend ``x^2`` leaves ``y^6``.
    """
    if dividend.arity != divisor.arity:
        raise ValueError(f"arity mismatch: {dividend.arity} vs {divisor.arity}")
    if divisor.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    n = divisor.arity
    last = n - 1
    m = divisor.degree_in(last)
    lead_terms = [e for e in divisor.terms if e[last] == m]
    if len(lead_terms) != 1 or any(lead_terms[0][:last]):
        raise ValueError(
            "divisor's leading coefficient in the last variable must be a nonzero constant"
        )
    k = max(dividend.degree_in(last) - m + 1, 0)
    base = 1 + max(map(max, dividend.terms), default=0) + k * max(map(max, divisor.terms))
    dp = math.lcm(*(c.denominator for c in dividend.terms.values()))
    dg = math.lcm(*(c.denominator for c in divisor.terms.values()))
    lead, *_ = packed = _divisor(divisor.scale(dg), base)
    quotient, remainder = _remainder({_pack(e, base): int(c * dp) for e, c in dividend.terms.items()}, packed)
    den = lead**k * dp

    def unpacked(codes: dict[int, int], factor: int) -> MultiPoly:
        terms = {tuple(code // base**i % base for i in range(n)): Fraction(c * factor, den) for code, c in codes.items()}
        return MultiPoly(n, terms)

    return DivisionResult(unpacked(quotient, dg), unpacked(remainder, 1))


# -- named polynomials -------------------------------------------------------


def _power_sum(arity: int, power: int) -> MultiPoly:
    terms = {}
    for i in range(arity):
        e = tuple(power if j == i else 0 for j in range(arity))
        terms[e] = 1
    return MultiPoly(arity, terms)


def distance_relation(d: int, edge_sq) -> MultiPoly:
    """The quartic relation among the d+1 vertex distances of a regular d-simplex.

    ``(d+1)*(a^4 + sum_j T_j^4) - (a^2 + sum_j T_j^2)^2`` with ``a^2 =
    edge_sq``.  Every exponent is even, the coefficient of the last
    variable's fourth power is the constant ``d``, and the polynomial is
    symmetric under any permutation of the variables.

    Expanding the square gives its terms directly: ``d*a^4 + d*sum_j T_j^4
    - 2*a^2*sum_j T_j^2 - 2*sum_{i<j} T_i^2*T_j^2``, in that order.
    """
    a2 = EmbeddedSimplex(d, edge_sq).edge_sq
    n = d + 1
    squares = [tuple(2 * (j == i) for j in range(n)) for i in range(n)]
    terms = {(0,) * n: d * a2 * a2}
    terms.update((tuple(2 * x for x in e), Fraction(d)) for e in squares)
    terms.update((e, -2 * a2) for e in squares)
    terms.update((tuple(map(operator.add, e, f)), Fraction(-2)) for e, f in itertools.combinations(squares, 2))
    return MultiPoly._canonical(n, terms)


def distance_relation_homogeneous(d: int) -> MultiPoly:
    """Homogeneous form of the quartic relation, edge length as variable 0.

    ``(d+1)*sum_j T_j^4 - (sum_j T_j^2)^2`` over d+2 variables; substituting
    the edge for variable 0 recovers :func:`distance_relation`.
    """
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d!r}")
    n = d + 2
    return (d + 1) * _power_sum(n, 4) - _power_sum(n, 2) ** 2


def circumsphere_quadratic(d: int, edge_sq) -> MultiPoly:
    """``sum_j T_j^2 - d*a^2``; zero exactly on the circumsphere."""
    a2 = EmbeddedSimplex(circumsphere_dim(d), edge_sq).edge_sq
    return _power_sum(d + 1, 2) - MultiPoly.constant(d * a2, d + 1)


def circumsphere_quartic(d: int, edge_sq) -> MultiPoly:
    """``sum_j T_j^4 - d*a^4``; also zero on the circumsphere."""
    a2 = EmbeddedSimplex(circumsphere_dim(d), edge_sq).edge_sq
    return _power_sum(d + 1, 4) - MultiPoly.constant(d * a2 * a2, d + 1)


def reduce_by_relation(g: MultiPoly, d: int, edge_sq) -> DivisionResult:
    """Divide ``g`` by the quartic relation; zero remainder means membership
    in the principal ideal it generates."""
    relation = distance_relation(d, edge_sq)
    if g.arity != relation.arity:
        raise ValueError(
            f"polynomial arity {g.arity} does not match the d+1 = {relation.arity} distances"
        )
    return divide_last_variable(g, relation)


def _relation_numerator(edge_num: int, nums: Sequence[int]) -> int:
    """The quartic relation in integers.

    The relation is homogeneous of degree 2 in ``(a^2, s_1, ..., s_n)``, so
    with ``a^2 = A/D`` and ``s_j = N_j/D`` over one denominator its value is
    ``R / D^2`` for the integer ``R = n*(A^2 + sum N_j^2) - (A + sum N_j)^2``,
    returned here for ``A = edge_num`` and ``N = nums``.
    """
    lin = edge_num + sum(nums)
    return len(nums) * (edge_num * edge_num + sum(x * x for x in nums)) - lin * lin


def relation_residual_exact(d: int, edge_sq, squared: Sequence) -> Fraction:
    """Evaluate the quartic relation on exact squared distances.

    Because the relation contains only even powers, it is a polynomial in
    the squared distances, so rational squared inputs give an exact value:
    ``(d+1)*(a^4 + sum s_j^2) - (a^2 + sum s_j)^2``, computed by clearing
    denominators and evaluating :func:`_relation_numerator`.
    """
    a2 = EmbeddedSimplex(d, edge_sq).edge_sq
    s = [as_fraction(x) for x in squared]
    if len(s) != d + 1:
        raise ValueError(f"expected {d + 1} squared distances, got {len(s)}")
    den = math.lcm(a2.denominator, *(x.denominator for x in s))
    nums = [x.numerator * (den // x.denominator) for x in s]
    return Fraction(_relation_numerator(a2.numerator * (den // a2.denominator), nums), den * den)


# -- the segment (d = 1) case ------------------------------------------------


def segment_factors(edge) -> tuple[MultiPoly, MultiPoly, MultiPoly, MultiPoly]:
    """The four linear factors of the quartic relation on a segment.

    Needs the edge length itself (a positive rational), not its square,
    since the factors ``T1 +/- T2 +/- a`` carry ``a`` linearly.
    """
    a = as_fraction(edge)
    if a <= 0:
        raise ValueError(f"edge length must be positive, got {a}")
    t1 = MultiPoly.variable(0, 2)
    t2 = MultiPoly.variable(1, 2)
    ca = MultiPoly.constant(a, 2)
    return (t1 + t2 + ca, t1 + t2 - ca, t1 - t2 + ca, t1 - t2 - ca)


def segment_generator(edge) -> MultiPoly:
    """Generator of the segment's vanishing ideal: the product of the three
    factors that each vanish on part of the line."""
    _, h3, h2, h1 = segment_factors(edge)
    return h3 * h2 * h1


def verify_segment_factorization(edge) -> bool:
    """Check, by exact expansion, that on a segment the quartic relation is
    the product of its four linear factors and equals ``(T1+T2+a)`` times
    the cubic generator."""
    a = as_fraction(edge)
    f_plus, h3, h2, h1 = segment_factors(a)
    relation = distance_relation(1, a * a)
    product = f_plus * h3 * h2 * h1
    return product == relation and f_plus * segment_generator(a) == relation


def verify_circumsphere_identity(d: int, edge_sq) -> bool:
    """Exact polynomial identity tying the two circumsphere polynomials to
    the quartic relation:

    ``(d+1)*quartic == relation + ((d+1)*a^2 + quadratic)^2 - (d+1)^2*a^4``.

    It makes each of the three a member of the ideal generated by the other
    two.
    """
    a2 = EmbeddedSimplex(circumsphere_dim(d), edge_sq).edge_sq
    n = d + 1
    relation = distance_relation(d, a2)
    quad = circumsphere_quadratic(d, a2)
    quart = circumsphere_quartic(d, a2)
    shift = MultiPoly.constant((d + 1) * a2, n) + quad
    rhs = relation + shift**2 - MultiPoly.constant(((d + 1) * a2) ** 2, n)
    return (d + 1) * quart == rhs


# -- JSON wire format ---------------------------------------------------------


def poly_to_dict(p: MultiPoly) -> dict:
    """Serialize to the toolkit's polynomial JSON: variables ``T1, T2, ...``,
    graded-lex terms, leading first, coefficients as lowest-term ``"p/q"``
    strings."""
    return _poly_doc(p.arity, ((list(e), frac_str(c)) for e, c in p.sorted_terms()))


def _poly_doc(arity: int, terms: Iterable[tuple[list[int], str]]) -> dict:
    """The polynomial JSON in ``arity`` variables of ``terms``, pairs of an
    exponent list and a coefficient string, given leading first."""
    return {
        "vars": [f"T{i + 1}" for i in range(arity)],
        "terms": [{"coeff": coeff, "exps": exps} for exps, coeff in terms],
    }


def poly_from_dict(doc: Mapping) -> MultiPoly:
    """Parse the polynomial JSON format; errors name the offending term index."""
    if not isinstance(doc, Mapping):
        raise ValueError("polynomial document must be a JSON object")
    names = doc.get("vars")
    if not isinstance(names, (list, tuple)) or not names:
        raise ValueError("polynomial document needs a non-empty 'vars' list")
    arity = len(names)
    raw_terms = doc.get("terms")
    if not isinstance(raw_terms, (list, tuple)):
        raise ValueError("polynomial document needs a 'terms' list")
    terms: dict[tuple[int, ...], Fraction] = {}
    for i, term in enumerate(raw_terms):
        if not isinstance(term, Mapping) or "coeff" not in term or "exps" not in term:
            raise ValueError(f"term {i}: expected an object with 'coeff' and 'exps'")
        try:
            coeff = as_fraction(term["coeff"])
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"term {i}: bad coefficient {term['coeff']!r} ({exc})") from exc
        exps = term["exps"]
        if (
            not isinstance(exps, (list, tuple))
            or len(exps) != arity
            or not all(isinstance(x, int) and not isinstance(x, bool) and x >= 0 for x in exps)
        ):
            raise ValueError(
                f"term {i}: 'exps' must be {arity} non-negative integers, got {exps!r}"
            )
        key = tuple(exps)
        if key in terms:
            raise ValueError(f"term {i}: duplicate exponent vector {key}")
        if coeff == 0:
            raise ValueError(f"term {i}: zero coefficient is not canonical")
        terms[key] = coeff
    return MultiPoly(arity, terms)
