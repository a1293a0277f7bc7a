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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

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

    @classmethod
    def monomial(cls, exps: Sequence[int], coeff=1) -> "MultiPoly":
        e = tuple(exps)
        return cls(len(e), {e: coeff})

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

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), _ZERO)

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

    def specialize(self, var: int, value) -> "MultiPoly":
        """Substitute a rational for one variable, dropping it from the arity."""
        if not 0 <= var < self.arity:
            raise ValueError(f"variable index {var} out of range")
        if self.arity == 1:
            raise ValueError("cannot specialize the last remaining variable; use eval")
        v = as_fraction(value)
        res: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            coeff = c * v ** e[var]
            new_e = e[:var] + e[var + 1 :]
            new = res.get(new_e, _ZERO) + coeff
            if new:
                res[new_e] = new
            else:
                res.pop(new_e, None)
        return MultiPoly(self.arity - 1, res)

    def permuted(self, perm: Sequence[int]) -> "MultiPoly":
        """Rename variables: variable ``i`` becomes variable ``perm[i]``."""
        p = tuple(perm)
        if sorted(p) != list(range(self.arity)):
            raise ValueError(f"{p} is not a permutation of range({self.arity})")
        res = {}
        for e, c in self.terms.items():
            new_e = [0] * self.arity
            for i, k in enumerate(e):
                new_e[p[i]] = k
            res[tuple(new_e)] = c
        return MultiPoly(self.arity, res)

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


@dataclass(frozen=True)
class DivisionResult:
    """Outcome of last-variable division: dividend = quotient*divisor + remainder."""

    quotient: MultiPoly
    remainder: MultiPoly


def divide_last_variable(dividend: MultiPoly, divisor: MultiPoly) -> DivisionResult:
    """Divide by a polynomial whose last-variable leading coefficient is constant.

    Both inputs are read as polynomials in their last variable with
    coefficients in the remaining ones.  When the divisor's leading
    coefficient in that variable is a nonzero rational constant, true
    division applies: the quotient and remainder are unique with
    ``degree_in(last)(remainder) < degree_in(last)(divisor)``, and
    divisibility is certified by a zero remainder.
    """
    if dividend.arity != divisor.arity:
        raise ValueError(f"arity mismatch: {dividend.arity} vs {divisor.arity}")
    if divisor.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    n = divisor.arity
    last = n - 1
    m = divisor.degree_in(last)
    lead_terms = [(e, c) for e, c in divisor.terms.items() if e[last] == m]
    if len(lead_terms) != 1 or any(lead_terms[0][0][:last]):
        raise ValueError(
            "divisor's leading coefficient in the last variable must be a nonzero constant"
        )
    lead = lead_terms[0][1]

    rem = dict(dividend.terms)
    quo: dict[tuple[int, ...], Fraction] = {}
    while rem:
        k = max(e[last] for e in rem)
        if k < m:
            break
        block = [(e, c) for e, c in rem.items() if e[last] == k]
        for e, c in block:
            q_exps = e[:last] + (k - m,)
            q_coeff = c / lead
            quo[q_exps] = q_coeff
            for fe, fc in divisor.terms.items():
                te = tuple(a + b for a, b in zip(q_exps, fe))
                new = rem.get(te, _ZERO) - q_coeff * fc
                if new:
                    rem[te] = new
                else:
                    rem.pop(te, None)
    return DivisionResult(MultiPoly(n, quo), MultiPoly(n, rem))


# -- named polynomials -------------------------------------------------------


def _power_sum(arity: int, power: int) -> MultiPoly:
    terms = {}
    for i in range(arity):
        e = tuple(power if j == i else 0 for j in range(arity))
        terms[e] = 1
    return MultiPoly(arity, terms)


def _validate_dim_edge(d: int, edge_sq) -> Fraction:
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d!r}")
    a2 = as_fraction(edge_sq)
    if a2 <= 0:
        raise ValueError(f"squared edge length must be positive, got {a2}")
    return a2


def distance_relation(d: int, edge_sq) -> MultiPoly:
    """The quartic relation among the d+1 vertex distances of a regular d-simplex.

    ``(d+1)*(a^4 + sum_j T_j^4) - (a^2 + sum_j T_j^2)^2`` with ``a^2 =
    edge_sq``.  Every exponent is even, the coefficient of the last
    variable's fourth power is the constant ``d``, and the polynomial is
    symmetric under any permutation of the variables.
    """
    a2 = _validate_dim_edge(d, edge_sq)
    n = d + 1
    a4 = MultiPoly.constant(a2 * a2, n)
    return (d + 1) * (a4 + _power_sum(n, 4)) - (MultiPoly.constant(a2, n) + _power_sum(n, 2)) ** 2


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
    a2 = _validate_dim_edge(d, edge_sq)
    if d < 2:
        raise ValueError("circumsphere polynomials need dimension >= 2")
    return _power_sum(d + 1, 2) - MultiPoly.constant(d * a2, d + 1)


def circumsphere_quartic(d: int, edge_sq) -> MultiPoly:
    """``sum_j T_j^4 - d*a^4``; also zero on the circumsphere."""
    a2 = _validate_dim_edge(d, edge_sq)
    if d < 2:
        raise ValueError("circumsphere polynomials need dimension >= 2")
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
    a2 = _validate_dim_edge(d, edge_sq)
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
    a2 = _validate_dim_edge(d, edge_sq)
    if d < 2:
        raise ValueError("identity is stated for dimension >= 2")
    n = d + 1
    relation = distance_relation(d, a2)
    quad = circumsphere_quadratic(d, a2)
    quart = circumsphere_quartic(d, a2)
    shift = MultiPoly.constant((d + 1) * a2, n) + quad
    rhs = relation + shift**2 - MultiPoly.constant(((d + 1) * a2) ** 2, n)
    return (d + 1) * quart == rhs


# -- JSON wire format ---------------------------------------------------------


def default_var_names(arity: int) -> list[str]:
    return [f"T{i + 1}" for i in range(arity)]


def poly_to_dict(p: MultiPoly, var_names: Iterable[str] | None = None) -> dict:
    """Serialize to the toolkit's polynomial JSON: graded-lex terms, leading
    first, coefficients as lowest-term ``"p/q"`` strings."""
    names = list(var_names) if var_names is not None else default_var_names(p.arity)
    if len(names) != p.arity:
        raise ValueError(f"{len(names)} variable names for arity {p.arity}")
    return {
        "vars": names,
        "terms": [
            {"coeff": frac_str(c), "exps": list(e)} for e, c in p.sorted_terms()
        ],
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
            or not all(isinstance(x, int) and x >= 0 for x in exps)
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
