"""Cayley-Menger determinants, simplex volumes from distance data, and the
inverse problem of recovering a point from its vertex distances.

The Cayley-Menger determinant of n points is the determinant of the squared
distance matrix bordered by a row and column of ones (with a zero corner).
It vanishes exactly when the points fit in fewer than n-1 dimensions, and
for a genuine (n-1)-simplex it carries the squared volume:

    volume^2 = (-1)^n / (2^(n-1) * ((n-1)!)^2) * det(bordered)

Every determinant is exact.  A float is a dyadic rational, so a float
entry is kept as the ``Fraction`` it equals; the denominators of each row
are cleared and fraction-free (Bareiss) elimination runs on integers.  The
cost grows with N like N^3 operations on integers of O(N) times the entry
width: milliseconds for a float cloud of 25 points, seconds at 100.
Float input differs from rational input only in how its determinant is
reported (rounded once to a float) and in the flat rule: a float
configuration with ``-1e-9 * max^d <= volume^2 < 0`` counts as flat.

Realizability is decided by the quartic relation
``R(s) = (d+1)*(a^4 + sum_j s_j^2) - (a^2 + sum_j s_j)^2`` on the squared
distances ``s_0..s_d`` to the vertices of a regular d-simplex with squared
edge ``a^2`` (Blumenthal, *Theory and Applications of Distance Geometry*,
1953).  Write ``u_j = v_j - v_0`` for j = 1..d.  Every ``|u_j|^2`` is
``a^2`` and every ``u_i . u_j`` (i != j) is ``a^2/2``, so the Gram matrix
is ``G = (a^2/2)(I + J)`` with inverse ``(2/a^2)(I - J/(d+1))``.
Subtracting the sphere equation of vertex 0 from that of vertex j leaves
``u_j . y = b_j`` with ``y = x - v_0`` and ``b_j = (a^2 + s_0 - s_j)/2``;
its unique solution has ``|y|^2 = b^T G^{-1} b =
(2/a^2)(sum b_j^2 - (sum b_j)^2/(d+1))``, and expanding gives

    s_0 - |x - v_0|^2 = -R(s) / (2*(d+1)*a^2).

So a tuple of non-negative squared distances comes from a point of d-space
exactly when ``R(s) = 0``: every real non-negative completion of a tuple
through the relation is realizable, with no tolerance involved.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from fractions import Fraction

import numpy as np

from .geom import CartesianSimplex, EmbeddedSimplex, _unit_float_rows
from .rationals import as_fraction, frac_str

# relative depth below 0 at which a float configuration's volume^2 is still flat
_FLAT = Fraction(1, 10**9)
# largest defect, relative to a^2, of a feasible reconstruction
_RECONSTRUCT_TOL = 1e-9


def _is_sequence(value) -> bool:
    return isinstance(value, (Sequence, np.ndarray)) and not isinstance(value, (str, bytes))


def _real_entry(value, i: int, j: int) -> Fraction:
    try:
        # bool is a numbers.Real, but a JSON true or false is not a distance
        real = isinstance(value, (numbers.Real, str)) and not isinstance(value, bool)
        x = float(value) if real else math.nan
    except OverflowError:  # an int beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"entry ({i},{j}) is not a finite real number: {value!r}")
    return Fraction(x)


class SquaredDistanceMatrix:
    """Symmetric matrix of pairwise squared distances, held as Fractions.

    Exactness is inferred from the entries: ints, Fractions, and "p/q"
    strings give an exact matrix, anything floating gives a float one,
    whose entries are converted to floats and kept as the Fractions they
    equal.
    The diagonal must be zero and every entry non-negative; asymmetric or
    negative input is rejected, and so are rows that are not sequences and
    entries that are neither rational nor finite reals.
    """

    __slots__ = ("n", "rows", "exact")

    def __init__(self, rows: Sequence[Sequence]):
        if not _is_sequence(rows) or not all(_is_sequence(r) for r in rows):
            raise ValueError("matrix must be a sequence of rows, each a sequence of entries")
        data = [list(r) for r in rows]
        n = len(data)
        if n < 2:
            raise ValueError("need at least two points")
        if any(len(r) != n for r in data):
            raise ValueError("matrix must be square")
        exact = all(
            isinstance(x, (int, Fraction, str)) and not isinstance(x, bool)
            for r in data
            for x in r
        )
        if exact:
            mat = [[as_fraction(x) for x in r] for r in data]
        else:
            mat = [[_real_entry(x, i, j) for j, x in enumerate(r)] for i, r in enumerate(data)]
        for i in range(n):
            if mat[i][i] != 0:
                raise ValueError(f"diagonal entry ({i},{i}) must be zero")
            for j in range(i + 1, n):
                if mat[i][j] != mat[j][i]:
                    raise ValueError(f"matrix is not symmetric at ({i},{j})")
                if mat[i][j] < 0:
                    raise ValueError(f"negative squared distance at ({i},{j})")
        self.n = n
        self.rows = tuple(tuple(r) for r in mat)
        self.exact = exact

    @classmethod
    def regular(cls, n: int, edge_sq) -> "SquaredDistanceMatrix":
        """n points with all pairwise squared distances equal."""
        if n < 2:
            raise ValueError("need at least two points")
        a2 = EmbeddedSimplex(n - 1, edge_sq).edge_sq
        return cls([[Fraction(0) if i == j else a2 for j in range(n)] for i in range(n)])

    def extended_with(self, squared_to_all: Sequence) -> "SquaredDistanceMatrix":
        """Append a phantom point at the given squared distances to every
        existing point; the result is exact if both parts are."""
        extra = list(squared_to_all)
        if len(extra) != self.n:
            raise ValueError(f"need {self.n} squared distances, got {len(extra)}")
        rows = [list(r) + [extra[i]] for i, r in enumerate(self.rows)]
        matrix = SquaredDistanceMatrix(rows + [extra + [0]])
        matrix.exact &= self.exact  # the rows of a float matrix are Fractions too
        return matrix

    def bordered(self) -> list[list]:
        return [[0] + [1] * self.n] + [[1, *r] for r in self.rows]


def _bareiss_det(rows: list[list[Fraction]]) -> Fraction:
    """Exact determinant of a rational (``int`` or ``Fraction``) matrix.

    Each row is multiplied by the lcm of its entries' denominators, which
    scales the determinant by that lcm, so fraction-free (Bareiss)
    elimination then runs on Python ints, where every division is exact.
    """
    m = []
    scale = 1
    for row in rows:
        lcm = math.lcm(*(x.denominator for x in row))
        m.append([x.numerator * (lcm // x.denominator) for x in row])
        scale *= lcm
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot_row = m[k]
        pivot = pivot_row[k]
        for i in range(k + 1, n):
            row = m[i]
            lead = row[k]
            row[k + 1 :] = [
                (x * pivot - lead * y) // prev for x, y in zip(row[k + 1 :], pivot_row[k + 1 :])
            ]
        prev = pivot
    return Fraction(sign * m[n - 1][n - 1], scale)


def cayley_menger_det(matrix: SquaredDistanceMatrix) -> Fraction:
    """Exact determinant of the bordered squared-distance matrix."""
    return _bareiss_det(matrix.bordered())


def _float_of(x: Fraction, what: str) -> float:
    """``x`` rounded once to a float, or ``ValueError`` naming ``what``
    where that is outside the float range."""
    try:
        y = float(x)
    except OverflowError:
        raise ValueError(f"{what} is too large for a float") from None
    if y == 0.0 and x != 0:
        raise ValueError(f"{what} is too small for a float: it rounds to 0")
    return y


def simplex_volume(matrix: SquaredDistanceMatrix) -> float:
    """Volume of the (n-1)-simplex spanned by n points given their distances.

    Raises when the determinant has the wrong sign, meaning no Euclidean
    point set realises the distance data; degenerate (flat) data gives 0.
    """
    return _exact_volume(matrix, cayley_menger_det(matrix))


def _exact_volume(matrix: SquaredDistanceMatrix, det: Fraction) -> float:
    """``simplex_volume`` given the matrix's Cayley-Menger determinant.

    A float matrix with ``-1e-9 * max^d <= volume^2 < 0`` (max its largest
    entry) is flat: rounding in its entries can push a flat configuration
    just below 0.  The rule is evaluated exactly.
    """
    d = matrix.n - 1
    v2 = Fraction((-1) ** (d + 1) * det, 2**d * math.factorial(d) ** 2)
    if v2 < 0 and not matrix.exact and v2 >= -_FLAT * max(map(max, matrix.rows)) ** d:
        return 0.0
    if v2 < 0:
        raise ValueError(f"distance data is not embeddable: volume^2 = {v2} is negative")
    if v2 == 0:
        return 0.0
    # v2 / 4^k lies in [1/2, 4), so its float is normal and its root is
    # right to one ulp before the exact scaling by 2^k; where float(v2)
    # is normal this is sqrt(float(v2)) bit for bit
    k = (v2.numerator.bit_length() - v2.denominator.bit_length()) // 2
    try:
        volume = math.ldexp(math.sqrt(v2 / Fraction(4) ** k), k)
    except OverflowError:
        raise ValueError("volume^2 is too large for a float") from None
    if volume == 0.0:
        raise ValueError("volume is too small for a float: it rounds to 0")
    return volume


def relation_vs_cayley_menger(d: int, edge_sq, squared_t: Sequence):
    """Evaluate, exactly, both degeneracy witnesses of a distance tuple.

    Returns ``(relation_value, cm_value)``: the quartic relation on the
    tuple of squared distances, and the Cayley-Menger determinant of the
    d+2 point configuration made of the regular simplex's vertices plus a
    phantom point at those squared distances.  For distances that come from
    an actual point both are exactly zero, the determinant because d+2
    points never affinely span in d dimensions.
    """
    from .poly import relation_residual_exact

    squared = [as_fraction(x) for x in squared_t]
    residual = relation_residual_exact(d, edge_sq, squared)
    config = SquaredDistanceMatrix.regular(d + 1, edge_sq).extended_with(squared)
    return residual, cayley_menger_det(config)


class ReconstructionResult:
    """Outcome of distance-based point recovery.

    ``point`` is always the solution of the linearised system (the unique
    candidate); ``feasible`` records whether it also satisfies the one
    remaining quadratic constraint, whose defect is ``residual``, to within
    the tolerance ``tol``.
    """

    __slots__ = ("feasible", "point", "residual", "tol")

    def __init__(self, feasible: bool, point: np.ndarray, residual: float, tol: float):
        self.feasible = feasible
        self.point = point
        self.residual = residual
        self.tol = tol

    @property
    def status(self) -> str:
        return "feasible" if self.feasible else "infeasible"

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "point": [float(x) for x in self.point],
            "residual": self.residual,
        }


def reconstruct_point(simplex: CartesianSimplex, distances: Sequence[float]) -> ReconstructionResult:
    """Recover the point at the given distances from the simplex vertices.

    Subtracting the first sphere equation from the others leaves d linear
    equations ``2*(v_j - v_0) . x = (|v_j|^2 - |v_0|^2) - (t_j^2 - t_0^2)``
    whose matrix is nonsingular because the vertices affinely span; the
    solution is then checked against the first sphere equation, to a
    tolerance of 1e-9 scaled by the squared edge length.

    The defect of that check is known in closed form.  With
    ``G = (a^2/2)(I + J)`` the Gram matrix of the ``v_j - v_0`` and
    ``G^{-1} = (2/a^2)(I - J/(d+1))`` (see the module docstring), the
    solution satisfies ``t_0^2 - |x - v_0|^2 = -R(t^2) / (2*(d+1)*a^2)`` for
    the quartic relation ``R``, so ``residual`` is ``|R(t^2)| / (2*(d+1)*a^2)``
    up to rounding, and the tuple is realizable exactly when ``R(t^2) = 0``.

    Distances whose squares, or whose point, overflow a float raise
    ``ValueError`` naming them.
    """
    t = np.asarray(distances, dtype=float)
    if t.shape != (simplex.dim + 1,):
        raise ValueError(f"need {simplex.dim + 1} distances, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError("distances must be finite")
    if np.any(t < 0):
        raise ValueError("distances must be non-negative")
    with np.errstate(over="ignore"):
        squares = t * t
    if not np.all(np.isfinite(squares)):
        big = float(t[~np.isfinite(squares)][0])
        raise ValueError(f"distance {big!r} is too large: its square overflows a float")
    v = simplex.vertices
    lhs = 2.0 * (v[1:] - v[0])
    norms = np.einsum("ij,ij->i", v, v)
    rhs = (norms[1:] - norms[0]) - (squares[1:] - squares[0])
    try:
        x = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:  # unreachable for a valid simplex
        raise RuntimeError("linearised system was singular") from exc
    with np.errstate(over="ignore"):
        residual = abs(float(np.dot(x - v[0], x - v[0])) - float(t[0]) ** 2)
    if not math.isfinite(residual):
        raise ValueError(
            f"distances {t.tolist()} are too large: the point they give overflows a float"
        )
    tol = _RECONSTRUCT_TOL * simplex.edge**2
    return ReconstructionResult(feasible=residual <= tol, point=x, residual=residual, tol=tol)


def complete_distance_tuple(d: int, edge_sq, first: Sequence) -> list:
    """Solve the quartic relation for the last distance, given the first d.

    In the square ``s`` of the last distance the relation is quadratic with
    leading coefficient ``d``; the real non-negative roots give the
    candidate distances, returned sorted ascending (possibly empty).  The
    inputs are taken as floats, and a discriminant within rounding of 0
    counts as 0, and so does a root s within rounding of 0; both cutoffs
    scale with the edge, so the roots scale with it too.  ``first`` is one
    tuple's d distances, or an ``(m, d)`` array of them, which gives one
    root list per row.

    The power sums are added column by column, left to right, as ``sum``
    adds on Python 3.10 and 3.11 (3.12 compensates), and the fourth powers
    are Python float powers (libm ``pow``; numpy's SIMD power can differ
    in the last bit), so every supported Python gives the same roots.  A
    fourth power beyond the float range raises ``OverflowError``.  Distances
    that are not finite and non-negative, and an ``edge_sq`` that is not
    finite and positive, raise ``ValueError``, as in
    :func:`reconstruct_point`.
    """
    t = np.asarray(first, dtype=float)
    if t.ndim not in (1, 2) or t.shape[-1] != d:
        raise ValueError(f"need the first {d} distances, got shape {t.shape}")
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d!r}")
    if not np.all(np.isfinite(t)):
        raise ValueError("distances must be finite")
    if np.any(t < 0):
        raise ValueError("distances must be non-negative")
    a2 = float(edge_sq)
    if not 0 < a2 < math.inf:
        raise ValueError(f"edge_sq must be a positive finite number, got {edge_sq!r}")
    rows = np.atleast_2d(t)
    fourth = np.array([x**4 for x in rows.ravel().tolist()]).reshape(rows.shape)
    # the float arithmetic of Python: inf and nan without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        p = a2 + np.cumsum(rows * rows, axis=1)[:, -1]
        q = a2**2 + np.cumsum(fourth, axis=1)[:, -1]
        disc = (d + 1) * (p * p - d * q)
        disc[(disc < 0) & (disc > -1e-9 * (p * p + np.abs(q) + a2 * a2))] = 0.0
        root = np.sqrt(disc)  # nan where disc < 0: no real root
        low, high = (p - root) / d, (p + root) / d
        has_low, has_high = low >= -1e-12 * a2, high >= -1e-12 * a2
        low, high = np.sqrt(np.where(low < 0, 0.0, low)), np.sqrt(np.where(high < 0, 0.0, high))
    # low <= high, and a kept low root keeps the high one
    out = [
        [lo, hi] if keep_lo and lo != hi else [hi] if keep_hi else []
        for lo, hi, keep_lo, keep_hi in zip(low.tolist(), high.tolist(), has_low.tolist(), has_high.tolist())
    ]
    return out if t.ndim == 2 else out[0]


class ProbeReport:
    """Per-trial completion data of the realizability probe."""

    __slots__ = ("config", "trials", "counts")

    def __init__(self, config: dict, trials: list[dict], counts: dict):
        self.config = config
        self.trials = trials
        self.counts = counts

    def to_json(self) -> dict:
        return {"config": self.config, "counts": self.counts, "trials": self.trials}


def probe_realizability(d: int, edge_sq, trials: int, seed: int = 0) -> ProbeReport:
    """Do positive tuples satisfying the relation come from actual points?

    Each trial draws the first d distances log-uniformly in [a/10, 10a],
    from the uniform floats of the key ``seed|probe|i`` (see
    ``geom._unit_float_rows``), and completes the tuple through the
    quadratic.  All trials are drawn in one round of digests and completed
    in one call of :func:`complete_distance_tuple`.  By the identity in the
    module docstring every real non-negative root is realizable, so each
    root gets the verdict ``feasible`` and ``infeasible`` stays 0; the
    report also counts the trials with no real non-negative root at all.

    The relation is homogeneous in ``(a^2, t^2)``, so the completion runs in
    units of the edge, where no power of a can overflow or underflow, and
    the counts do not depend on a.  ``d`` and ``edge_sq`` are checked by
    ``EmbeddedSimplex``, and its float edge by ``EmbeddedSimplex.edge``,
    which rejects one below the normal floats.
    """
    simplex = EmbeddedSimplex(d, edge_sq)
    if not isinstance(trials, int) or trials < 1:
        raise ValueError("trials must be a positive integer")
    edge = simplex.edge
    counts = {"no_real_root": 0, "feasible": 0, "infeasible": 0}
    draws = _unit_float_rows([f"{seed}|probe|{i}" for i in range(trials)], d)
    # Python float powers, as in complete_distance_tuple
    units = np.array([10.0**x for x in (-1.0 + 2.0 * draws).ravel().tolist()]).reshape(trials, d)
    completions = complete_distance_tuple(d, 1.0, units)
    rows = []
    for i, (first, units_roots) in enumerate(zip((edge * units).tolist(), completions)):
        roots = [edge * r for r in units_roots]
        verdicts = [{"t_last": t_last, "status": "feasible"} for t_last in roots]
        counts["feasible"] += len(roots)
        if not roots:
            counts["no_real_root"] += 1
        rows.append({"trial": i, "t_first": first, "roots": roots, "verdicts": verdicts})
    config = {"d": d, "edge_sq": frac_str(simplex.edge_sq), "trials": trials, "seed": seed}
    return ProbeReport(config=config, trials=rows, counts=counts)
