"""Cayley-Menger determinants, simplex volumes from distance data, and the
inverse problem of recovering a point from its vertex distances.

The Cayley-Menger determinant of n points is the determinant of the squared
distance matrix bordered by a row and column of ones (with a zero corner).
It vanishes exactly when the points fit in fewer than n-1 dimensions, and
for a genuine (n-1)-simplex it carries the squared volume:

    volume^2 = (-1)^n / (2^(n-1) * ((n-1)!)^2) * det(bordered)

Rational inputs give an exact determinant: the denominators of each row
are cleared and fraction-free (Bareiss) elimination runs on integers.
Floating inputs use LAPACK.

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
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .geom import CartesianSimplex, _rng_for
from .rationals import as_fraction, frac_str


class SquaredDistanceMatrix:
    """Symmetric matrix of pairwise squared distances, exact or floating.

    Exactness is inferred from the entries: ints, Fractions, and "p/q"
    strings give an exact matrix, anything floating gives a float one.
    The diagonal must be zero and every entry non-negative; asymmetric or
    negative input is rejected.
    """

    __slots__ = ("n", "rows", "exact")

    def __init__(self, rows: Sequence[Sequence]):
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
            mat = [[float(x) for x in r] for r in data]
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
        a2 = as_fraction(edge_sq)
        if a2 <= 0:
            raise ValueError("squared edge length must be positive")
        return cls([[Fraction(0) if i == j else a2 for j in range(n)] for i in range(n)])

    def extended_with(self, squared_to_all: Sequence) -> "SquaredDistanceMatrix":
        """Append a phantom point at the given squared distances to every
        existing point."""
        extra = list(squared_to_all)
        if len(extra) != self.n:
            raise ValueError(f"need {self.n} squared distances, got {len(extra)}")
        if self.exact:
            extra = [as_fraction(x) for x in extra]
            zero = Fraction(0)
        else:
            extra = [float(x) for x in extra]
            zero = 0.0
        rows = [list(r) + [extra[i]] for i, r in enumerate(self.rows)]
        rows.append(extra + [zero])
        return SquaredDistanceMatrix(rows)

    def bordered(self) -> list[list]:
        one = Fraction(1) if self.exact else 1.0
        zero = Fraction(0) if self.exact else 0.0
        top = [zero] + [one] * self.n
        return [top] + [[one] + list(r) for r in self.rows]

    def to_json(self) -> list[list]:
        if self.exact:
            return [[frac_str(x) for x in r] for r in self.rows]
        return [list(r) for r in self.rows]


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


def cayley_menger_det(matrix: SquaredDistanceMatrix):
    """Determinant of the bordered squared-distance matrix.

    Exact (a ``Fraction``) for exact input, floating otherwise.
    """
    bordered = matrix.bordered()
    if matrix.exact:
        return _bareiss_det(bordered)
    return float(np.linalg.det(np.asarray(bordered, dtype=float)))


def simplex_volume(matrix: SquaredDistanceMatrix) -> float:
    """Volume of the (n-1)-simplex spanned by n points given their distances.

    Raises when the determinant has the wrong sign, meaning no Euclidean
    point set realises the distance data; degenerate (flat) data gives 0.
    """
    return _volume_from_det(matrix, cayley_menger_det(matrix))


def _volume_from_det(matrix: SquaredDistanceMatrix, det) -> float:
    """``simplex_volume`` given the matrix's Cayley-Menger determinant."""
    n = matrix.n
    d = n - 1
    scaled = (-1) ** (d + 1) * det
    denom = 2**d * math.factorial(d) ** 2
    if matrix.exact:
        v2 = Fraction(scaled, denom)
        if v2 < 0:
            raise ValueError(
                f"distance data is not embeddable: volume^2 = {v2} is negative"
            )
        return math.sqrt(float(v2))
    v2 = float(scaled) / denom
    # a flat float configuration can give v2 = -0.0, whose sqrt is -0.0
    if v2 <= 0:
        scale = max(abs(x) for r in matrix.rows for x in r) or 1.0
        if v2 > -1e-9 * scale**d:
            return 0.0
        raise ValueError(f"distance data is not embeddable: volume^2 = {v2} is negative")
    return math.sqrt(v2)


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


@dataclass(frozen=True)
class ReconstructionResult:
    """Outcome of distance-based point recovery.

    ``point`` is always the solution of the linearised system (the unique
    candidate); ``feasible`` records whether it also satisfies the one
    remaining quadratic constraint, whose defect is ``residual``.
    """

    feasible: bool
    point: np.ndarray
    residual: float

    @property
    def status(self) -> str:
        return "feasible" if self.feasible else "infeasible"

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "point": [float(x) for x in self.point],
            "residual": self.residual,
        }


def reconstruct_point(
    simplex: CartesianSimplex, distances: Sequence[float], tol: float | None = None
) -> ReconstructionResult:
    """Recover the point at the given distances from the simplex vertices.

    Subtracting the first sphere equation from the others leaves d linear
    equations ``2*(v_j - v_0) . x = (|v_j|^2 - |v_0|^2) - (t_j^2 - t_0^2)``
    whose matrix is nonsingular because the vertices affinely span; the
    solution is then checked against the first sphere equation.  The
    default tolerance is 1e-9 scaled by the squared edge length.

    The defect of that check is known in closed form.  With
    ``G = (a^2/2)(I + J)`` the Gram matrix of the ``v_j - v_0`` and
    ``G^{-1} = (2/a^2)(I - J/(d+1))`` (see the module docstring), the
    solution satisfies ``t_0^2 - |x - v_0|^2 = -R(t^2) / (2*(d+1)*a^2)`` for
    the quartic relation ``R``, so ``residual`` is ``|R(t^2)| / (2*(d+1)*a^2)``
    up to rounding, and the tuple is realizable exactly when ``R(t^2) = 0``.
    """
    t = np.asarray(distances, dtype=float)
    if t.shape != (simplex.dim + 1,):
        raise ValueError(f"need {simplex.dim + 1} distances, got shape {t.shape}")
    if np.any(t < 0):
        raise ValueError("distances must be non-negative")
    if tol is None:
        tol = 1e-9 * simplex.edge**2
    elif not tol > 0:
        raise ValueError("tolerance must be positive")
    v = simplex.vertices
    lhs = 2.0 * (v[1:] - v[0])
    norms = np.einsum("ij,ij->i", v, v)
    rhs = (norms[1:] - norms[0]) - (t[1:] ** 2 - t[0] ** 2)
    try:
        x = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:  # unreachable for a valid simplex
        raise RuntimeError("linearised system was singular") from exc
    residual = abs(float(np.dot(x - v[0], x - v[0])) - float(t[0]) ** 2)
    return ReconstructionResult(feasible=residual <= tol, point=x, residual=residual)


def complete_distance_tuple(d: int, edge_sq, first: Sequence) -> list[float]:
    """Solve the quartic relation for the last distance, given the first d.

    In the square ``s`` of the last distance the relation is quadratic with
    leading coefficient ``d``; the real non-negative roots give the
    candidate distances, returned sorted ascending (possibly empty).
    Rational inputs keep the discriminant exact before the final square
    roots.
    """
    if len(first) != d:
        raise ValueError(f"need the first {d} distances, got {len(first)}")
    a2 = as_fraction(edge_sq)
    exact = all(isinstance(x, (int, Fraction, str)) and not isinstance(x, bool) for x in first)
    if exact:
        ts = [as_fraction(x) for x in first]
        p = a2 + sum((x * x for x in ts), Fraction(0))
        q = a2 * a2 + sum((x**4 for x in ts), Fraction(0))
        disc = (d + 1) * (p * p - d * q)
        if disc < 0:
            return []
        root = math.sqrt(float(disc))
        p = float(p)
    else:
        ts = [float(x) for x in first]
        p = float(a2) + sum(x * x for x in ts)
        q = float(a2) ** 2 + sum(x**4 for x in ts)
        disc = (d + 1) * (p * p - d * q)
        if disc < 0:
            if disc > -1e-9 * (p * p + abs(q) + 1.0):
                disc = 0.0
            else:
                return []
        root = math.sqrt(disc)
    out = []
    for s in ((p - root) / d, (p + root) / d):
        if s >= -1e-12:
            out.append(math.sqrt(max(s, 0.0)))
    return sorted(set(out))


@dataclass
class ProbeReport:
    """Per-trial completion data of the realizability probe."""

    config: dict
    trials: list[dict]
    counts: dict

    def to_json(self) -> dict:
        return {"config": self.config, "counts": self.counts, "trials": self.trials}


def probe_realizability(d: int, edge_sq, trials: int, seed: int = 0) -> ProbeReport:
    """Do positive tuples satisfying the relation come from actual points?

    Each trial draws the first d distances log-uniformly in [a/10, 10a] and
    completes the tuple through the quadratic.  By the identity in the
    module docstring every real non-negative root is realizable, so each
    root gets the verdict ``feasible`` and ``infeasible`` stays 0; the
    report also counts the trials with no real non-negative root at all.
    """
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d!r}")
    if not isinstance(trials, int) or trials < 1:
        raise ValueError("trials must be a positive integer")
    a2 = as_fraction(edge_sq)
    if a2 <= 0:
        raise ValueError("squared edge length must be positive")
    edge = math.sqrt(float(a2))
    counts = {"no_real_root": 0, "feasible": 0, "infeasible": 0}
    rows = []
    for i in range(trials):
        rng = _rng_for(seed, "probe", i)
        first = [edge * 10.0 ** rng.uniform(-1.0, 1.0) for _ in range(d)]
        roots = complete_distance_tuple(d, a2, first)
        verdicts = [{"t_last": t_last, "status": "feasible"} for t_last in roots]
        counts["feasible"] += len(roots)
        if not roots:
            counts["no_real_root"] += 1
        rows.append({"trial": i, "t_first": first, "roots": roots, "verdicts": verdicts})
    config = {"d": d, "edge_sq": frac_str(a2), "trials": trials, "seed": seed}
    return ProbeReport(config=config, trials=rows, counts=counts)
