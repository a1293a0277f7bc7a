"""Regular simplices in exact and floating form, plus deterministic samplers.

Two representations cover every need of the toolkit:

* :class:`EmbeddedSimplex` never stores coordinates at all.  Conceptually
  vertex ``j`` sits at ``(a/sqrt(2)) * e_j`` in (d+1)-space, so for any
  rational barycentric weight vector every squared distance is rational and
  can be handed to exact polynomial code with zero tolerance.
* :class:`CartesianSimplex` holds floating vertices in d-space, built
  deterministically (first vertex at the origin, vertex k supported on the
  first k-1 coordinates), for everything that genuinely needs coordinates.

All sampling is reproducible: the randomness of sample ``k`` is derived
from ``(seed, k)`` alone, so runs are identical regardless of batching.
Exact samples are drawn as integers over one denominator (weights
``r_i / T``, squared distances ``a^2 * N_j / (2*T^2)`` with integer
``N_j``); ``Fraction`` values are built only where a caller needs them.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .rationals import as_fraction, frac_str

# weight numerators are drawn on this 1/64 grid before renormalisation
_WEIGHT_GRID = 64


def _rng_for(seed: int, *stream) -> random.Random:
    # string seeding hashes via SHA-512 internally: stable across runs,
    # platforms, and PYTHONHASHSEED
    return random.Random("|".join(str(part) for part in (seed, *stream)))


@dataclass(frozen=True)
class BarycentricPoint:
    """Rational weights summing to exactly 1.

    Weights may be negative: the point ranges over the whole affine hull of
    the vertices, not just the simplex itself.
    """

    weights: tuple[Fraction, ...]

    def __post_init__(self):
        ws = tuple(as_fraction(w) for w in self.weights)
        if len(ws) < 2:
            raise ValueError("need at least two weights (a 1-simplex)")
        if sum(ws) != 1:
            raise ValueError(f"weights must sum to exactly 1, got {sum(ws)}")
        object.__setattr__(self, "weights", ws)

    @property
    def dim(self) -> int:
        return len(self.weights) - 1

    def to_json(self) -> list[str]:
        return [frac_str(w) for w in self.weights]


@dataclass(frozen=True)
class DistanceSample:
    """One point's exact squared distances to all vertices.

    The rational squared distances are stored, so the entries are the
    squares of the true distances by construction.
    """

    squared: tuple[Fraction, ...]

    def __post_init__(self):
        sq = tuple(as_fraction(s) for s in self.squared)
        if any(s < 0 for s in sq):
            raise ValueError("squared distances must be non-negative")
        object.__setattr__(self, "squared", sq)

    def float_distances(self) -> tuple[float, ...]:
        return tuple(math.sqrt(float(s)) for s in self.squared)

    def to_json(self) -> dict:
        return {"mode": "exact", "squared": [frac_str(s) for s in self.squared]}


@dataclass(frozen=True)
class SampleConfig:
    """Deterministic sampling parameters.

    ``box`` bounds the barycentric weight coordinates; the default of 3
    reaches well outside the simplex while keeping the distance values,
    and hence downstream monomial matrices, on a sane scale.
    """

    seed: int
    count: int
    box: Fraction = Fraction(3)

    def __post_init__(self):
        if not isinstance(self.seed, int):
            raise ValueError("seed must be an integer")
        if not isinstance(self.count, int) or self.count < 1:
            raise ValueError(f"count must be a positive integer, got {self.count!r}")
        box = as_fraction(self.box)
        if box <= 0:
            raise ValueError("box bound must be positive")
        object.__setattr__(self, "box", box)


@dataclass(frozen=True)
class EmbeddedSimplex:
    """Regular d-simplex with exact rational squared-distance queries."""

    dim: int
    edge_sq: Fraction

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.dim!r}")
        a2 = as_fraction(self.edge_sq)
        if a2 <= 0:
            raise ValueError(f"squared edge length must be positive, got {a2}")
        object.__setattr__(self, "edge_sq", a2)

    def vertex(self, index: int) -> BarycentricPoint:
        """Vertex ``index`` (0-based) as a barycentric point."""
        if not 0 <= index <= self.dim:
            raise ValueError(f"vertex index {index} out of range")
        return BarycentricPoint(
            tuple(Fraction(1 if i == index else 0) for i in range(self.dim + 1))
        )

    @property
    def circumradius_sq(self) -> Fraction:
        return self.edge_sq * self.dim / (2 * (self.dim + 1))

    def squared_distances(self, point: BarycentricPoint) -> tuple[Fraction, ...]:
        """Exact squared distances from the point to every vertex.

        With vertices at ``(a/sqrt(2)) * e_j`` the squared distance to
        vertex j is ``(a^2/2) * ||w - e_j||^2``, and
        ``||w - e_j||^2 = ||w||^2 - 2*w_j + 1``.
        """
        if point.dim != self.dim:
            raise ValueError(f"point has {point.dim + 1} weights, simplex needs {self.dim + 1}")
        w = point.weights
        norm_sq = sum((x * x for x in w), Fraction(0))
        half_a2 = self.edge_sq / 2
        return tuple(half_a2 * (norm_sq - 2 * x + 1) for x in w)


class CartesianSimplex:
    """Regular d-simplex with explicit floating vertices in d-space.

    Construction is deterministic: vertex 0 at the origin, and vertex k
    supported on the first k coordinates with a positive last entry.  All
    pairwise distances equal the edge length to within 1e-12 relative.
    """

    __slots__ = ("dim", "edge", "vertices")

    def __init__(self, dim: int, edge: float, vertices: np.ndarray):
        self.dim = dim
        self.edge = edge
        self.vertices = vertices

    @classmethod
    def build(cls, dim: int, edge: float) -> "CartesianSimplex":
        if not isinstance(dim, int) or dim < 1:
            raise ValueError(f"dimension must be a positive integer, got {dim!r}")
        edge = float(edge)
        if not edge > 0:
            raise ValueError(f"edge length must be positive, got {edge}")
        v = np.zeros((dim + 1, dim))
        half_sq = edge * edge / 2.0
        for k in range(1, dim + 1):
            y = np.zeros(dim)
            # every earlier vertex lies at distance `edge` from the origin,
            # so the linear system is v_i . y = a^2/2, triangular in y
            for i in range(1, k):
                y[i - 1] = (half_sq - float(np.dot(v[i, : i - 1], y[: i - 1]))) / v[i, i - 1]
            rest = edge * edge - float(np.dot(y[: k - 1], y[: k - 1]))
            if rest <= 0:
                raise RuntimeError("simplex construction lost positivity")
            y[k - 1] = math.sqrt(rest)
            v[k] = y
        simplex = cls(dim, edge, v)
        simplex._check()
        return simplex

    def _check(self) -> None:
        d = np.linalg.norm(self.vertices[:, None, :] - self.vertices[None, :, :], axis=2)
        off = d[np.triu_indices(self.dim + 1, k=1)]
        if not np.allclose(off, self.edge, rtol=1e-12, atol=0):
            raise RuntimeError("vertex distances drifted from the edge length")
        gram = (self.vertices[1:] - self.vertices[0]) @ (self.vertices[1:] - self.vertices[0]).T
        if np.linalg.matrix_rank(gram) != self.dim:
            raise RuntimeError("vertices are not affinely independent")

    def distances(self, point) -> np.ndarray:
        p = np.asarray(point, dtype=float)
        if p.shape != (self.dim,):
            raise ValueError(f"point must have {self.dim} coordinates, got shape {p.shape}")
        return np.linalg.norm(self.vertices - p, axis=1)

    def point_from_weights(self, weights) -> np.ndarray:
        w = np.asarray([float(x) for x in weights])
        if w.shape != (self.dim + 1,):
            raise ValueError("one weight per vertex required")
        return w @ self.vertices

    @property
    def circumcenter(self) -> np.ndarray:
        # centroid, by symmetry of the regular simplex
        return self.vertices.mean(axis=0)

    @property
    def circumradius(self) -> float:
        return self.edge * math.sqrt(self.dim / (2.0 * (self.dim + 1)))


def _weight_draws(n: int, config: SampleConfig) -> Iterator[tuple[tuple[int, ...], int]]:
    """Exact sample weights in integer form, one ``(r, T)`` per sample:
    weight ``i`` is ``r_i / T`` with ``T = sum(r) > 0``.

    Raw numerators ``r_i`` are drawn on a 1/64 grid inside ``[-box, box]``.
    Draws whose sum is below 1/2 in absolute value (``|T| < 32``), or whose
    renormalised weights escape the box (``q*|r_i| > p*|T|`` for
    ``box = p/q``), are redrawn under a derived sub-seed; sample k therefore
    depends only on ``(seed, k)``.
    """
    hi = int(config.box * _WEIGHT_GRID)
    p, q = config.box.numerator, config.box.denominator
    for k in range(config.count):
        for attempt in itertools.count():
            rng = _rng_for(config.seed, "weights", k, attempt)
            raw = [rng.randint(-hi, hi) for _ in range(n)]
            total = sum(raw)
            bound = p * abs(total)
            if 2 * abs(total) >= _WEIGHT_GRID and all(q * abs(r) <= bound for r in raw):
                break
        if total < 0:
            yield tuple(-r for r in raw), -total
        else:
            yield tuple(raw), total


def _distance_numerators(nums: tuple[int, ...], den: int) -> tuple[int, ...]:
    """``N_j = sum(r^2) - 2*r_j*T + T^2`` for weights ``r / T``: the squared
    distance to vertex j is ``a^2 * N_j / (2*T^2)`` (see
    :meth:`EmbeddedSimplex.squared_distances`)."""
    base = sum(r * r for r in nums) + den * den
    return tuple(base - 2 * den * r for r in nums)


def _exact_squared(edge_sq: Fraction, nums: tuple[int, ...], den: int) -> tuple[Fraction, ...]:
    """Exact squared distances of the point with weights ``nums / den``."""
    scale = 2 * edge_sq.denominator * den * den
    return tuple(Fraction(edge_sq.numerator * n, scale) for n in _distance_numerators(nums, den))


def sample_points(
    simplex: EmbeddedSimplex, config: SampleConfig
) -> list[tuple[BarycentricPoint, DistanceSample]]:
    """Deterministic exact samples of the distance map.

    Raw weights are drawn on a 1/64 grid inside ``[-box, box]`` and divided
    by their sum so they add to exactly 1, with the redraw rules of
    :func:`_weight_draws`; sample k depends only on ``(seed, k)``.  The
    draws are integers; this is where their ``Fraction`` form is built.
    """
    out = []
    for nums, den in _weight_draws(simplex.dim + 1, config):
        point = BarycentricPoint(tuple(Fraction(r, den) for r in nums))
        out.append((point, DistanceSample(_exact_squared(simplex.edge_sq, nums, den))))
    return out


def sample_circumsphere(simplex: CartesianSimplex, config: SampleConfig) -> list[np.ndarray]:
    """Deterministic points on the circumsphere (uniform by direction).

    Each sample is a normalised Gaussian direction scaled to the
    circumradius around the centroid.  A 1-simplex is rejected: its
    "circumsphere" degenerates to the two endpoints.
    """
    if simplex.dim < 2:
        raise ValueError("circumsphere sampling needs dimension >= 2")
    center = simplex.circumcenter
    radius = simplex.circumradius
    out = []
    for k in range(config.count):
        for attempt in itertools.count():
            rng = _rng_for(config.seed, "sphere", k, attempt)
            direction = np.array([rng.gauss(0.0, 1.0) for _ in range(simplex.dim)])
            norm = float(np.linalg.norm(direction))
            if norm > 1e-9:
                break
        out.append(center + radius * direction / norm)
    return out


def circle_distance_profile(center, radius: float, external, n: int) -> np.ndarray:
    """Distances from a fixed point to points sweeping one semicircle.

    The sweep starts at the circle point nearest to the external point along
    the line through the centre and ends at the far intersection, sampling
    angles ``k*pi/(n-1)``.  Classical circle geometry (Euclid III.7 and
    III.8) makes the sequence strictly increasing whenever the external
    point differs from the centre; that point coinciding with the centre is
    rejected, since then every distance is the radius.
    """
    c = np.asarray(center, dtype=float)
    b = np.asarray(external, dtype=float)
    if c.shape != (2,) or b.shape != (2,):
        raise ValueError("profile is planar: center and external point must be 2-D")
    if not radius > 0:
        raise ValueError("radius must be positive")
    if not isinstance(n, int) or n < 3:
        raise ValueError("need at least 3 sample angles")
    offset = b - c
    dist = float(np.linalg.norm(offset))
    if dist < 1e-12:
        raise ValueError("external point must differ from the circle centre")
    u = offset / dist
    perp = np.array([-u[1], u[0]])
    thetas = np.arange(n) * (math.pi / (n - 1))
    points = c + radius * (np.cos(thetas)[:, None] * u + np.sin(thetas)[:, None] * perp)
    return np.linalg.norm(points - b, axis=1)


def sample_document(simplex: EmbeddedSimplex, config: SampleConfig, samples) -> dict:
    """JSON document for a batch of exact samples (arrays vertex-ordered)."""
    return {
        "dim": simplex.dim,
        "edge_sq": frac_str(simplex.edge_sq),
        "seed": config.seed,
        "count": config.count,
        "box": frac_str(config.box),
        "samples": [
            {"weights": point.to_json(), **sample.to_json()} for point, sample in samples
        ],
    }
