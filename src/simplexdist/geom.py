"""Regular simplices in exact and floating form, plus deterministic samplers.

Two representations cover every need of the toolkit:

* :class:`EmbeddedSimplex` never stores coordinates at all.  Conceptually
  vertex ``j`` sits at ``(a/sqrt(2)) * e_j`` in (d+1)-space, so for any
  rational barycentric weight vector every squared distance is rational and
  can be handed to exact polynomial code with zero tolerance.
* :class:`CartesianSimplex` holds floating vertices in d-space, in closed
  form (first vertex at the origin, vertex k supported on the first k
  coordinates), for everything that genuinely needs coordinates.

All sampling is reproducible: the randomness of sample ``k`` is derived
from ``(seed, k)`` alone, so runs are identical regardless of batching.
Exact samples are drawn as integers over one denominator (weights
``r_i / T``, squared distances ``a^2 * N_j / (2*T^2)`` with integer
``N_j``); ``Fraction`` values are built only where a caller needs them.

The integers come from a counter-based generator (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC 2011): each attempt at a sample
hashes its key ``seed|weights|k|attempt`` once with BLAKE2b, and the 64-byte
digest is cut into little-endian chunks that rejection sampling turns into
uniform integers (:func:`_digest_ints`).  No generator state is seeded per
sample, so the weight draws come in rounds over blocks of samples
(:func:`_weight_draws`): each round hashes the next attempts of every open
sample, parses all the digests at once with numpy and applies the redraw
rules as row masks.  An attempt with a rejected chunk among its first n, n
chunks that do not fit in one digest, and chunks wider than 8 bytes take
``_digest_ints`` key by key.  The draws are ``int64`` arrays where the box
keeps every integer built from them below 2^62, Python ints otherwise.
Uniform floats, for the sphere sampler and ``probe63``, are the top 53 bits
of 8-byte chunks, which no chunk fails, so :func:`_unit_float_rows` hashes
and parses the digests of a whole list of keys in one round.
"""

from __future__ import annotations

import itertools
import math
import sys
# the builtin module: ``hashlib`` would load OpenSSL, which costs every
# command megabytes and milliseconds
from _blake2 import blake2b
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

from .rationals import as_fraction, frac_str

# weight numerators are drawn on this 1/64 grid before renormalisation
_WEIGHT_GRID = 64
# attempts per sample before a box counts as too small to draw from
_MAX_ATTEMPTS = 2**16
# samples per block of draws, and digests per round of hashing
_BLOCK = 4096
# int64 arithmetic on integers below this bound cannot overflow
_INT64_SAFE = 2**62


def _digest_ints(key: str, n: int, size: int, limit: int) -> list[int]:
    """The first n values below ``limit`` among the little-endian
    ``size``-byte chunks of the BLAKE2b digest of ``key``, then of the
    digests of ``key|1``, ``key|2``, ... once the previous one runs out."""
    bits = 8 * size
    mask = (1 << bits) - 1
    out = []
    for block in itertools.count():
        digest = blake2b((f"{key}|{block}" if block else key).encode()).digest()
        chunks = int.from_bytes(digest, "little")
        for _ in range(len(digest) // size):
            v = chunks & mask
            if v < limit:
                out.append(v)
                if len(out) == n:
                    return out
            chunks >>= bits


def _unit_float_rows(keys: list[str], n: int) -> np.ndarray:
    """n uniform floats in [0, 1) per key, one row each: the top 53 bits of
    the first n 8-byte chunks of the digests of ``key``, ``key|1``, ...,
    the stream of ``_digest_ints(key, n, 8, 2**64)``, which rejects no
    chunk."""
    blocks = -(-n // 8)
    digests = b"".join(
        [blake2b((f"{key}|{b}" if b else key).encode()).digest() for key in keys for b in range(blocks)]
    )
    values = np.frombuffer(digests, dtype="<u8").reshape(len(keys), 8 * blocks)[:, :n]
    return (values >> np.uint64(11)) * 2.0**-53


def _uniform_rule(hi: int) -> tuple[int, int]:
    """``(size, limit)`` for uniform integers in ``[-hi, hi]`` from
    ``size``-byte chunks: a chunk ``v < limit`` gives ``v % width - hi``,
    ``width = 2*hi + 1``, and a larger one is rejected.  ``limit`` is the
    largest multiple of ``width`` below ``256**size``, so every value is
    equally likely, and ``size`` is the least that rejects fewer than one
    chunk in 64."""
    width = 2 * hi + 1
    size = 1
    while 64 * (256**size % width) >= 256**size:
        size += 1
    return size, 256**size - 256**size % width


class BarycentricPoint:
    """Rational weights summing to exactly 1.

    Weights may be negative: the point ranges over the whole affine hull of
    the vertices, not just the simplex itself.
    """

    __slots__ = ("weights",)

    def __init__(self, weights):
        ws = tuple(as_fraction(w) for w in weights)
        if len(ws) < 2:
            raise ValueError("need at least two weights (a 1-simplex)")
        if sum(ws) != 1:
            raise ValueError(f"weights must sum to exactly 1, got {sum(ws)}")
        self.weights = ws

    @property
    def dim(self) -> int:
        return len(self.weights) - 1

    def to_json(self) -> list[str]:
        return [frac_str(w) for w in self.weights]


class DistanceSample:
    """One point's exact squared distances to all vertices.

    The rational squared distances are stored, so the entries are the
    squares of the true distances by construction.
    """

    __slots__ = ("squared",)

    def __init__(self, squared):
        sq = tuple(as_fraction(s) for s in squared)
        if any(s < 0 for s in sq):
            raise ValueError("squared distances must be non-negative")
        self.squared = sq

    def to_json(self) -> dict:
        return {"mode": "exact", "squared": [frac_str(s) for s in self.squared]}


class SampleConfig:
    """Deterministic sampling parameters.

    ``box`` bounds the barycentric weight coordinates; the default of 3
    reaches well outside the simplex while keeping the distance values,
    and hence downstream monomial matrices, on a sane scale.
    """

    __slots__ = ("seed", "count", "box")

    def __init__(self, seed: int, count: int, box=Fraction(3)):
        if not isinstance(seed, int):
            raise ValueError("seed must be an integer")
        if not isinstance(count, int) or count < 1:
            raise ValueError(f"count must be a positive integer, got {count!r}")
        box = as_fraction(box)
        if box <= 0:
            raise ValueError("box bound must be positive")
        self.seed = seed
        self.count = count
        self.box = box


class EmbeddedSimplex:
    """Regular d-simplex with exact rational squared-distance queries."""

    __slots__ = ("dim", "edge_sq")

    def __init__(self, dim: int, edge_sq):
        if not isinstance(dim, int) or dim < 1:
            raise ValueError(f"dimension must be a positive integer, got {dim!r}")
        a2 = as_fraction(edge_sq)
        if a2 <= 0:
            raise ValueError(f"squared edge length must be positive, got {a2}")
        self.dim = dim
        self.edge_sq = a2

    @property
    def edge(self) -> float:
        """The edge length a as a float, for the float samplers and
        tolerances; an ``edge_sq`` beyond the float range, or below the
        normal floats, where the floats scaled by it lose precision, raises
        ``ValueError``."""
        try:
            a2 = float(self.edge_sq)
        except OverflowError:
            raise ValueError("edge_sq is out of float range: it is too large for a float") from None
        if a2 < sys.float_info.min:
            raise ValueError("edge_sq is below the normal float range: its float loses precision")
        return math.sqrt(a2)

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


def circumsphere_dim(d: int) -> int:
    """``d``, checked to be an integer >= 2 for the circumsphere code: a
    segment's "circumsphere" is just its two endpoints."""
    if not isinstance(d, int) or d < 2:
        raise ValueError(f"circumsphere needs dimension >= 2, got {d!r}")
    return d


class CartesianSimplex:
    """Regular d-simplex with explicit floating vertices in d-space.

    Vertex 0 sits at the origin and vertex k (k >= 1) at
    ``(h_1/2, h_2/3, ..., h_{k-1}/k, h_k, 0, ..., 0)`` with
    ``h_k = a*sqrt((k+1)/(2k))`` (Coxeter, *Regular Polytopes*, 1948).

    Proof, by induction on k: the face of vertices 0..k-1 is regular with
    edge a, lies in the first k-1 coordinates, has its centroid ``c_k`` at
    coordinate i equal to ``h_{i+1}/(i+2)`` (0-based, i < k-1) and
    circumradius ``R_k = a*sqrt((k-1)/(2k))``; for k = 1 the face is the
    origin.  Vertex k is ``c_k + h_k*e_{k-1}``, and ``e_{k-1}`` is
    orthogonal to the face, so its squared distance to each vertex of the
    face is ``R_k^2 + h_k^2 = a^2``.  The next centroid is
    ``(k*c_k + v_k)/(k+1) = c_k + (h_k/(k+1))*e_{k-1}``, which adds the
    coordinate ``h_k/(k+1)``, and its distance to v_k is ``h_k*k/(k+1)``,
    whose square ``a^2*k/(2(k+1))`` is ``R_{k+1}^2``.  Every ``h_k`` is
    positive, so the vertices affinely span d-space.
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
        if not 0 < edge < math.inf:
            raise ValueError(f"edge length must be {'finite' if edge > 0 else 'positive'}, got {edge}")
        k = np.arange(1, dim + 1)
        h = edge * np.sqrt((k + 1) / (2 * k))
        v = np.zeros((dim + 1, dim))
        # vertex k: the coordinates h_{i+1}/(i+2) of the centroid c_k, then h_k
        v[1:] = np.tril(np.broadcast_to(h / (k + 1), (dim, dim)), -1)
        v[k, k - 1] = h
        return cls(dim, edge, v)

    def distances(self, point) -> np.ndarray:
        p = np.asarray(point, dtype=float)
        if p.shape != (self.dim,):
            raise ValueError(f"point must have {self.dim} coordinates, got shape {p.shape}")
        return np.linalg.norm(self.vertices - p, axis=1)


def _weight_draws(
    n: int, config: SampleConfig, accept: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Exact sample weights in integer form, in blocks of at most ``_BLOCK``
    samples in sample order: ``(nums, dens)`` with ``nums[i]`` the n weight
    numerators and ``dens[i] = T = sum(nums[i]) > 0`` their denominator.

    Raw numerators ``r_i`` are drawn on a 1/64 grid inside ``[-box, box]``,
    uniformly from the digest chunks of the key ``seed|weights|k|attempt``
    (see :func:`_uniform_rule`).  Draws whose sum is below 1/2 in absolute
    value (``|T| < 32``), or whose renormalised weights escape the box
    (``q*|r_i| > p*|T|`` for ``box = p/q``), or that ``accept`` turns down,
    are redrawn at the next attempt; sample k therefore depends only on
    ``(seed, k)``.  ``accept(ks, nums)`` takes the sample numbers and the
    sign-fixed numerators of a set of draws, one row each, and returns a
    row mask; it sees only the draws that pass the first two rules.

    The attempts are hashed in rounds, each round taking further attempts
    of every sample still open and parsing all their digests at once (see
    :func:`_raw_weights`); each sample keeps its first passing attempt, so
    the rounds do not change the draws.  The arrays are ``int64`` when
    ``|r_i| <= hi`` and ``T <= n*hi`` keep the redraw tests, the distance
    numerators of :func:`_distance_numerators` and ``2*T^2`` below 2^62,
    and hold Python ints otherwise; either way the integers are exact.

    No draw can pass when ``n*hi < 32`` for ``hi = int(64*box)``, since then
    ``|T| < 32``, or when ``n*box < 1``, since the largest ``|r_i|`` is at
    least ``|T|/n``; such a box raises ``ValueError``.  Otherwise n raw
    numerators of hi pass the first two rules, but where ``n*box`` is near
    1 almost nothing else does: a sample that finds no passing draw in
    ``_MAX_ATTEMPTS`` attempts raises ``ValueError`` too, naming the first
    such sample.  Boxes 3/2 to 3 take under ten attempts per sample at
    d <= 40, box 1/4 at d = 5 about a thousand at worst.
    """
    hi = int(config.box * _WEIGHT_GRID)
    if 2 * n * hi < _WEIGHT_GRID or n * config.box < 1:
        raise ValueError(
            f"box {frac_str(config.box)} is too small for d = {n - 1}: no {n} raw weights on the "
            f"1/64 grid in [-box, box] sum to at least 1/2 and stay inside the box when divided by the sum"
        )
    p, q = config.box.numerator, config.box.denominator
    # the box test forms q*|r_i| <= q*hi and p*T <= p*n*hi, and
    # N_j <= sum(r^2) + 2*|r_j|*T + T^2 <= (n^2 + 3n)*hi^2, 2*T^2 <= 2*n^2*hi^2
    exact = max(p * n * hi, q * hi, 2 * (n + 1) ** 2 * hi * hi) < _INT64_SAFE
    dtype = np.int64 if exact else object
    for start in range(0, config.count, _BLOCK):
        ks = np.arange(start, min(start + _BLOCK, config.count))
        nums = np.zeros((len(ks), n), dtype=dtype)
        dens = np.zeros(len(ks), dtype=dtype)
        attempts = np.zeros(len(ks), dtype=np.int64)
        open_ = np.arange(len(ks))
        while open_.size:
            # each open sample hashes as many further attempts as it has
            # made (at least one), the lowest samples first, up to _BLOCK
            # rows per round: a sample that needs m attempts hashes fewer
            # than 2m, and a box that fails at sample k costs little more
            # than k's 65536 attempts, however many samples follow it
            tries = np.minimum(np.clip(attempts[open_], 1, _BLOCK), _MAX_ATTEMPTS - attempts[open_])
            take = max(1, int(np.searchsorted(np.cumsum(tries), _BLOCK, side="right")))
            part, tries = open_[:take], tries[:take]
            # one row per attempt, sample by sample
            starts = np.cumsum(tries) - tries
            owner = np.repeat(np.arange(take), tries)
            attempt = attempts[part][owner] + np.arange(len(owner)) - starts[owner]
            row_ks = ks[part][owner]
            raw = _raw_weights(
                [f"{config.seed}|weights|{k}|{a}" for k, a in zip(row_ks.tolist(), attempt.tolist())],
                n, hi, dtype,
            )
            total = raw.sum(axis=1)
            row_dens = np.abs(total)
            passed = (2 * row_dens >= _WEIGHT_GRID) & (q * np.abs(raw).max(axis=1) <= p * row_dens)
            row_nums = np.where((total > 0)[:, None], raw, -raw)
            if accept is not None:
                # a rejected row stays rejected, so accept, which may cost far
                # more than the rules above, sees only the rows they pass
                rows = np.flatnonzero(passed)
                passed[rows] = accept(row_ks[rows], row_nums[rows])
            # the first passing row of each sample, or the end when none does
            first = np.minimum.reduceat(np.where(passed, np.arange(len(owner)), len(owner)), starts)
            found = first < starts + tries
            nums[part[found]] = row_nums[first[found]]
            dens[part[found]] = row_dens[first[found]]
            attempts[part] += tries
            spent = part[~found & (attempts[part] >= _MAX_ATTEMPTS)]
            if spent.size:
                raise ValueError(
                    f"box {frac_str(config.box)} is too small for d = {n - 1}: sample {ks[spent[0]]} "
                    f"found no passing draw in {_MAX_ATTEMPTS} attempts"
                )
            open_ = np.concatenate([part[~found], open_[take:]])
        yield nums, dens


def _raw_weights(keys: list[str], n: int, hi: int, dtype) -> np.ndarray:
    """The n raw numerators in ``[-hi, hi]`` of each key, one row per key:
    ``v % (2*hi + 1) - hi`` for the first n chunks ``v`` that
    :func:`_digest_ints` passes under :func:`_uniform_rule`.

    The digests of all keys are parsed at once: the first n chunks of each
    64-byte digest, padded to 8 bytes and read as little-endian ``uint64``.
    A row with a rejected chunk among them takes ``_digest_ints`` on its
    own, and so does every row when n chunks do not fit in one digest or
    are wider than 8 bytes.
    """
    width = 2 * hi + 1
    size, limit = _uniform_rule(hi)
    if size <= 8 and n * size <= 64:
        digests = b"".join([blake2b(key.encode()).digest() for key in keys])
        table = np.frombuffer(digests, dtype=np.uint8).reshape(len(keys), 64)
        chunks = np.zeros((len(keys), n, 8), dtype=np.uint8)
        chunks[:, :, :size] = table[:, : n * size].reshape(len(keys), n, size)
        values = chunks.view("<u8")[:, :, 0]
        raw = (values % np.uint64(width)).astype(dtype) - hi
        redo = np.flatnonzero((values >= np.uint64(limit)).any(axis=1)).tolist()
    else:
        raw = np.zeros((len(keys), n), dtype=dtype)
        redo = range(len(keys))
    for i in redo:
        raw[i] = [v % width - hi for v in _digest_ints(keys[i], n, size, limit)]
    return raw


def _weight_rows(
    n: int, config: SampleConfig, accept: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
) -> list[tuple[list[int], int]]:
    """The draws of :func:`_weight_draws` as Python ints, one ``(r, T)`` per
    sample."""
    blocks = _weight_draws(n, config, accept)
    return [row for nums, dens in blocks for row in zip(nums.tolist(), dens.tolist())]


def _distance_numerators(nums: tuple[int, ...], den: int) -> tuple[int, ...]:
    """``N_j = sum(r^2) - 2*r_j*T + T^2`` for weights ``r / T``: the squared
    distance to vertex j is ``a^2 * N_j / (2*T^2)`` (see
    :meth:`EmbeddedSimplex.squared_distances`).  Given the columns
    ``nums.T`` and ``dens`` of a block of :func:`_weight_draws` it returns
    the columns of N, exact in the block's dtype."""
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
    for nums, den in _weight_rows(simplex.dim + 1, config):
        point = BarycentricPoint(tuple(Fraction(r, den) for r in nums))
        out.append((point, DistanceSample(_exact_squared(simplex.edge_sq, nums, den))))
    return out


def sample_circumsphere(simplex: EmbeddedSimplex, config: SampleConfig) -> np.ndarray:
    """Vertex distances of deterministic points on the circumsphere, uniform
    by direction: one row per sample.

    There the weights have ``sum w = sum w^2 = 1``, so ``u = w - 1/(d+1)``
    sums to 0 with ``|u|^2 = d/(d+1)``, and ``t_j = a*sqrt(d/(d+1) - u_j)``.
    Sample k takes u from d+1 Gaussians (Box-Muller on the uniforms of
    ``seed|sphere|k|attempt``) with their mean removed, rescaled (Muller,
    CACM 1959); an attempt too short to rescale is redrawn.  A 1-simplex
    is rejected (:func:`circumsphere_dim`), and so is an edge that
    :attr:`EmbeddedSimplex.edge` cannot carry.
    """
    d, n = circumsphere_dim(simplex.dim), simplex.dim + 1
    width = n + n % 2
    # attempt 0 of every sample in one round; the rare redraw hashes its own key
    draws = _unit_float_rows([f"{config.seed}|sphere|{k}|0" for k in range(config.count)], width)
    rows = []
    for k, v in enumerate(draws.tolist()):
        for attempt in itertools.count(1):
            polar = [(math.sqrt(-2.0 * math.log1p(-x)), 2.0 * math.pi * y) for x, y in zip(v[::2], v[1::2])]
            gauss = [r * f(angle) for r, angle in polar for f in (math.cos, math.sin)][:n]
            mean = math.fsum(gauss) / n
            u = [g - mean for g in gauss]
            norm = math.hypot(*u)
            if norm > 1e-9:
                break
            v = _unit_float_rows([f"{config.seed}|sphere|{k}|{attempt}"], width)[0].tolist()
        rows.append([x / norm for x in u])
    return simplex.edge * np.sqrt(np.maximum(d / n - math.sqrt(d / n) * np.array(rows), 0.0))


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
