"""Discovery of vanishing polynomials of the distance map from samples.

The pipeline is numeric-then-exact.  Distances involve square roots, so
odd monomials are irrational and the evaluation matrix must be floating;
rigor is restored afterwards by exact certification:

1. evaluate a degree-bounded polynomial basis at many sampled distance
   tuples (rows: samples, columns: basis elements),
2. take the numeric nullspace of the column-equilibrated matrix by SVD,
   recording the full singular spectrum and the gap at the cut,
3. map the nullspace basis back to monomial coefficients and bring it to
   reduced row echelon form, so each basis vector approximates a canonical
   rational one, then reconstruct exact rational coefficients by continued
   fractions,
4. certify each candidate exactly, with one certificate per ideal: exact
   division by the generator of the vanishing ideal (the quartic relation
   for d >= 2, the segment cubic for d = 1) in ``discover_vanishing``, and
   membership in the ideal of the circumsphere quadratic and the quartic
   (``_in_sphere_ideal``) in ``discover_on_sphere``.

Raw monomials make dreadful numerics at degree 6 (their Gram matrices are
Hilbert-like), so internally the pipeline evaluates scaled Chebyshev
products, which span the same polynomial space; the basis change back to
monomial coordinates happens before any rationalization, leaving the exact
side untouched.  Candidates that fail certification are reported as
uncertified, never silently dropped; a singular-value gap under 10 marks
the whole run inconclusive rather than pretending to a clean answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .geom import (
    CartesianSimplex,
    EmbeddedSimplex,
    SampleConfig,
    _distance_numerators,
    _rng_for,
    _weight_draws,
    sample_circumsphere,
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

# a spectral gap below this flags the run as inconclusive
_GAP_FLOOR = 10.0
_RREF_TOL = 1e-6


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

    def gen(nvars: int, budget: int):
        if nvars == 1:
            for e in range(budget + 1):
                yield (e,)
            return
        for e in range(budget + 1):
            for rest in gen(nvars - 1, budget - e):
                yield (e, *rest)

    exps = sorted(gen(arity, max_degree), key=lambda e: (sum(e), e))
    assert len(exps) == math.comb(max_degree + arity, arity)
    return MonomialBasis(arity, max_degree, tuple(exps))


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
    null_basis: np.ndarray
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


def numeric_nullspace(matrix: np.ndarray, threshold: float = 1e-8) -> NullspaceReport:
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


def rationalize(vector: Sequence[float], max_denominator: int = 10**6) -> tuple[Fraction, ...]:
    """Best bounded-denominator rational for each entry (continued
    fractions), then scaled so the first nonzero entry is 1.

    Entries below the noise floor ``|x| < 1/(2*max_denominator)`` become 0
    without a continued fraction.  This is exact: for such x the continued
    fraction ends between the bounds 0 and ``+-1/max_denominator``, and 0 is
    strictly nearer, so ``Fraction(x).limit_denominator`` returns 0 too.
    The floor is a correctly rounded float, so no float lies between it and
    the exact value.  Only the entries above it, and NaN or infinities
    (which raise as before), go through ``limit_denominator``.

    Wrong guesses are not detected here; they surface downstream as
    certification failures.
    """
    if max_denominator < 1:
        raise ValueError("max_denominator must be at least 1")
    values = np.asarray(vector, dtype=float)
    survivors = np.flatnonzero(~(np.abs(values) < 1 / (2 * max_denominator))).tolist()
    fracs = [Fraction(0)] * len(values)
    for i, x in zip(survivors, values[survivors].tolist()):
        fracs[i] = Fraction(x).limit_denominator(max_denominator)
    lead = next((fracs[i] for i in survivors if fracs[i] != 0), None)
    if lead is not None and lead != 1:
        for i in survivors:
            fracs[i] /= lead
    return tuple(fracs)


def _rref(rows: np.ndarray, tol: float = _RREF_TOL) -> np.ndarray:
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
        if abs(a[pivot, col]) <= tol:
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
    nullspace: NullspaceReport
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


def _chebyshev_eval_matrix(samples: np.ndarray, basis: MonomialBasis, tmax: float) -> np.ndarray:
    """Evaluate products of Chebyshev polynomials in the variables rescaled
    from [0, tmax] to [-1, 1]; column j spans the same space as monomial j."""
    scaled = (samples - tmax / 2.0) / (tmax / 2.0)
    vander = np.polynomial.chebyshev.chebvander(scaled, basis.max_degree)
    exps = np.asarray(basis.exponents)
    cols = np.ones((samples.shape[0], len(basis)))
    for var in range(samples.shape[1]):
        cols *= vander[:, var, exps[:, var]]
    return cols


def _chebyshev_to_monomial(basis: MonomialBasis, tmax: float) -> np.ndarray:
    """Change-of-basis matrix B with B[m, e] = coefficient of monomial m in
    the Chebyshev product element e; graded, hence triangular and invertible."""
    degree = basis.max_degree
    center = tmax / 2.0
    half = tmax / 2.0
    one_d = np.zeros((degree + 1, degree + 1))
    for k in range(degree + 1):
        unit = np.zeros(k + 1)
        unit[k] = 1.0
        in_scaled = np.polynomial.chebyshev.cheb2poly(unit)
        for j, cj in enumerate(in_scaled):
            if cj == 0.0:
                continue
            for i in range(j + 1):
                one_d[i, k] += cj * math.comb(j, i) * (-center) ** (j - i) / half**j
    exps = np.asarray(basis.exponents)
    full = np.ones((len(basis), len(basis)))
    for var in range(basis.arity):
        full *= one_d[np.ix_(exps[:, var], exps[:, var])]
    return full


def _equilibrated_nullspace(
    samples: np.ndarray, basis: MonomialBasis, threshold: float
) -> tuple[NullspaceReport, np.ndarray, float]:
    """Numeric nullspace of the Chebyshev-product evaluation matrix with
    unit-norm columns, with the column norms and the scale ``tmax`` that
    map its basis back to monomial coefficients."""
    tmax = float(np.max(samples)) or 1.0
    matrix = _chebyshev_eval_matrix(samples, basis, tmax)
    norms = np.linalg.norm(matrix, axis=0)
    norms[norms == 0] = 1.0
    return numeric_nullspace(matrix / norms, threshold), norms, tmax


def _conditioned_nullspace(
    samples: np.ndarray, basis: MonomialBasis, threshold: float
) -> tuple[NullspaceReport, np.ndarray]:
    """Numeric nullspace via the Chebyshev-product evaluation matrix with
    unit-norm columns; the returned candidate rows are already back in
    monomial coefficient space and in reduced row echelon form."""
    report, norms, tmax = _equilibrated_nullspace(samples, basis, threshold)
    if report.null_dim == 0:
        return report, np.zeros((0, len(basis)))
    cheb_rows = report.null_basis / norms[None, :]
    monomial_rows = cheb_rows @ _chebyshev_to_monomial(basis, tmax).T
    return report, _rref(monomial_rows)


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


def _certify(p: MultiPoly, generator: MultiPoly) -> str:
    if not p.is_zero and divide_last_variable(p, generator).remainder.is_zero:
        return CERT_DIVISIBLE
    return CERT_UNCERTIFIED


# sampling knobs tuned for matrix conditioning: a barycentric box of 3/2
# keeps the distance cloud from stretching into a thin tube, and every
# third sample is contracted toward a vertex so small distances are covered
_DISCOVERY_BOX = Fraction(3, 2)
_RADIAL_GRID = 64


def _discovery_draws(d: int, seed: int, count: int) -> list[tuple[tuple[int, ...], int]]:
    """Integer weights ``(r, T)`` of the discovery samples.

    Every third sample is pulled toward a vertex v by ``pull = (g/64)^e``:
    its weights ``(1 - pull)*[i = v] + pull*r_i/T`` are the numerators
    ``g^e*r_i + (64^e - g^e)*T*[i = v]`` over ``64^e*T``.
    """
    n = d + 1
    config = SampleConfig(seed=seed, count=count, box=_DISCOVERY_BOX)
    draws = []
    for k, (nums, den) in enumerate(_weight_draws(n, config)):
        if k % 3 == 2:
            vertex = (k // 3) % n
            rng = _rng_for(seed, "radial", k)
            grid = rng.randint(1, _RADIAL_GRID)
            power = rng.randint(1, 3)
            kept, full = grid**power, _RADIAL_GRID**power
            nums = tuple(kept * r + (full - kept) * den * (i == vertex) for i, r in enumerate(nums))
            den *= full
        draws.append((nums, den))
    return draws


def _sample_distance_tuples(d, edge_sq, count, seed) -> np.ndarray:
    """Distances of the discovery samples as floats, one row per sample.

    Each float is ``sqrt`` of the squared distance ``p*N_j / (2*q*T^2)``
    divided as Python ints, which rounds correctly, so it equals
    ``sqrt(float(Fraction))`` bit for bit.
    """
    simplex = EmbeddedSimplex(d, edge_sq)
    p, q = simplex.edge_sq.numerator, simplex.edge_sq.denominator
    return np.array([
        [math.sqrt(p * n / (2 * q * den * den)) for n in _distance_numerators(nums, den)]
        for nums, den in _discovery_draws(d, seed, count)
    ])


_STRATIFIED_SAMPLING = "stratified(box=3/2, radial-third)"


def _discovery_run(
    operation: str,
    d: int,
    a2: Fraction,
    arity: int,
    max_degree: int,
    n_samples: int | None,
    seed: int,
    threshold: float,
    max_denominator: int,
    sample,
    sampling: str,
    **extra_config,
) -> tuple[dict, MonomialBasis, np.ndarray, NullspaceReport, list[MultiPoly]]:
    """The steps all discovery runs share: check the degree and the
    denominator bound, draw ``n_samples`` rows of ``arity`` float distances
    with ``sample(count)`` (three per basis monomial by default), take the
    conditioned nullspace and rationalize each of its rows into a candidate
    polynomial.

    Returns the config block, the basis, the sample rows, the nullspace and
    the candidates; classifying the candidates is left to the caller.
    """
    if not isinstance(max_degree, int) or max_degree < 1:
        raise ValueError("max_degree must be a positive integer")
    if max_denominator < 1:
        raise ValueError("max_denominator must be at least 1")
    basis = enumerate_monomials(arity, max_degree)
    count = n_samples if n_samples is not None else 3 * len(basis)
    floats = sample(count)
    report, rows = _conditioned_nullspace(floats, basis, threshold)
    polys = [_poly_from_coeffs(basis, rationalize(row, max_denominator)) for row in rows]
    config = {
        "operation": operation,
        "d": d,
        "edge_sq": frac_str(a2),
        **extra_config,
        "max_degree": max_degree,
        "n_samples": count,
        "seed": seed,
        "threshold": threshold,
        "max_denominator": max_denominator,
        "matrix_basis": "chebyshev-equilibrated",
        "sampling": sampling,
    }
    return config, basis, floats, report, polys


def discover_vanishing(
    d: int,
    edge_sq,
    max_degree: int,
    n_samples: int | None = None,
    seed: int = 0,
    threshold: float = 1e-8,
    max_denominator: int = 10**6,
) -> DiscoveryReport:
    """Full discovery pipeline over the whole ambient space.

    For d >= 2 certification divides by the quartic relation; in the
    segment case d = 1 the relation is not the generator and division is by
    the cubic segment generator instead, which requires the edge length
    (the exact square root of ``edge_sq``) to be rational.
    """
    if not isinstance(d, int) or d < 1:
        raise ValueError("dimension must be a positive integer")
    a2 = as_fraction(edge_sq)
    if d == 1:
        edge = rational_sqrt(a2)
        if edge is None:
            raise ValueError(
                "in dimension 1 certification needs a rational edge length: "
                f"edge_sq={a2} is not a perfect rational square"
            )
        generator = segment_generator(edge)
    else:
        generator = distance_relation(d, a2)
    config, basis, _, report, polys = _discovery_run(
        "discover", d, a2, d + 1, max_degree, n_samples, seed, threshold, max_denominator,
        sample=lambda count: _sample_distance_tuples(d, a2, count, seed),
        sampling=_STRATIFIED_SAMPLING,
    )
    candidates = [CertifiedCandidate(p, _certify(p, generator)) for p in polys]
    return DiscoveryReport(config=config, basis=basis, nullspace=report, candidates=candidates)


@dataclass
class IndependenceReport:
    """Outcome of the algebraic-independence probe for a vertex subset."""

    config: dict
    nullspace: NullspaceReport
    candidates: list[CertifiedCandidate]

    @property
    def verdict(self) -> str:
        return "no-relation-found" if self.nullspace.null_dim == 0 else "relation-found"

    @property
    def inconclusive(self) -> bool:
        return self.nullspace.inconclusive

    def to_json(self) -> dict:
        return {
            "config": self.config,
            "verdict": self.verdict,
            "nullspace": self.nullspace.to_json(),
            "candidates": [c.to_json() for c in self.candidates],
        }


def independence_test(
    d: int,
    edge_sq,
    subset: Sequence[int],
    max_degree: int,
    n_samples: int | None = None,
    seed: int = 0,
    threshold: float = 1e-8,
    max_denominator: int = 10**6,
) -> IndependenceReport:
    """Hunt for a polynomial relation among the distances to a subset of at
    most d vertices (labels 1..d+1).

    Distances to any d of the vertices are algebraically independent, so
    the expected verdict is no-relation-found at every degree.  Subsets of
    all d+1 vertices are rejected: the full tuple always satisfies the
    quartic relation, so the question only makes sense for proper subsets.
    """
    if not isinstance(d, int) or d < 1:
        raise ValueError("dimension must be a positive integer")
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
    a2 = as_fraction(edge_sq)
    columns = [j - 1 for j in labels]
    config, _, _, report, polys = _discovery_run(
        "independence", d, a2, len(labels), max_degree, n_samples, seed, threshold, max_denominator,
        sample=lambda count: _sample_distance_tuples(d, a2, count, seed)[:, columns],
        sampling=_STRATIFIED_SAMPLING,
        subset=labels,
    )
    candidates = [CertifiedCandidate(p, CERT_UNCERTIFIED) for p in polys]
    return IndependenceReport(config=config, nullspace=report, candidates=candidates)


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
    n_samples: int | None = None,
    seed: int = 0,
    threshold: float = 1e-8,
    max_denominator: int = 10**6,
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

    def sample(count):
        simplex = CartesianSimplex.build(d, math.sqrt(float(a2)))
        points = sample_circumsphere(simplex, SampleConfig(seed=seed, count=count))
        return np.array([simplex.distances(p) for p in points])

    config, _, floats, report, polys = _discovery_run(
        "sphere", d, a2, d + 1, max_degree, n_samples, seed, threshold, max_denominator,
        sample=sample,
        sampling="circumsphere(gaussian-direction)",
    )
    quadratic = circumsphere_quadratic(d, a2)
    relation_image = _relation_mod_quadratic(distance_relation(d, a2), quadratic)
    certified, extras = [], []
    for p in polys:
        if not p.is_zero and _in_sphere_ideal(p, quadratic, relation_image):
            certified.append(CertifiedCandidate(p, CERT_SPHERE_IDEAL))
        else:
            extras.append(CertifiedCandidate(p, CERT_UNCERTIFIED))

    # lower degrees need only the null dimension, not the candidate rows
    null_by_degree = {
        degree: report.null_dim if degree == max_degree else _equilibrated_nullspace(
            floats, enumerate_monomials(d + 1, degree), threshold
        )[0].null_dim
        for degree in range(1, max_degree + 1)
    }
    return SphereDiscoveryReport(
        config=config,
        null_dim_by_degree=null_by_degree,
        nullspace=report,
        certified=certified,
        extras=extras,
    )
