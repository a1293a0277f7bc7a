"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  Tolerances are pinned here, not configurable.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import numpy as np

from simplexdist.cmgeom import (
    SquaredDistanceMatrix,
    cayley_menger_det,
    probe_realizability,
    reconstruct_point,
    relation_vs_cayley_menger,
    simplex_volume,
)
from simplexdist.discover import (
    CERT_DIVISIBLE,
    discover_on_sphere,
    discover_vanishing,
    independence_test,
)
from simplexdist.geom import (
    CartesianSimplex,
    EmbeddedSimplex,
    SampleConfig,
    sample_circumsphere,
    sample_points,
)
from simplexdist.poly import (
    circumsphere_quadratic,
    circumsphere_quartic,
    distance_relation,
    divide_last_variable,
    proportional,
    relation_residual_exact,
    segment_generator,
    verify_circumsphere_identity,
    verify_segment_factorization,
)
from simplexdist.soddy import (
    build_soddy_circle_2d,
    build_tangent_circles_2d,
    solve_missing_curvature,
)


def conclude(number: int, label: str, failures: list, elapsed: float | None = None):
    status = "PASS" if not failures else "FAIL"
    timing = f" ({elapsed:.2f} s)" if elapsed is not None else ""
    suffix = "" if not failures else f" -- {failures}"
    print(f"ACCEPTANCE {number} [{label}]: {status}{timing}{suffix}")
    assert not failures, f"criterion {number}: {failures}"


def test_criterion_1_exact_identity():
    """d = 1..8, 1000 exact samples each, residual exactly zero, < 10 s."""
    failures = []
    start = time.perf_counter()
    for d in range(1, 9):
        simplex = EmbeddedSimplex(d, Fraction(1))
        samples = sample_points(simplex, SampleConfig(seed=d, count=1000))
        bad = sum(
            1
            for _, sample in samples
            if relation_residual_exact(d, 1, sample.squared) != 0
        )
        if bad:
            failures.append(f"d={d}: {bad} nonzero residuals")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f} s >= 10 s")
    conclude(1, "exact identity, d=1..8 x 1000", failures, elapsed)


def test_criterion_2_principal_generator_recovery():
    """Degree 3/4/5 discovery for d = 2, 3: none / the relation / a
    (d+2)-dimensional certified space; every run complete; < 60 s."""
    failures = []
    start = time.perf_counter()
    for d in (2, 3):
        relation = distance_relation(d, 1)
        for degree in (3, 4, 5):
            report = discover_vanishing(d, 1, degree, seed=1)
            if not report.nullspace.complete:
                failures.append(f"d={d} degree={degree}: incomplete, corank {report.nullspace.corank}")
            if degree == 3:
                if report.nullspace.null_dim != 0 or report.candidates:
                    failures.append(f"d={d} degree=3: expected empty")
            elif degree == 4:
                if report.nullspace.null_dim != 1 or len(report.candidates) != 1:
                    failures.append(f"d={d} degree=4: expected one candidate")
                elif not (
                    report.candidates[0].certificate == CERT_DIVISIBLE
                    and proportional(report.candidates[0].poly, relation)
                ):
                    failures.append(f"d={d} degree=4: candidate is not the relation")
            else:
                if report.nullspace.null_dim != d + 2 or len(report.candidates) != d + 2:
                    failures.append(
                        f"d={d} degree=5: dimension {report.nullspace.null_dim} != {d + 2}"
                    )
                for candidate in report.candidates:
                    if not divide_last_variable(candidate.poly, relation).remainder.is_zero:
                        failures.append(f"d={d} degree=5: candidate not divisible")
                        break
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.2f} s >= 60 s")
    conclude(2, "principal generator recovery", failures, elapsed)


def test_criterion_3_segment_exception():
    """d = 1: degree-3 discovery yields the cubic generator, and the quartic
    factors as (T1+T2+a) times it."""
    failures = []
    report = discover_vanishing(1, 1, 3, seed=1)
    if len(report.candidates) != 1:
        failures.append(f"expected one candidate, got {len(report.candidates)}")
    else:
        candidate = report.candidates[0]
        if candidate.certificate == "uncertified":
            failures.append("candidate uncertified")
        if not proportional(candidate.poly, segment_generator(1)):
            failures.append("candidate is not the segment generator")
    if not verify_segment_factorization(1):
        failures.append("factorization identity failed")
    conclude(3, "segment (d=1) exception", failures)


def test_criterion_4_algebraic_independence():
    """Every size-d subset, d = 2, 3: no relation, proven by the Jacobian
    rank with the Gram determinant 1/(d+1)."""
    failures = []
    for d in (2, 3):
        for subset in itertools.combinations(range(1, d + 2), d):
            report = independence_test(d, 1, subset)
            if report.verdict != "no-relation-found":
                failures.append(f"d={d} {subset}: {report.verdict}")
            if report.certificate != "jacobian-rank":
                failures.append(f"d={d} {subset}: certificate {report.certificate}")
            if report.gram_det != Fraction(1, d + 1):
                failures.append(f"d={d} {subset}: Gram determinant {report.gram_det}")
    conclude(4, "algebraic independence of d distances", failures)


def test_criterion_5_circumsphere_ideal():
    """Degree-2 sphere discovery returns exactly the circumsphere quadratic;
    the quartic identity holds for d = 2..8; the circumsphere quartic
    vanishes on 500 samples within 1e-9."""
    failures = []
    report = discover_on_sphere(2, 1, 2, seed=3)
    if len(report.certified) != 1 or report.extras:
        failures.append(
            f"degree-2: {len(report.certified)} certified, {len(report.extras)} extras"
        )
    elif not proportional(report.certified[0].poly, circumsphere_quadratic(2, 1)):
        failures.append("degree-2 candidate is not the circumsphere quadratic")
    for d in range(2, 9):
        if not verify_circumsphere_identity(d, 1):
            failures.append(f"identity failed at d={d}")
    quartic = circumsphere_quartic(2, 1)
    rows = sample_circumsphere(EmbeddedSimplex(2, 1), SampleConfig(seed=6, count=500))
    worst = max(abs(quartic.eval_float(t)) for t in rows)
    if worst >= 1e-9:
        failures.append(f"quartic residual {worst:.2e} on sphere samples")
    conclude(5, "circumsphere ideal", failures)


def test_criterion_6_reconstruction():
    """500 round trips per d in 2..5 within 1e-9; the all-ones tuple is
    infeasible with residual 2/3; a 1000-trial probe emits a sound report."""
    failures = []
    for d in range(2, 6):
        simplex = CartesianSimplex.build(d, 1.0)
        rng = random.Random(100 + d)
        worst = 0.0
        for _ in range(500):
            target = np.array([rng.uniform(-2.0, 2.0) for _ in range(d)])
            result = reconstruct_point(simplex, simplex.distances(target))
            if not result.feasible:
                failures.append(f"d={d}: round trip infeasible")
                break
            worst = max(worst, float(np.linalg.norm(result.point - target)))
        if worst >= 1e-9:
            failures.append(f"d={d}: worst round-trip error {worst:.2e}")
    result = reconstruct_point(CartesianSimplex.build(2, 1.0), [1.0, 1.0, 1.0])
    if result.feasible or abs(result.residual - 2 / 3) > 1e-9:
        failures.append(f"all-ones tuple: {result.status} residual {result.residual}")
    report = probe_realizability(2, 1, trials=1000, seed=11)
    doc = json.loads(json.dumps(report.to_json()))
    roots_counted = doc["counts"]["feasible"] + doc["counts"]["infeasible"]
    if len(doc["trials"]) != 1000:
        failures.append("probe report lost trials")
    if roots_counted != sum(len(t["verdicts"]) for t in doc["trials"]):
        failures.append("probe counts inconsistent with per-trial data")
    conclude(6, "reconstruction and realizability probe", failures)


def test_criterion_7_cayley_menger():
    """Equilateral determinant -3 exactly; volumes match the coordinate
    oracle to 1e-12 relative for d = 2..8; exact samples give exactly
    degenerate (d+2)-point configurations."""
    failures = []
    if cayley_menger_det(SquaredDistanceMatrix.regular(3, 1)) != -3:
        failures.append("equilateral determinant != -3")
    for d in range(2, 9):
        via_cm = simplex_volume(SquaredDistanceMatrix.regular(d + 1, 1))
        simplex = CartesianSimplex.build(d, 1.0)
        span = simplex.vertices[1:] - simplex.vertices[0]
        via_coords = abs(float(np.linalg.det(span))) / math.factorial(d)
        if abs(via_cm - via_coords) > 1e-12 * via_coords:
            failures.append(f"d={d}: volume {via_cm} vs oracle {via_coords}")
    for d in range(2, 7):
        simplex = EmbeddedSimplex(d, Fraction(1))
        for _, sample in sample_points(simplex, SampleConfig(seed=20 + d, count=25)):
            residual, det = relation_vs_cayley_menger(d, 1, sample.squared)
            if residual != 0 or det != 0:
                failures.append(f"d={d}: non-degenerate exact sample")
                break
    conclude(7, "Cayley-Menger determinants and volumes", failures)


def test_criterion_8_descartes():
    """Unit-circle curvature roots to 1e-10; 200 seeded triples build the
    inner tangent circle to 1e-8; Vieta identities to 1e-10."""
    failures = []
    roots = solve_missing_curvature([1.0, 1.0, 1.0], 2)
    if abs(roots[0] - (3 + 2 * math.sqrt(3))) > 1e-10 or abs(
        roots[1] - (3 - 2 * math.sqrt(3))
    ) > 1e-10:
        failures.append(f"unit-circle roots {roots}")
    rng = random.Random(77)
    worst_residual = 0.0
    worst_vieta = 0.0
    for _ in range(200):
        radii = [10 ** rng.uniform(-1.0, 1.0) for _ in range(3)]
        curvatures = [1.0 / r for r in radii]
        pair = solve_missing_curvature(curvatures, 2)
        s1 = sum(curvatures)
        s2 = sum(k * k for k in curvatures)
        scale = (1 + s1) ** 2
        worst_vieta = max(
            worst_vieta,
            abs(pair[0] + pair[1] - 2 * s1) / scale,
            abs(pair[0] * pair[1] - (2 * s2 - s1 * s1)) / scale,
        )
        config = build_tangent_circles_2d(*radii)
        _, residual = build_soddy_circle_2d(config, pair[0])
        worst_residual = max(worst_residual, residual)
    if worst_residual >= 1e-8:
        failures.append(f"worst third-tangency residual {worst_residual:.2e}")
    if worst_vieta >= 1e-10:
        failures.append(f"worst Vieta defect {worst_vieta:.2e}")
    conclude(8, "Descartes curvature relation", failures)


def test_criterion_9_discovery_at_scale_frontier():
    """d = 2 at degree 10: 84 candidates, all certified, the run complete;
    d = 3 at degree 8, seeds 1 and 7: 70 certified, none uncertified."""
    failures = []
    start = time.perf_counter()
    report = discover_vanishing(2, 1, 10, seed=1)
    certified = sum(c.certificate == CERT_DIVISIBLE for c in report.candidates)
    if len(report.candidates) != 84 or certified != 84:
        failures.append(f"d=2 degree=10: {certified} of {len(report.candidates)} certified, expected 84")
    if not report.nullspace.complete:
        failures.append(f"d=2 degree=10: incomplete, corank {report.nullspace.corank}")
    for seed in (1, 7):
        report = discover_vanishing(3, 1, 8, seed=seed)
        certified = sum(c.certificate == CERT_DIVISIBLE for c in report.candidates)
        uncertified = len(report.candidates) - certified
        if certified != 70 or uncertified:
            failures.append(f"d=3 degree=8 seed={seed}: {certified} certified, {uncertified} uncertified")
    elapsed = time.perf_counter() - start
    conclude(9, "discovery at the scale frontier", failures, elapsed)
