"""Descartes curvature relation and tangent-circle construction."""

import math
import random
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simplexdist.soddy import (
    Sphere,
    TangentConfig,
    build_soddy_circle_2d,
    build_tangent_circles_2d,
    descartes_residual,
    solve_missing_curvature,
    tangency_residuals,
)


# -- the curvature relation -----------------------------------------------------


def test_residual_at_unit_roots():
    for k4 in (3 + 2 * math.sqrt(3), 3 - 2 * math.sqrt(3)):
        assert abs(descartes_residual([1, 1, 1, k4], 2)) < 1e-12


def test_residual_of_four_equal_curvatures():
    assert descartes_residual([1, 1, 1, 1], 2) == 2 * 4 - 16


def test_residual_validation():
    with pytest.raises(ValueError):
        descartes_residual([1, 1, 1], 2)
    # a zero curvature is a line, which the relation allows
    assert descartes_residual([1, 1, 4, 0], 2) == 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6, allow_subnormal=False), min_size=4, max_size=4))
# squares below the normal floats, where the scaled formula gives 0
@example([0.0, 0.0, 9.710371402509875e-159, 9.710371402509875e-159])
def test_residual_is_the_plain_float_formula(ks):
    # bit for bit the unscaled formula wherever that is finite
    s1, s2 = sum(ks), sum(k * k for k in ks)
    assert descartes_residual(ks, 2) == 2 * s2 - s1 * s1


def test_residual_of_curvatures_whose_squares_overflow():
    # 1e154^2 + 1e154^2 and (4e154)^2 overflow a float; the residual of
    # either root of 1, 1e154, 1e154 does not
    large, small = solve_missing_curvature([1.0, 1e154, 1e154], 2)
    assert large == pytest.approx(4e154, rel=1e-15) and small == -1.0
    for k in (large, small):
        residual = descartes_residual([1.0, 1e154, 1e154, k], 2)
        assert abs(residual) < 1e-14 * large * large


def test_unit_circle_roots():
    roots = solve_missing_curvature([1, 1, 1], 2)
    assert abs(roots[0] - (3 + 2 * math.sqrt(3))) < 1e-12
    assert abs(roots[1] - (3 - 2 * math.sqrt(3))) < 1e-12


def test_unit_sphere_roots_3d():
    # quadratic 2k^2 - 8k - 4 = 0, roots 2 +- sqrt(6)
    roots = solve_missing_curvature([1, 1, 1, 1], 3)
    assert abs(roots[0] - (2 + math.sqrt(6))) < 1e-12
    assert abs(roots[1] - (2 - math.sqrt(6))) < 1e-12


def test_solver_rejects_dimension_one():
    with pytest.raises(ValueError):
        solve_missing_curvature([1, 1], 1)


def test_solver_rejects_wrong_arity():
    with pytest.raises(ValueError):
        solve_missing_curvature([1, 1], 2)


@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-10, 1e-100, 1e-200, 1e-300])
def test_small_root_survives_cancellation(eps):
    # curvatures (eps, 1, 1): the roots are 2 + eps +- 2*sqrt(1 + 2*eps), so
    # the small one is -eps + eps^2 + O(eps^3), while S1 - root cancels to 0
    with localcontext() as ctx:
        ctx.prec = 700  # 2 + eps must keep every digit of eps
        e = Decimal(eps)
        expected = [float(2 + e + s * 2 * (1 + 2 * e).sqrt()) for s in (1, -1)]
    roots = solve_missing_curvature([eps, 1.0, 1.0], 2)
    assert roots[0] == expected[0]
    assert abs(roots[1] - expected[1]) <= 2 * math.ulp(expected[1])
    # negated curvatures negate and swap the roots: there S1 + root cancels
    assert solve_missing_curvature([-eps, -1.0, -1.0], 2) == (-roots[1], -roots[0])


def positive_curvatures(n):
    return st.lists(
        st.floats(min_value=0.05, max_value=20.0), min_size=n, max_size=n
    )


@settings(max_examples=80, deadline=None)
@given(positive_curvatures(3))
def test_root_closure_d2(known):
    roots = solve_missing_curvature(known, 2)
    assert roots is not None  # positive curvatures always give real roots
    for k in roots:
        if k == 0.0:
            continue
        assert abs(descartes_residual(list(known) + [k], 2)) < 1e-10 * (1 + sum(known)) ** 2


@settings(max_examples=40, deadline=None)
@given(positive_curvatures(4))
def test_vieta_identities_d3(known):
    roots = solve_missing_curvature(known, 3)
    if roots is None:
        # legitimately complex: in 3-space, wildly unequal curvatures
        # admit no mutually tangent fifth sphere
        return
    s1 = sum(known)
    s2 = sum(k * k for k in known)
    scale = (1 + s1) ** 2
    assert abs(roots[0] + roots[1] - 2 * s1 / 2) < 1e-10 * scale
    assert abs(roots[0] * roots[1] - (3 * s2 - s1 * s1) / 2) < 1e-10 * scale


# -- planar construction ----------------------------------------------------------


def test_unit_triple_is_equilateral():
    cfg = build_tangent_circles_2d(1, 1, 1)
    centers = np.array([s.center for s in cfg.spheres])
    dists = np.linalg.norm(centers[:, None] - centers[None, :], axis=2)
    assert np.allclose(dists[np.triu_indices(3, 1)], 2.0, atol=1e-12)


def test_one_two_three_triple_is_right_triangle():
    cfg = build_tangent_circles_2d(1, 2, 3)
    centers = np.array([s.center for s in cfg.spheres])
    assert np.allclose(centers[1], [3, 0], atol=1e-12)
    assert np.allclose(centers[2], [0, 4], atol=1e-12)  # sides 3, 4, 5


def test_construction_tangency_exact():
    cfg = build_tangent_circles_2d(0.3, 1.7, 4.2)
    assert max(r for _, _, r in tangency_residuals(cfg.spheres)) < 1e-12


def test_construction_rejects_nonpositive():
    with pytest.raises(ValueError):
        build_tangent_circles_2d(1, 0, 1)


def test_tangent_config_validates():
    good = (Sphere((0, 0), 1), Sphere((2, 0), 1))
    TangentConfig(dim=2, spheres=good)
    bad = (Sphere((0, 0), 1), Sphere((2.5, 0), 1))
    with pytest.raises(ValueError):
        TangentConfig(dim=2, spheres=bad)


def test_sphere_and_config_coerce_their_fields():
    sphere = Sphere([0, 2], 1)
    assert sphere.center == (0.0, 2.0) and type(sphere.center[0]) is float
    assert sphere.radius == 1.0 and type(sphere.radius) is float
    assert sphere.orientation == 1
    with pytest.raises(ValueError, match="orientation"):
        Sphere((0, 0), 1, orientation=0)
    config = TangentConfig(dim=2, spheres=[Sphere((0, 0), 1), Sphere((2, 0), 1)])
    assert type(config.spheres) is tuple and len(config.spheres) == 2
    assert TangentConfig(2, iter(config.spheres)).spheres == config.spheres


def test_enclosing_tangency_uses_radius_difference():
    inner = Sphere((0.5, 0), 0.5)
    outer = Sphere((0.0, 0), 1.0, orientation=-1)
    TangentConfig(dim=2, spheres=(inner, outer))


@pytest.mark.parametrize("radius", [math.inf, math.nan, 0.0, -1.0])
def test_sphere_rejects_a_radius_that_is_not_finite_and_positive(radius):
    with pytest.raises(ValueError, match="radius must be finite and positive"):
        Sphere((0.0, 0.0), radius)


@pytest.mark.parametrize("center", [(math.inf, 0.0), (0.0, -math.inf), (math.nan, 0.0)])
def test_sphere_rejects_a_centre_that_is_not_finite(center):
    with pytest.raises(ValueError, match=r"the sphere of curvature -0\.5 has a centre that is not finite"):
        Sphere(center, 2.0, orientation=-1)


def test_tangency_residuals_are_exact_in_the_float_centres():
    # the centre (1e100 + 1, 0) rounds to (1e100, 0), and so does the target
    # 1e100 + 1 in floats; exactly, the circles miss tangency by 1
    big, unit = Sphere((0.0, 0.0), 1e100), Sphere((1e100 + 1, 0.0), 1.0)
    assert tangency_residuals((big, unit)) == [(0, 1, 1.0)]
    with pytest.raises(ValueError, match=r"not mutually tangent \(residual 1.000e\+00\)"):
        TangentConfig(dim=2, spheres=(big, unit))


def test_tangency_tolerance_grows_with_the_configuration():
    # a defect under one float step of the centres passes at 1e8 and 1e9
    # (it failed an absolute 1e-9); a defect the size of a radius never does
    for radius in (1e8, 1e9):
        spheres = build_tangent_circles_2d(radius, 1, 1).spheres
        assert max(r for _, _, r in tangency_residuals(spheres)) > 1e-9
    far = (Sphere((0.0, 0.0), 1e8), Sphere((1e8 + 1.5, 0.0), 1.0))
    with pytest.raises(ValueError, match="not mutually tangent"):
        TangentConfig(dim=2, spheres=far)


@pytest.mark.parametrize("radius", [1e4, 1e6, 1e10, 1e12, 1e14])
def test_construction_places_circles_around_a_large_radius(radius):
    # s13^2 - x3^2 cancels in floats (residual 2 at 1e10 before it was exact)
    cfg = build_tangent_circles_2d(radius, 1, 1)
    assert max(r for _, _, r in tangency_residuals(cfg.spheres)) < 1e-9
    k_plus, _ = solve_missing_curvature([1 / radius, 1, 1], 2)
    _, residual = build_soddy_circle_2d(cfg, k_plus)
    assert residual < 1e-9


# -- the fourth circle --------------------------------------------------------------


def test_soddy_inner_circle():
    cfg = build_tangent_circles_2d(1, 1, 1)
    k4 = 3 + 2 * math.sqrt(3)
    sphere, residual = build_soddy_circle_2d(cfg, k4)
    assert sphere.orientation == 1
    assert residual < 1e-9
    # the inner circle sits at the triangle's centroid
    centroid = np.mean([s.center for s in cfg.spheres], axis=0)
    assert np.allclose(sphere.center, centroid, atol=1e-9)


def test_soddy_outer_circle():
    cfg = build_tangent_circles_2d(1, 1, 1)
    k4 = 3 - 2 * math.sqrt(3)
    sphere, residual = build_soddy_circle_2d(cfg, k4)
    assert sphere.orientation == -1
    assert residual < 1e-9


def test_non_root_curvature_reports_large_residual():
    cfg = build_tangent_circles_2d(1, 1, 1)
    sphere, residual = build_soddy_circle_2d(cfg, 1.0)
    # no circle of curvature 1 touches the three unit circles: it misses
    # each of them, the third by |dist(c4, c3) - 2|, far above any tolerance
    expected = abs(np.linalg.norm(np.subtract(sphere.center, cfg.spheres[2].center)) - 2.0)
    assert residual == pytest.approx(expected)
    assert all(r > 0.1 for _, j, r in tangency_residuals((*cfg.spheres, sphere)) if j == 3)


def test_soddy_rejects_zero_curvature():
    cfg = build_tangent_circles_2d(1, 1, 1)
    with pytest.raises(ValueError):
        build_soddy_circle_2d(cfg, 0.0)


def test_positive_root_constructs_for_random_radii():
    rng = random.Random(7)
    for _ in range(60):
        radii = [10 ** rng.uniform(-1, 1) for _ in range(3)]
        cfg = build_tangent_circles_2d(*radii)
        k_plus, _ = solve_missing_curvature([1 / r for r in radii], 2)
        _, residual = build_soddy_circle_2d(cfg, k_plus)
        assert residual < 1e-8


def placement_miss_in_ulp(config, circle):
    """The largest exact tangency residual of ``circle`` against the three
    circles, in ulps of the largest |centre coordinate| or radius of the four."""
    miss = max(r for _, j, r in tangency_residuals((*config.spheres, circle)) if j == 3)
    size = max(abs(x) for s in (*config.spheres, circle) for x in (*s.center, s.radius))
    return miss / math.ulp(size)


@pytest.mark.parametrize("e", range(16))
def test_every_root_places_around_a_large_radius(e):
    # every root places, the enclosing circles of 1e7, 1e8 and 1e15 too
    cfg = build_tangent_circles_2d(10.0**e, 1, 1)
    for k4 in solve_missing_curvature([1 / 10.0**e, 1, 1], 2):
        circle, residual = build_soddy_circle_2d(cfg, k4)
        assert circle.curvature == pytest.approx(k4, rel=1e-15)
        assert placement_miss_in_ulp(cfg, circle) <= 2
        # the reported residual is the exact one against the third circle
        assert residual == tangency_residuals((cfg.spheres[2], circle))[0][2]


def test_roots_of_random_radii_place_within_64_ulp():
    # radii eight decades either side of 1: the 5,574 roots of the first
    # 3,000 triples of this stream place within 46.5 ulp; the first 300
    # triples are checked here
    rng = random.Random(1)
    worst = 0.0
    for _ in range(300):
        radii = [10 ** rng.uniform(-8, 8) for _ in range(3)]
        try:
            cfg = build_tangent_circles_2d(*radii)
        except ValueError:
            continue  # the three circles themselves do not place as floats
        for k4 in solve_missing_curvature([1 / r for r in radii], 2):
            if k4:
                worst = max(worst, placement_miss_in_ulp(cfg, build_soddy_circle_2d(cfg, k4)[0]))
    assert worst <= 64
