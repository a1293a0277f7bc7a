"""Descartes circle theorem machinery: oriented curvatures of mutually
tangent spheres, the quadratic for a missing curvature, and constructive
placement of tangent circles in the plane, the fourth by the theorem's
complex form.

For d+2 spheres in d-space in mutual oriented tangency the curvatures
``k_j = orientation_j / r_j`` satisfy ``d * sum(k_j^2) = (sum k_j)^2``.
Positive orientation means externally tangent; negative means the sphere
encloses its neighbours (Soddy's outer circle).  Construction is planar
only; in higher dimensions the algebra alone is exposed.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

# largest centre-distance defect a mutually tangent configuration may have,
# relative to its largest centre coordinate or radius (and at least this)
_TANGENCY_TOL = 1e-9
# nor may the defect reach this share of the smallest radius
_TANGENCY_SHARE = 1e-6


class Sphere:
    """A sphere with an oriented (signed) curvature."""

    __slots__ = ("center", "radius", "orientation")

    def __init__(self, center, radius, orientation: int = 1):
        self.center = tuple(float(x) for x in center)
        self.radius = float(radius)
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError(f"radius must be finite and positive, got {self.radius}")
        if orientation not in (1, -1):
            raise ValueError("orientation must be +1 (external) or -1 (enclosing)")
        self.orientation = orientation
        if not all(map(math.isfinite, self.center)):
            raise ValueError(f"the sphere of curvature {self.curvature!r} has a centre that is not finite")

    @property
    def curvature(self) -> float:
        return self.orientation / self.radius

    def to_json(self) -> dict:
        return {
            "center": list(self.center),
            "radius": self.radius,
            "orientation": self.orientation,
            "curvature": self.curvature,
        }


def _tangency_target(a: Sphere, b: Sphere) -> Fraction:
    """The centre distance at which a and b touch, exact in their radii."""
    ra, rb = Fraction(a.radius), Fraction(b.radius)
    if a.orientation == 1 and b.orientation == 1:
        return ra + rb
    if a.orientation != b.orientation:
        return abs(ra - rb)
    raise ValueError("at most one sphere may be enclosing")


def _tangency_residual(a: Sphere, b: Sphere) -> float:
    """``|dist - target|`` as ``|dist^2 - target^2| / (dist + target)``, exact
    in the float centres and radii up to the one rounding of ``dist`` in
    the denominator: in floats the centre distance and the target round
    alike once one radius dwarfs the others, and their difference reads 0."""
    dist_sq = sum((Fraction(x) - Fraction(y)) ** 2 for x, y in zip(a.center, b.center))
    target = _tangency_target(a, b)
    if dist_sq == target * target:
        return 0.0
    return float(abs(dist_sq - target * target) / (Fraction(math.dist(a.center, b.center)) + target))


def tangency_residuals(spheres: Sequence[Sphere]) -> list[tuple[int, int, float]]:
    """For every pair, how far the centre distance is from exact tangency."""
    return [
        (i, j, _tangency_residual(spheres[i], spheres[j]))
        for i, j in itertools.combinations(range(len(spheres)), 2)
    ]


class TangentConfig:
    """A set of spheres required to be in mutual oriented tangency."""

    __slots__ = ("dim", "spheres")

    def __init__(self, dim: int, spheres):
        spheres = tuple(spheres)
        if dim < 2:
            raise ValueError("tangency configurations live in dimension >= 2")
        if any(len(s.center) != dim for s in spheres):
            raise ValueError("sphere centre dimension mismatch")
        worst = max((r for _, _, r in tangency_residuals(spheres)), default=0.0)
        # float centres carry rounding relative to their size, so the defect
        # is measured against it; but a defect that is a visible share of
        # the smallest circle means the circles do not touch as placed
        size = max((abs(x) for s in spheres for x in (*s.center, s.radius)), default=0.0)
        smallest = min((s.radius for s in spheres), default=0.0)
        if worst > max(_TANGENCY_TOL, min(_TANGENCY_TOL * size, _TANGENCY_SHARE * smallest)):
            raise ValueError(f"configuration is not mutually tangent (residual {worst:.3e})")
        self.dim = dim
        self.spheres = spheres

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "spheres": [s.to_json() for s in self.spheres],
            "tangency_residuals": [
                {"i": i, "j": j, "residual": r} for i, j, r in tangency_residuals(self.spheres)
            ],
        }


def descartes_residual(curvatures: Sequence[float], dim: int) -> float:
    """``d * sum(k^2) - (sum k)^2`` for d+2 oriented curvatures; zero iff the
    Descartes relation holds.

    It is the plain float formula wherever that is finite.  Where it is
    not, it is formed on the curvatures scaled by the power of two 2^-e
    that brings the largest below 1, and scaled back by 2^2e, so it is
    finite where the squares overflow.  The scaled formula is not used
    throughout: where squares fall below the normal floats it gives other
    bits than the plain one."""
    ks = [float(k) for k in curvatures]
    if len(ks) != dim + 2:
        raise ValueError(f"need {dim + 2} curvatures in dimension {dim}, got {len(ks)}")
    s1 = sum(ks)
    plain = dim * sum(k * k for k in ks) - s1 * s1
    if math.isfinite(plain):
        return plain
    e = math.frexp(max(map(abs, ks)))[1]
    ks = [math.ldexp(k, -e) for k in ks]
    s1 = sum(ks)
    s2 = sum(k * k for k in ks)
    return math.ldexp(dim * s2 - s1 * s1, 2 * e)


def solve_missing_curvature(known: Sequence[float], dim: int) -> tuple[float, float] | None:
    """Both solutions of the Descartes relation for one unknown curvature.

    With ``S1 = sum(known)`` and ``S2 = sum(known^2)`` the unknown satisfies
    ``(d-1)*k^2 - 2*S1*k + (d*S2 - S1^2) = 0``.  Returns ``(larger, smaller)``
    or None when the roots are complex.  Dimension 1 is rejected: the
    quadratic degenerates there.
    """
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    ks = [float(k) for k in known]
    if len(ks) != dim + 1:
        raise ValueError(f"need {dim + 1} known curvatures in dimension {dim}, got {len(ks)}")
    # the sums are exact in the float curvatures; the root of the sign of S1
    # comes from |S1| + root, free of cancellation, and the other from the
    # product of the roots (Vieta), (d*S2 - S1^2) / (d-1), where |S1| - root
    # would cancel when one radius dwarfs the others.  The root of the
    # discriminant N/D is isqrt(N*D*4^128) / (D*2^128), to 128 bits past the
    # point, and the far root is formed from it exactly and rounded once: the
    # discriminant itself can overflow a float although both roots are finite
    exact = [Fraction(k) for k in ks]
    s1 = sum(exact)
    s2 = sum(k * k for k in exact)
    disc = dim * (s1 * s1 - (dim - 1) * s2)
    if disc < 0:
        return None
    root = Fraction(math.isqrt(disc.numerator * disc.denominator << 256), disc.denominator << 128)
    far = float((s1 + root if s1 >= 0 else s1 - root) / (dim - 1))
    if far == 0:  # every known curvature is 0, and so are both roots
        return 0.0, 0.0
    near = float(Fraction(dim * s2 - s1 * s1, dim - 1) / Fraction(far))
    return max(far, near), min(far, near)


def build_tangent_circles_2d(r1: float, r2: float, r3: float) -> TangentConfig:
    """Place three externally tangent circles of the given radii.

    The centres form a triangle of side lengths ``r_i + r_j``, which is a
    valid triangle for any positive radii.  First centre at the origin,
    second on the positive x-axis, third above.
    """
    radii = [float(r1), float(r2), float(r3)]
    if any(not r > 0 for r in radii):
        raise ValueError("all radii must be positive")
    s12 = radii[0] + radii[1]
    s13 = radii[0] + radii[2]
    if math.isinf(s12 * s12 + s13 * s13):
        raise ValueError("radii are too large to place: the squares of their sums overflow a float")
    # y3^2 = s13^2 - x3^2 in exact arithmetic on the float radii: in floats
    # the difference of squares cancels when one radius dwarfs the others
    e12, e13, e23 = (Fraction(a) + Fraction(b) for a, b in itertools.combinations(radii, 2))
    x3 = (e12 * e12 + e13 * e13 - e23 * e23) / (2 * e12)
    y3 = math.sqrt(e13 * e13 - x3 * x3)
    spheres = (
        Sphere((0.0, 0.0), radii[0]),
        Sphere((s12, 0.0), radii[1]),
        Sphere((float(x3), y3), radii[2]),
    )
    return TangentConfig(dim=2, spheres=spheres)


def build_soddy_circle_2d(config: TangentConfig, k4: float) -> tuple[Sphere, float]:
    """Construct the fourth circle of curvature ``k4`` against the three
    circles of ``config``, and report how far it misses the third.

    The centre comes from the complex Descartes theorem (Lagarias, Mallows &
    Wilks, "Beyond the Descartes circle theorem", 2002).  With the origin at
    one of the centres and ``p = k_j z_j``, ``q = k_k z_k`` for the other two
    centres as complex numbers, ``k4 * z4`` is a root of ``X^2 - 2wX + c``,
    where ``w = p + q`` and ``c = (p - q)^2``, so that ``w^2 - c = 4pq``.
    These are exact in the float centres and radii.  The far root is
    ``w + 2 sqrt(pq)`` with the root's sign aligned to w, free of
    cancellation, and the near root is ``c / far`` (Vieta), as in
    solve_missing_curvature.  One root belongs to each of the two Descartes
    curvatures, and the three origins round differently, so of the six
    candidates the one whose largest exact tangency residual against the
    three circles is smallest is returned, with its residual against the
    third.  For a curvature satisfying the Descartes relation that residual
    is at floating-point scale; any other curvature misses all three
    circles, and its residual is reported rather than raised.
    """
    import cmath  # only here: importing simplexdist does not load it

    if config.dim != 2 or len(config.spheres) != 3:
        raise ValueError("need a planar configuration of exactly three circles")
    k4 = float(k4)
    if k4 == 0:
        raise ValueError("curvature must be nonzero")
    r4 = 1.0 / abs(k4)
    orientation = 1 if k4 > 0 else -1
    spheres = config.spheres
    candidates = []
    for i, origin in enumerate(spheres):
        o = [Fraction(x) for x in origin.center]
        (p0, p1), (q0, q1) = (
            [Fraction(s.orientation) / Fraction(s.radius) * (Fraction(x) - y) for x, y in zip(s.center, o)]
            for s in (spheres[i - 1], spheres[i - 2])
        )
        w = complex(float(p0 + q0), float(p1 + q1))
        root = 2 * cmath.sqrt(complex(float(p0 * q0 - p1 * q1), float(p0 * q1 + p1 * q0)))
        if (w * root.conjugate()).real < 0:
            root = -root
        far = w + root
        near = complex(float((p0 - q0) ** 2 - (p1 - q1) ** 2), float(2 * (p0 - q0) * (p1 - q1))) / far
        for x in (far, near):
            center = (origin.center[0] + x.real / k4, origin.center[1] + x.imag / k4)
            candidates.append(Sphere(center, r4, orientation))
    circle = min(candidates, key=lambda s: max(_tangency_residual(t, s) for t in spheres))
    return circle, _tangency_residual(spheres[2], circle)
