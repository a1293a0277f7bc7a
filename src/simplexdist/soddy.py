"""Descartes circle theorem machinery: oriented curvatures of mutually
tangent spheres, the quadratic for a missing curvature, and constructive
placement of tangent circles in the plane.

For d+2 spheres in d-space in mutual oriented tangency the curvatures
``k_j = orientation_j / r_j`` satisfy ``d * sum(k_j^2) = (sum k_j)^2``.
Positive orientation means externally tangent; negative means the sphere
encloses its neighbours (Soddy's outer circle).  Construction is planar
only; in higher dimensions the algebra alone is exposed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

# largest centre-distance defect a mutually tangent configuration may have
_TANGENCY_TOL = 1e-9


@dataclass(frozen=True)
class Sphere:
    """A sphere with an oriented (signed) curvature."""

    center: tuple[float, ...]
    radius: float
    orientation: int = 1

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(x) for x in self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 (external) or -1 (enclosing)")

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


def _tangency_target(a: Sphere, b: Sphere) -> float:
    if a.orientation == 1 and b.orientation == 1:
        return a.radius + b.radius
    if a.orientation != b.orientation:
        return abs(a.radius - b.radius)
    raise ValueError("at most one sphere may be enclosing")


def tangency_residuals(spheres: Sequence[Sphere]) -> list[tuple[int, int, float]]:
    """For every pair, how far the centre distance is from exact tangency."""
    out = []
    for i in range(len(spheres)):
        for j in range(i + 1, len(spheres)):
            gap = np.subtract(spheres[i].center, spheres[j].center)
            actual = float(np.linalg.norm(gap))
            out.append((i, j, abs(actual - _tangency_target(spheres[i], spheres[j]))))
    return out


@dataclass(frozen=True)
class TangentConfig:
    """A set of spheres required to be in mutual oriented tangency."""

    dim: int
    spheres: tuple[Sphere, ...]

    def __post_init__(self):
        object.__setattr__(self, "spheres", tuple(self.spheres))
        if self.dim < 2:
            raise ValueError("tangency configurations live in dimension >= 2")
        if any(len(s.center) != self.dim for s in self.spheres):
            raise ValueError("sphere centre dimension mismatch")
        worst = max((r for _, _, r in tangency_residuals(self.spheres)), default=0.0)
        if worst > _TANGENCY_TOL:
            raise ValueError(f"configuration is not mutually tangent (residual {worst:.3e})")

    def curvatures(self) -> list[float]:
        return [s.curvature for s in self.spheres]

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
    Descartes relation holds."""
    ks = [float(k) for k in curvatures]
    if len(ks) != dim + 2:
        raise ValueError(f"need {dim + 2} curvatures in dimension {dim}, got {len(ks)}")
    if any(k == 0 for k in ks):
        raise ValueError("curvatures must be nonzero")
    s1 = sum(ks)
    s2 = sum(k * k for k in ks)
    return dim * s2 - s1 * s1


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
    # would cancel when one radius dwarfs the others
    exact = [Fraction(k) for k in ks]
    s1 = sum(exact)
    s2 = sum(k * k for k in exact)
    disc = dim * (s1 * s1 - (dim - 1) * s2)
    if disc < 0:
        return None
    far = (float(s1) + math.copysign(math.sqrt(disc), s1)) / (dim - 1)
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
    s23 = radii[1] + radii[2]
    if math.isinf(s12 * s12 + s13 * s13):
        raise ValueError("radii are too large to place: the squares of their sums overflow a float")
    x3 = (s12 * s12 + s13 * s13 - s23 * s23) / (2.0 * s12)
    y3 = math.sqrt(max(s13 * s13 - x3 * x3, 0.0))
    spheres = (
        Sphere((0.0, 0.0), radii[0]),
        Sphere((s12, 0.0), radii[1]),
        Sphere((x3, y3), radii[2]),
    )
    return TangentConfig(dim=2, spheres=spheres)


def build_soddy_circle_2d(config: TangentConfig, k4: float) -> tuple[Sphere, float]:
    """Construct the fourth circle of curvature ``k4`` tangent to the first
    two circles, and report how far it misses tangency with the third.

    The centre comes from the linearised two-circle solve: intersecting the
    distance constraints to circles 1 and 2 leaves a line and a circle,
    hence two mirror candidates; the one closer to third-circle tangency is
    returned.  For a curvature actually satisfying the Descartes relation
    the returned residual is at floating-point scale; any other curvature
    yields a visibly nonzero residual, which is reported rather than raised.
    """
    if config.dim != 2 or len(config.spheres) != 3:
        raise ValueError("need a planar configuration of exactly three circles")
    k4 = float(k4)
    if k4 == 0:
        raise ValueError("curvature must be nonzero")
    r4 = 1.0 / abs(k4)
    orientation = 1 if k4 > 0 else -1
    new = Sphere((0.0, 0.0), r4, orientation)  # placeholder for target arithmetic
    targets = [_tangency_target(s, new) for s in config.spheres]
    c1 = np.asarray(config.spheres[0].center)
    c2 = np.asarray(config.spheres[1].center)
    c3 = np.asarray(config.spheres[2].center)
    axis = c2 - c1
    span = float(np.linalg.norm(axis))
    u = axis / span
    perp = np.array([-u[1], u[0]])
    along = (span * span + targets[0] ** 2 - targets[1] ** 2) / (2.0 * span)
    height_sq = targets[0] ** 2 - along * along
    if height_sq < -1e-9 * (targets[0] ** 2 + 1.0):
        raise ValueError(
            "no circle of that curvature is simultaneously tangent to the first two"
        )
    height = math.sqrt(max(height_sq, 0.0))
    best_center = None
    best_residual = math.inf
    for side in (1.0, -1.0):
        center = c1 + along * u + side * height * perp
        residual = abs(float(np.linalg.norm(center - c3)) - targets[2])
        if residual < best_residual:
            best_residual = residual
            best_center = center
    sphere = Sphere(tuple(best_center), r4, orientation)
    return sphere, best_residual
