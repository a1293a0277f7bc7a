"""Descartes' circle theorem, algebraically and geometrically.

d+2 mutually tangent spheres in d-space satisfy a quadratic relation in
their oriented curvatures, so three circles determine the fourth's
curvature up to two roots: the small circle in the middle gap and the
large one enclosing everything (negative curvature).  Construction makes
the algebra visible: a root's circle closes all three tangencies, and a
circle of any other curvature misses all three circles.
"""

import math

from simplexdist import (
    build_soddy_circle_2d,
    build_tangent_circles_2d,
    descartes_residual,
    solve_missing_curvature,
)

config = build_tangent_circles_2d(1.0, 1.0, 1.0)
roots = solve_missing_curvature([1, 1, 1], 2)
print(f"three unit circles; curvature roots {roots[0]:.9f} and {roots[1]:.9f}")
print(f"(analytically 3 + 2*sqrt(3) = {3 + 2 * math.sqrt(3):.9f} "
      f"and 3 - 2*sqrt(3) = {3 - 2 * math.sqrt(3):.9f})")

for k in roots:
    sphere, residual = build_soddy_circle_2d(config, k)
    kind = "inner" if sphere.orientation > 0 else "enclosing"
    print(f"  k={k:+.6f}: {kind} circle of radius {sphere.radius:.6f} at "
          f"{tuple(round(c, 6) for c in sphere.center)}, "
          f"third-tangency residual {residual:.2e}")

# a curvature that is not a root cannot close the configuration
sphere, residual = build_soddy_circle_2d(config, 1.0)
print(f"  k=+1 (not a root): third tangency misses by {residual:.3f}")
print(f"    and the relation residual is "
      f"{descartes_residual([1, 1, 1, 1], 2):+.1f}, not 0")

# the algebra is dimension-generic even where construction is planar only
roots = solve_missing_curvature([1, 1, 1, 1], 3)
print(f"\nfour unit spheres in 3-space: roots {roots[0]:.9f} / {roots[1]:.9f} "
      f"(analytically 2 +- sqrt(6))")
