"""From distances back to the point, and the realizability question.

Given the d+1 vertex distances, subtracting sphere equations pairwise
leaves a nonsingular linear system; one quadratic consistency check then
separates genuine distance tuples from impostors.  The probe at the end
asks: if positive numbers satisfy the quartic relation, do they always
come from an actual point?  They do, by a theorem rather than by
experiment: the point found by the linear solve misses the last sphere
equation by exactly ``|R(s)| / (2(d+1)a^2)``, where ``R`` is the relation
on the squared distances (the proof is in the ``cmgeom`` docstring).
"""

import numpy as np

from simplexdist import (
    CartesianSimplex,
    complete_distance_tuple,
    probe_realizability,
    reconstruct_point,
)

simplex = CartesianSimplex.build(2, 1.0)

# a round trip: point -> distances -> point
target = np.array([0.31, -0.54])
result = reconstruct_point(simplex, simplex.distances(target))
print(f"target {target} -> {result.status} at {np.round(result.point, 12)}")

# the all-ones tuple satisfies no point: the solver lands on the
# circumcenter and the residual reports how badly the last equation fails
result = reconstruct_point(simplex, [1.0, 1.0, 1.0])
print(f"(1, 1, 1) -> {result.status}, landing {np.round(result.point, 6)}, "
      f"residual {result.residual:.6f} (exactly 2/3)")

# completing a tuple through the relation: the quartic is quadratic in the
# squared last distance, so each prefix gives at most two candidates
roots = complete_distance_tuple(2, 1, [0.5773502691896258] * 2)
print(f"\nprefix (1/sqrt(3), 1/sqrt(3)) completes to t3 in {np.round(roots, 9)}")

# the probe: draw prefixes and complete them; by the identity every real
# non-negative completion is realizable, so each root is counted feasible
report = probe_realizability(d=2, edge_sq=1, trials=1000, seed=11)
print("\n1000 trials:", report.counts)

# the identity at work: (1, 1, 1) has R = 3*(1 + 3) - 4^2 = -4, hence the
# residual 4 / (2*3*1) = 2/3 above; a completed tuple has R = 0, and its
# reconstruction misses only by rounding
trial = next(t for t in report.trials if t["roots"])
result = reconstruct_point(simplex, trial["t_first"] + trial["roots"][:1])
print(f"a completed tuple -> {result.status}, residual {result.residual:.1e}")
