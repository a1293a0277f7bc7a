"""Rediscovering the quartic relation from raw samples.

The pipeline knows nothing about the identity: it evaluates every monomial
up to a degree bound at sampled distance tuples, modulo a prime, finds the
nullspace by exact elimination, reconstructs rational coefficients, and only
then certifies by exact division.  A run is complete when it certifies the
whole nullspace, which proves that nothing else vanishes.  At degree 4
exactly one polynomial comes out, and it is the quartic relation itself.
"""

from simplexdist import discover_vanishing, distance_relation, proportional

for degree in (3, 4, 5):
    report = discover_vanishing(d=2, edge_sq=1, max_degree=degree, seed=1)
    ns = report.nullspace
    print(f"degree {degree}: nullspace dimension {ns.null_dim}, complete {ns.complete}, "
          f"{len(ns.primes)} prime(s)")
    for candidate in report.candidates:
        print(f"  [{candidate.certificate}] {candidate.poly}")
    print()

# the degree-4 candidate is the relation, up to scaling
report = discover_vanishing(d=2, edge_sq=1, max_degree=4, seed=1)
found = report.candidates[0].poly
print("degree-4 candidate is proportional to the known quartic:",
      proportional(found, distance_relation(2, 1)))

# at degree 5 the certified space is (linear) * relation: dimension d + 2
report = discover_vanishing(d=3, edge_sq=1, max_degree=5, seed=1)
print(f"\nd=3, degree 5: dimension {report.nullspace.null_dim} "
      f"(constant and the d+1 variables, times the relation)")
