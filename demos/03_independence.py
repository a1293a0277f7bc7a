"""Distances to d of the d+1 vertices admit no polynomial relation.

Dropping any one vertex breaks the quartic identity's closure: the
remaining d distance functions are algebraically independent.  This is
proven, not searched for: at the centroid the gradients of the chosen
squared distances are independent, so the distance map has full rank
there, its image contains an open set, and no nonzero polynomial vanishes
on it.  The certificate printed for every subset is the exact Gram
determinant (d+1-k)/(d+1) of the subset's weight vectors.
"""

import itertools

from simplexdist import independence_test

for d in (2, 3):
    for subset in itertools.combinations(range(1, d + 2), d):
        report = independence_test(d, edge_sq=1, subset=subset)
        print(
            f"d={d}, vertices {subset}: {report.verdict} "
            f"({report.certificate}, Gram determinant {report.gram_det})"
        )

# the full set of d+1 distances is rejected outright: it always satisfies
# the quartic relation, so independence is the wrong question there
try:
    independence_test(2, 1, (1, 2, 3))
except ValueError as exc:
    print("\nfull subset rejected:", exc)
