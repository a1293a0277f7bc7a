"""Distances to d of the d+1 vertices admit no polynomial relation.

Dropping any one vertex breaks the quartic identity's closure: the
remaining d distance functions are algebraically independent.  The search
below goes up to degree 6 and finds nothing, with a wide spectral gap at
the fixed 10^-8 cutoff, for every subset.
"""

import itertools

from simplexdist import independence_test

for d in (2, 3):
    for subset in itertools.combinations(range(1, d + 2), d):
        report = independence_test(d, edge_sq=1, subset=subset, max_degree=6, seed=5)
        print(
            f"d={d}, vertices {subset}: {report.verdict} "
            f"(gap {report.nullspace.gap:.1e})"
        )

# the full set of d+1 distances is rejected outright: it always satisfies
# the quartic relation, so independence is the wrong question there
try:
    independence_test(2, 1, (1, 2, 3), 4)
except ValueError as exc:
    print("\nfull subset rejected:", exc)
