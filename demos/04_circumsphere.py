"""Vanishing polynomials on the circumsphere, and a planar surprise.

Restricted to the circumsphere, two low-degree polynomials obviously
vanish: sum t_j^2 - d*a^2 and sum t_j^4 - d*a^4.  The two are tied to the
quartic relation by an exact identity, so either pair generates the third.
For d >= 3 they generate everything that vanishes there, up to the degrees
the exact runs reach: every row a run finds is certified in their ideal.

For a triangle there is more: the circumsphere is a circle, and on each
arc the largest vertex distance equals the sum of the other two
(Ptolemy/Pompeiu), so a product of three linear forms vanishes on the
whole circle.  It is a cubic outside the two-generator ideal.  The d = 2
run samples the three Ptolemy conics exactly and certifies every row, the
cubic included, by exact membership in the ideal of each conic.
"""

from fractions import Fraction

from simplexdist import (
    MultiPoly,
    circumsphere_quadratic,
    discover_on_sphere,
    proportional,
    verify_circumsphere_identity,
)

# degree 2: exactly the quadratic, certified
report = discover_on_sphere(d=2, edge_sq=1, max_degree=2, seed=3)
print("degree-2 certified candidates:")
for candidate in report.certified:
    print("  ", candidate.poly, f"({candidate.certificate})")
print("matches sum t^2 - d a^2:",
      proportional(report.certified[0].poly, circumsphere_quadratic(2, 1)))

# the identity linking the three polynomials, verified symbolically
print("\nidentity (d+1)*quartic == relation + ((d+1)a^2 + quadratic)^2 - (d+1)^2 a^4:")
for d in range(2, 9):
    print(f"  d={d}: {verify_circumsphere_identity(d, 1)}")

# d = 3 degree 6: the vanishing space is the ideal's slice, all certified
report = discover_on_sphere(d=3, edge_sq=1, max_degree=6, seed=3)
print(f"\nd=3 degree 6: null dimension {report.nullspace.null_dim}, "
      f"certified {len(report.certified)} ({report.certified[0].certificate}), extras {len(report.extras)}")

# degree 3 on the circle: the null dimension jumps past the ideal's slice
report = discover_on_sphere(d=2, edge_sq=1, max_degree=3, seed=3)
print("\nd=2: null dimension by degree:", report.null_dim_by_degree)
print(f"certified {len(report.certified)} ({report.certified[0].certificate}), extras {len(report.extras)}")

# the Pompeiu cubic explains the jump: it lies in the certified span
t1, t2, t3 = (MultiPoly.variable(i, 3) for i in range(3))
pompeiu = (t1 + t2 - t3) * (t1 - t2 + t3) * (t2 + t3 - t1)
polys = [c.poly for c in report.certified]
exps = sorted({e for p in polys + [pompeiu] for e in p.terms})


def rank(rows):
    rows = [[p.terms.get(e, Fraction(0)) for e in exps] for p in rows]
    r = 0
    for col in range(len(exps)):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col] / rows[r][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


print("\nthe cubic", pompeiu)
print("vanishes on the circle but lies outside the two-generator ideal;")
print("the ideal's degree-3 slice is 4-dimensional, the vanishing space's is",
      report.null_dim_by_degree[3])
print("the cubic lies in the certified span:", rank(polys) == rank(polys + [pompeiu]))
