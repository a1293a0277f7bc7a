"""Distance geometry of regular simplices.

Exact verification of the quartic vertex-distance relation, discovery and
certification of vanishing polynomials of the distance map, Cayley-Menger
determinants and point reconstruction, and Descartes tangent-circle
machinery.
"""

from .cmgeom import (
    ProbeReport,
    ReconstructionResult,
    SquaredDistanceMatrix,
    cayley_menger_det,
    complete_distance_tuple,
    probe_realizability,
    reconstruct_point,
    relation_vs_cayley_menger,
    simplex_volume,
)
from .discover import (
    CERT_CIRCUMCIRCLE,
    CERT_DIVISIBLE,
    CERT_SPHERE_IDEAL,
    CERT_UNCERTIFIED,
    CertifiedCandidate,
    DiscoveryReport,
    ExactNullspace,
    IndependenceReport,
    NullspaceReport,
    SphereDiscoveryReport,
    discover_on_sphere,
    discover_vanishing,
    enumerate_monomials,
    independence_test,
    numeric_nullspace,
    rationalize,
)
from .geom import (
    BarycentricPoint,
    CartesianSimplex,
    DistanceSample,
    EmbeddedSimplex,
    SampleConfig,
    sample_circumsphere,
    sample_document,
    sample_points,
)
from .poly import (
    DivisionResult,
    MultiPoly,
    circumsphere_quadratic,
    circumsphere_quartic,
    distance_relation,
    distance_relation_homogeneous,
    divide_last_variable,
    poly_from_dict,
    poly_to_dict,
    proportional,
    reduce_by_relation,
    relation_residual_exact,
    segment_factors,
    segment_generator,
    verify_circumsphere_identity,
    verify_segment_factorization,
)
from .rationals import as_fraction, frac_str, rational_sqrt
from .soddy import (
    Sphere,
    TangentConfig,
    build_soddy_circle_2d,
    build_tangent_circles_2d,
    descartes_residual,
    solve_missing_curvature,
    tangency_residuals,
)

__version__ = "0.1.0"
