"""Reproducible, JSON-emitting command line interface.

Every subcommand echoes its full effective configuration into the output
document, so a report is rerunnable from its own header.  With ``--out``
the JSON goes to the file and a short human summary to stdout; without it
the JSON document itself is printed.  Exit codes: 0 success, 1 the run
completed but failed its own check (a nonzero residual, an uncertified
candidate, an inconclusive spectral gap), 2 bad configuration.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import cmgeom, discover, geom, poly, soddy
from .rationals import as_fraction, frac_str

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2


def _fraction_arg(text: str) -> Fraction:
    return as_fraction(text)


def _float_list_arg(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip() != ""]


def _int_list_arg(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip() != ""]


def _emit(args, command: str, config: dict, result: dict, summary: list[str]) -> None:
    doc = {
        "tool": "simplexdist",
        "command": command,
        "config": config,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "result": result,
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
        for line in summary:
            print(line)
        print(f"report written to {args.out}")
    else:
        print(text)


def _add_common(parser, *, d_default=2, count=None, degree=None):
    parser.add_argument("--d", type=int, default=d_default, help="simplex dimension (default %(default)s)")
    parser.add_argument(
        "--edge-sq",
        type=_fraction_arg,
        default=Fraction(1),
        metavar="P/Q",
        help="squared edge length as a rational (default 1)",
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed (default %(default)s)")
    if count is not None:
        parser.add_argument(
            "--count", type=int, default=count, help="number of samples/trials (default %(default)s)"
        )
    if degree is not None:
        parser.add_argument(
            "--max-degree", type=int, default=degree, help="monomial degree bound (default %(default)s)"
        )
        parser.add_argument(
            "--threshold",
            type=float,
            default=1e-8,
            help="relative singular-value cutoff (default %(default)s)",
        )
        parser.add_argument(
            "--max-denominator",
            type=int,
            default=10**6,
            help="denominator bound for rational reconstruction (default %(default)s)",
        )
        parser.add_argument(
            "--samples", type=int, default=None, help="sample count (default: 3x basis size)"
        )
    parser.add_argument("--out", type=str, default=None, metavar="FILE", help="write the JSON report here")


# -- subcommands ---------------------------------------------------------------


def cmd_verify(args) -> int:
    simplex = geom.EmbeddedSimplex(args.d, args.edge_sq)
    config = geom.SampleConfig(seed=args.seed, count=args.count, box=args.box)
    # With a^2 = p/q and weights r_i/T every squared distance is
    # (p/(2qT^2)) * N_j for an integer N_j, and a^2 is (p/(2qT^2)) * 2T^2, so
    # the relation is (p/(2qT^2))^2 times an integer residual.
    p, q = simplex.edge_sq.numerator, simplex.edge_sq.denominator
    violations = []
    for index, (nums, den) in enumerate(geom._weight_draws(args.d + 1, config)):
        residual = poly._relation_numerator(2 * den * den, geom._distance_numerators(nums, den))
        if residual != 0:
            point = geom.BarycentricPoint(tuple(Fraction(r, den) for r in nums))
            scaled = Fraction(p * p * residual, (2 * q * den * den) ** 2)
            violations.append(
                {"sample": index, "weights": point.to_json(), "residual": frac_str(scaled)}
            )
    result = {
        "checked": config.count,
        "violations": violations,
        "all_exactly_zero": not violations,
    }
    cfg = {
        "d": args.d,
        "edge_sq": frac_str(simplex.edge_sq),
        "count": args.count,
        "seed": args.seed,
        "box": frac_str(config.box),
    }
    _emit(args, "verify", cfg, result, [
        f"verify: {config.count} exact samples, {len(violations)} violations",
    ])
    return EXIT_OK if not violations else EXIT_FAIL


def _discovery_kwargs(args) -> dict:
    """Keyword arguments of the three discovery entry points from the
    options that ``_add_common(..., degree=...)`` defines."""
    return {
        "d": args.d,
        "edge_sq": args.edge_sq,
        "max_degree": args.max_degree,
        "n_samples": args.samples,
        "seed": args.seed,
        "threshold": args.threshold,
        "max_denominator": args.max_denominator,
    }


def cmd_discover(args) -> int:
    report = discover.discover_vanishing(**_discovery_kwargs(args))
    doc = report.to_json()
    summary = [
        f"discover: null dimension {report.nullspace.null_dim} at degree {args.max_degree}, "
        f"gap {report.nullspace.gap:.3e}",
    ] + [f"  candidate ({c.certificate}): {c.poly}" for c in report.candidates]
    _emit(args, "discover", doc["config"], doc, summary)
    return EXIT_OK if report.all_certified and not report.inconclusive else EXIT_FAIL


def cmd_independence(args) -> int:
    report = discover.independence_test(subset=args.subset, **_discovery_kwargs(args))
    doc = report.to_json()
    summary = [f"independence: subset {args.subset} at degree {args.max_degree}: {report.verdict}"]
    _emit(args, "independence", doc["config"], doc, summary)
    ok = report.verdict == "no-relation-found" and not report.inconclusive
    return EXIT_OK if ok else EXIT_FAIL


def cmd_sphere(args) -> int:
    report = discover.discover_on_sphere(**_discovery_kwargs(args))
    doc = report.to_json()
    summary = [
        f"sphere: null dimensions by degree {report.null_dim_by_degree}, "
        f"{len(report.certified)} certified, {len(report.extras)} extras",
    ]
    _emit(args, "sphere", doc["config"], doc, summary)
    return EXIT_OK if not report.extras and not report.inconclusive else EXIT_FAIL


def cmd_reduce(args) -> int:
    try:
        doc = json.loads(Path(args.poly).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read {args.poly}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{args.poly} is not valid JSON: {exc}") from exc
    candidate = poly.poly_from_dict(doc)
    division = poly.reduce_by_relation(candidate, args.d, args.edge_sq)
    member = division.remainder.is_zero
    result = {
        "member": member,
        "quotient": poly.poly_to_dict(division.quotient),
        "remainder": poly.poly_to_dict(division.remainder),
    }
    cfg = {"d": args.d, "edge_sq": frac_str(as_fraction(args.edge_sq)), "poly": args.poly}
    _emit(args, "reduce", cfg, result, [
        f"reduce: member-of-relation-ideal = {member}",
        f"  remainder: {division.remainder}",
    ])
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    edge = math.sqrt(float(as_fraction(args.edge_sq)))
    simplex = geom.CartesianSimplex.build(args.d, edge)
    result = cmgeom.reconstruct_point(simplex, args.t, args.tol)
    cfg = {
        "d": args.d,
        "edge_sq": frac_str(as_fraction(args.edge_sq)),
        "t": args.t,
        "tol": args.tol if args.tol is not None else 1e-9 * edge**2,
    }
    _emit(args, "reconstruct", cfg, result.to_json(), [
        f"reconstruct: {result.status}, point {np.round(result.point, 9).tolist()}, "
        f"residual {result.residual:.3e}",
    ])
    return EXIT_OK


def cmd_probe63(args) -> int:
    report = cmgeom.probe_realizability(args.d, args.edge_sq, trials=args.count, seed=args.seed)
    _emit(args, "probe63", report.config, report.to_json(), [
        f"probe63: {args.count} trials, counts {report.counts}",
    ])
    return EXIT_OK  # every completed root is realizable, so the probe cannot fail


def cmd_soddy(args) -> int:
    if len(args.radii) != args.d + 1:
        raise ValueError(f"need {args.d + 1} radii for dimension {args.d}, got {len(args.radii)}")
    curvatures = [1.0 / r for r in args.radii]
    roots = soddy.solve_missing_curvature(curvatures, args.d)
    result: dict = {"known_curvatures": curvatures}
    if roots is None:
        result["roots"] = None
    else:
        result["roots"] = list(roots)
        result["root_residuals"] = [
            soddy.descartes_residual(curvatures + [k], args.d) for k in roots
        ]
    summary = [f"soddy: curvature roots {result['roots']}"]
    if args.d == 2:
        config = soddy.build_tangent_circles_2d(*args.radii)
        result["circles"] = config.to_json()
        built = []
        for k4 in [args.k4] if args.k4 is not None else list(roots or []):
            sphere, residual = soddy.build_soddy_circle_2d(config, k4)
            built.append(
                {"curvature": k4, "sphere": sphere.to_json(), "third_tangency_residual": residual}
            )
            summary.append(f"  k={k4:.6f}: third-tangency residual {residual:.3e}")
        result["constructed"] = built
    cfg = {"d": args.d, "radii": list(args.radii), "k4": args.k4}
    _emit(args, "soddy", cfg, result, summary)
    return EXIT_OK


def cmd_cm(args) -> int:
    if (args.edges_equilateral is None) == (args.matrix is None):
        raise ValueError("give exactly one of --edges-equilateral or --matrix")
    if args.edges_equilateral is not None:
        n = args.edges_equilateral
        a = as_fraction(args.a)
        if a <= 0:
            raise ValueError(f"edge length must be positive, got {frac_str(a)}")
        matrix = cmgeom.SquaredDistanceMatrix.regular(n, a * a)
        cfg = {"points": n, "edge": frac_str(a)}
    else:
        rows = json.loads(Path(args.matrix).read_text())
        matrix = cmgeom.SquaredDistanceMatrix(rows)
        cfg = {"matrix": args.matrix, "points": matrix.n}
    det = cmgeom.cayley_menger_det(matrix)
    result = {
        "exact": matrix.exact,
        "determinant": frac_str(det) if matrix.exact else det,
    }
    try:
        result["volume"] = cmgeom._volume_from_det(matrix, det)
    except ValueError as exc:
        result["volume"] = None
        result["volume_error"] = str(exc)
    summary = [f"cm: determinant {result['determinant']}, volume {result['volume']}"]
    _emit(args, "cm", cfg, result, summary)
    return EXIT_OK


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplexdist",
        description="Regular-simplex distance geometry: exact identities, vanishing-"
        "polynomial discovery, point reconstruction, and tangent circles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the quartic distance relation on exact samples")
    _add_common(p, count=100)
    p.add_argument("--box", type=_fraction_arg, default=Fraction(3), help="weight box bound (default 3)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("discover", help="find vanishing polynomials of the distance map")
    _add_common(p, degree=4)
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("independence", help="hunt for relations among a subset of the distances")
    _add_common(p, degree=6)
    p.add_argument(
        "--subset",
        type=_int_list_arg,
        required=True,
        metavar="J1,J2,...",
        help="vertex labels (1-based), at most d of them",
    )
    p.set_defaults(func=cmd_independence)

    p = sub.add_parser("sphere", help="discovery restricted to the circumsphere")
    _add_common(p, degree=2)
    p.set_defaults(func=cmd_sphere)

    p = sub.add_parser("reduce", help="divide a polynomial file by the quartic relation")
    _add_common(p)
    p.add_argument("--poly", type=str, required=True, metavar="FILE", help="polynomial JSON file")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("reconstruct", help="recover a point from its vertex distances")
    _add_common(p)
    p.add_argument(
        "--t", type=_float_list_arg, required=True, metavar="T1,T2,...", help="distances to the vertices"
    )
    p.add_argument("--tol", type=float, default=None, help="feasibility tolerance (default 1e-9 * a^2)")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("probe63", help="probe realizability of relation-satisfying tuples")
    _add_common(p, count=100)
    p.set_defaults(func=cmd_probe63)

    p = sub.add_parser("soddy", help="Descartes curvature roots and tangent-circle construction")
    p.add_argument("--radii", type=_float_list_arg, required=True, metavar="R1,R2,...")
    p.add_argument("--d", type=int, default=2, help="ambient dimension (default %(default)s)")
    p.add_argument("--k4", type=float, default=None, help="curvature to construct (default: both roots)")
    p.add_argument("--out", type=str, default=None, metavar="FILE")
    p.set_defaults(func=cmd_soddy)

    p = sub.add_parser("cm", help="Cayley-Menger determinant and simplex volume")
    p.add_argument("--edges-equilateral", type=int, default=None, metavar="N",
                   help="N points with all pairwise distances equal")
    p.add_argument("--a", type=_fraction_arg, default=Fraction(1), help="common edge length (rational)")
    p.add_argument("--matrix", type=str, default=None, metavar="FILE",
                   help="JSON file with squared-distance rows")
    p.add_argument("--out", type=str, default=None, metavar="FILE")
    p.set_defaults(func=cmd_cm)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
