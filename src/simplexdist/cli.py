"""Reproducible, JSON-emitting command line interface.

Every subcommand echoes its full effective configuration into the output
document, so a report is rerunnable from its own header.  A report is one
line of compact JSON with sorted keys; ``python -m json.tool FILE``
pretty-prints it.  With ``--out`` the JSON goes to the file and a short
human summary to stdout; without it the JSON document itself is printed.
Exit codes: 0 success, 1 a ``verify``, ``discover`` or ``sphere`` run that
completed but failed its own check (a ``verify`` run with a nonzero
residual, or a ``discover`` or ``sphere`` run that is not ``complete``),
2 bad configuration.  A reader that closes stdout early does
not change the code.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import cmgeom, discover, geom, poly, soddy
from .rationals import as_fraction, frac_str

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2


# argparse names a type function that raises ValueError in its message, so
# each of these raises ArgumentTypeError with a message of its own


def _fraction_arg(text: str) -> Fraction:
    try:
        return as_fraction(text)
    except ZeroDivisionError as exc:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from exc
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a rational number (write it as p/q, an integer or a decimal)"
        ) from exc


def _list_arg(text: str, kind, name: str) -> list:
    try:
        return [kind(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated list of {name}") from exc


def _float_list_arg(text: str) -> list[float]:
    return _list_arg(text, float, "numbers")


def _int_list_arg(text: str) -> list[int]:
    return _list_arg(text, int, "integers")


def _read_json(path: str):
    """The JSON document in the file at ``path``; a file that cannot be read
    or parsed is bad configuration."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def _emit(args, command: str, config: dict, result: dict, summary: list[str]) -> None:
    doc = {
        "tool": "simplexdist",
        "command": command,
        "config": config,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "result": result,
    }
    # no indent and no json.dump: either one leaves CPython's C encoder.
    # Every report is a tree that its command builds, never a cycle, so the
    # encoder need not track the containers it is inside
    text = json.dumps(doc, sort_keys=True, check_circular=False)
    if args.out:
        # a path that cannot be written is bad configuration, as in _read_json
        try:
            Path(args.out).write_text(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc}") from exc
        lines = [*summary, f"report written to {args.out}"]
    else:
        lines = [text]
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: point stdout at the null device, so that the
        # flush at exit does not raise again, and let the command return
        # its own code
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _add_common(parser, *, count=None, degree=None):
    parser.add_argument("--d", type=int, default=2, help="simplex dimension (default %(default)s)")
    parser.add_argument(
        "--edge-sq",
        type=_fraction_arg,
        default=Fraction(1),
        metavar="P/Q",
        help="squared edge length as a rational (default 1)",
    )
    if count is not None or degree is not None:
        # only the commands that draw samples take a seed
        parser.add_argument("--seed", type=int, default=0, help="random seed (default %(default)s)")
    if count is not None:
        parser.add_argument(
            "--count", type=int, default=count, help="number of samples/trials (default %(default)s)"
        )
    if degree is not None:
        parser.add_argument(
            "--max-degree", type=int, default=degree, help="monomial degree bound (default %(default)s)"
        )
    parser.add_argument("--out", type=str, default=None, metavar="FILE", help="write the JSON report here")


# -- subcommands ---------------------------------------------------------------


def _relation_residuals(nums: np.ndarray, dens: np.ndarray) -> np.ndarray:
    """The integer residual of the quartic relation at every row of a block
    of draws (weights ``nums / dens``): ``poly._relation_numerator`` at
    ``A = 2T^2`` and the distance numerators N.

    It is exact.  A and N are nonnegative; with M the largest of them over
    the block, every intermediate is below ``n(n+1)*M^2`` except the square
    of ``A + sum(N)``, which is below ``(n+1)^2*M^2 <= 2n(n+1)*M^2``.  So
    the block is computed in int64 when ``n(n+1)*M^2 < 2^62``, and in
    Python ints otherwise.  The draws keep N and A themselves within int64.
    """
    n = nums.shape[1]
    columns = geom._distance_numerators(nums.T, dens)
    edge = 2 * dens * dens
    top = max(int(edge.max()), *(int(c.max()) for c in columns))
    if n * (n + 1) * top * top >= geom._INT64_SAFE:
        edge, columns = edge.astype(object), [c.astype(object) for c in columns]
    return poly._relation_numerator(edge, columns)


def cmd_verify(args) -> int:
    simplex = geom.EmbeddedSimplex(args.d, args.edge_sq)
    config = geom.SampleConfig(seed=args.seed, count=args.count, box=args.box)
    # With a^2 = p/q and weights r_i/T every squared distance is
    # (p/(2qT^2)) * N_j for an integer N_j, and a^2 is (p/(2qT^2)) * 2T^2, so
    # the relation is (p/(2qT^2))^2 times an integer residual.
    p, q = simplex.edge_sq.numerator, simplex.edge_sq.denominator
    violations = []
    start = 0
    for nums, dens in geom._weight_draws(args.d + 1, config):
        residuals = _relation_residuals(nums, dens)
        for i in np.flatnonzero(residuals).tolist():
            den = int(dens[i])
            point = geom.BarycentricPoint(tuple(Fraction(r, den) for r in nums[i].tolist()))
            scaled = Fraction(p * p * int(residuals[i]), (2 * q * den * den) ** 2)
            violations.append(
                {"sample": start + i, "weights": point.to_json(), "residual": frac_str(scaled)}
            )
        start += len(dens)
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


def cmd_discover(args) -> int:
    report = discover.discover_vanishing(args.d, args.edge_sq, args.max_degree, args.seed)
    doc = report.to_json()
    summary = []
    if args.out:  # only a report written to a file prints the summary
        ns = report.nullspace
        verdict = f"{'complete' if ns.complete else 'incomplete'} after {len(ns.primes)} prime(s)"
        summary = [
            f"discover: null dimension {ns.null_dim} at degree {args.max_degree}, {verdict}",
        ] + [f"  candidate ({c.certificate}): {c.poly}" for c in report.candidates]
    _emit(args, "discover", doc["config"], doc, summary)
    return EXIT_OK if report.nullspace.complete else EXIT_FAIL


def cmd_independence(args) -> int:
    report = discover.independence_test(args.d, args.edge_sq, args.subset)
    doc = report.to_json()
    summary = [
        f"independence: subset {args.subset}: {report.verdict} "
        f"({report.certificate}, Gram determinant {doc['gram_det']})"
    ]
    _emit(args, "independence", doc["config"], doc, summary)
    return EXIT_OK  # the proof holds for every proper subset


def cmd_sphere(args) -> int:
    report = discover.discover_on_sphere(args.d, args.edge_sq, args.max_degree, args.seed)
    doc = report.to_json()
    summary = [
        f"sphere: null dimensions by degree {report.null_dim_by_degree}, "
        f"{len(report.certified)} certified, {len(report.extras)} extras",
    ]
    _emit(args, "sphere", doc["config"], doc, summary)
    return EXIT_OK if report.nullspace.complete else EXIT_FAIL


def cmd_reduce(args) -> int:
    candidate = poly.poly_from_dict(_read_json(args.poly))
    division = poly.reduce_by_relation(candidate, args.d, args.edge_sq)
    member = division.remainder.is_zero
    result = {
        "member": member,
        "quotient": poly.poly_to_dict(division.quotient),
        "remainder": poly.poly_to_dict(division.remainder),
    }
    cfg = {"d": args.d, "edge_sq": frac_str(args.edge_sq), "poly": args.poly}
    _emit(args, "reduce", cfg, result, [
        f"reduce: member-of-relation-ideal = {member}",
        f"  remainder: {division.remainder}",
    ])
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    simplex = geom.EmbeddedSimplex(args.d, args.edge_sq)
    result = cmgeom.reconstruct_point(geom.CartesianSimplex.build(args.d, simplex.edge), args.t)
    cfg = {"d": args.d, "edge_sq": frac_str(simplex.edge_sq), "t": args.t, "tol": result.tol}
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


def _fourth_circle(config, k4: float) -> dict:
    sphere, residual = soddy.build_soddy_circle_2d(config, k4)
    return {"curvature": k4, "sphere": sphere.to_json(), "third_tangency_residual": residual}


def cmd_soddy(args) -> int:
    if len(args.radii) != args.d + 1:
        raise ValueError(f"need {args.d + 1} radii for dimension {args.d}, got {len(args.radii)}")
    if not all(math.isfinite(r) and r > 0 for r in args.radii):
        raise ValueError("radii must be finite and positive")
    curvatures = [1.0 / r for r in args.radii]
    # the Descartes relation squares the curvatures
    for r, k in zip(args.radii, curvatures):
        if math.isinf(k * k):
            raise ValueError(
                f"radius {r!r} is too small: the square of its curvature 1/r overflows a float"
            )
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
        try:
            config = soddy.build_tangent_circles_2d(*args.radii)
            # every nonzero root places; a root of 0 is a line, not a circle
            built = [_fourth_circle(config, k4) for k4 in roots or [] if k4] if args.k4 is None else None
        except ValueError as exc:
            # radii too far apart for a float placement: the roots still stand
            result["circles"] = None
            result["circles_error"] = str(exc)
        else:
            result["circles"] = config.to_json()
            # a --k4 of 0, or one whose radius 1/|k4| overflows, is bad configuration
            result["constructed"] = built if built is not None else [_fourth_circle(config, args.k4)]
            summary += [
                f"  k={b['curvature']:.6f}: third-tangency residual {b['third_tangency_residual']:.3e}"
                for b in result["constructed"]
            ]
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
        matrix = cmgeom.SquaredDistanceMatrix(_read_json(args.matrix))
        cfg = {"matrix": args.matrix, "points": matrix.n}
    det = cmgeom.cayley_menger_det(matrix)
    result = {"exact": matrix.exact}
    try:
        result["determinant"] = frac_str(det) if matrix.exact else cmgeom._float_of(det, "determinant")
    except ValueError as exc:  # a float determinant outside the float range
        result["determinant"] = None
        result["determinant_error"] = str(exc)
    try:
        result["volume"] = cmgeom._exact_volume(matrix, det)
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

    p = sub.add_parser("independence", help="prove that a subset of the distances has no relation")
    _add_common(p)
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


# built on first use and kept: parsing does not change the parser, and its
# nine subparsers take longer to build than some whole commands take to run
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
