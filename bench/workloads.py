"""The benchmark's workloads: the CLI calls of one batch, and the checks
that every call's report must pass.

A batch is a fixed list of calls whose ``--seed`` values are drawn from the
benchmark seed, the workload name and the batch number, so a batch is the
same wherever and whenever it runs.  Why each workload exists, and which
layers it bypasses, is written up in README.md next to this file.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

VERIFY_COUNT = 2000
PROBE_COUNT = 2000
CM_POINTS = 25


@dataclass(frozen=True)
class Call:
    """One CLI call: ``kind`` is the argv shape without its seed, so calls
    of one kind do the same amount of work; ``samples`` is the number of
    distance tuples the call samples and processes."""

    kind: str
    argv: tuple[str, ...]
    samples: int


@dataclass(frozen=True)
class Outcome:
    """A checked call.  ``certified`` of ``claimed`` outputs were certified
    exactly: zero-residual samples, certified candidates of the numeric
    null dimension, or realizable roots."""

    ok: bool
    reason: str
    report_bytes: int = 0
    certified: int = 0
    claimed: int = 0
    candidates: int = 0


def _discovery_samples(d: int, degree: int) -> int:
    # the CLI default: three samples per monomial of degree <= max_degree
    return 3 * math.comb(degree + d + 1, d + 1)


def _seeded(kind: str, argv: list[str], samples: int, rng: random.Random) -> Call:
    return Call(kind, tuple(argv + ["--seed", str(rng.randrange(10**6))]), samples)


def _exact_verify(rng):
    return [
        _seeded(f"verify d={d}", ["verify", "--d", str(d), "--count", str(VERIFY_COUNT)], VERIFY_COUNT, rng)
        for d in (2, 5, 8)
    ]


def _discovery(command, shapes):
    def batch(rng):
        return [
            _seeded(
                f"{command} d={d} deg={degree}",
                [command, "--d", str(d), "--max-degree", str(degree)],
                _discovery_samples(d, degree),
                rng,
            )
            for d, degree in shapes
        ]

    return batch


def _realize_probe(rng):
    calls = [
        _seeded(f"probe63 d={d}", ["probe63", "--d", str(d), "--count", str(PROBE_COUNT)], PROBE_COUNT, rng)
        for d in (2, 3)
    ]
    edge = f"{rng.randint(1, 9)}/{rng.randint(2, 9)}"
    argv = ("cm", "--edges-equilateral", str(CM_POINTS), "--a", edge)
    return calls + [Call(f"cm N={CM_POINTS}", argv, 0)]


WORKLOADS = {
    "exact-verify": _exact_verify,
    "discover-full": _discovery("discover", ((5, 6), (3, 8))),
    "sphere-sweep": _discovery("sphere", ((3, 6), (2, 8))),
    "realize-probe": _realize_probe,
}


def make_batch(workload: str, seed: int, batch: int) -> list[Call]:
    return WORKLOADS[workload](random.Random(f"{seed}|{workload}|{batch}"))


class Broken(Exception):
    """A report that breaks one of its call's invariants."""


def _option(argv, name):
    return argv[argv.index(name) + 1]


def _check_verify(argv, rc, result):
    count = int(_option(argv, "--count"))
    if rc != 0 or result["checked"] != count or result["violations"]:
        raise Broken(f"exit {rc}, checked {result['checked']} of {count}, {len(result['violations'])} violations")
    return count, count, 0


def _check_discover(argv, rc, result):
    from simplexdist import poly

    d, degree = int(_option(argv, "--d")), int(_option(argv, "--max-degree"))
    null_dim = result["nullspace"]["null_dim"]
    # the quartic generates the whole ideal for d >= 2, so the degree-D
    # part of the ideal has dimension C(D - 4 + n, n) with n = d + 1
    expected = math.comb(degree - 4 + d + 1, d + 1)
    if rc not in (0, 1) or null_dim != expected:
        raise Broken(f"exit {rc}, null dimension {null_dim}, expected {expected}")
    edge_sq = Fraction(result["config"]["edge_sq"])
    certified = 0
    for candidate in result["candidates"]:
        if candidate["certificate"] == "uncertified":
            continue
        certified += 1
        if candidate["certificate"] == "divisible-by-relation":
            p = poly.poly_from_dict(candidate["poly"])
            if not poly.reduce_by_relation(p, d, edge_sq).remainder.is_zero:
                raise Broken("a divisible-by-relation candidate leaves a remainder")
    return certified, null_dim, len(result["candidates"])


def _check_sphere(argv, rc, result):
    null_dim = result["nullspace"]["null_dim"]
    certified, extras = len(result["certified"]), len(result["extras"])
    if rc not in (0, 1) or certified + extras != null_dim:
        raise Broken(f"exit {rc}, {certified} certified + {extras} extras != null dimension {null_dim}")
    return certified, null_dim, certified + extras


def _check_probe(argv, rc, result):
    count = int(_option(argv, "--count"))
    trials, counts = result["trials"], result["counts"]
    roots = sum(len(t["roots"]) for t in trials)
    consistent = (
        len(trials) == count
        and all(len(t["verdicts"]) == len(t["roots"]) for t in trials)
        and counts["feasible"] + counts["infeasible"] == roots
        and counts["no_real_root"] == sum(1 for t in trials if not t["roots"])
    )
    if rc != 0 or counts["infeasible"] or not consistent:
        raise Broken(f"exit {rc}, counts {counts} over {len(trials)} trials and {roots} roots")
    return counts["feasible"], roots, 0


def _check_cm(argv, rc, result):
    n = int(_option(argv, "--edges-equilateral"))
    a = Fraction(_option(argv, "--a"))
    # n points at common squared distance s: det = (-1)^n * n * s^(n-1)
    expected = (-1) ** n * n * a ** (2 * (n - 1))
    if rc != 0 or not result["exact"] or Fraction(result["determinant"]) != expected:
        raise Broken(f"exit {rc}, determinant {result['determinant']}, expected {expected}")
    return 0, 0, 0


_CHECKS = {
    "verify": _check_verify,
    "discover": _check_discover,
    "sphere": _check_sphere,
    "probe63": _check_probe,
    "cm": _check_cm,
}


def check(call: Call, rc, stdout: str) -> Outcome:
    """Check one call's exit code and report against its invariants.

    Exit 1 from ``discover`` or ``sphere`` is the tool's own verdict on an
    uncertified or inconclusive run, not a failure; ``certified_share``
    carries it.
    """
    if rc is None or rc == 2:
        return Outcome(False, f"exit {rc}")
    try:
        doc = json.loads(stdout)
        certified, claimed, candidates = _CHECKS[call.argv[0]](list(call.argv), rc, doc["result"])
    except Broken as exc:
        return Outcome(False, str(exc))
    except (ValueError, KeyError, TypeError) as exc:
        return Outcome(False, f"unreadable report: {exc!r}")
    # the timestamp is left out so that equal runs give equal byte counts
    size = len(stdout.encode()) - len(doc["generated_at"])
    return Outcome(True, "", size, certified, claimed, candidates)
