"""Subcommand exit codes, JSON reports, and reproducibility."""

import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from simplexdist import cli
from simplexdist.cli import main
from simplexdist.cmgeom import SquaredDistanceMatrix, _bareiss_det, cayley_menger_det, simplex_volume
from simplexdist.discover import discover_on_sphere
from simplexdist.geom import EmbeddedSimplex, SampleConfig, sample_circumsphere
from simplexdist.poly import circumsphere_quadratic, circumsphere_quartic, verify_circumsphere_identity
from simplexdist.poly import distance_relation, divide_last_variable, poly_from_dict, poly_to_dict
from simplexdist.poly import MultiPoly
from simplexdist.rationals import frac_str

SRC = Path(__file__).resolve().parent.parent / "src"


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main([*argv, "--out", str(out)])
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc


# -- verify ---------------------------------------------------------------------


def test_verify_exits_zero(tmp_path):
    code, doc = run(tmp_path, "verify", "--d", "2", "--count", "200", "--seed", "1")
    assert code == 0
    assert doc["result"]["all_exactly_zero"] is True
    assert doc["result"]["checked"] == 200
    assert doc["config"]["edge_sq"] == "1"


def test_verify_d1_holds(tmp_path):
    code, doc = run(tmp_path, "verify", "--d", "1", "--count", "100")
    assert code == 0 and doc["result"]["violations"] == []


def test_verify_rational_edge(tmp_path):
    code, doc = run(tmp_path, "verify", "--d", "3", "--edge-sq", "4/9", "--count", "50")
    assert code == 0 and doc["config"]["edge_sq"] == "4/9"


@pytest.mark.parametrize("d, box", [("2", "1/100"), ("31", "1/64"), ("40", "1/64"), ("99", "1/100")])
def test_verify_rejects_a_box_no_draw_can_pass(d, box):
    # a box that no draw can pass would redraw forever, so the run is a
    # subprocess with a timeout: a regression fails here instead of hanging.
    # At d = 99 and box 1/100 every raw weight is 0 (int(64*box) = 0); in
    # the others (d + 1)*box < 1, so the largest weight leaves the box.
    argv = ["verify", "--d", d, "--count", "3", "--box", box]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-m", "simplexdist.cli", *argv]
    done = subprocess.run(command, capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith(f"error: box {box} is too small for d = {d}:")


@pytest.mark.parametrize("d, box", [("31", "1/32"), ("63", "1/64")])
def test_verify_gives_up_on_a_box_almost_no_draw_passes(d, box):
    # at (d + 1)*box = 1 only d + 1 equal raw weights pass, about one draw
    # in 129^(d + 1): each sample stops after a bounded number of attempts
    argv = ["verify", "--d", d, "--count", "2", "--box", box]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-m", "simplexdist.cli", *argv]
    done = subprocess.run(command, capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == (
        f"error: box {box} is too small for d = {d}: sample 0 found no passing draw in 65536 attempts\n"
    )


def test_a_closed_stdout_keeps_the_exit_code():
    # the reader is gone before the report is written: the write fails with
    # EPIPE, and the command still exits with its own code, quietly
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-m", "simplexdist.cli", "verify", "--count", "20"]
    try:
        done = subprocess.run(command, stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    finally:
        os.close(write)
    assert done.returncode == 0
    assert "Traceback" not in done.stderr and "BrokenPipeError" not in done.stderr


def test_import_loads_no_dataclasses():
    # every call is a fresh process, and creating a dataclass costs about a
    # millisecond at import: the package's records are plain classes.  The
    # import runs in a fresh interpreter, since pytest loads dataclasses
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = "import sys, simplexdist, simplexdist.cli; print('dataclasses' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
    assert [path.name for path in (SRC / "simplexdist").glob("*.py") if "@dataclass" in path.read_text()] == []


# -- discover family --------------------------------------------------------------


def test_discover_exits_zero_and_reports_candidate(tmp_path):
    code, doc = run(tmp_path, "discover", "--d", "2", "--max-degree", "4", "--seed", "1")
    assert code == 0
    assert doc["result"]["nullspace"]["null_dim"] == 1
    (candidate,) = doc["result"]["candidates"]
    assert candidate["certificate"] == "divisible-by-relation"


_SUMMARIES = [  # argv, sha256 of the summary lines before "report written to"
    (("--d", "1", "--max-degree", "6", "--edge-sq", "9/4"), "1ab98d2d39b7f5252669c9ec58790b2de1fd2196fdfffbfc35616fd3c7bfca1d"),
    (("--d", "2", "--max-degree", "5", "--edge-sq", "3/7"), "da10b91d653956abfc36ebdcdcb766ff2ebb96bb0a5649ce1e3d9e7c2b330a0b"),
    (("--d", "3", "--max-degree", "6", "--edge-sq", "12345/677"), "efa2240785909b13bab35d50c055a0c260f2158ded25cb33d58ce6ae1edd78bf"),
    (("--d", "5", "--max-degree", "6", "--seed", "1"), "ed281ee79f5b89fc7cc8a0c7a98dbedf703e9acd1089acbdde481f94a94a42ea"),
]


@pytest.mark.parametrize("argv, expected", _SUMMARIES, ids=[" ".join(argv) for argv, _ in _SUMMARIES])
def test_discover_out_prints_each_candidate_polynomial(tmp_path, capsys, argv, expected):
    # the summary of a report written to a file is the only output that
    # prints a candidate's polynomial, built on first read; recorded when
    # every candidate was built as a polynomial
    out = tmp_path / "report.json"
    assert main(["discover", *argv, "--out", str(out)]) == 0
    *summary, last = capsys.readouterr().out.splitlines()
    assert last == f"report written to {out}"
    doc = json.loads(out.read_text())
    assert len(summary) == 1 + len(doc["result"]["candidates"])
    assert hashlib.sha256("\n".join(summary).encode()).hexdigest() == expected


def test_discover_empty_at_cubic_degree(tmp_path):
    code, doc = run(tmp_path, "discover", "--d", "2", "--max-degree", "3")
    assert code == 0
    assert doc["result"]["candidates"] == []


@pytest.mark.parametrize("d, degree", [("40", "1"), ("30", "2")])
def test_discover_enumerates_only_the_parity_classes_the_degree_allows(d, degree):
    # degree D allows the classes with at most D odd exponents, not all
    # 2^(d+1) of them; a run that enumerates them all never ends here, so it
    # is a subprocess with a timeout
    argv = ["discover", "--d", d, "--max-degree", degree]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-m", "simplexdist.cli", *argv]
    done = subprocess.run(command, capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)["result"]
    assert result["nullspace"]["null_dim"] == 0 and result["candidates"] == []
    assert result["basis_size"] == math.comb(int(degree) + int(d) + 1, int(degree))


def test_independence_subcommand(tmp_path):
    code, doc = run(tmp_path, "independence", "--d", "3", "--subset", "1,2,3")
    assert code == 0
    assert doc["result"]["verdict"] == "no-relation-found"
    assert doc["result"]["certificate"] == "jacobian-rank"
    assert doc["result"]["gram_det"] == "1/4"
    assert doc["config"] == {"d": 3, "edge_sq": "1", "operation": "independence", "subset": [1, 2, 3]}


@pytest.mark.parametrize("d", range(1, 9))
def test_independence_proves_every_proper_subset(tmp_path, d):
    for k in range(1, d + 1):
        for subset in itertools.combinations(range(1, d + 2), k):
            code, doc = run(tmp_path, "independence", "--d", str(d), "--subset", ",".join(map(str, subset)))
            assert code == 0
            assert doc["result"]["gram_det"] == frac_str(Fraction(d + 1 - k, d + 1))


@pytest.mark.parametrize("argv", [
    ["--d", "40", "--subset", "1,2,3"],
    ["--d", "2", "--subset", "1,2", "--edge-sq", "1e-400"],
])
def test_independence_needs_no_samples(tmp_path, argv):
    # the proof draws nothing, so neither a large d nor an edge below the
    # floats matters
    code, doc = run(tmp_path, "independence", *argv)
    assert code == 0 and doc["result"]["certificate"] == "jacobian-rank"


def test_independence_rejects_oversize_subset(capsys):
    assert main(["independence", "--d", "2", "--subset", "1,2,3"]) == 2


@pytest.mark.parametrize("command", [
    ["discover", "--d", "2"],
    ["discover", "--d", "3"],
    ["sphere", "--d", "2"],
])
def test_discovery_commands_reject_degree_zero(tmp_path, capsys, command):
    out = tmp_path / "report.json"
    assert main([*command, "--max-degree", "0", "--out", str(out)]) == 2
    assert "max_degree must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("edge_sq", ["-4", "0"])
@pytest.mark.parametrize("command", [
    ["discover", "--d", "1"],
    ["discover", "--d", "2"],
    ["sphere", "--d", "2"],
    ["sphere", "--d", "3"],
], ids=["discover-d1", "discover-d2", "sphere-d2", "sphere-d3"])
def test_discovery_commands_reject_non_positive_edge(tmp_path, capsys, command, edge_sq):
    # every run kind checks the edge as reconstruct does, with one message
    out = tmp_path / "report.json"
    assert main([*command, "--max-degree", "4", "--edge-sq", edge_sq, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: squared edge length must be positive, got {edge_sq}\n"
    assert not out.exists()


_SIMPLEX_COMMANDS = ["verify", "discover", "independence", "probe63", "reconstruct", "reduce"]


@pytest.mark.parametrize(
    "command, option",
    [(c, ["--d", "0"]) for c in _SIMPLEX_COMMANDS]
    + [(c, ["--edge-sq", "0"]) for c in [*_SIMPLEX_COMMANDS, "sphere"]]
    + [("reconstruct", ["--edge-sq=-1"]), ("reconstruct", ["--edge-sq=0"])],
    ids=[f"{c}-d0" for c in _SIMPLEX_COMMANDS]
    + [f"{c}-edge0" for c in [*_SIMPLEX_COMMANDS, "sphere"]]
    + ["reconstruct-edge=-1", "reconstruct-edge=0"],
)
def test_every_command_checks_the_simplex_with_one_message(tmp_path, capsys, command, option):
    # geom.EmbeddedSimplex checks d and a^2 for every command; sphere needs
    # d >= 2 and says so before it reads the edge
    relation = tmp_path / "relation.json"
    relation.write_text(json.dumps(poly_to_dict(distance_relation(2, 1))))
    needs = {"independence": ["--subset", "1"], "reconstruct": ["--t", "1,1,1"], "reduce": ["--poly", str(relation)]}
    out = tmp_path / "report.json"
    assert main([command, *option, *needs.get(command, []), "--out", str(out)]) == 2
    flag, value = "=".join(option).split("=")
    rule = "dimension must be a positive integer" if flag == "--d" else "squared edge length must be positive"
    assert capsys.readouterr() == ("", f"error: {rule}, got {value}\n")
    assert not out.exists()


def test_the_circumsphere_needs_d2_with_one_message(tmp_path, capsys):
    # geom.circumsphere_dim is the one check, for the sampler, both
    # polynomials, the identity, the discovery run and the sphere command
    line = "circumsphere needs dimension >= 2, got 1"
    calls = [
        lambda: discover_on_sphere(1, 1, 2),
        lambda: sample_circumsphere(EmbeddedSimplex(1, 1), SampleConfig(seed=0, count=1)),
        lambda: circumsphere_quadratic(1, 1),
        lambda: circumsphere_quartic(1, 1),
        lambda: verify_circumsphere_identity(1, 1),
    ]
    for call in calls:
        with pytest.raises(ValueError) as caught:
            call()
        assert str(caught.value) == line
    out = tmp_path / "report.json"
    assert main(["sphere", "--d", "1", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {line}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["discover", "sphere"])
def test_negative_degree_gives_the_line_of_degree_zero(capsys, command):
    # the degree is checked before any work, so -1 fails as 0 does
    lines = []
    for degree in ("0", "-1"):
        assert main([command, "--d", "3", "--max-degree", degree]) == 2
        lines.append(capsys.readouterr().err)
    assert lines[0] == lines[1] == "error: max_degree must be a positive integer\n"


@pytest.mark.parametrize("argv", [
    # every float of these runs would be out of range, and the exact runs
    # form none: first the edges whose float distances underflow to 0, then
    # those that the float back-transform to monomials could not carry, then
    # those whose float overflows
    ["sphere", "--d", "4", "--max-degree", "2", "--edge-sq", "1e-400"],
    ["sphere", "--d", "3", "--max-degree", "2", "--edge-sq", "1e-400"],
    ["sphere", "--d", "2", "--max-degree", "4", "--edge-sq", "1e-400"],
    ["sphere", "--d", "3", "--max-degree", "4", "--edge-sq", "1e200"],
    ["sphere", "--d", "2", "--max-degree", "4", "--edge-sq", "1e200"],
    ["sphere", "--d", "2", "--max-degree", "4", "--edge-sq", "1e-300"],
    ["sphere", "--d", "3", "--max-degree", "3", "--edge-sq", "1e400"],
    ["sphere", "--d", "2", "--edge-sq", "1e400"],
    ["sphere", "--d", "2", "--max-degree", "3", "--edge-sq", "1e310"],
    ["sphere", "--d", "4", "--edge-sq", "1e309"],
    ["sphere", "--d", "3", "--edge-sq", "1e309"],
])
def test_sphere_takes_edges_beyond_the_float_range(tmp_path, argv):
    code, doc = run(tmp_path, *argv)
    d, degree = int(argv[2]), int(doc["config"]["max_degree"])
    label = "in-circumcircle-ideal" if d == 2 else "in-circumsphere-ideal"
    nullspace = doc["result"]["nullspace"]
    assert code == 0 and nullspace["complete"] is True and doc["result"]["extras"] == []
    assert len(doc["result"]["certified"]) == nullspace["null_dim"] == doc["result"]["null_dim_by_degree"][str(degree)]
    assert all(c["certificate"] == label for c in doc["result"]["certified"])


@pytest.mark.parametrize("argv", [
    # moved from the float-range tests: every float of these runs would be
    # out of range, and the exact discover runs form none
    ["discover", "--d", "2", "--max-degree", "4", "--edge-sq", "1e-400"],
    ["discover", "--d", "3", "--max-degree", "2", "--edge-sq", "1e-400"],
    ["discover", "--d", "2", "--max-degree", "4", "--edge-sq", "1e200"],
    ["discover", "--d", "2", "--max-degree", "4", "--edge-sq", "1e-300"],
    ["discover", "--d", "2", "--edge-sq", "1e400"],
    ["discover", "--d", "2", "--edge-sq", "1e308"],
    ["discover", "--d", "3", "--max-degree", "6", "--edge-sq", "1e400"],
    ["discover", "--d", "1", "--max-degree", "4", "--edge-sq", "1e-400"],
    ["discover", "--d", "1", "--max-degree", "4", "--edge-sq", "1e200"],
    ["discover", "--d", "1", "--max-degree", "4", "--edge-sq", "1e-300"],
    ["discover", "--d", "1", "--max-degree", "3", "--edge-sq", "1e400"],
    ["discover", "--d", "1", "--max-degree", "3", "--edge-sq", "1e308"],
    ["discover", "--d", "1", "--max-degree", "3", "--edge-sq", "1e310"],
])
def test_exact_discovery_takes_edges_beyond_the_float_range(tmp_path, argv):
    code, doc = run(tmp_path, *argv)
    d, degree = int(argv[2]), int(doc["config"]["max_degree"])
    # at d = 1 the vanishing space is the multiples of the segment cubic
    null_dim = math.comb(degree - 1, 2) if d == 1 else math.comb(degree - 4 + d + 1, d + 1)
    assert code == 0 and doc["result"]["nullspace"]["complete"] is True
    assert doc["result"]["nullspace"]["null_dim"] == null_dim
    assert all(c["certificate"] == "divisible-by-relation" for c in doc["result"]["candidates"])


@pytest.mark.parametrize("d, degree, edge_sq", [(2, 4, "12345/677"), (3, 8, "12345/677"), (2, 10, "997/1009")])
def test_discovery_certifies_edges_of_large_height(tmp_path, d, degree, edge_sq):
    # the float pipeline certified 0 of 1, 0 of 70 and 40 of 84 candidates here
    argv = ["discover", "--d", str(d), "--max-degree", str(degree), "--edge-sq", edge_sq]
    code, doc = run(tmp_path, *argv)
    nullspace, candidates = doc["result"]["nullspace"], doc["result"]["candidates"]
    assert code == 0 and nullspace["complete"] is True and not nullspace["inconclusive"]
    assert len(candidates) == nullspace["null_dim"] == math.comb(degree - 4 + d + 1, d + 1)
    assert all(c["certificate"] == "divisible-by-relation" for c in candidates)
    for k, corank in nullspace["corank"].items():
        assert corank == nullspace["ideal_dim"][k] == math.comb(int(k) - 2 + d + 1, d + 1)
    edge = Fraction(edge_sq)
    relation = distance_relation(d, edge)
    for c in candidates:
        assert divide_last_variable(poly_from_dict(c["poly"]), relation).remainder.is_zero


def test_independence_without_candidates_needs_no_back_transform(tmp_path):
    argv = ["independence", "--d", "2", "--subset", "1,2", "--edge-sq", "1e-300"]
    code, doc = run(tmp_path, *argv)
    assert code == 0 and doc["result"]["verdict"] == "no-relation-found"


def test_sphere_subcommand(tmp_path):
    code, doc = run(tmp_path, "sphere", "--d", "2", "--max-degree", "2")
    assert code == 0
    assert doc["result"]["null_dim_by_degree"] == {"1": 0, "2": 1}
    (candidate,) = doc["result"]["certified"]
    assert candidate["certificate"] == "in-circumcircle-ideal"


def test_sphere_certifies_the_pompeiu_cubic(tmp_path):
    # at degree 3 the circumcircle carries a cubic outside the two-generator
    # ideal; the Ptolemy conics certify it with the quadratic's multiples
    code, doc = run(tmp_path, "sphere", "--d", "2", "--max-degree", "3")
    assert code == 0 and doc["result"]["extras"] == []
    assert doc["result"]["null_dim_by_degree"] == {"1": 0, "2": 1, "3": 5}
    assert {c["certificate"] for c in doc["result"]["certified"]} == {"in-circumcircle-ideal"}


def test_sphere_with_extras_exits_one(tmp_path, monkeypatch):
    # the 16 primes from 11 up that are units for the scales leave a row
    # that reconstructs wrongly and fails the certificate: the run reports
    # it as an extra, is incomplete, and exits 1
    from simplexdist import discover

    primes = [p for p in range(11, 10**4) if all(p % f for f in range(2, math.isqrt(p) + 1))][:16]
    monkeypatch.setattr(discover, "word_primes", lambda: iter(primes))
    code, doc = run(tmp_path, "sphere", "--d", "3", "--max-degree", "8", "--seed", "1")
    assert code == 1
    assert doc["result"]["extras"] and doc["result"]["nullspace"]["complete"] is False


# -- reduce ------------------------------------------------------------------------


def test_reduce_member(tmp_path):
    rel = distance_relation(2, 1)
    q = MultiPoly.variable(0, 3) ** 2 + MultiPoly.constant(3, 3)
    poly_file = tmp_path / "poly.json"
    poly_file.write_text(json.dumps(poly_to_dict(q * rel)))
    code, doc = run(tmp_path, "reduce", "--poly", str(poly_file), "--d", "2")
    assert code == 0
    assert doc["result"]["member"] is True
    assert doc["result"]["remainder"]["terms"] == []


def test_reduce_non_member_reports_remainder(tmp_path):
    rel = distance_relation(2, 1)
    offset = MultiPoly.variable(1, 3)
    poly_file = tmp_path / "poly.json"
    poly_file.write_text(json.dumps(poly_to_dict(rel + offset)))
    code, doc = run(tmp_path, "reduce", "--poly", str(poly_file), "--d", "2")
    assert code == 0
    assert doc["result"]["member"] is False
    assert doc["result"]["remainder"]["terms"] == [{"coeff": "1", "exps": [0, 1, 0]}]


def test_reduce_circumsphere_quadratic_not_member(tmp_path):
    from simplexdist.poly import circumsphere_quadratic

    poly_file = tmp_path / "poly.json"
    poly_file.write_text(json.dumps(poly_to_dict(circumsphere_quadratic(2, 1))))
    code, doc = run(tmp_path, "reduce", "--poly", str(poly_file), "--d", "2")
    assert code == 0 and doc["result"]["member"] is False


def test_reduce_malformed_names_term_index(tmp_path, capsys):
    poly_file = tmp_path / "poly.json"
    poly_file.write_text(
        json.dumps({"vars": ["T1", "T2", "T3"], "terms": [{"coeff": "huh", "exps": [0, 0, 0]}]})
    )
    assert main(["reduce", "--poly", str(poly_file), "--d", "2"]) == 2
    assert "term 0" in capsys.readouterr().err


@pytest.mark.parametrize("term, message", [
    ({"coeff": True, "exps": [1, 0, 0]}, "term 0: bad coefficient True"),
    ({"coeff": 1, "exps": [True, False, False]}, "term 0: 'exps' must be 3 non-negative integers"),
], ids=["coeff", "exps"])
def test_reduce_rejects_json_booleans(tmp_path, capsys, term, message):
    # bool is a subclass of int, but a JSON true is not the number 1
    poly_file = tmp_path / "poly.json"
    poly_file.write_text(json.dumps({"vars": ["T1", "T2", "T3"], "terms": [term]}))
    code, doc = run(tmp_path, "reduce", "--poly", str(poly_file), "--d", "2")
    assert code == 2 and doc is None
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_reduce_missing_file(capsys):
    assert main(["reduce", "--poly", "/nonexistent.json", "--d", "2"]) == 2


@pytest.mark.parametrize(
    "argv", [["verify", "--count", "1"], ["discover", "--d", "2", "--max-degree", "4"]], ids=["verify", "discover"]
)
@pytest.mark.parametrize("where", ["missing", "directory"])
def test_unwritable_out_is_bad_configuration(tmp_path, capsys, argv, where):
    # a missing directory or a directory is reported on one error line, with
    # the code of bad configuration, not as a traceback with the code of a
    # failed run
    out = tmp_path / "missing" / "report.json" if where == "missing" else tmp_path
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: cannot write {out}: ")
    assert len(captured.err.splitlines()) == 1


# -- reconstruct / probe63 ----------------------------------------------------------


def test_reconstruct_vertex(tmp_path):
    code, doc = run(tmp_path, "reconstruct", "--d", "2", "--t", "0,1,1")
    assert code == 0
    assert doc["result"]["status"] == "feasible"
    assert doc["result"]["point"] == pytest.approx([0.0, 0.0], abs=1e-12)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_reconstruct_rejects_non_finite_distance(tmp_path, capsys, bad):
    # a NaN in the report would not be valid JSON
    code, doc = run(tmp_path, "reconstruct", "--d", "2", "--t", f"1,{bad},1")
    assert code == 2 and doc is None
    assert "error: distances must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("t, message", [
    ("1e308,1e308,1e308", "error: distance 1e+308 is too large: its square overflows a float"),
    ("1,1e200,1", "error: distance 1e+200 is too large: its square overflows a float"),
    ("1e150,1,1", "error: distances [1e+150, 1.0, 1.0] are too large: the point they give overflows"),
])
def test_reconstruct_names_a_distance_that_overflows(tmp_path, capsys, t, message):
    # pytest turns warnings into errors, so this also checks that none is raised
    code, doc = run(tmp_path, "reconstruct", "--d", "2", "--t", t)
    assert code == 2 and doc is None
    err = capsys.readouterr().err
    assert message in err and "Warning" not in err


def test_reconstruct_infeasible(tmp_path):
    code, doc = run(tmp_path, "reconstruct", "--d", "2", "--t", "1,1,1")
    assert code == 0
    assert doc["result"]["status"] == "infeasible"
    assert doc["result"]["residual"] == pytest.approx(2 / 3, abs=1e-9)


def test_probe63_completes(tmp_path):
    code, doc = run(tmp_path, "probe63", "--d", "2", "--count", "60", "--seed", "4")
    assert code == 0
    counts = doc["result"]["counts"]
    assert set(counts) == {"no_real_root", "feasible", "infeasible"}
    assert len(doc["result"]["trials"]) == 60
    assert "tol" not in doc["config"]


def test_probe63_counts_do_not_depend_on_the_edge(tmp_path):
    # the relation is homogeneous in (a^2, t^2): no power of a may underflow
    # or overflow into the counts
    counts = []
    for edge_sq in ("1", "1e-200", "1e300"):
        code, doc = run(tmp_path, "probe63", "--d", "2", "--count", "4", "--seed", "3", "--edge-sq", edge_sq)
        assert code == 0
        counts.append(doc["result"]["counts"])
    assert counts == [{"no_real_root": 4, "feasible": 0, "infeasible": 0}] * 3


def test_probe63_rejects_an_edge_below_the_float_range(tmp_path, capsys):
    code, doc = run(tmp_path, "probe63", "--d", "2", "--count", "4", "--edge-sq", "1e-400")
    assert code == 2 and doc is None
    assert "error: edge_sq is below the normal float range" in capsys.readouterr().err


def test_reconstruct_names_an_edge_below_the_float_range(tmp_path, capsys):
    # the exact edge is positive, but its float is 0
    code, doc = run(tmp_path, "reconstruct", "--d", "2", "--t", "1,1,1", "--edge-sq", "1e-400")
    assert code == 2 and doc is None
    assert "error: edge_sq is below the normal float range" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--d", "2", "--t", "1,1,1"],
    ["--d", "1", "--t", "5e-161,5e-161"],
], ids=["d2", "d1"])
def test_reconstruct_rejects_a_subnormal_edge(tmp_path, capsys, argv):
    # the float of 1e-320 is subnormal, and the tolerance 1e-9 * a^2 would
    # underflow to 0; probe63 rejects it with the same line
    line = "error: edge_sq is below the normal float range: its float loses precision\n"
    code, doc = run(tmp_path, "reconstruct", *argv, "--edge-sq", "1e-320")
    assert code == 2 and doc is None and capsys.readouterr().err == line
    assert main(["probe63", "--count", "2", "--edge-sq", "1e-320"]) == 2
    assert capsys.readouterr().err == line


@pytest.mark.parametrize(
    "d, count, expected",
    [
        (9, 200, "df64af8a80e8db09413c8b771b628858bd3dd3812e54002d4f40d9447e448893"),
        (17, 100, "b31b01ea33bd0638cba8dd51dc9c46c4794c1ff311a2191c46c721daf65072c8"),
    ],
)
def test_probe63_draws_past_one_digest(tmp_path, d, count, expected):
    # d > 8 draws take the digests of key|1, key|2, ...; the digests were
    # recorded from the per-key draws
    code, doc = run(tmp_path, "probe63", "--d", str(d), "--count", str(count), "--seed", "5")
    result = doc["result"]
    pinned = {
        "counts": result["counts"],
        "trials": [{"t_first": t["t_first"], "roots": t["roots"]} for t in result["trials"]],
    }
    assert code == 0
    assert hashlib.sha256(json.dumps(pinned, sort_keys=True).encode()).hexdigest() == expected


def test_probe63_roots_do_not_depend_on_the_python_version(tmp_path):
    # a compensated sum (Python 3.12+) moves this trial's roots to
    # ...687 and ...294: the power sums are added left to right on every version
    code, doc = run(tmp_path, "probe63", "--d", "3", "--count", "3000", "--seed", "5")
    trial = doc["result"]["trials"][424]
    assert code == 0
    assert trial["t_first"] == [0.9002316560320776, 1.3493547067147182, 1.1569184366770804]
    assert trial["roots"] == [0.5069663957572673, 1.7481634245760298]


# -- soddy / cm ----------------------------------------------------------------------


def test_soddy_unit_circles(tmp_path):
    code, doc = run(tmp_path, "soddy", "--radii", "1,1,1")
    assert code == 0
    roots = doc["result"]["roots"]
    assert roots[0] == pytest.approx(3 + 2 * math.sqrt(3), abs=1e-9)
    assert roots[1] == pytest.approx(3 - 2 * math.sqrt(3), abs=1e-9)
    built = doc["result"]["constructed"]
    assert len(built) == 2
    assert all(item["third_tangency_residual"] < 1e-9 for item in built)


def test_soddy_explicit_curvature(tmp_path):
    code, doc = run(tmp_path, "soddy", "--radii", "1,2,3", "--k4", "0.5")
    assert code == 0
    (built,) = doc["result"]["constructed"]
    assert built["curvature"] == 0.5


@pytest.mark.parametrize("radius, error", [
    ("1e100", "configuration is not mutually tangent"),
    ("1e200", "radii are too large to place"),
], ids=["1e100", "1e200"])
def test_soddy_huge_radius_keeps_its_small_root(tmp_path, radius, error):
    # the small root of curvatures (1/r, 1, 1) is about -1/r; S1 - root
    # cancels to 0.0 there, which used to sink the whole report
    code, doc = run(tmp_path, "soddy", "--radii", f"{radius},1,1")
    assert code == 0
    result = doc["result"]
    assert result["roots"][0] == 4.0
    assert result["roots"][1] == pytest.approx(-1 / float(radius), rel=1e-12)
    assert result["circles"] is None and result["circles_error"].startswith(error)
    assert "constructed" not in result


def test_soddy_places_circles_around_a_large_radius(tmp_path):
    # the small root of (1e-6, 1, 1) is formed without cancellation, close
    # enough for its fourth circle to touch all three
    code, doc = run(tmp_path, "soddy", "--radii", "1e6,1,1")
    assert code == 0
    with localcontext() as ctx:
        ctx.prec = 80
        ks = [Decimal(1 / 1e6), Decimal(1), Decimal(1)]
        s1, s2 = sum(ks), sum(k * k for k in ks)
        expected = float(s1 - (2 * (s1 * s1 - s2)).sqrt())
    small = doc["result"]["roots"][1]
    assert abs(small - expected) <= 1e-15 * abs(expected)
    assert [c["curvature"] for c in doc["result"]["constructed"]] == doc["result"]["roots"]
    # the large root's circle is placed from exact w and c
    assert doc["result"]["constructed"][0]["third_tangency_residual"] < 1e-10


def test_soddy_places_circles_at_radius_1e10(tmp_path):
    # y3^2 = s13^2 - x3^2, and the w and c that place the fourth circle, are
    # formed exactly, so a radius 1e10 times the others does not cancel;
    # the reported residual is exact, and under one ulp of the radii (the
    # enclosing circle misses by 2.0e-10, where one ulp of 1e10 is 1.9e-6)
    code, doc = run(tmp_path, "soddy", "--radii", "1e10,1,1")
    assert code == 0
    result = doc["result"]
    assert "circles_error" not in result
    assert max(r["residual"] for r in result["circles"]["tangency_residuals"]) < 1e-9
    assert [c["curvature"] for c in result["constructed"]] == result["roots"]
    assert all(c["third_tangency_residual"] < math.ulp(1e10) for c in result["constructed"])


@pytest.mark.parametrize("radius", ["1e8", "1e9"])
def test_soddy_measures_tangency_against_the_size_of_the_circles(tmp_path, radius):
    # the three circles miss exact tangency by 5.1e-9 and 2.0e-9, under one
    # float step of their centres near 1e8 and 1e9, so they are placed, and
    # so is the fourth circle of each root, the enclosing one too
    code, doc = run(tmp_path, "soddy", "--radii", f"{radius},1,1")
    assert code == 0
    result = doc["result"]
    assert "circles_error" not in result
    residuals = [r["residual"] for r in result["circles"]["tangency_residuals"]]
    if radius == "1e8":
        assert 5e-9 < max(residuals) < 6e-9
    else:
        assert residuals == [0.0, 1.999999998e-09, 0.0]
    assert [c["curvature"] for c in result["constructed"]] == result["roots"]


@pytest.mark.parametrize("radius", ["1e7", "1e8", "1e15", "1e20"])
def test_soddy_placement_failure_keeps_the_report(tmp_path, radius):
    # three circles that floats cannot resolve (1e20) give a circles_error,
    # not a failed run (1e8 exited 2); where they place, every root does
    code, doc = run(tmp_path, "soddy", "--radii", f"{radius},1,1")
    assert code == 0
    result = doc["result"]
    assert result["roots"][0] == pytest.approx(4.0)
    if radius == "1e20":
        assert result["circles"] is None
        assert result["circles_error"] and "constructed" not in result
    else:
        assert "circles_error" not in result
        assert [c["curvature"] for c in result["constructed"]] == result["roots"]


def test_soddy_places_a_small_circle_beside_a_large_one(tmp_path):
    # the fourth circles, of radius 1.9e-8 like the third, touch it within
    # one ulp of the largest radius
    code, doc = run(tmp_path, "soddy", "--radii", "1.3,1e7,1.9e-8")
    assert code == 0
    built = doc["result"]["constructed"]
    assert [c["curvature"] for c in built] == doc["result"]["roots"]
    assert all(c["third_tangency_residual"] < math.ulp(1e7) for c in built)


def test_soddy_reports_a_root_of_zero_as_a_line(tmp_path):
    # curvatures 1, 1, 4 have the roots 12 and 0: the circle of curvature 12
    # is constructed, and the root 0, a line, is not
    code, doc = run(tmp_path, "soddy", "--radii", "1,1,0.25")
    assert code == 0
    result = doc["result"]
    assert result["roots"] == [12.0, 0.0] and result["root_residuals"] == [0.0, 0.0]
    (built,) = result["constructed"]
    assert built["curvature"] == 12.0 and built["sphere"]["radius"] == 1 / 12
    assert built["third_tangency_residual"] < 1e-15


def test_soddy_reports_how_far_a_fourth_curvature_that_is_not_a_root_misses(tmp_path):
    # no circle of curvature -0.6 touches three unit circles: it is built,
    # and its miss of the third circle is reported
    code, doc = run(tmp_path, "soddy", "--radii", "1,1,1", "--k4", "-0.6")
    assert code == 0
    (built,) = doc["result"]["constructed"]
    assert built["sphere"]["orientation"] == -1
    assert built["third_tangency_residual"] == pytest.approx(0.2265, abs=1e-4)


@pytest.mark.parametrize("k4", ["1e-320", "0", "inf"])
def test_soddy_rejects_a_fourth_curvature_with_no_circle(tmp_path, capsys, k4):
    # 0 is a line, and 1/1e-320 overflows to an infinite radius
    code, doc = run(tmp_path, "soddy", "--radii", "1,1,1", "--k4", k4)
    assert code == 2 and doc is None
    assert capsys.readouterr().err.startswith("error: ")


def test_soddy_roots_whose_discriminant_overflows_a_float(tmp_path):
    # every square of the curvatures 1, 1e154, 1e154 is finite, but the
    # discriminant 2*(S1^2 - S2), about 4e308, is not: its root is taken
    # from its exact numerator and denominator
    code, doc = run(tmp_path, "soddy", "--radii", "1,1e-154,1e-154")
    assert code == 0
    result = doc["result"]
    assert result["roots"] == [pytest.approx(4e154, rel=1e-15), -1.0]
    assert all(map(math.isfinite, result["root_residuals"]))


def test_soddy_names_the_curvature_of_a_circle_whose_centre_overflows(tmp_path, capsys):
    # the radius 1/k4 = 1e308 is finite, but the centre, near x/k4 for the
    # x of a root's circle, is not
    code, doc = run(tmp_path, "soddy", "--radii", "1,1,1", "--k4", "1e-308")
    assert code == 2 and doc is None
    assert capsys.readouterr().err == "error: the sphere of curvature 1e-308 has a centre that is not finite\n"


def test_soddy_wrong_radii_count(capsys):
    assert main(["soddy", "--radii", "1,1", "--d", "2"]) == 2


@pytest.mark.parametrize("d, radii", [
    ("3", "1,2,3,nan"), ("3", "1,2,3,inf"), ("3", "1,2,3,-4"), ("2", "1,2,0"), ("2", "1,-2,3"),
])
def test_soddy_rejects_non_finite_or_non_positive_radii(tmp_path, capsys, d, radii):
    # checked before any 1/r: a NaN in the report would not be valid JSON
    code, doc = run(tmp_path, "soddy", "--d", d, "--radii", radii)
    assert code == 2 and doc is None
    assert "error: radii must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("radii", ["1e-320,1,1", "1,1e-308,1"])
def test_soddy_names_a_radius_whose_curvature_overflows(tmp_path, capsys, radii):
    code, doc = run(tmp_path, "soddy", "--radii", radii)
    assert code == 2 and doc is None
    small = next(r for r in radii.split(",") if r != "1")
    err = capsys.readouterr().err
    assert f"error: radius {small} is too small: the square of its curvature 1/r overflows" in err
    assert "nan" not in err and "Warning" not in err


def test_cm_equilateral(tmp_path):
    code, doc = run(tmp_path, "cm", "--edges-equilateral", "3", "--a", "1")
    assert code == 0
    assert doc["result"]["determinant"] == "-3"
    assert doc["result"]["volume"] == pytest.approx(math.sqrt(3) / 4, abs=1e-12)


def test_cm_matrix_file(tmp_path):
    matrix_file = tmp_path / "matrix.json"
    matrix_file.write_text(json.dumps([["0", "1", "4"], ["1", "0", "1"], ["4", "1", "0"]]))
    code, doc = run(tmp_path, "cm", "--matrix", str(matrix_file))
    assert code == 0
    assert doc["result"]["determinant"] == "0"
    assert doc["result"]["volume"] == 0.0


def test_cm_flat_float_matrix_reports_positive_zero_volume(tmp_path):
    matrix_file = tmp_path / "matrix.json"
    matrix_file.write_text(json.dumps([[0.0, 1.0, 4.0], [1.0, 0.0, 1.0], [4.0, 1.0, 0.0]]))
    code, doc = run(tmp_path, "cm", "--matrix", str(matrix_file))
    assert code == 0
    assert doc["result"]["exact"] is False and doc["result"]["determinant"] == 0.0
    volume = doc["result"]["volume"]
    assert volume == 0.0 and math.copysign(1.0, volume) == 1.0


@pytest.mark.parametrize("side_sq, error", [
    ("1e300", "determinant is too large for a float"),
    ("1e-300", "determinant is too small for a float: it rounds to 0"),
], ids=["1e300", "1e-300"])
def test_cm_float_matrix_at_extreme_scales(tmp_path, side_sq, error):
    # the determinant -3 s^2 of the equilateral triangle is outside the float
    # range, its area sqrt(3)/4 * s is not; warnings are errors here
    s = float(side_sq)
    matrix_file = tmp_path / "matrix.json"
    matrix_file.write_text(json.dumps([[0.0, s, s], [s, 0.0, s], [s, s, 0.0]]))
    code, doc = run(tmp_path, "cm", "--matrix", str(matrix_file))
    assert code == 0
    result = doc["result"]
    assert result["determinant"] is None and result["determinant_error"] == error
    with localcontext() as ctx:
        ctx.prec = 50
        expected = float(Decimal(3).sqrt() / 4 * Decimal(s))
    assert abs(result["volume"] - expected) <= 4 * math.ulp(expected)


def test_cm_float_volume_of_90_integer_points_in_89_space(tmp_path):
    # a volume of about 1e-8 from a bordered determinant of about 2e283; the
    # oracle is |det(v_i - v_0)| / 89!, from the coordinates in integers
    points = np.random.default_rng(7).integers(-8, 9, (90, 89)).tolist()
    squared = [[float(sum((a - b) ** 2 for a, b in zip(p, q))) for q in points] for p in points]
    matrix_file = tmp_path / "matrix.json"
    matrix_file.write_text(json.dumps(squared))
    code, doc = run(tmp_path, "cm", "--matrix", str(matrix_file))
    assert code == 0 and doc["result"]["exact"] is False
    span = [[Fraction(a - b) for a, b in zip(p, points[0])] for p in points[1:]]
    expected = float(abs(_bareiss_det(span)) / math.factorial(89))
    assert expected == pytest.approx(1.1221319930459448e-08, rel=1e-15)
    assert abs(doc["result"]["volume"] - expected) <= math.ulp(expected)


def test_cm_float_volume_of_the_regular_100_point_matrix(tmp_path):
    # 2^d * d!^2 is beyond the float range at d = 99
    n = 100
    matrix_file = tmp_path / "matrix.json"
    matrix_file.write_text(json.dumps([[0.0 if i == j else 1.0 for j in range(n)] for i in range(n)]))
    code, doc = run(tmp_path, "cm", "--matrix", str(matrix_file))
    assert code == 0
    assert doc["result"]["determinant"] == float(n)  # (-1)^n * n
    with localcontext() as ctx:
        ctx.prec = 50
        expected = float(Decimal(n).sqrt() / (Decimal(math.factorial(n - 1)) * Decimal(2) ** Decimal("49.5")))
    assert abs(doc["result"]["volume"] - expected) <= math.ulp(expected)


def test_cm_float_determinant_is_the_exact_one_rounded_once(tmp_path):
    points = np.random.default_rng(3).integers(-50, 51, (12, 11)).tolist()
    squared = [[sum((a - b) ** 2 for a, b in zip(p, q)) for q in points] for p in points]
    matrix_file = tmp_path / "matrix.json"
    matrix_file.write_text(json.dumps([[float(x) for x in row] for row in squared]))
    code, doc = run(tmp_path, "cm", "--matrix", str(matrix_file))
    assert code == 0 and doc["result"]["exact"] is False
    exact = cayley_menger_det(SquaredDistanceMatrix(squared))
    assert doc["result"]["determinant"] == float(exact)
    assert doc["result"]["volume"] == simplex_volume(SquaredDistanceMatrix(squared))


@pytest.mark.parametrize("edge", ["-1", "-3/7", "0"])
def test_cm_rejects_non_positive_edge(tmp_path, capsys, edge):
    out = tmp_path / "report.json"
    assert main(["cm", "--edges-equilateral", "3", f"--a={edge}", "--out", str(out)]) == 2
    assert "edge length must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_cm_computes_determinant_once(tmp_path, monkeypatch):
    from simplexdist import cmgeom

    calls = []
    det = cmgeom.cayley_menger_det

    def counted(matrix):
        calls.append(matrix.n)
        return det(matrix)

    monkeypatch.setattr(cmgeom, "cayley_menger_det", counted)
    code, doc = run(tmp_path, "cm", "--edges-equilateral", "4", "--a", "1")
    assert code == 0 and calls == [4]
    assert doc["result"]["volume"] == pytest.approx(1 / (6 * math.sqrt(2)), abs=1e-15)


@pytest.mark.parametrize(
    "content",
    [None, "[[0, null], [null, 0]]", "5", "[[0, Infinity], [Infinity, 0]]"],
    ids=["missing", "null-entries", "bare-number", "infinite-entries"],
)
def test_cm_rejects_malformed_matrix_file(tmp_path, capsys, content):
    matrix_file = tmp_path / "matrix.json"
    if content is not None:
        matrix_file.write_text(content)
    out = tmp_path / "report.json"
    assert main(["cm", "--matrix", str(matrix_file), "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_cm_rejects_json_booleans(tmp_path, capsys):
    # bool is a numbers.Real, but a JSON false is not the distance 0
    matrix_file = tmp_path / "matrix.json"
    matrix_file.write_text("[[false, 1], [1, false]]")
    code, doc = run(tmp_path, "cm", "--matrix", str(matrix_file))
    assert code == 2 and doc is None
    assert capsys.readouterr().err == "error: entry (0,0) is not a finite real number: False\n"


def test_cm_requires_exactly_one_source(capsys):
    assert main(["cm"]) == 2
    assert main(["cm", "--edges-equilateral", "3", "--matrix", "x.json"]) == 2


def test_cm_non_embeddable_reports_error_field(tmp_path):
    matrix_file = tmp_path / "matrix.json"
    matrix_file.write_text(json.dumps([["0", "1", "9"], ["1", "0", "1"], ["9", "1", "0"]]))
    code, doc = run(tmp_path, "cm", "--matrix", str(matrix_file))
    assert code == 0
    assert doc["result"]["volume"] is None
    assert "volume_error" in doc["result"]


def test_cm_volume_too_large_for_a_float_reports_error_field(tmp_path):
    code, doc = run(tmp_path, "cm", "--edges-equilateral", "3", "--a", "1e400")
    assert code == 0
    result = doc["result"]
    # the exact determinant of N = 3 points is -3 a^4
    assert result["exact"] is True and result["determinant"] == str(-3 * 10**1600)
    assert result["volume"] is None
    assert result["volume_error"] == "volume^2 is too large for a float"


@pytest.mark.parametrize("a", ["1e100", "1e-100", "1e-80"])
def test_cm_volume_is_right_wherever_it_is_a_float(tmp_path, a):
    # volume^2 of these triangles overflows or is subnormal as a float, yet
    # the area sqrt(3)/4 * a^2 is a normal float
    code, doc = run(tmp_path, "cm", "--edges-equilateral", "3", "--a", a)
    assert code == 0
    with localcontext() as ctx:
        ctx.prec = 50
        expected = float(Decimal(3).sqrt() / 4 * Decimal(a) ** 2)
    assert abs(doc["result"]["volume"] - expected) <= math.ulp(expected)


def test_cm_volume_too_small_for_a_float_reports_error_field(tmp_path):
    # a real triangle, so 0.0, the flat verdict, would be wrong
    code, doc = run(tmp_path, "cm", "--edges-equilateral", "3", "--a", "1e-200")
    assert code == 0
    assert doc["result"]["volume"] is None
    assert doc["result"]["volume_error"] == "volume is too small for a float: it rounds to 0"


# -- bad rationals ---------------------------------------------------------------------


@pytest.mark.parametrize("argv, option", [
    (["discover", "--edge-sq", "1/0"], "--edge-sq"),
    (["verify", "--box", "1/0"], "--box"),
    (["cm", "--edges-equilateral", "3", "--a", "1/0"], "--a"),
])
def test_zero_denominator_is_a_usage_error(capsys, argv, option):
    # exit 1 means a run that failed its own check, so a bad option exits 2
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {option}: zero denominator in '1/0'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, option, message", [
    (["verify", "--box", "nan"], "--box", "'nan' is not a rational number"),
    (["soddy", "--radii", "1,x"], "--radii", "'1,x' is not a comma-separated list of numbers"),
    (["independence", "--subset", "1,x"], "--subset", "'1,x' is not a comma-separated list of integers"),
], ids=["fraction", "float-list", "int-list"])
def test_bad_option_value_names_the_option_not_the_parser(capsys, argv, option, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: {message}" in err and "_arg" not in err


@pytest.mark.parametrize("argv", [
    ["discover", "--threshold", "1e-6"],
    ["discover", "--max-denominator", "1000"],
    ["independence", "--subset", "1,2", "--threshold", "1e-6"],
    ["independence", "--subset", "1,2", "--max-denominator", "1000"],
    ["sphere", "--threshold", "1e-6"],
    ["sphere", "--max-denominator", "1000"],
    ["discover", "--samples", "5"],
    ["sphere", "--samples", "5"],
    ["independence", "--subset", "1,2", "--max-degree", "6"],
    ["independence", "--subset", "1,2", "--samples", "3"],
    ["independence", "--subset", "1,2", "--seed", "1"],
    ["reduce", "--poly", "p.json", "--seed", "1"],
    ["reconstruct", "--t", "1,1,1", "--seed", "1"],
    ["reconstruct", "--t", "1,1,1", "--tol", "inf"],
    ["probe63", "--tol", "1e-6"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_removed_option_is_a_usage_error(capsys, argv):
    # discovery runs at a fixed cutoff and denominator bound, or exactly, and
    # draw a fixed number of samples per column, independence draws none and has no degree, reduce
    # and reconstruct draw no samples, reconstruct checks feasibility at a fixed
    # 1e-9 * a^2, and probe63 makes no float check
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    "verify", "discover", "independence", "sphere", "reduce", "reconstruct", "probe63", "soddy", "cm",
])
def test_help_exits_zero(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: simplexdist {command} ")


@pytest.mark.parametrize("argv", [
    # the sphere runs that stood here are exact now and take these edges
    # (test_sphere_takes_edges_beyond_the_float_range)
    ["probe63", "--d", "3", "--count", "5", "--edge-sq", "1e400"],
    ["reconstruct", "--d", "3", "--t", "1,1,1,1", "--edge-sq", "1e400"],
    ["probe63", "--d", "2", "--count", "5", "--edge-sq", "1e400"],
    ["reconstruct", "--d", "2", "--t", "1,1,1", "--edge-sq", "1e400"],
    # the exact edge is valid, but its float overflows just past the float
    # range
    ["probe63", "--d", "3", "--count", "5", "--edge-sq", "1e310"],
    ["reconstruct", "--d", "4", "--t", "1,1,1,1,1", "--edge-sq", "1e309"],
    ["probe63", "--d", "4", "--count", "5", "--edge-sq", "1e309"],
    ["probe63", "--edge-sq", "1e309"],
    ["reconstruct", "--d", "2", "--t", "1,1,1", "--edge-sq", "1e309"],
])
def test_edge_sq_too_large_for_a_float_is_bad_configuration(tmp_path, capsys, argv):
    code, doc = run(tmp_path, *argv)
    assert code == 2 and doc is None
    assert "error: edge_sq is out of float range" in capsys.readouterr().err


def test_verify_stays_exact_for_a_huge_edge(tmp_path):
    code, doc = run(tmp_path, "verify", "--d", "2", "--edge-sq", "1e400", "--count", "5")
    assert code == 0 and doc["result"]["all_exactly_zero"] is True


# -- reproducibility -------------------------------------------------------------------


def cut_timestamp(text):
    """``text`` with the value of its one ``generated_at`` key emptied."""
    cut, count = re.subn(r'"generated_at": "[^"]*"', '"generated_at": ""', text)
    assert count == 1
    return cut


def with_poly_file(tmp_path, argv):
    """``argv`` with its ``{poly}`` placeholder replaced by the path of a
    file holding the quartic relation at d = 2."""
    poly_file = tmp_path / "poly.json"
    poly_file.write_text(json.dumps(poly_to_dict(distance_relation(2, 1))))
    return [str(poly_file) if arg == "{poly}" else arg for arg in argv]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--d", "2", "--count", "50", "--seed", "3"],
        ["discover", "--d", "2", "--max-degree", "4", "--seed", "3"],
        ["probe63", "--d", "2", "--count", "20", "--seed", "3"],
        ["soddy", "--radii", "1,2,3"],
        ["sphere", "--d", "2", "--max-degree", "4"],
    ],
)
def test_reports_byte_identical_modulo_timestamp(tmp_path, argv):
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    code_a = main([*argv, "--out", str(out_a)])
    code_b = main([*argv, "--out", str(out_b)])
    assert code_a == code_b
    assert cut_timestamp(out_a.read_text()) == cut_timestamp(out_b.read_text())


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--d", "2", "--count", "20", "--seed", "3"],
        ["discover", "--d", "2", "--max-degree", "4", "--seed", "3"],
        ["independence", "--d", "2", "--subset", "1,2"],
        ["sphere", "--d", "2", "--max-degree", "2"],
        ["reduce", "--poly", "{poly}", "--d", "2"],
        ["reconstruct", "--d", "2", "--t", "0,1,1"],
        ["probe63", "--d", "2", "--count", "20", "--seed", "3"],
        ["soddy", "--radii", "1,2,3"],
        ["cm", "--edges-equilateral", "3", "--a", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_report_is_one_line_of_compact_sorted_json(tmp_path, capsys, argv):
    argv = with_poly_file(tmp_path, argv)
    code = main(argv)
    line, newline, rest = capsys.readouterr().out.partition("\n")
    assert newline == "\n" and rest == ""
    assert line == json.dumps(json.loads(line), sort_keys=True)
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == code
    assert cut_timestamp(out.read_text()) == cut_timestamp(line + "\n")


def test_one_parser_serves_every_call(capsys):
    # a usage error, a configuration error, a run with non-default options
    # and runs of other subcommands on their defaults, through the parser of
    # the first call and through a fresh one each
    sequence = [
        ["probe63", "--d", "two"],
        ["probe63", "--d", "0"],
        ["probe63", "--d", "3", "--seed", "4", "--count", "5", "--edge-sq", "4/9"],
        ["probe63", "--count", "5"],
        ["verify", "--count", "5"],
        ["cm", "--edges-equilateral", "3"],
    ]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, cut_timestamp(out) if out else out, err

    cli._parser.cache_clear()
    reused = [call(argv) for argv in sequence]
    assert cli._parser.cache_info().misses == 1
    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        fresh.append(call(argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [2, 2, 0, 0, 0, 0]
    assert json.loads(reused[3][1])["config"] == {"d": 2, "edge_sq": "1", "seed": 0, "trials": 5}


@pytest.mark.skipif(json.encoder.c_make_encoder is None, reason="this interpreter has no C JSON encoder")
@pytest.mark.parametrize(
    "argv",
    [
        ["probe63", "--d", "2", "--count", "20", "--seed", "3"],
        ["discover", "--d", "2", "--max-degree", "4", "--seed", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_reports_never_reach_the_pure_python_encoder(monkeypatch, capsys, argv):
    def pure_python_encoder(*args, **kwargs):
        raise AssertionError("report sent to the pure-Python JSON encoder")

    monkeypatch.setattr(json.encoder, "_make_iterencode", pure_python_encoder)
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["command"] == argv[0]


def test_json_to_stdout_without_out_flag(capsys):
    code = main(["cm", "--edges-equilateral", "3", "--a", "1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "cm"
    assert doc["result"]["determinant"] == "-3"


def test_verify_reports_violation_exactly(tmp_path, monkeypatch):
    # real samples always satisfy the relation, so knock one integer
    # distance numerator off it: the report must carry the weights and the
    # residual that the Fraction evaluation gives on the perturbed tuple
    from fractions import Fraction

    from simplexdist import geom
    from simplexdist.poly import relation_residual_exact

    exact_numerators = geom._distance_numerators

    def perturbed(nums, den):
        first, *rest = exact_numerators(nums, den)
        return (first + 1, *rest)

    monkeypatch.setattr(geom, "_distance_numerators", perturbed)
    code, doc = run(tmp_path, "verify", "--d", "3", "--edge-sq", "7/3", "--count", "5", "--seed", "2")
    assert code == 1 and doc["result"]["all_exactly_zero"] is False
    expected = []
    for index, (nums, den) in enumerate(geom._weight_rows(4, geom.SampleConfig(seed=2, count=5))):
        squared = [Fraction(7 * n, 6 * den * den) for n in perturbed(nums, den)]
        expected.append({
            "sample": index,
            "weights": [str(Fraction(r, den)) for r in nums],
            "residual": str(relation_residual_exact(3, Fraction(7, 3), squared)),
        })
    assert doc["result"]["violations"] == expected
