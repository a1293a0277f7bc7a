"""Subcommand exit codes, JSON reports, and reproducibility."""

import json
import math

import pytest

from simplexdist.cli import main
from simplexdist.poly import distance_relation, poly_to_dict
from simplexdist.poly import MultiPoly


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main([*argv, "--out", str(out)])
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc


def strip_timestamp(doc):
    doc = dict(doc)
    doc.pop("generated_at", None)
    return doc


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


def test_verify_rejects_d0(tmp_path, capsys):
    assert main(["verify", "--d", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_rational_edge(tmp_path):
    code, doc = run(tmp_path, "verify", "--d", "3", "--edge-sq", "4/9", "--count", "50")
    assert code == 0 and doc["config"]["edge_sq"] == "4/9"


# -- discover family --------------------------------------------------------------


def test_discover_exits_zero_and_reports_candidate(tmp_path):
    code, doc = run(tmp_path, "discover", "--d", "2", "--max-degree", "4", "--seed", "1")
    assert code == 0
    assert doc["result"]["nullspace"]["null_dim"] == 1
    (candidate,) = doc["result"]["candidates"]
    assert candidate["certificate"] == "divisible-by-relation"


def test_discover_empty_at_cubic_degree(tmp_path):
    code, doc = run(tmp_path, "discover", "--d", "2", "--max-degree", "3")
    assert code == 0
    assert doc["result"]["candidates"] == []


def test_independence_subcommand(tmp_path):
    code, doc = run(
        tmp_path, "independence", "--d", "3", "--subset", "1,2,3", "--max-degree", "4"
    )
    assert code == 0
    assert doc["result"]["verdict"] == "no-relation-found"


def test_independence_rejects_oversize_subset(capsys):
    assert main(["independence", "--d", "2", "--subset", "1,2,3"]) == 2


@pytest.mark.parametrize("command", [
    ["discover", "--d", "2"],
    ["independence", "--d", "2", "--subset", "1,2"],
    ["sphere", "--d", "2"],
])
def test_discovery_commands_reject_degree_zero(tmp_path, capsys, command):
    out = tmp_path / "report.json"
    assert main([*command, "--max-degree", "0", "--out", str(out)]) == 2
    assert "max_degree must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["discover", "--d", "2", "--max-degree", "3", "--max-denominator", "0"],
    ["independence", "--d", "2", "--subset", "1,2", "--max-degree", "4", "--max-denominator", "-7"],
    ["sphere", "--d", "2", "--max-degree", "1", "--max-denominator", "0"],
])
def test_discovery_commands_reject_bad_max_denominator(tmp_path, capsys, command):
    # these runs find no candidate, so the bound must be checked up front
    out = tmp_path / "report.json"
    assert main([*command, "--out", str(out)]) == 2
    assert "max_denominator must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_sphere_subcommand(tmp_path):
    code, doc = run(tmp_path, "sphere", "--d", "2", "--max-degree", "2")
    assert code == 0
    assert doc["result"]["null_dim_by_degree"] == {"1": 0, "2": 1}
    (candidate,) = doc["result"]["certified"]
    assert candidate["certificate"] == "in-circumsphere-ideal"


def test_sphere_with_extras_exits_one(tmp_path):
    # at degree 3 the circumcircle carries a cubic outside the two-generator
    # ideal, reported as an extra: the run completes but flags it
    code, doc = run(tmp_path, "sphere", "--d", "2", "--max-degree", "3")
    assert code == 1
    assert doc["result"]["extras"]


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


def test_reduce_missing_file(capsys):
    assert main(["reduce", "--poly", "/nonexistent.json", "--d", "2"]) == 2


# -- reconstruct / probe63 ----------------------------------------------------------


def test_reconstruct_vertex(tmp_path):
    code, doc = run(tmp_path, "reconstruct", "--d", "2", "--t", "0,1,1")
    assert code == 0
    assert doc["result"]["status"] == "feasible"
    assert doc["result"]["point"] == pytest.approx([0.0, 0.0], abs=1e-12)


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


def test_probe63_rejects_d0(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["probe63", "--d", "0", "--out", str(out)]) == 2
    assert "dimension must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


def test_probe63_has_no_tol_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["probe63", "--d", "2", "--tol", "1e-6"])
    assert exc.value.code == 2


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


def test_soddy_wrong_radii_count(capsys):
    assert main(["soddy", "--radii", "1,1", "--d", "2"]) == 2


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


# -- reproducibility -------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--d", "2", "--count", "50", "--seed", "3"],
        ["discover", "--d", "2", "--max-degree", "4", "--seed", "3"],
        ["probe63", "--d", "2", "--count", "20", "--seed", "3"],
        ["soddy", "--radii", "1,2,3"],
    ],
)
def test_reports_byte_identical_modulo_timestamp(tmp_path, argv):
    code_a, doc_a = run(tmp_path, *argv)
    code_b, doc_b = run(tmp_path, *argv)
    assert code_a == code_b
    assert json.dumps(strip_timestamp(doc_a), sort_keys=True) == json.dumps(
        strip_timestamp(doc_b), sort_keys=True
    )


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
    for index, (nums, den) in enumerate(geom._weight_draws(4, geom.SampleConfig(seed=2, count=5))):
        squared = [Fraction(7 * n, 6 * den * den) for n in perturbed(nums, den)]
        expected.append({
            "sample": index,
            "weights": [str(Fraction(r, den)) for r in nums],
            "residual": str(relation_residual_exact(3, Fraction(7, 3), squared)),
        })
    assert doc["result"]["violations"] == expected
