"""Golden digests of the deterministic sample stream.

Sample k depends only on ``(seed, k)``, and every report built from samples
inherits that stream.  The sample digests were recorded from the BLAKE2b
digest draws (``geom._weight_draws``), and the discovery draws are the
exact squared distances of the box-3/2 samples (for d = 1, drawn onto
branch k mod 3 of the segment), so any drift in the draws, the weights, the
exact squared distances or the ``verify`` report fails here.  The ``realize-probe`` reports are pinned
too: the exact ``cm`` report and the pure-Python part of ``probe63`` (its
draws and the roots of the completing quadratic).  The ``discover`` and
``sphere`` reports are exact, eliminated modulo primes and certified in
integers, and hold no float, so their bytes do not depend on the platform
and they are pinned whole.
"""

import contextlib
import hashlib
import io
import json
from fractions import Fraction

import pytest

from simplexdist import cli, discover
from simplexdist.geom import (
    EmbeddedSimplex,
    SampleConfig,
    _exact_squared,
    _weight_rows,
    sample_document,
    sample_points,
)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize(
    "d, edge_sq, seed, count, box, expected",
    [
        (2, "1", 3, 60, "3", "511a9849f4b927bd28080ca692f275131d1099e42a0fcc627932adb444176b8f"),
        (5, "4/9", 7, 40, "3/2", "63037b96769fc354fc2a2b24c83eb90637edcd5990e78476e68d89bd860ce907"),
        (8, "7/3", 11, 30, "5/2", "0fa13660f36704c3d6a3a59800d8000cf158b9033252198596c4889e430ff451"),
    ],
    ids=["d2", "d5", "d8"],
)
def test_sample_points_stream(d, edge_sq, seed, count, box, expected):
    simplex = EmbeddedSimplex(d, Fraction(edge_sq))
    config = SampleConfig(seed=seed, count=count, box=Fraction(box))
    doc = sample_document(simplex, config, sample_points(simplex, config))
    assert digest(json.dumps(doc, sort_keys=True).encode()) == expected


@pytest.mark.parametrize(
    "d, edge_sq, count, seed, expected",
    [
        (3, "3/2", 300, 5, "58eab024d1c8b3d29dbf4b0a38b65fb673ec0ab64fa6490c088cf6367a117e35"),
        (5, "4/9", 200, 0, "20aefc7e7f761971b1cc78ef587de76dd751ea864532b3ea6bc640c6ac40017d"),
        (1, "1", 90, 2, "ffb08ee1e7aa9f7cb218daa331f94100043ee5d6b95ad58ebaf711b1236dcdd6"),
    ],
    ids=["d3", "d5", "d1"],
)
def test_discovery_draws_stream(d, edge_sq, count, seed, expected):
    # the exact squared distances of the draws a discovery run takes, one
    # line of fractions per sample
    config = SampleConfig(seed=seed, count=count, box=Fraction(3, 2))
    draws = _weight_rows(d + 1, config, discover._segment_branch if d == 1 else None)
    rows = [_exact_squared(Fraction(edge_sq), nums, den) for nums, den in draws]
    assert len(rows) == count and all(len(row) == d + 1 for row in rows)
    text = "\n".join(" ".join(map(str, row)) for row in rows)
    assert digest(text.encode()) == expected


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["verify", "--d", "5", "--count", "300", "--seed", "4", "--edge-sq", "7/3", "--box", "5/2"],
            "6f12810696f55bcfd8dad991d6ba4435b128ee6826158b80a39f2f3f76492bf3",
        ),
        (
            ["verify", "--d", "8", "--count", "200", "--seed", "9"],
            "b40f1ba7155047b80e49b3fc1612c8ad754305fb62a64a0a46826a5367e2f90d",
        ),
    ],
)
def test_verify_report_stream(argv, expected):
    code, doc = run_cli(argv)
    del doc["generated_at"]
    assert code == 0
    assert digest(json.dumps(doc, sort_keys=True).encode()) == expected


def test_cm_report_stream():
    code, doc = run_cli(["cm", "--edges-equilateral", "25", "--a", "3/7"])
    del doc["generated_at"]
    assert code == 0
    expected = "d9525582cd38c4a2cb8e0f5c4824457c44aa647fe9bc7e60ec1f74003507f23a"
    assert digest(json.dumps(doc, sort_keys=True).encode()) == expected


@pytest.mark.parametrize(
    "d, expected",
    [
        (2, "efac479c121a9284977474b32bda9dc88dadf9c7534e1abfa1ce11c0fff2a5b8"),
        (3, "65e3fe1849d22fb57e8f6bb26b8debd2b3bd0de17543c0b0f66a85302106dfcf"),
    ],
    ids=["d2", "d3"],
)
def test_probe_report_stream(d, expected):
    # each verdict repeats a root with the status "feasible", so the draws,
    # the roots and the counts pin the report
    code, doc = run_cli(["probe63", "--d", str(d), "--count", "200", "--seed", "5"])
    result = doc["result"]
    pinned = {
        "counts": result["counts"],
        "trials": [{"t_first": t["t_first"], "roots": t["roots"]} for t in result["trials"]],
    }
    assert code == 0
    assert digest(json.dumps(pinned, sort_keys=True).encode()) == expected


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["discover", "--d", "5", "--max-degree", "6", "--seed", "1"],
            "9472b46b8529c031a71df89359840a97e2f33fea645d37bf274d11335b50b5f3",
        ),
        (
            ["discover", "--d", "1", "--max-degree", "8", "--edge-sq", "9/4"],
            "d6d46424dc0c8b46e2bb77bea150e1bc03f72d70dffb20051e8920fda418cf70",
        ),
        (
            ["discover", "--d", "3", "--max-degree", "8", "--edge-sq", "12345/677"],
            "40fb71b54e01f22d4e23f6eeda0f348bf95d6f1f9473745fb8092d3d568ba364",
        ),
        (
            ["sphere", "--d", "2", "--max-degree", "8"],
            "8d83f7d8385fcab3afbd47d965ac9638a00e14142440e1fa2397e09dcf94a059",
        ),
        (
            ["sphere", "--d", "4", "--max-degree", "6", "--edge-sq", "7/3"],
            "1746d6c9275d7e6e4bc184a2be95f98af46103451eb201547b9daa1d60445966",
        ),
        (
            # an irrational edge: the conics' rows rescale by powers of a^2 alone
            ["sphere", "--d", "2", "--max-degree", "8", "--edge-sq", "2"],
            "c7bd1afcc03f0ecd425170974eec4473b0709ed5db2733abb85ba54e7817442c",
        ),
        (
            # two primes joined by CRT, and rows rescaled by odd powers of the
            # rational edge a = 3/2
            ["discover", "--d", "1", "--max-degree", "24", "--edge-sq", "9/4"],
            "546dd4732fcc8e047c3d8a1bc670043b37457b5adfeafab4c44b30b0ce0c6924",
        ),
        (
            # the chords at d = 3, certified by membership in (Q_u, S_u)
            ["sphere", "--d", "3", "--max-degree", "6"],
            "7cfaef4f1b5f30fe72d0c26f300959dfc4b335674f2dd8a5b9b4c2439d254734",
        ),
        (
            # the chords at d = 40, where most samples have equal u_j
            ["sphere", "--d", "40", "--max-degree", "2"],
            "6841dab8561b62846d4e389697440c08ceb2c0fbd2f7c25514b6a65cb71a23d0",
        ),
        (
            ["sphere", "--d", "5", "--max-degree", "6", "--seed", "2"],
            "5f56953f9f1e4a1fe7615b055805fa21e79fcfc988be2135217735be7e2c2ae0",
        ),
    ],
    ids=[
        "discover-d5", "discover-d1", "discover-d3-tall-edge", "sphere-d2", "sphere-d4", "sphere-d2-edge2",
        "discover-d1-deg24-edge", "sphere-d3", "sphere-d40", "sphere-d5-seed2",
    ],
)
def test_discovery_report_stream(argv, expected):
    code, doc = run_cli(argv)
    del doc["generated_at"]
    assert code == 0
    assert digest(json.dumps(doc, sort_keys=True).encode()) == expected
