"""Golden digests of the deterministic sample stream.

Sample k depends only on ``(seed, k)``, and every report built from samples
inherits that stream.  The sample digests were recorded from the BLAKE2b
digest draws (``geom._weight_draws``), and the discovery floats are the
squared distances of the box-3/2 samples, each rounded once (for d = 1,
drawn onto branch k mod 3 of the segment), so any drift in the draws, the
weights, the exact squared distances, the discovery floats or the
``verify`` report fails here.  The ``realize-probe`` reports are pinned
too: the exact ``cm`` report and the pure-Python part of ``probe63`` (its
draws and the roots of the completing quadratic).  Nothing downstream of an
SVD or other LAPACK call is pinned: those values depend on the BLAS build.
"""

import contextlib
import hashlib
import io
import json
from fractions import Fraction

import numpy as np
import pytest

from simplexdist import cli, discover
from simplexdist.geom import EmbeddedSimplex, SampleConfig, sample_document, sample_points


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
        (3, "3/2", 300, 5, "904ae0d03a548e898d91685d183ba6a34fa3ee2a9108a10ee474f780f73d714e"),
        (5, "4/9", 200, 0, "d55ab640f5b90b9b9f8e50326a8bfd3f80568d4a8760602fc57b5c4de355ce9b"),
        (1, "1", 90, 2, "9d08ac504d42935644e323e786ccafa22b5d20eb53eed31e046a4bbd1db75ef5"),
    ],
    ids=["d3", "d5", "d1"],
)
def test_discovery_floats_stream(d, edge_sq, count, seed, expected):
    floats = discover._sample_squared_distances(d, Fraction(edge_sq), count, seed)
    assert floats.dtype == np.float64 and floats.shape == (count, d + 1)
    assert digest(floats.astype("<f8").tobytes()) == expected


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
    # each verdict's point and residual come from a LAPACK solve, so only
    # the draws, the roots and the counts are pinned
    code, doc = run_cli(["probe63", "--d", str(d), "--count", "200", "--seed", "5"])
    result = doc["result"]
    pinned = {
        "counts": result["counts"],
        "trials": [{"t_first": t["t_first"], "roots": t["roots"]} for t in result["trials"]],
    }
    assert code == 0
    assert digest(json.dumps(pinned, sort_keys=True).encode()) == expected
