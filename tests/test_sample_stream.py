"""Golden digests of the deterministic sample stream.

Sample k depends only on ``(seed, k)``, and every report built from samples
inherits that stream.  The sample digests were recorded from the
``Fraction`` sampler that the integer draws replaced, and the discovery
floats are the squared distances of the box-3/2 samples, each rounded once,
so any drift in the draws, the weights, the exact squared distances, the
discovery floats or the ``verify`` report fails here.  The ``realize-probe`` reports are pinned
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
        (2, "1", 3, 60, "3", "22e68361bd669066ae21388fcd46e983d9d4d9b59ba9f093b45e74f7e9015feb"),
        (5, "4/9", 7, 40, "3/2", "2a0bf2d21ec5010715a7dbba108b515f2994b6a2ec9ea5b15d3f0de6a7cf0df8"),
        (8, "7/3", 11, 30, "5/2", "0550db599900800c5b275ef4db220a60e68413702807d54eee3e696996ab9048"),
    ],
)
def test_sample_points_stream(d, edge_sq, seed, count, box, expected):
    simplex = EmbeddedSimplex(d, Fraction(edge_sq))
    config = SampleConfig(seed=seed, count=count, box=Fraction(box))
    doc = sample_document(simplex, config, sample_points(simplex, config))
    assert digest(json.dumps(doc, sort_keys=True).encode()) == expected


@pytest.mark.parametrize(
    "d, edge_sq, count, seed, expected",
    [
        (3, "3/2", 300, 5, "8ea08151f778acbb318df76a5220838f7a9bcb90031aedb6c109f52a25a84535"),
        (5, "4/9", 200, 0, "e2eedbefcbb0cca0378fa3ee514470e36f3c788b80accae2431bd32f9057ffee"),
        (1, "1", 90, 2, "0277cc888ba22d5c4dbac5d129ab372198eed249ef715d3de2bc5fc134e704ae"),
    ],
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
        (2, "4ff4c7461b6f122e8a8889bc6e4f16edb18d0f187d34c1709ff14d123ba34f73"),
        (3, "bec338b166d355d1e02f94b4997bfc5f69593c01c256de1504585affe4fccd19"),
    ],
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
