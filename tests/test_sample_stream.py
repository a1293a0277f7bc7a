"""Golden digests of the deterministic sample stream.

Sample k depends only on ``(seed, k)``, and every report built from samples
inherits that stream.  These SHA-256 digests were recorded from the
``Fraction`` sampler that the integer draws replaced, so any drift in the
draws, the weights, the exact squared distances, the discovery floats or
the ``verify`` report fails here.  Nothing downstream of an SVD is pinned:
those values depend on the BLAS build.
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
        (3, "3/2", 300, 5, "9f9f7ca91a246ba34d726149da53e33d8110e7cd0b7db17b6fb81c9f50208994"),
        (5, "4/9", 200, 0, "f162db8256e6255110af105c9986be3352cbe7b55fb2abf0fc9afaa9ad53e095"),
        (1, "1", 90, 2, "50be8c35fecaf76ad286093c94ef216728da29e74885fb279942e4223f646f27"),
    ],
)
def test_discovery_floats_stream(d, edge_sq, count, seed, expected):
    floats = discover._sample_distance_tuples(d, Fraction(edge_sq), count, seed)[0]
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
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    doc = json.loads(out.getvalue())
    del doc["generated_at"]
    assert code == 0
    assert digest(json.dumps(doc, sort_keys=True).encode()) == expected
