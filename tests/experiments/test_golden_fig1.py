"""Golden gate and shape checks for Fig. 1 (allocation/receive ratio).

The default-size run (every payload of the paper's sweep, 15
iterations) must reproduce the committed headline exactly: both 2 MB
ratios and the full per-network series, floats compared with no
tolerance.  The paper's shape is asserted on the same run: ~30% of the
receive time goes to buffer allocation on IPoIB at 2 MB, far less on
1GigE, and the IPoIB ratio grows with payload into the MB range.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import fig1_alloc_ratio
from repro.units import MB

FIXTURE = Path(__file__).parent / "fixtures" / "golden_fig1.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def result(golden):
    return fig1_alloc_ratio.run(**golden["params"])


def test_fig1_headline_is_bit_identical_to_fixture(result, golden):
    headline = {
        key: result[key] for key in ("ipoib_ratio_2mb", "gige_ratio_2mb", "ratio")
    }
    assert json.loads(json.dumps(headline)) == golden["headline"]
    assert golden["params"] == {
        "payload_sizes": fig1_alloc_ratio.PAYLOAD_SIZES,
        "iterations": 15,
    }


def test_fig1_holds_the_paper_shape(result):
    assert 0.18 <= result["ipoib_ratio_2mb"] <= 0.42
    assert result["gige_ratio_2mb"] < 0.5 * result["ipoib_ratio_2mb"]
    ipoib = result["ratio"]["IPoIB"]
    assert ipoib[2 * MB] > ipoib[32]
