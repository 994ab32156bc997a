"""Golden determinism gate for the Fig. 5 harness.

A scaled-down Fig. 5 run must reproduce the committed fixture
bit-for-bit — every float compared exactly, no tolerances.  This is
the regression tripwire for the performance work on the simulator and
IO layers: any host-side "optimization" that perturbs the event
schedule or a cost formula shows up here as a diff, not as a silently
shifted headline number.

Regenerating the fixture is a deliberate act (the simulation's
behavior changed): run the ``run()`` call below, dump the result with
``json.dump(..., indent=2, sort_keys=True)``, and explain the change
in the commit message.

The full-size run (the paper's grids) is pinned on its headline
statistics, and the Fig. 5 shape checks (latency grows with payload,
the paper's reduction factors, the engine ordering) are asserted on
that same run.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import fig5_micro

from tests.experiments.conftest import FIG5_FULL_FIXTURE as FULL_FIXTURE

FIXTURE = Path(__file__).parent / "fixtures" / "golden_fig5_small.json"

#: scaled-down but structure-preserving Fig. 5 parameters: both panels,
#: all three engines, multiple client counts — small enough for CI.
GOLDEN_PARAMS = dict(
    payload_sizes=[1, 256, 4096],
    client_counts=[8, 16],
    iterations=5,
    ops_per_client=10,
)


def test_fig5_small_is_bit_identical_to_fixture():
    result = fig5_micro.run(**GOLDEN_PARAMS)
    # JSON round-trip normalizes tuples to lists and int keys to
    # strings, matching how the fixture was stored.
    normalized = json.loads(json.dumps(result))
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert normalized == golden


def test_fig5_small_is_deterministic_across_runs():
    first = json.loads(json.dumps(fig5_micro.run(**GOLDEN_PARAMS)))
    second = json.loads(json.dumps(fig5_micro.run(**GOLDEN_PARAMS)))
    assert first == second


#: the headline statistics pinned for the full-size run.
FULL_HEADLINE_KEYS = (
    "latency_1b_us",
    "latency_4kb_us",
    "peaks_kops",
    "reduction_vs_10gige",
    "reduction_vs_ipoib",
    "peak_gain_vs_10gige",
    "peak_gain_vs_ipoib",
)


def test_fig5_full_headline_is_bit_identical_to_fixture(fig5_full):
    """The full-size run (the paper's grids, 30 iterations, 40 ops per
    client) reproduces its headline statistics exactly."""
    golden = json.loads(FULL_FIXTURE.read_text(encoding="utf-8"))
    headline = {key: fig5_full[key] for key in FULL_HEADLINE_KEYS}
    assert json.loads(json.dumps(headline)) == golden["headline"]
    assert golden["params"] == {
        "payload_sizes": fig5_micro.PAYLOAD_SIZES,
        "client_counts": fig5_micro.CLIENT_COUNTS,
        "iterations": 30,
        "ops_per_client": 40,
    }


@pytest.mark.parametrize("engine", fig5_micro.ENGINES)
def test_fig5a_latency_grows_with_payload(fig5_full, engine):
    latency = fig5_full["latency_us"][engine]
    assert latency[1] < latency[4096]


def test_fig5a_reductions_hold_the_paper_factor(fig5_full):
    """RPCoIB wins at every size, by roughly the paper's factor."""
    lo_10g, hi_10g = fig5_full["reduction_vs_10gige"]
    lo_ib, hi_ib = fig5_full["reduction_vs_ipoib"]
    assert 0.35 <= lo_10g and hi_10g <= 0.55
    assert 0.40 <= lo_ib and hi_ib <= 0.55


def test_fig5b_throughput_ordering_at_48_clients(fig5_full):
    at_48 = {
        engine: series[48]
        for engine, series in fig5_full["throughput_kops"].items()
    }
    assert at_48["RPCoIB"] > at_48["RPC-IPoIB"] > at_48["RPC-10GigE"]
