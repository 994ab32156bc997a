"""Shared fixtures for the experiment tests."""

import json
from pathlib import Path

import pytest

from repro.experiments import fig5_micro

FIG5_FULL_FIXTURE = Path(__file__).parent / "fixtures" / "golden_fig5_full.json"


@pytest.fixture(scope="session")
def fig5_full():
    """One full-size Fig. 5 run (both panels, every engine, the paper's
    payload and client grids), shared by its golden headline pin, the
    Fig. 5 shape checks and the calibration bands.  It takes ~15 s, so
    it runs once."""
    params = json.loads(FIG5_FULL_FIXTURE.read_text(encoding="utf-8"))["params"]
    return fig5_micro.run(**params)
