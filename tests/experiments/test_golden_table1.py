"""Golden gate and shape checks for Table I (RPC profile of a Sort).

The default run (1 GB Sort on 8 slaves, seed 3) must reproduce every
committed per-<protocol, method> row exactly: call counts, average
memory adjustments, serialization and send times.  The paper's shape
is asserted on the same run: the Table I call mix is present,
``statusUpdate`` pays several buffer adjustments per call while
``getTask`` pays few, and the adjustment-heavy method serializes
slower.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import table1

FIXTURE = Path(__file__).parent / "fixtures" / "golden_table1.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def result(golden):
    return table1.run(**golden["params"])


def test_table1_rows_are_bit_identical_to_fixture(result, golden):
    assert json.loads(json.dumps({"rows": result["rows"]})) == golden["headline"]
    assert golden["params"] == {"slaves": 8, "data_gb": 1.0, "seed": 3}


def test_table1_holds_the_paper_shape(result):
    rows = {(r["protocol"], r["method"]): r for r in result["rows"]}
    assert ("mapred.TaskUmbilicalProtocol", "statusUpdate") in rows
    assert ("hdfs.ClientProtocol", "addBlock") in rows
    status = rows[("mapred.TaskUmbilicalProtocol", "statusUpdate")]
    assert 2 <= status["avg_adjustments"] <= 6
    get_task = rows[("mapred.TaskUmbilicalProtocol", "getTask")]
    assert 1 <= get_task["avg_adjustments"] <= 4
    assert status["avg_serialization_us"] > get_task["avg_serialization_us"]
