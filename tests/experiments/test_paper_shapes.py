"""Shape checks for the job-scale figures (Figs. 3, 6 and 7).

These experiments are too noisy at reproduction scale to pin their
numbers against the paper, so each test runs one scaled, structure-
preserving configuration and asserts the robust shape: who wins, what
grows, which structure is kept.  Fig. 8 has the same kind of check in
``benchmarks/bench_fig8_hbase.py``; it runs for minutes, so it stays
out of this suite.
"""

import pytest

from repro.apps.cloudburst import (
    ALIGNMENT_MAPS,
    ALIGNMENT_REDUCES,
    FILTERING_MAPS,
    FILTERING_REDUCES,
    run_cloudburst,
)
from repro.experiments import fig3_size_locality, fig6_mapreduce, fig7_hdfs
from repro.experiments.clusters import build_mapreduce_stack


def test_fig3_sequential_calls_stay_in_one_size_class():
    result = fig3_size_locality.run(slaves=4, data_mb=256)
    for label in ("JT_heartbeat", "TT_statusUpdate", "NN_getFileInfo"):
        assert result["traces"][label], f"no trace for {label}"
        assert result["locality"][label] >= 0.6, label


def test_fig6a_sort_and_randomwriter_shapes():
    """The job-level engine deltas under-reproduce the paper (the 3 s
    heartbeat quantum absorbs sub-second RPC effects; EXPERIMENTS.md),
    so check the robust shapes: Sort costs more than RandomWriter,
    times grow with data size, and RPCoIB never loses."""
    result = fig6_mapreduce.run(
        scale=8, data_sizes_gb=[1, 2], cloudburst_scale=0.1
    )
    sort = result["sort_s"]
    randomwriter = result["randomwriter_s"]
    for engine in ("IPoIB", "RPCoIB"):
        sizes = sorted(sort[engine])
        assert sort[engine][sizes[-1]] > sort[engine][sizes[0]]
        assert sort[engine][sizes[-1]] > randomwriter[engine][sizes[-1]]
    largest = sorted(sort["IPoIB"])[-1]
    assert sort["RPCoIB"][largest] <= sort["IPoIB"][largest] * 1.02
    assert randomwriter["RPCoIB"][largest] <= randomwriter["IPoIB"][largest] * 1.02


def _cloudburst(ib: bool):
    stack = build_mapreduce_stack(
        8, rpc_ib=ib, seed=9, conf_overrides={"dfs.replication.min": 3}
    )
    holder = {}

    def driver(env):
        holder["result"] = yield run_cloudburst(stack.mapred, scale=0.1)

    stack.run(driver)
    return holder["result"]


@pytest.fixture(scope="module")
def cloudburst():
    """Fig. 6(b) on 1 master + 8 slaves, IPoIB and RPCoIB."""
    return {"IPoIB": _cloudburst(False), "RPCoIB": _cloudburst(True)}


def test_fig6b_cloudburst_phases(cloudburst):
    """The paper's task counts, and Alignment dominates."""
    result = cloudburst["IPoIB"]
    assert result.alignment.maps == ALIGNMENT_MAPS
    assert result.alignment.reduces == ALIGNMENT_REDUCES
    assert result.filtering.maps == FILTERING_MAPS
    assert result.filtering.reduces == FILTERING_REDUCES
    assert result.alignment_s > result.filtering_s


def test_fig6b_cloudburst_rpcoib_does_not_lose(cloudburst):
    assert cloudburst["RPCoIB"].total_s <= cloudburst["IPoIB"].total_s * 1.02


def test_fig7_hdfs_write_orderings():
    result = fig7_hdfs.run(
        datanodes=16, file_sizes_gb=[1, 2], seeds=[101, 202, 303, 404, 505]
    )
    series = result["write_s"]
    largest = sorted(series["HDFSoIB-RPCoIB"])[-1]
    # Data plane: 1GigE clearly slowest; the IPoIB-sockets vs HDFSoIB
    # gap is the data-plane CPU/wire saving minus commit-race noise
    # (~±3%), so compare with that tolerance.
    assert (
        series["HDFS(1GigE)-RPC(1GigE)"][largest]
        > series["HDFS(IPoIB)-RPC(IPoIB)"][largest]
    )
    assert (
        series["HDFSoIB-RPCoIB"][largest]
        <= series["HDFS(IPoIB)-RPC(IPoIB)"][largest] * 1.03
    )
    # RPC engine within the HDFSoIB rows: the engine deltas are
    # commit-race tail events, so allow seed noise of a few percent.
    assert (
        series["HDFSoIB-RPCoIB"][largest]
        <= series["HDFSoIB-RPC(IPoIB)"][largest] * 1.04
    )
    assert (
        series["HDFSoIB-RPCoIB"][largest]
        <= series["HDFSoIB-RPC(1GigE)"][largest] * 1.04
    )
    for label, line in series.items():
        sizes = sorted(line)
        assert line[sizes[-1]] > line[sizes[0]], label
