"""Unit tests for the fabric/node model."""

import pytest

from repro.calibration import IB_EAGER, IPOIB_QDR, ONE_GIGE, TEN_GIGE, CostModel
from repro.net import Fabric
from repro.simcore import Environment, Process


@pytest.fixture
def fabric():
    return Fabric(Environment())


def test_add_and_lookup_nodes(fabric):
    node = fabric.add_node("n0")
    assert fabric.node("n0") is node
    assert node.cores == fabric.model.compute.cores_per_node


def test_duplicate_node_rejected(fabric):
    fabric.add_node("n0")
    with pytest.raises(ValueError):
        fabric.add_node("n0")


def test_add_nodes_bulk(fabric):
    nodes = fabric.add_nodes("slave", 4)
    assert [n.name for n in nodes] == ["slave0", "slave1", "slave2", "slave3"]


def test_heap_created_per_daemon(fabric):
    node = fabric.add_node("n0")
    heap = node.heap("datanode")
    assert node.heap("datanode") is heap
    assert node.heap("tasktracker") is not heap


def test_transfer_time_latency_plus_serialization(fabric):
    env = fabric.env
    a, b = fabric.add_node("a"), fabric.add_node("b")
    nbytes = 1_000_000
    done = fabric.transfer(a, b, nbytes, IPOIB_QDR)
    env.run(done)
    expected = IPOIB_QDR.latency_us + nbytes / IPOIB_QDR.bandwidth
    assert env.now == pytest.approx(expected, rel=1e-6)


def test_transfer_negative_size_rejected(fabric):
    a, b = fabric.add_node("a"), fabric.add_node("b")
    with pytest.raises(ValueError):
        fabric.transfer(a, b, -1, IPOIB_QDR)


def test_loopback_bypasses_nic(fabric):
    env = fabric.env
    a = fabric.add_node("a")
    done = fabric.transfer(a, a, 10_000, ONE_GIGE)
    env.run(done)
    assert env.now < ONE_GIGE.latency_us  # far cheaper than the wire


def test_fabric_ordering_faster_networks_finish_sooner():
    results = {}
    for spec in (ONE_GIGE, TEN_GIGE, IPOIB_QDR, IB_EAGER):
        env = Environment()
        fabric = Fabric(env)
        a, b = fabric.add_node("a"), fabric.add_node("b")
        env.run(fabric.transfer(a, b, 64 * 1024, spec))
        results[spec.name] = env.now
    assert (
        results[IB_EAGER.name]
        < results[IPOIB_QDR.name]
        < results[TEN_GIGE.name]
        < results[ONE_GIGE.name]
    )


def test_tx_contention_serializes_senders(fabric):
    """Two large transfers from one node share its transmit engine."""
    env = fabric.env
    a, b, c = fabric.add_node("a"), fabric.add_node("b"), fabric.add_node("c")
    nbytes = 10_000_000
    d1 = fabric.transfer(a, b, nbytes, IPOIB_QDR)
    d2 = fabric.transfer(a, c, nbytes, IPOIB_QDR)
    env.run(d1 & d2)
    serialization = nbytes / IPOIB_QDR.bandwidth
    # Second transfer queued behind the first: ~2x one transfer's time.
    assert env.now == pytest.approx(
        2 * serialization + IPOIB_QDR.latency_us, rel=0.01
    )


def test_rx_incast_contention(fabric):
    """Many senders into one receiver queue on its receive engine."""
    env = fabric.env
    server = fabric.add_node("server")
    clients = fabric.add_nodes("c", 4)
    nbytes = 10_000_000
    done = env.all_of(
        [fabric.transfer(c, server, nbytes, IPOIB_QDR) for c in clients]
    )
    env.run(done)
    serialization = nbytes / IPOIB_QDR.bandwidth
    assert env.now >= 4 * serialization  # receive engine is the bottleneck


def test_distinct_node_pairs_transfer_in_parallel(fabric):
    env = fabric.env
    a, b = fabric.add_node("a"), fabric.add_node("b")
    c, d = fabric.add_node("c"), fabric.add_node("d")
    nbytes = 10_000_000
    done = env.all_of(
        [fabric.transfer(a, b, nbytes, IPOIB_QDR), fabric.transfer(c, d, nbytes, IPOIB_QDR)]
    )
    env.run(done)
    serialization = nbytes / IPOIB_QDR.bandwidth
    assert env.now == pytest.approx(serialization + IPOIB_QDR.latency_us, rel=0.01)


def test_uncontended_transfer_costs_two_events_and_no_process(fabric, monkeypatch):
    """Arrival plus completion: the NIC engines are closed-form, so a
    wire transfer spawns no process when no faults are armed."""
    env = fabric.env
    a, b = fabric.add_node("a"), fabric.add_node("b")
    spawned = []
    init = Process.__init__

    def counting_init(self, *args, **kwargs):
        spawned.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Process, "__init__", counting_init)
    eid = env._eid
    done = fabric.transfer(a, b, 4096, IB_EAGER)
    assert env.run(done) is True
    assert env._eid - eid == 2
    assert spawned == []
    assert env.now == IB_EAGER.latency_us + 4096 / IB_EAGER.bandwidth
