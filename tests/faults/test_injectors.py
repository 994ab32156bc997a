"""Each injector in isolation, on bare transports."""

import pytest

from repro.calibration import IPOIB_QDR
from repro.faults import FaultSession
from repro.faults import runtime as faults_runtime
from repro.net import sockets as simsockets
from repro.net.fabric import Fabric
from repro.net.sockets import ConnectionRefused, ListenerSocket, SocketAddress, SocketClosed
from repro.net.verbs import Endpoint, QPBreak, QPBrokenError, QueuePair
from repro.simcore import Environment

from tests.faults.conftest import plan_of


def make_fabric(*events, seed=None):
    env = Environment()
    with faults_runtime.session(plan_of(*events, seed=seed)):
        fabric = Fabric(env)
    return env, fabric


def test_faults_is_none_without_a_session():
    fabric = Fabric(Environment())
    assert fabric.faults is None


def test_session_install_is_exclusive():
    with faults_runtime.session(plan_of()):
        with pytest.raises(RuntimeError, match="already installed"):
            faults_runtime.install(FaultSession(plan_of()))


def test_suppressed_masks_and_restores():
    with faults_runtime.session(plan_of()) as sess:
        with faults_runtime.suppressed():
            assert faults_runtime.current() is None
            assert Fabric(Environment()).faults is None
        assert faults_runtime.current() is sess


def test_node_crash_unbinds_listeners_and_restart_restores():
    env, fabric = make_fabric(
        {"kind": "node_crash", "at": 1_000, "node": "b"},
        {"kind": "node_restart", "at": 2_000, "node": "b"},
    )
    a = fabric.add_node("a")
    b = fabric.add_node("b")
    ListenerSocket(fabric, b, 7000)
    address = SocketAddress("b", 7000)
    outcomes = {}

    def proc(env):
        yield env.timeout(1_500)  # mid-crash
        try:
            yield simsockets.connect(fabric, a, address, IPOIB_QDR)
        except ConnectionRefused:
            outcomes["during"] = "refused"
        yield env.timeout(1_000)  # after restart
        sock = yield simsockets.connect(fabric, a, address, IPOIB_QDR)
        outcomes["after"] = sock

    env.run(env.process(proc(env)))
    assert outcomes["during"] == "refused"
    assert outcomes["after"].remote.name == "b"
    assert fabric.faults.down == set()


def test_node_crash_resets_established_sockets():
    env, fabric = make_fabric({"kind": "node_crash", "at": 1_000, "node": "b"})
    a = fabric.add_node("a")
    b = fabric.add_node("b")
    listener = ListenerSocket(fabric, b, 7000)
    address = SocketAddress("b", 7000)
    outcomes = {}

    def proc(env):
        sock = yield simsockets.connect(fabric, a, address, IPOIB_QDR)
        yield env.timeout(2_000)  # ride over the crash
        try:
            yield sock.send(b"x")
            outcomes["send"] = "ok"
        except SocketClosed:
            outcomes["send"] = "closed"

    env.run(env.process(proc(env)))
    assert outcomes["send"] == "closed"
    assert listener.address not in [
        SocketAddress(*k) for k in fabric.listeners
    ]


def test_partition_parks_transfers_until_heal():
    env, fabric = make_fabric(
        {"kind": "partition", "at": 1_000, "until": 50_000,
         "between": [["a"], ["b"]]},
    )
    a = fabric.add_node("a")
    b = fabric.add_node("b")
    done = {}

    def proc(env):
        yield env.timeout(1_500)  # inside the partition window
        delivered = yield fabric.transfer(a, b, 1024, IPOIB_QDR)
        done["at"] = env.now
        done["delivered"] = delivered

    env.run(env.process(proc(env)))
    assert done["delivered"] is True
    assert done["at"] >= 50_000  # parked until the heal, then flowed


def test_blocked_covers_partition_and_crash():
    env, fabric = make_fabric(
        {"kind": "partition", "at": 0, "between": [["a"], ["b"]]},
        {"kind": "node_crash", "at": 0, "node": "c"},
    )
    for name in ("a", "b", "c", "d"):
        fabric.add_node(name)
    env.run(until=1.0)
    faults = fabric.faults
    assert faults.blocked("a", "b")
    assert faults.blocked("b", "a")
    assert not faults.blocked("a", "d")
    assert faults.blocked("c", "d")


def test_packet_loss_charges_rto_and_is_deterministic():
    def run_once():
        env, fabric = make_fabric(
            {"kind": "packet_loss", "at": 0, "rate": 0.5, "rto_us": 10_000},
            seed=7,
        )
        a = fabric.add_node("a")
        b = fabric.add_node("b")
        ListenerSocket(fabric, b, 7000)
        address = SocketAddress("b", 7000)

        def proc(env):
            sock = yield simsockets.connect(fabric, a, address, IPOIB_QDR)
            for _ in range(20):
                yield sock.send(b"y" * 256)
            yield env.timeout(100_000)  # let the tx loop drain

        env.run(env.process(proc(env)))
        losses = [entry for entry in fabric.faults.log if entry[1] == "packet_loss"]
        return env.now, len(losses)

    first, second = run_once(), run_once()
    assert first == second  # same seed -> identical loss schedule
    assert 0 < first[1] < 20  # rate 0.5: some lost, some not


def test_corruption_resets_both_ends():
    env, fabric = make_fabric({"kind": "corruption", "at": 0, "rate": 1.0})
    a = fabric.add_node("a")
    b = fabric.add_node("b")
    listener = ListenerSocket(fabric, b, 7000)
    address = SocketAddress("b", 7000)
    outcomes = {}

    def proc(env):
        connected = simsockets.connect(fabric, a, address, IPOIB_QDR)
        accepted = listener.accept()
        sock = yield connected
        server_sock = yield accepted
        yield sock.send(b"z" * 64)
        try:
            yield server_sock.recv(64)
            outcomes["recv"] = "ok"
        except SocketClosed:
            outcomes["recv"] = "closed"
        outcomes["client_closed"] = sock.closed

    env.run(env.process(proc(env)))
    assert outcomes["recv"] == "closed"
    assert outcomes["client_closed"] is True


def test_slow_nic_scales_transfer_time():
    def transfer_time(*events):
        env, fabric = make_fabric(*events)
        a = fabric.add_node("a")
        b = fabric.add_node("b")
        done = {}

        def proc(env):
            yield env.timeout(10.0)  # let any at=0 event arm first
            start = env.now
            yield fabric.transfer(a, b, 1 << 20, IPOIB_QDR)
            done["us"] = env.now - start

        env.run(env.process(proc(env)))
        return done["us"]

    baseline = transfer_time()
    slowed = transfer_time(
        {"kind": "slow_nic", "at": 0, "node": "b", "factor": 4.0}
    )
    assert slowed > 2.0 * baseline  # serialization dominates at 1 MB


def test_destination_crash_mid_flight_loses_the_transfer():
    env, fabric = make_fabric({"kind": "node_crash", "at": 100, "node": "b"})
    a = fabric.add_node("a")
    b = fabric.add_node("b")
    done = {}

    def proc(env):
        # ~700 us of serialization: the crash lands while bytes fly.
        done["delivered"] = yield fabric.transfer(a, b, 1 << 20, IPOIB_QDR)
        done["at"] = env.now

    env.run(env.process(proc(env)))
    assert done["delivered"] is False
    assert done["at"] == IPOIB_QDR.latency_us + (1 << 20) / IPOIB_QDR.bandwidth


def test_slow_nic_armed_during_a_partition_park_applies_at_departure():
    env, fabric = make_fabric(
        {"kind": "partition", "at": 1_000, "until": 50_000,
         "between": [["a"], ["b"]]},
        {"kind": "slow_nic", "at": 20_000, "node": "b", "factor": 4.0},
    )
    a = fabric.add_node("a")
    b = fabric.add_node("b")
    done = {}

    def proc(env):
        yield env.timeout(1_500)  # parked before the NIC slows down
        done["delivered"] = yield fabric.transfer(a, b, 1 << 20, IPOIB_QDR)
        done["at"] = env.now

    env.run(env.process(proc(env)))
    assert done["delivered"] is True
    assert done["at"] == 50_000 + IPOIB_QDR.latency_us + 4.0 * (
        (1 << 20) / IPOIB_QDR.bandwidth
    )


def test_slow_disk_factor_lookup_and_window_end():
    env, fabric = make_fabric(
        {"kind": "slow_disk", "at": 0, "until": 1_000, "node": "dn1",
         "factor": 4.0},
    )
    probes = {}

    def proc(env):
        yield env.timeout(500)
        probes["during"] = fabric.faults.disk_factor("dn1")
        probes["other"] = fabric.faults.disk_factor("dn2")
        yield env.timeout(1_000)
        probes["after"] = fabric.faults.disk_factor("dn1")

    env.run(env.process(proc(env)))
    assert probes == {"during": 4.0, "other": 1.0, "after": 1.0}


def test_qp_break_poisons_receivers_and_send_raises():
    env, fabric = make_fabric({"kind": "qp_break", "at": 1_000, "node": "b"})
    a = fabric.add_node("a")
    b = fabric.add_node("b")
    qa, qb = QueuePair.pair(
        Endpoint(fabric, a), Endpoint(fabric, b)
    )
    outcomes = {}

    def receiver(env):
        message = yield qb.recv()
        outcomes["poison"] = isinstance(message, QPBreak)

    def prodder(env):
        yield env.timeout(2_000)
        try:
            yield qa.post_send(b"x" * 16)
            outcomes["send"] = "ok"
        except QPBrokenError:
            outcomes["send"] = "broken"

    env.process(receiver(env))
    env.run(env.process(prodder(env)))
    assert outcomes == {"poison": True, "send": "broken"}


def test_injection_log_and_metrics_count():
    env, fabric = make_fabric(
        {"kind": "node_crash", "at": 10, "node": "a"},
        {"kind": "node_restart", "at": 20, "node": "a"},
    )
    fabric.add_node("a")
    env.run(until=100.0)
    assert [(kind) for _, kind, _ in fabric.faults.log] == [
        "node_crash", "node_restart"
    ]
    assert fabric.faults.injected == 2
    counts = {
        key: counter.value
        for key, counter in fabric.metrics.find("faults.injected").items()
    }
    assert sum(counts.values()) == 2
