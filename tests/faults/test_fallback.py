"""RDMA -> socket graceful degradation (Section III-D failure paths)."""

from repro.io.writables import Text
from repro.rpc.client import SocketConnection

from tests.faults.conftest import faulted_harness


def fallback_count(harness):
    counters = harness.fabric.metrics.find("rpc.ib.fallbacks")
    return sum(c.value for c in counters.values())


def test_bootstrap_failure_degrades_to_sockets_and_sticks():
    with faulted_harness(
        {"kind": "ib_bootstrap_failure", "at": 0, "rate": 1.0},
        ib=True,
    ) as h:
        def caller(env):
            first = yield h.proxy.echo(Text("one"))
            second = yield h.proxy.echo(Text("two"))
            return first, second

        first, second = h.run(caller)
        assert (first, second) == (Text("one"), Text("two"))
        address = h.server.address
        assert address in h.client._ib_fallback  # sticky for this address
        conn = next(iter(h.client._connections.values()))
        assert not hasattr(conn, "qp")  # a SocketConnection
        # One fallback event total: the second call reused the socket
        # engine instead of re-attempting bootstrap.
        assert fallback_count(h) == 1


def test_mid_stream_qp_break_reissues_the_call_over_sockets():
    with faulted_harness(
        {"kind": "qp_break", "at": 100_000, "node": "server"},
        ib=True,
    ) as h:
        h.service.delay_us = 500_000.0

        def caller(env):
            got = yield h.proxy.slow(Text("survives"))
            return got, env.now

        got, finished_at = h.run(caller)
        # The QP died while the handler was busy; the call migrated to
        # a fresh socket connection and was answered there.
        assert got == Text("survives")
        assert finished_at > 500_000.0
        assert fallback_count(h) >= 1
        assert h.server.address in h.client._ib_fallback
        conn = next(iter(h.client._connections.values()))
        assert not hasattr(conn, "qp")


def test_qp_break_before_any_call_falls_back_on_demand():
    with faulted_harness(
        {"kind": "qp_break", "at": 50_000, "node": "server"},
        ib=True,
    ) as h:
        def caller(env):
            first = yield h.proxy.echo(Text("pre"))  # rides the QP
            yield env.timeout(100_000)  # QP breaks while idle
            second = yield h.proxy.echo(Text("post"))  # re-issued path
            return first, second

        first, second = h.run(caller)
        assert (first, second) == (Text("pre"), Text("post"))
        assert fallback_count(h) >= 1


def test_qp_break_with_full_window_reissues_every_unacknowledged_call():
    """Multiplexed client, window full *and* calls still queued behind
    it: a mid-stream QP break must migrate every unacknowledged call —
    in-flight and queued alike — to the fallback socket path exactly
    once, and every caller still gets its answer."""
    with faulted_harness(
        {"kind": "qp_break", "at": 100_000, "node": "server"},
        ib=True,
    ) as h:
        h.conf.set("ipc.client.async.enabled", True)
        h.conf.set("ipc.client.async.max-inflight", 8)
        h.service.delay_us = 500_000.0
        results = []

        def caller(i):
            got = yield h.proxy.slow(Text(f"w{i}"))
            results.append((i, got))

        env = h.env
        # 12 callers against a window of 8: at break time 8 calls ride
        # the QP and 4 more sit in the mux send queue.
        procs = [env.process(caller(i), name=f"caller{i}") for i in range(12)]
        env.run(env.all_of(procs))

        assert sorted(results) == [(i, Text(f"w{i}")) for i in range(12)]
        assert fallback_count(h) >= 1
        assert h.server.address in h.client._ib_fallback
        # The fallback connection is a *multiplexed* socket connection,
        # and it carried exactly the 12 unacknowledged calls — each
        # re-issued once, none duplicated, none dropped.
        (conn,) = h.client._connections.values()
        assert type(conn) is SocketConnection and conn.mux is not None
        assert conn.mux.calls_batched == 12
        assert not conn.calls and not conn.mux._inflight_ids


def test_no_fallback_without_faults():
    with faulted_harness(ib=True) as h:
        def caller(env):
            return (yield h.proxy.echo(Text("clean")))

        assert h.run(caller) == Text("clean")
        assert fallback_count(h) == 0
        assert h.client._ib_fallback == set()
        conn = next(iter(h.client._connections.values()))
        assert conn.qp is not None  # still on the RDMA engine
