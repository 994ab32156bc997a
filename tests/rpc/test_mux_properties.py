"""Property-based tests for the multiplexed client (hypothesis).

The three mux invariants from the PR acceptance list:

* the in-flight count never exceeds ``ipc.client.async.max-inflight``,
  whatever the caller interleaving or window size;
* every accepted call settles exactly once — completed or raised —
  even under a mid-stream QP-break fault schedule;
* the batched wire frame is byte-identical to the concatenation of the
  per-call frames the call-at-a-time path would have sent (checked
  both on the pure helpers and against the real encoder's wire bytes);
* the response side's twin: a merged response batch is byte-identical
  to the singleton response frames concatenated, over both engines.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io.writables import BytesWritable, Text
from repro.rpc.call import Call
from repro.rpc.frames import BATCH_CALL_ID, batch_frame_chunks, call_frame_bytes
from repro.rpc.client import SocketConnection
from repro.rpc.mux import Multiplexer
from repro.rpc.server import Server

from tests.faults.conftest import faulted_harness
from tests.rpc.conftest import RpcHarness


def _mux_harness(ib: bool, window: int) -> RpcHarness:
    harness = RpcHarness(ib=ib)
    harness.conf.set("ipc.client.async.enabled", True)
    harness.conf.set("ipc.client.async.max-inflight", window)
    return harness


def _settle_counter():
    """Patch Call.complete/.error to count settle transitions per call;
    returns (counts dict, restore fn)."""
    counts = {}
    original_complete, original_error = Call.complete, Call.error

    # keyed by the Call object itself (not id(): addresses get reused
    # once a completed Call is garbage-collected mid-run)
    def counting_complete(self, value):
        if not self.done.triggered:
            counts[self] = counts.get(self, 0) + 1
        original_complete(self, value)

    def counting_error(self, exc):
        if not self.done.triggered:
            counts[self] = counts.get(self, 0) + 1
        original_error(self, exc)

    Call.complete, Call.error = counting_complete, counting_error

    def restore():
        Call.complete, Call.error = original_complete, original_error

    return counts, restore


@given(
    window=st.integers(min_value=1, max_value=16),
    delays=st.lists(
        st.integers(min_value=0, max_value=3_000), min_size=1, max_size=20
    ),
    ib=st.booleans(),
)
@settings(max_examples=15, deadline=None)
def test_inflight_bounded_and_every_call_settles_once(window, delays, ib):
    """Random interleavings x window sizes: the window bound holds and
    each accepted call settles exactly once."""
    harness = _mux_harness(ib, window)
    env = harness.env
    done = []
    counts, restore = _settle_counter()
    try:

        def caller(i, delay):
            yield env.timeout(float(delay))
            got = yield harness.proxy.echo(Text(f"p{i}"))
            yield env.timeout(float((i * 7) % 11))
            got = yield harness.proxy.echo(Text(f"q{i}"))
            done.append((i, got))

        procs = [
            env.process(caller(i, delay), name=f"caller{i}")
            for i, delay in enumerate(delays)
        ]
        env.run(env.all_of(procs))
    finally:
        restore()

    assert sorted(i for i, _ in done) == list(range(len(delays)))
    assert all(got == Text(f"q{i}") for i, got in done)
    (conn,) = harness.client._connections.values()
    mux = conn.mux
    assert isinstance(mux, Multiplexer)
    assert mux.max_inflight_seen <= window
    assert mux.calls_batched == 2 * len(delays)
    # exactly-once settlement, and nothing left registered or queued
    assert sorted(counts.values()) == [1] * (2 * len(delays))
    assert not conn.calls and not mux._inflight_ids and not mux._send_queue


@given(
    window=st.integers(min_value=1, max_value=12),
    ncallers=st.integers(min_value=1, max_value=16),
    break_at=st.integers(min_value=5_000, max_value=400_000),
    service_us=st.integers(min_value=1_000, max_value=300_000),
    ib=st.booleans(),
    async_on=st.booleans(),
    close_at=st.none() | st.integers(min_value=0, max_value=400_000),
)
@settings(max_examples=20, deadline=None)
def test_every_call_settles_once_under_qp_break_schedules(
    window, ncallers, break_at, service_us, ib, async_on, close_at
):
    """Random fault schedules: a QP break at any time — before, during,
    or after the window is in flight — and an optional ``close()`` of
    every client connection at any time leave no caller hanging and no
    call settled twice (the fallback path re-issues, ``close()`` fails
    what is outstanding, Call pre-defuses duplicates).  Both engines,
    multiplexed and call-at-a-time."""
    counts, restore = _settle_counter()
    try:
        with faulted_harness(
            {"kind": "qp_break", "at": break_at, "node": "server"},
            ib=ib,
        ) as harness:
            harness.conf.set("ipc.client.async.enabled", async_on)
            harness.conf.set("ipc.client.async.max-inflight", window)
            harness.service.delay_us = float(service_us)
            env = harness.env
            settled = []

            def caller(i):
                try:
                    got = yield harness.proxy.slow(Text(f"f{i}"))
                except Exception as exc:
                    settled.append((i, exc))
                else:
                    settled.append((i, got))

            procs = [
                env.process(caller(i), name=f"caller{i}")
                for i in range(ncallers)
            ]
            if close_at is not None:

                def closer():
                    yield env.timeout(float(close_at))
                    harness.client.close()

                env.process(closer(), name="closer")
            env.run(env.all_of(procs))
    finally:
        restore()

    # every caller got exactly one outcome; every Call object that was
    # ever settled was settled exactly once
    assert sorted(i for i, _ in settled) == list(range(ncallers))
    assert set(counts.values()) <= {1}


@given(
    payloads=st.lists(
        st.binary(min_size=0, max_size=2_048), min_size=1, max_size=64
    )
)
@settings(max_examples=50, deadline=None)
def test_batch_frame_is_concatenation_of_call_frames(payloads):
    wire = b"".join(bytes(c) for c in batch_frame_chunks(payloads))
    # 12-byte header: total length, BATCH_CALL_ID, count.
    total = int.from_bytes(wire[:4], "big", signed=True)
    assert total == len(wire) - 4
    assert int.from_bytes(wire[4:8], "big", signed=True) == BATCH_CALL_ID
    assert int.from_bytes(wire[8:12], "big", signed=True) == len(payloads)
    # body == the per-call frames, concatenated, in order
    assert wire[12:] == b"".join(call_frame_bytes(p) for p in payloads)


@given(nc=st.integers(min_value=2, max_value=12))
@settings(max_examples=8, deadline=None)
def test_real_encoder_matches_the_canonical_batch_bytes(nc):
    """The sender's actual DataOutputStream/VectorSink framing produces
    byte-identical output to the pure ``batch_frame_chunks`` helper fed
    the same encoded call payloads."""
    harness = _mux_harness(ib=False, window=max(2, nc))
    env = harness.env
    batch_payloads, batch_bytes = [], []
    original_frame_batch = SocketConnection._frame_batch
    original_write_batch = SocketConnection._write_batch

    def capturing_frame_batch(self, entries, ledger):
        batch_payloads.append([bytes(payload[:length]) for payload, length in entries])
        return original_frame_batch(self, entries, ledger)

    def capturing_write_batch(self, chunks, refs):
        sent_before = self.sock.bytes_sent
        yield from original_write_batch(self, chunks, refs)
        batch_bytes.append(self.sock.bytes_sent - sent_before)

    sends = []
    SocketConnection._frame_batch = capturing_frame_batch
    SocketConnection._write_batch = capturing_write_batch
    try:

        def caller(i):
            yield harness.proxy.echo(Text(f"e{i}"))

        procs = [
            env.process(caller(i), name=f"caller{i}") for i in range(nc)
        ]
        # capture the joined wire image of every batch frame
        from repro.net import sockets as simsockets

        original_send = simsockets.SimSocket.send

        def capturing_send(self, data, trace=None):
            # batch frames are the only sends carrying a list trace
            # (one ref slot per sub-call)
            if type(data) is list and type(trace) is list:
                sends.append(b"".join(bytes(c) for c in data))
            return original_send(self, data, trace=trace)

        simsockets.SimSocket.send = capturing_send
        try:
            env.run(env.all_of(procs))
        finally:
            simsockets.SimSocket.send = original_send
    finally:
        SocketConnection._frame_batch = original_frame_batch
        SocketConnection._write_batch = original_write_batch

    captured = list(zip(batch_payloads, batch_bytes))
    assert captured and len(captured) == len(batch_payloads)
    assert len(sends) >= len(captured)
    batch_sends = [w for w in sends if len(w) >= 8]
    for (payloads, nbytes), wire in zip(captured, batch_sends):
        expected = b"".join(bytes(c) for c in batch_frame_chunks(payloads))
        assert wire == expected
        assert nbytes == len(expected)


def _singleton_bytes(kind, payload) -> bytes:
    """The frame one queued response would have carried on its own."""
    if kind == "socket":
        return b"".join(bytes(chunk) for chunk in payload)  # [len][body]
    return bytes(payload.buffer.data[: payload.get_length()])  # self-delimiting


@pytest.mark.parametrize("ib", [False, True], ids=["sockets", "rpcoib"])
@given(sizes=st.lists(st.integers(min_value=0, max_value=512), min_size=24, max_size=40))
@settings(max_examples=8, deadline=None)
def test_merged_response_batch_is_concatenation_of_singleton_frames(ib, sizes):
    """The responder's merged write is byte-identical to the singleton
    response frames concatenated behind a batch header — checked against
    the independent reference encoder, over both engines."""
    harness = _mux_harness(ib=ib, window=8)
    env = harness.env
    captured = []
    original_respond_merged = Server._respond_merged

    def capturing_respond_merged(self, kind, conn, entries):
        singles = [_singleton_bytes(kind, entry[2]) for entry in entries]
        target, name = (conn.qp, "post_send") if kind == "ib" else (conn.sock, "send")
        original_send = getattr(target, name)
        sent = []

        def spy(data, *args, **kwargs):
            sent.append(data)
            return original_send(data, *args, **kwargs)

        setattr(target, name, spy)
        try:
            yield from original_respond_merged(self, kind, conn, entries)
        finally:
            delattr(target, name)
        captured.append((kind, singles, sent))

    Server._respond_merged = capturing_respond_merged
    try:

        def caller(i, size):
            got = yield harness.proxy.echo(BytesWritable(bytes([i % 251]) * size))
            assert bytes(got.value) == bytes([i % 251]) * size

        procs = [
            env.process(caller(i, size), name=f"caller{i}")
            for i, size in enumerate(sizes)
        ]
        env.run(env.all_of(procs))
    finally:
        Server._respond_merged = original_respond_merged

    assert captured  # the backlog merged at least once
    for kind, singles, sent in captured:
        (data,) = sent
        assert kind == ("ib" if ib else "socket")
        if kind == "socket":
            wire = b"".join(bytes(chunk) for chunk in data)
            bodies = [single[4:] for single in singles]
            assert singles == [call_frame_bytes(body) for body in bodies]
            assert wire == b"".join(bytes(c) for c in batch_frame_chunks(bodies))
        else:
            # A verbs message is self-delimiting: the same batch image
            # without the stream's 4-byte total-length prefix.
            reference = b"".join(bytes(c) for c in batch_frame_chunks(singles))
            assert bytes(data) == reference[4:]
