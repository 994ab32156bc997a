"""Async multiplexed RPC client: shared connections + adaptive batching.

The call-at-a-time client (:mod:`repro.rpc.client`) opens one
connection per ``(address, protocol)`` and every caller drives its own
send on it.  That keeps the wire busy per caller but scales badly under
incast: a thousand callers mean a thousand serialized send operations,
and the server's single Reader pays full per-frame decode cost for each
tiny call.

This module is the ``ipc.client.async.*`` opt-in path, modeled on the
aggregation designs of Ibdxnet and RDMAbox (PAPERS.md) and the
32-in-flight sessions of SNIPPETS.md Snippet 2:

* **One connection per (address, transport)** — all callers and all
  protocols on a node share a single :class:`ConnectionMux`-flavoured
  connection, with the inherited keeper process running exactly once
  per mux (deadlines, keepalive pings, idle teardown — unchanged
  semantics, shared enforcement).
* **Caller-side serialization, single sender** — each caller encodes
  its own call (in parallel, on its own simulated thread) and enqueues
  the encoded payload; one sender process drains the queue under a
  bounded in-flight window (``ipc.client.async.max-inflight``,
  hot-reloadable) and frames *every* queued call into one
  batch wire frame, flushed once through the existing
  vectored-write path — N small calls cost one wire operation.
* **Demultiplexing receive** — responses (plain or server-merged
  batches) are matched to callers by call id; each call's time between
  enqueue and actual send is recorded as an ``rpc.mux.queue`` span so
  batching is visible in traces.  The RPCoIB mux reuses the engine's
  own receive loop; the socket mux keeps a bulk-read loop (its syscall
  schedule differs) but decodes and settles through the same code.
* **One wire format** — batch frames, their entries and the responses
  are written and read by :mod:`repro.rpc.frames`, the codec the
  call-at-a-time path uses too; this module only queues and flushes.
* **Failure semantics carry over to the whole window** — deadlines
  expire queued and in-flight calls alike, ``close()`` fails every
  outstanding caller exactly once, and a QP break migrates the entire
  unacknowledged window to the sockets path through the client's
  existing fallback machinery.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Set, Tuple

from repro.io.data_input import DataInputBuffer
from repro.io.data_output import DataOutputBuffer
from repro.mem.cost import CostLedger
from repro.net.sockets import SocketClosed
from repro.net.verbs import QPBrokenError
from repro.rpc import frames
from repro.rpc.call import Call
from repro.rpc.client import (
    IBConnection,
    MUX_CONNECTION_KEY,
    SocketConnection,
)

#: initial capacity of the IB sender's aggregation buffer — warm enough
#: that a typical window of small calls gathers without growth charges.
_IB_AGGREGATION_INITIAL = 4096


class ConnectionMux:
    """Mixin adding the send queue, window, and sender to a connection.

    Mixed in *before* the engine class (``MuxSocketConnection(
    ConnectionMux, SocketConnection)``) so its overrides win: the
    engine class keeps transport setup, pings, and bookkeeping, while
    enqueueing, batching, and window accounting live here.
    """

    #: Configuration keys the mux re-reads while running (mirrored into
    #: the SIM010 hot-reload registry — see repro/lint/rules.py).  The
    #: sender revalidates against the Configuration's mutation stamp
    #: before every batch, so a live retune takes effect immediately.
    RELOADABLE_KEYS = frozenset({"ipc.client.async.max-inflight"})

    def __init__(self, client, address, protocol):
        super().__init__(client, address, protocol)
        self.conn_key = (address, MUX_CONNECTION_KEY)
        #: encoded calls awaiting a window slot:
        #: (call, payload, length, enqueued_at).
        self._send_queue: Deque[Tuple[Call, object, int, float]] = deque()
        #: ids sent but not yet answered/expired — the in-flight window.
        self._inflight_ids: Set[int] = set()
        self._sender = None
        self._sender_kick = None
        self._mux_conf_stamp = -1
        self._mux_window = 1
        # batching statistics (read by the incast experiment and tests).
        self.batches_sent = 0
        self.calls_batched = 0
        self.max_batch = 0
        self.max_inflight_seen = 0

    def setup(self):
        yield from super().setup()
        self._sender = self.env.process(
            self._sender_loop(), name=f"rpc-mux-send:{self.client.name}"
        )

    @property
    def window(self) -> int:
        """Current in-flight bound, revalidated per Configuration stamp."""
        conf = self.client.conf
        if conf.version != self._mux_conf_stamp:
            self._mux_window = max(
                1, conf.get_int("ipc.client.async.max-inflight")
            )
            self._mux_conf_stamp = conf.version
        return self._mux_window

    # -- enqueue (runs on each caller's process) --------------------------
    def send_call(self, call: Call):
        """Serialize in the caller's thread, enqueue, wake the sender.

        Completes as soon as the call is queued: the caller's ``yield
        call.done`` covers the queue wait, and the ``rpc.mux.queue``
        span records it when the sender actually flushes the call.
        """
        if self.closed:
            raise SocketClosed(f"{self.client.name}: mux connection closed")
        sspan, ledger, encoded, serialization_us = self._serialize(
            call, call.span
        )
        yield self.env.timeout(ledger.drain())
        self._absorb(ledger)
        self._end_serialize(sspan, encoded)
        payload, length, adjustments, _ = encoded
        self._send_queue.append((call, payload, length, self.env.now))
        self._wake_sender()
        self._note_activity()
        self._wake_keeper()
        return {
            "adjustments": adjustments,
            "serialization_us": serialization_us,
            # the wire flush belongs to the shared sender; the enqueue
            # itself costs the caller nothing beyond serialization.
            "send_us": 0.0,
            "message_bytes": length,
        }

    # -- sender -----------------------------------------------------------
    def _wake_sender(self) -> None:
        if self._sender_kick is not None and not self._sender_kick.triggered:
            self._sender_kick.succeed()

    def _sender_loop(self):
        """Drain the queue under the window; one wire op per batch.

        Flush policy — *whole queue or full window*: flush when every
        queued call fits in the current budget, or when the window has
        drained completely.  Under light load the queue is shorter than
        the spare window, so calls go out the moment they are enqueued
        (no added latency).  Under incast the queue outgrows the window
        and the sender waits for the in-flight batch to resolve, then
        flushes a full window — keeping frames big even though the
        bottleneck (the server's serial Reader) releases window slots a
        trickle at a time.  Without the wait, batch size collapses to
        that trickle and the per-frame overheads come back; partial
        refills (e.g. at half the window) measure worse than waiting —
        they halve the merge size downstream while the interleaved
        frames of the *other* multiplexed clients already cover the
        turnaround gap.
        """
        while not self.closed:
            window = self.window
            budget = window - len(self._inflight_ids)
            pending = len(self._send_queue)
            if pending == 0 or (pending > budget and budget < window):
                self._sender_kick = self.env.event()
                yield self._sender_kick
                self._sender_kick = None
                continue
            batch = []
            while self._send_queue and len(batch) < budget:
                entry = self._send_queue.popleft()
                if entry[0].id not in self.calls:
                    continue  # expired or failed while queued
                batch.append(entry)
            if not batch:
                continue
            for entry in batch:
                self._inflight_ids.add(entry[0].id)
            inflight = len(self._inflight_ids)
            if inflight > self.max_inflight_seen:
                self.max_inflight_seen = inflight
            try:
                yield from self._send_batch(batch)
            except QPBrokenError:
                # _engine_failed already ran: the client's fallback
                # machinery re-issues the whole unacknowledged window
                # over sockets.  This engine — and its sender — is done.
                return
            except ConnectionError as exc:
                if not self.closed:
                    self._transport_failed(exc)
                return
            self.batches_sent += 1
            self.calls_batched += len(batch)
            if len(batch) > self.max_batch:
                self.max_batch = len(batch)
            self._note_activity()
            self._wake_keeper()

    def _stamp_batch(self, batch, tracer) -> List[object]:
        """Close each call's queue-wait span; collect per-call trace refs
        (one list entry per sub-call, in frame order)."""
        now = self.env.now
        size = len(batch)
        refs: List[object] = []
        for call, _, _, enqueued_at in batch:
            span = call.span
            ref = span.context if span is not None else None
            if ref is not None:
                tracer.complete(
                    "rpc.mux.queue", enqueued_at, now, parent=span,
                    node=self.client.node.name, category="rpc.client",
                    batch_size=size, window=self._mux_window,
                )
                ref.sent_at = now
            refs.append(ref)
        return refs

    # -- window bookkeeping ------------------------------------------------
    def _complete(self, call_id, status, value, error_cls="", error_msg=""):
        super()._complete(call_id, status, value, error_cls, error_msg)
        if call_id in self._inflight_ids:
            self._inflight_ids.discard(call_id)
            self._wake_sender()

    def _expire_calls(self, now: float) -> None:
        super()._expire_calls(now)
        # Deadlines apply to the whole window: drop expired ids so the
        # window cannot leak shut, and purge dead queue entries.
        self._inflight_ids.intersection_update(self.calls)
        if self._send_queue:
            self._send_queue = deque(
                entry for entry in self._send_queue
                if entry[0].id in self.calls
            )
        self._wake_sender()

    def _fail_all(self, exc: Exception) -> None:
        super()._fail_all(exc)
        self._send_queue.clear()
        self._inflight_ids.clear()
        self._wake_sender()

    def close(self) -> None:
        super().close()
        # Fail the whole window — queued and in-flight alike — exactly
        # once, so no caller is left stranded on a dead mux.  (Call.error
        # pre-defuses, and _fail_all clears the table, so a later
        # receive-loop teardown is a no-op.)
        self._fail_all(SocketClosed(f"{self.client.name}: mux closed"))

    def _settle(self, responses, receive_start: float, **tags) -> None:
        # One connection-thread wakeup settles the whole frame: the
        # window slots of a merged batch free *together*, so the sender
        # immediately refills them with an equally big batch (this is
        # what keeps adaptive batching self-sustaining).
        super()._settle(responses, receive_start, **tags, batched=len(responses))


class MuxSocketConnection(ConnectionMux, SocketConnection):
    """Sockets-engine mux: batched frames through the vectored path."""

    def _send_batch(self, batch):
        """Frame every queued call into one flush (get_view framing)."""
        ledger = CostLedger(self.model)
        chunks = frames.stream_batch(
            ledger, [(payload, length) for _, payload, length, _ in batch]
        )
        yield self.env.timeout(ledger.drain())
        self._absorb(ledger)
        refs = self._stamp_batch(batch, self.client.fabric.tracer)
        yield self.sock.send(chunks, trace=refs)

    def _receive_loop(self):
        """Demux loop: bulk reads, then complete callers by call id.

        Unlike the call-at-a-time loop (two blocking ``recv`` syscalls
        per response), this drains everything the kernel already
        buffered in one read — a server-merged response batch costs one
        wakeup — and then settles each framed response in order.
        """
        sw = self.model.software
        pending = bytearray()
        while not self.closed:
            if len(pending) >= 4:
                frame_len = int.from_bytes(pending[:4], "big")
                need = 4 + frame_len - len(pending)
            else:
                need = 4 - len(pending)
            if need > 0:
                # One bulk read: everything already delivered, or block
                # for exactly what the next frame still needs.
                available = self.sock.available
                try:
                    chunk = yield self.sock.recv(max(need, available))
                except SocketClosed:
                    break
                pending += chunk
                continue
            receive_start = self.env.now
            frame_len = int.from_bytes(pending[:4], "big")
            ledger = CostLedger(self.model)
            ledger.charge_heap_alloc(4)
            ledger.charge_heap_alloc(frame_len)
            ledger.charge_copy(frame_len)
            payload = bytes(memoryview(pending)[4 : 4 + frame_len])
            del pending[: 4 + frame_len]
            responses = frames.read_responses(DataInputBuffer(payload, ledger))
            yield self.env.timeout(ledger.drain() + sw.thread_handoff_us)
            self._absorb(ledger)
            self._settle(responses, receive_start, response_bytes=frame_len)
        self.closed = True
        self.client._forget(self)
        self._fail_all(SocketClosed("connection closed"))
        self._wake_keeper()


class MuxIBConnection(ConnectionMux, IBConnection):
    """RPCoIB mux: gather queued calls into one verbs post."""

    def _engine_failed(self, reason: str) -> None:
        super()._engine_failed(reason)
        # The fallback proc owns every registered call now (including
        # the ones still queued here — they were registered at enqueue);
        # drop the dead engine's queue and release the sender so it
        # exits instead of blocking on its kick event forever.
        self._send_queue.clear()
        self._inflight_ids.clear()
        self._wake_sender()

    def _encode_call(self, call: Call, ledger: CostLedger):
        """The engine's pooled-buffer encode, then a handoff snapshot so
        the pooled buffer recycles immediately; the gather copy into the
        aggregated post is charged at the sender."""
        out, length, adjustments, annotations = super()._encode_call(call, ledger)
        buffer, length = out.detach()
        with memoryview(buffer.data) as view:
            payload = bytes(view[:length])
        out.release()
        return payload, length, adjustments, annotations

    def _send_batch(self, batch):
        """Aggregate the window into one post (Ibdxnet-style ORB)."""
        ledger = CostLedger(self.model)
        buf = DataOutputBuffer(ledger, initial_size=_IB_AGGREGATION_INITIAL)
        # buf.write is the aggregation copy, charged here.
        frames.write_batch(
            buf, [(payload, length) for _, payload, length, _ in batch], buf.write
        )
        yield self.env.timeout(ledger.drain())
        self._absorb(ledger)
        refs = self._stamp_batch(batch, self.client.fabric.tracer)
        try:
            yield self.qp.post_send(
                buf.get_view(), buf.get_length(),
                rdma_threshold=self.rdma_threshold, trace=refs,
            )
        except QPBrokenError:
            self._engine_failed("qp_break")
            raise
