"""Async multiplexed sending: a connection's send queue, window and sender.

The call-at-a-time client (:mod:`repro.rpc.client`) opens one
connection per ``(address, protocol)`` and every caller drives its own
send on it.  That keeps the wire busy per caller but scales badly under
incast: a thousand callers mean a thousand serialized send operations,
and the server's single Reader pays full per-frame decode cost for each
tiny call.

This module is the ``ipc.client.async.*`` opt-in path, modeled on the
aggregation designs of Ibdxnet and RDMAbox (PAPERS.md) and the
32-in-flight sessions of SNIPPETS.md Snippet 2.  A connection opened
while ``ipc.client.async.enabled`` is on holds one :class:`Multiplexer`
(``conn.mux``); the connection class is the same one the call-at-a-time
path uses, so setup, encoding, pings, the keeper and the receive loop
are shared:

* **One connection per (address, transport)** — all callers and all
  protocols on a node share it, with its keeper process running exactly
  once (deadlines, keepalive pings, idle teardown — unchanged
  semantics, shared enforcement).
* **Caller-side serialization, single sender** — each caller encodes
  its own call (in parallel, on its own simulated thread) and enqueues
  the encoded payload; one sender process drains the queue under a
  bounded in-flight window (``ipc.client.async.max-inflight``,
  hot-reloadable) and frames *every* queued call into one batch wire
  frame, written through the engine's batch write — N small calls cost
  one wire operation.
* **Demultiplexing receive** — responses (plain or server-merged
  batches) are matched to callers by call id in the engine's receive
  loop; each call's time between enqueue and actual send is recorded as
  an ``rpc.mux.queue`` span so batching is visible in traces.
* **One wire format** — batch frames, their entries and the responses
  are written and read by :mod:`repro.rpc.frames`, the codec the
  call-at-a-time path uses too; this module only queues and flushes.
* **Failure semantics carry over to the whole window** — deadlines
  expire queued and in-flight calls alike, ``close()`` fails every
  outstanding caller exactly once, and a QP break migrates the entire
  unacknowledged window to the sockets path through the client's
  existing fallback machinery.  The connection calls
  :meth:`free_slot`, :meth:`purge_expired` and :meth:`drop_window` from
  its own settle, expiry and failure paths to keep the window
  consistent.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Set, Tuple

from repro.mem.cost import CostLedger
from repro.rpc.call import Call


class Multiplexer:
    """The send queue, in-flight window, flush policy and sender of one
    multiplexed connection (``conn``)."""

    #: Configuration keys the mux re-reads while running (mirrored into
    #: the SIM010 hot-reload registry — see repro/lint/rules.py).  The
    #: sender revalidates against the Configuration's mutation stamp
    #: before every batch, so a live retune takes effect immediately.
    RELOADABLE_KEYS = frozenset({"ipc.client.async.max-inflight"})

    def __init__(self, conn):
        self.conn = conn
        self.env = conn.env
        #: encoded calls awaiting a window slot:
        #: (call, payload, length, enqueued_at).
        self._send_queue: Deque[Tuple[Call, object, int, float]] = deque()
        #: ids sent but not yet answered/expired — the in-flight window.
        self._inflight_ids: Set[int] = set()
        self._sender = None
        self._sender_kick = None
        self._conf_stamp = -1
        self._window = 1
        # batching statistics (read by the incast experiment and tests).
        self.batches_sent = 0
        self.calls_batched = 0
        self.max_batch = 0
        self.max_inflight_seen = 0

    @property
    def window(self) -> int:
        """Current in-flight bound, revalidated per Configuration stamp."""
        conf = self.conn.client.conf
        if conf.version != self._conf_stamp:
            self._window = max(1, conf.get_int("ipc.client.async.max-inflight"))
            self._conf_stamp = conf.version
        return self._window

    def start_sender(self) -> None:
        self._sender = self.env.process(
            self._sender_loop(), name=f"rpc-mux-send:{self.conn.client.name}"
        )

    def enqueue(self, call: Call, payload, length: int) -> None:
        """Queue a serialized call (runs on the caller's process)."""
        self._send_queue.append((call, payload, length, self.env.now))
        self._wake_sender()

    # -- window bookkeeping (called by the connection) ----------------------
    def free_slot(self, call_id: int) -> None:
        """A response settled ``call_id``: free its window slot."""
        if call_id in self._inflight_ids:
            self._inflight_ids.discard(call_id)
            self._wake_sender()

    def purge_expired(self) -> None:
        """Deadlines apply to the whole window: drop expired ids so the
        window cannot leak shut, and purge dead queue entries."""
        calls = self.conn.calls
        self._inflight_ids.intersection_update(calls)
        if self._send_queue:
            self._send_queue = deque(
                entry for entry in self._send_queue if entry[0].id in calls
            )
        self._wake_sender()

    def drop_window(self) -> None:
        """The connection failed or handed its calls to the engine
        fallback: drop the window and release the sender so it exits
        instead of blocking on its kick event forever."""
        self._send_queue.clear()
        self._inflight_ids.clear()
        self._wake_sender()

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
        while not self.conn.closed:
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
                if entry[0].id not in self.conn.calls:
                    continue  # expired or failed while queued
                batch.append(entry)
            if not batch:
                continue
            for entry in batch:
                self._inflight_ids.add(entry[0].id)
            inflight = len(self._inflight_ids)
            if inflight > self.max_inflight_seen:
                self.max_inflight_seen = inflight
            ledger = CostLedger(self.conn.model)
            frame = self.conn._frame_batch(
                [(payload, length) for _, payload, length, _ in batch], ledger
            )
            yield self.env.timeout(ledger.drain())
            self.conn._absorb(ledger)
            try:
                yield from self.conn._write_batch(frame, self._stamp_batch(batch))
            except ConnectionError as exc:
                # A QP break has already handed the whole unacknowledged
                # window to the client's sockets fallback; any other
                # transport failure fails it.  Either way this sender is done.
                if not self.conn.closed:
                    self.conn._shutdown(exc)
                return
            self.batches_sent += 1
            self.calls_batched += len(batch)
            if len(batch) > self.max_batch:
                self.max_batch = len(batch)
            self.conn._note_activity()
            self.conn._wake_keeper()

    def _stamp_batch(self, batch) -> List[object]:
        """Close each call's queue-wait span; collect per-call trace refs
        (one list entry per sub-call, in frame order)."""
        conn = self.conn
        tracer = conn.client.fabric.tracer
        now = self.env.now
        size = len(batch)
        refs: List[object] = []
        for call, _, _, enqueued_at in batch:
            span = call.span
            ref = span.context if span is not None else None
            if ref is not None:
                tracer.complete(
                    "rpc.mux.queue", enqueued_at, now, parent=span,
                    node=conn.client.node.name, category="rpc.client",
                    batch_size=size, window=self._window,
                )
                ref.sent_at = now
            refs.append(ref)
        return refs
