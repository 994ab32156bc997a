"""Hadoop RPC server: Listener, Reader, Handler pool, Responder.

Mirrors the thread structure the paper describes (Section III-D):
``Listener`` accepts connections; ``Reader`` (the 1.0.3-style thread the
paper adopts) decodes incoming calls and feeds the shared call queue;
``Handler`` threads invoke the target method; ``Responder`` writes
responses back.  The socket path executes Listing 2 verbatim — per-call
heap ByteBuffer allocation, native->heap copy — while the RPCoIB path
deserializes straight from registered buffers delivered through one
shared completion queue.

The wire format is owned by :mod:`repro.rpc.frames`.  Both Readers
decode through it and feed one admission path (``Server._admit``) for
single and batch frames alike; only the engine's framing costs stay
with each Reader (heap allocation and copy on sockets, completion poll
and event scan on verbs).  Responses are written once, by the same
codec, for both engines.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Type, Union

from repro.calibration import CostModel, NetworkSpec
from repro.config import Configuration
from repro.io.data_input import DataInputBuffer
from repro.io.data_output import DataOutputBuffer
from repro.io.rdma_streams import RDMAInputStream, RDMAOutputStream
from repro.io.writable import Writable
from repro.io.writables import NullWritable
from repro.mem.cost import CostLedger
from repro.mem.native_pool import build_pool
from repro.mem.shadow_pool import HistoryShadowPool
from repro.net.fabric import Fabric, Node
from repro.net.sockets import ListenerSocket, SimSocket, SocketAddress, SocketClosed
from repro.net.verbs import (
    AdaptiveTransport,
    Endpoint,
    QPBreak,
    QPBrokenError,
    QueuePair,
)
from repro.rpc import frames
from repro.rpc.call import ConnectionHeader, Invocation, RpcStatus
from repro.rpc.frames import PING_CALL_ID
from repro.rpc.callqueue import CallQueue, build_call_queue
from repro.rpc.metrics import ReceiveProfile, RpcMetrics
from repro.rpc.protocol import RpcProtocol
from repro.simcore import Store
from repro.simcore import sanitizer as _sanitizer
from repro.simcore.process import Interrupt

#: Exceptions that mean the *simulator* (or its sanitizer) failed, not
#: the simulated handler — these must crash the run, never be
#: serialized back to the client as a RemoteException.
ENGINE_EXCEPTIONS = (Interrupt, AssertionError)  # SanitizerError is an AssertionError


class SocketServerConnection:
    """Server-side state of one accepted socket connection."""

    _ids = itertools.count(1)

    def __init__(self, sock: SimSocket):
        self.id = next(self._ids)
        self.sock = sock
        self.protocol_name: Optional[str] = None
        self.scheduled = False  # queued in the readable list
        #: the peer sent a batch frame (a multiplexed client):
        #: the responder may merge responses to this connection.
        self.batch_aware = False


class IBServerConnection:
    """Server-side state of one established RPCoIB connection."""

    _ids = itertools.count(1)

    def __init__(self, qp: QueuePair, protocol_name: str):
        self.id = next(self._ids)
        self.qp = qp
        self.protocol_name = protocol_name
        #: the peer sent a batch post (a multiplexed client):
        #: the responder may merge responses to this connection.
        self.batch_aware = False


@dataclass(slots=True)
class ServerCall:
    """One decoded call waiting in the call queue."""

    conn: Union[SocketServerConnection, IBServerConnection]
    call_id: int
    invocation: Invocation
    received_at: float
    #: propagated client trace identity (repro.obs), None untraced.
    trace: object = None
    #: caller identity + priority level, assigned by the FairCallQueue's
    #: scheduler at admission (FIFO leaves the defaults untouched).
    caller: str = ""
    priority: int = 0


class Server:
    """An RPC server bound to (node, port), serving one instance.

    ``instance`` implements the union of the methods of ``protocols``
    (a NameNode serves ClientProtocol and DatanodeProtocol on one
    port).  With ``rpc.ib.enabled`` the server also accepts RPCoIB
    connections bootstrapped through the same socket address.
    """

    def __init__(
        self,
        fabric: Fabric,
        node: Node,
        port: int,
        instance: object,
        protocols: Union[Type[RpcProtocol], List[Type[RpcProtocol]]],
        spec: NetworkSpec,
        conf: Optional[Configuration] = None,
        metrics: Optional[RpcMetrics] = None,
        name: str = "",
    ):
        self.fabric = fabric
        self.env = fabric.env
        self.node = node
        self.port = port
        self.instance = instance
        self.protocols = protocols if isinstance(protocols, list) else [protocols]
        self.spec = spec
        self.model: CostModel = fabric.model
        self.conf = conf or Configuration()
        self.metrics = metrics or RpcMetrics()
        self.name = name or f"rpc-server@{node.name}:{port}"
        self.running = True

        handler_count = self.conf.get_int("ipc.server.handler.count")
        queue_size = self.conf.get_int("ipc.server.callqueue.size") * handler_count
        self.response_queue: Store = Store(self.env)
        self.readable: Store = Store(self.env)

        self.listener_socket = ListenerSocket(fabric, node, port)
        self.calls_handled = 0
        self.calls_errored = 0
        #: responses the Responder coalesced into another connection's
        #: batch frame instead of writing individually (incast metric).
        self.responses_merged = 0

        # Observability: spans come from the fabric tracer; queue and
        # throughput instruments live in the fabric-wide registry under
        # this server's name.
        self.tracer = fabric.tracer
        reg = fabric.metrics
        engine_label = "ib" if self.conf.get_bool("rpc.ib.enabled") else "socket"
        self.queue_depth = reg.gauge(
            "rpc.server.handler_queue_depth", server=self.name, fabric=engine_label
        )
        self.handlers_busy = reg.gauge(
            "rpc.server.handlers_busy", server=self.name, fabric=engine_label
        )
        self.handled_counter = reg.counter(
            "rpc.server.calls_handled", server=self.name, fabric=engine_label
        )
        self.errored_counter = reg.counter(
            "rpc.server.calls_errored", server=self.name, fabric=engine_label
        )
        self.queue_wait_tally = reg.tally(
            "rpc.server.queue_wait_us", server=self.name, fabric=engine_label
        )
        self.ping_counter = reg.counter(
            "rpc.server.pings_received", server=self.name, fabric=engine_label
        )
        self.overload_counter = reg.counter(
            "rpc.server.calls_rejected_overload", server=self.name,
            fabric=engine_label,
        )

        # Pluggable call queue (ipc.callqueue.impl): the default FIFO
        # wraps one Store exactly as before — no extra instruments, no
        # processes — so the default event schedule is unchanged; the
        # FairCallQueue brings a DecayRpcScheduler and per-priority
        # gauges with it.
        self.call_queue: CallQueue = build_call_queue(
            self.env, self.conf, queue_size,
            registry=reg, server_name=self.name, fabric_label=engine_label,
        )
        # Happens-before race tracking (SIM009 cross-check): opt the
        # queue's order-sensitive shared state in when a sanitizer with
        # --track-races is armed.  These are exactly the attributes the
        # static rule baselines for this subsystem — the tracker decides
        # which of those findings are *confirmed* at runtime.  No-op
        # (identical objects, identical schedule) otherwise.
        session = _sanitizer.current()
        if session is not None:
            mux = getattr(self.call_queue, "mux", None)
            if mux is not None:
                session.track(
                    mux, ("_credit", "_index"), label=f"{self.name}:wrr-mux"
                )
            scheduler = getattr(self.call_queue, "scheduler", None)
            if scheduler is not None:
                session.track(
                    scheduler, ("total",), label=f"{self.name}:decay-scheduler"
                )

        # QoS hot reload: writes to the live Configuration (e.g. via a
        # scheduled ConfigWatcher) re-tune the fair queue's WRR weights
        # and the decay scheduler's threshold ladder mid-run.  The
        # subscription itself schedules nothing and registers no
        # instruments, so the default path stays bit-identical; the
        # reconfiguration counter appears lazily on first reload.
        self._engine_label = engine_label
        self._qos_reconfig_counter = None
        self._qos_listener = self.conf.subscribe(self._on_conf_change)

        # RPCoIB state (live regardless of the flag so that mixed
        # clusters — e.g. RPC(IPoIB) clients against an IB-capable
        # server — still work; the flag gates *client* behaviour).
        self.cq: Store = Store(self.env)  # shared completion queue
        self.ib_connections: List[IBServerConnection] = []
        self._pool: Optional[HistoryShadowPool] = None
        self._adaptive: Optional[AdaptiveTransport] = None
        self.listener_socket.ib_service = self  # discoverable at bootstrap

        # Per-call hot-path caches: the server-daemon heap (dict lookup
        # per frame otherwise), handler methods resolved by name, and
        # the response-buffer initial size revalidated against the
        # Configuration's mutation stamp.
        self._heap = node.heap("rpc-server")
        self._method_cache: Dict[str, object] = {}
        self._conf_stamp = -1
        self._resp_buf_initial = 0

        self._listener = self.env.process(self._listener_loop(), name=f"{self.name}:listener")
        self._readers = [
            self.env.process(self._reader_loop(i), name=f"{self.name}:reader{i}")
            for i in range(self.conf.get_int("ipc.server.reader.count"))
        ]
        self._ib_reader = self.env.process(
            self._ib_reader_loop(), name=f"{self.name}:ib-reader"
        )
        self._handlers = [
            self.env.process(self._handler_loop(i), name=f"{self.name}:handler{i}")
            for i in range(handler_count)
        ]
        self._responder = self.env.process(
            self._responder_loop(), name=f"{self.name}:responder"
        )

    @property
    def address(self) -> SocketAddress:
        return SocketAddress(self.node.name, self.port)

    @property
    def pool(self) -> HistoryShadowPool:
        """Server-side RPCoIB buffer pool (lazy, like the JNI library)."""
        if self._pool is None:
            self._pool = HistoryShadowPool(build_pool(self.model, self.conf))
        return self._pool

    @property
    def adaptive(self) -> AdaptiveTransport:
        """Response-path transport policy, sharing the pool predictor."""
        if self._adaptive is None:
            self._adaptive = AdaptiveTransport(
                self.conf,
                self.pool.predictor,
                registry=self.fabric.metrics,
                node=self.node.name,
            )
        return self._adaptive

    def stop(self) -> None:
        self.running = False
        self.conf.unsubscribe(self._qos_listener)
        self.call_queue.stop()
        self.listener_socket.close()

    # -- QoS hot reload -----------------------------------------------------
    #: Configuration keys whose mutation re-tunes the live call queue.
    QOS_KEYS = frozenset(
        ("ipc.callqueue.fair.weights", "decay-scheduler.thresholds")
    )

    def _on_conf_change(self, conf, changed) -> None:
        if self.running and not self.QOS_KEYS.isdisjoint(changed):
            self.reconfigure_qos()

    def reconfigure_qos(self) -> None:
        """Re-read QoS tunables from ``self.conf`` into the live queue.

        Applies both the WRR weights and the threshold ladder (the read
        is idempotent, so reapplying an unchanged key is harmless).  A
        FIFO queue has neither — the reload is a silent no-op there,
        matching Hadoop where ``-refreshCallQueue`` properties only bite
        on the FairCallQueue.
        """
        from repro.rpc.callqueue import parse_weights

        queue = self.call_queue
        set_weights = getattr(queue, "set_weights", None)
        if set_weights is None:
            return
        set_weights(parse_weights(self.conf))
        scheduler = queue.scheduler
        if scheduler is not None and hasattr(scheduler, "set_thresholds"):
            scheduler.set_thresholds(
                self.conf.get_floats("decay-scheduler.thresholds") or None
            )
        if self._qos_reconfig_counter is None:
            self._qos_reconfig_counter = self.fabric.metrics.counter(
                "rpc.server.qos_reconfigured",
                server=self.name, fabric=self._engine_label,
            )
        self._qos_reconfig_counter.add()

    # -- RPCoIB bootstrap ---------------------------------------------------
    def accept_ib(self, client_endpoint: Endpoint, protocol_name: str) -> QueuePair:
        """Complete an endpoint exchange: returns the client-side QP.

        Called by :class:`repro.rpc.client.IBConnection` after the
        socket-channel handshake; the server side registers its QP on
        the shared completion queue that the IB Reader polls.
        """
        server_endpoint = Endpoint(self.fabric, self.node, name=f"ep:{self.name}")
        client_qp, server_qp = QueuePair.pair(client_endpoint, server_endpoint)
        server_qp.cq = self.cq
        conn = IBServerConnection(server_qp, protocol_name)
        server_qp.owner = conn
        self.ib_connections.append(conn)
        return client_qp

    # -- Listener ------------------------------------------------------------
    def _listener_loop(self):
        while self.running:
            sock = yield self.listener_socket.accept()
            conn = SocketServerConnection(sock)

            def on_data(s, conn=conn):
                if not conn.scheduled:
                    conn.scheduled = True
                    self.readable.put(conn)

            sock.on_data = on_data
            if sock.available:
                on_data(sock)

    # -- socket Reader (Listing 2) ----------------------------------------------
    def _reader_loop(self, index: int):
        while self.running:
            conn = yield self.readable.get()
            receive_start = self.env.now
            ledger = CostLedger(self.model)
            try:
                # ByteBuffer lenBuffer = ByteBuffer.allocate(4)
                ledger.charge_heap_alloc(4)
                header = yield conn.sock.recv(4)
                length = int.from_bytes(header, "big")
                # ByteBuffer data = ByteBuffer.allocate(len)  <- Fig. 1
                ledger.charge_heap_alloc(length)
                payload = yield conn.sock.recv(length)
                ledger.charge_copy(length)  # native IO layer -> JVM heap
            except SocketClosed:
                continue
            inp = DataInputBuffer(payload, ledger)
            if conn.protocol_name is None:
                # First frame on a connection is the ConnectionHeader.
                hdr = ConnectionHeader()
                hdr.read_fields(inp)
                conn.protocol_name = hdr.protocol
                yield self.env.timeout(ledger.drain())
            else:
                call_id, count = frames.read_head(inp)
                if call_id == PING_CALL_ID:
                    # Keepalive frame (Hadoop Client.sendPing): consume
                    # and discard — liveness only, never queued.
                    yield self.env.timeout(ledger.drain())
                    self.ping_counter.add()
                else:
                    yield from self._admit(
                        conn, inp, ledger, call_id, count, length,
                        receive_start, conn.sock.pop_trace,
                    )
            self._heap.absorb(ledger)
            conn.scheduled = False
            if conn.sock.available > 0 and not conn.scheduled:
                conn.scheduled = True
                yield self.readable.put(conn)

    # -- RPCoIB Reader ----------------------------------------------------------
    def _ib_reader_loop(self):
        sw = self.model.software
        while self.running:
            qp, message = yield self.cq.get()
            if isinstance(message, QPBreak):
                # Error completion: the QP died (fault injection or a
                # crashed peer).  Drop the server-side connection state.
                conn = qp.owner
                if conn in self.ib_connections:
                    self.ib_connections.remove(conn)
                continue
            receive_start = self.env.now
            conn: IBServerConnection = qp.owner
            ledger = CostLedger(self.model)
            inp = RDMAInputStream(message.data, message.length, ledger)
            call_id, count = frames.read_head(inp)
            if call_id == PING_CALL_ID:
                # Keepalive over the verbs engine: poll cost, no queueing.
                yield self.env.timeout(ledger.drain() + sw.cq_poll_us)
                self.ping_counter.add()
                continue
            # cq poll + per-connection event-poll scan; JVM-bypass, so
            # no receive-side allocation is attributed to the calls.
            yield from self._admit(
                conn, inp, ledger, call_id, count, message.length,
                receive_start, qp.pop_trace,
                poll=(sw.cq_poll_us, sw.server_ib_poll_scan_us),
                heap_alloc=False, eager=message.eager,
            )

    def _admit(
        self, conn, inp, ledger: CostLedger, call_id: int, count: int,
        nbytes: int, receive_start: float, pop_trace, poll=(),
        heap_alloc: bool = True, **wire_tags,
    ):
        """Decode and queue every call of one request frame.

        The one admission path for both readers; a single-call frame is
        the one-entry case of a batch.  A batch frame (a multiplexed
        client) amortizes one read — or one completion ``poll`` — over
        its entries, but each entry still pays its own decode +
        dispatch and is queued (or rejected) individually: batching
        changes the wire and syscall schedule, never call semantics.
        ``poll`` (the engine's per-completion costs) is paid up front
        for a batch and folded into a lone call's dispatch.
        """
        sw = self.model.software
        batch_tags = {}
        if count:
            conn.batch_aware = True
            batch_tags["batched"] = count
            if poll:
                yield self.env.timeout(ledger.drain() + poll[0] + poll[1])
                poll = ()
        alloc_seen = 0.0
        for call_id, nbytes in frames.entries(inp, call_id, count, nbytes):
            invocation = frames.read_invocation(inp)
            delay = ledger.drain()
            if poll:
                delay = delay + poll[0] + poll[1]
            yield self.env.timeout(delay + sw.handler_dispatch_us)
            alloc_us = 0.0
            if heap_alloc:
                # Attribute allocation deltas to the call that incurred
                # them (the frame buffers land on the first one).
                alloc_total = ledger.category("alloc")
                alloc_us = alloc_total - alloc_seen
                alloc_seen = alloc_total
            self.metrics.record_receive(
                ReceiveProfile(
                    protocol=conn.protocol_name,
                    method=invocation.method,
                    alloc_us=alloc_us,
                    receive_total_us=self.env.now - receive_start,
                    payload_bytes=nbytes,
                )
            )
            ref = pop_trace()
            if ref is not None:
                if ref.sent_at:
                    self.tracer.complete(
                        "rpc.wire", ref.sent_at, receive_start, parent=ref,
                        node=self.node.name, category="net", bytes=nbytes,
                        **wire_tags, **batch_tags,
                    )
                self.tracer.complete(
                    "rpc.server.receive", receive_start, self.env.now,
                    parent=ref, node=self.node.name, category="rpc.server",
                    protocol=conn.protocol_name, method=invocation.method,
                    alloc_us=alloc_us, payload_bytes=nbytes, **batch_tags,
                )
            scall = ServerCall(conn, call_id, invocation, self.env.now, trace=ref)
            rejection = self.call_queue.try_reserve(scall)
            if rejection is None:
                yield self.call_queue.put(scall)
                self.queue_depth.inc()
            else:
                yield from self._reject_call(scall, rejection)

    def _reject_call(self, scall: ServerCall, rejection):
        """Serialize a call-queue rejection back to the caller.

        Backpressure: a full queue rejects instead of queueing, so
        clients back off and retry (Hadoop's RetriableException on
        call-queue overflow).
        """
        self.overload_counter.add()
        response = yield from self._serialize_response(
            scall, RpcStatus.ERROR, None, rejection
        )
        yield self.response_queue.put(response)

    # -- Handlers -----------------------------------------------------------------
    def _handler_loop(self, index: int):
        sw = self.model.software
        # FIFO fast path: the queue exposes the Store's own bound
        # ``get`` and handlers yield its event directly — the identical
        # hot loop the server ran before the queue was pluggable.  The
        # FairCallQueue has no ``get``; its ``take`` generator consumes
        # a signal token and lets the WRR mux pick the sub-queue.
        queue_get = getattr(self.call_queue, "get", None)
        queue_take = self.call_queue.take
        while self.running:
            if queue_get is not None:
                scall = yield queue_get()
            else:
                scall = yield from queue_take()
            self.queue_depth.dec()
            self.handlers_busy.inc()
            queue_wait_us = self.env.now - scall.received_at
            self.queue_wait_tally.observe(queue_wait_us)
            if scall.trace is not None:
                self.tracer.complete(
                    "rpc.server.queue", scall.received_at, self.env.now,
                    parent=scall.trace, node=self.node.name,
                    category="rpc.server", depth_after=self.queue_depth.value,
                    **self.call_queue.span_tags(scall),
                )
            hspan = self.tracer.start(
                "rpc.server.handler", parent=scall.trace, node=self.node.name,
                category="rpc.server", method=scall.invocation.method,
                handler=index,
            ) if scall.trace is not None else None
            yield self.env.timeout(sw.thread_handoff_us + sw.reflection_invoke_us)
            status, result, error = RpcStatus.SUCCESS, None, None
            method_name = scall.invocation.method
            try:
                method = self._method_cache[method_name]
            except KeyError:
                method = getattr(self.instance, method_name, None)
                self._method_cache[method_name] = method
            if method is None:
                status = RpcStatus.ERROR
                error = (
                    "java.lang.NoSuchMethodException",
                    f"{method_name} not found",
                )
            else:
                try:
                    outcome = method(*scall.invocation.params)
                    if isinstance(outcome, Writable):
                        # Fast path: echo-style handlers return a
                        # Writable directly (never a generator).
                        result = outcome
                    else:
                        if hasattr(outcome, "send") and hasattr(outcome, "throw"):
                            # Simulated method body: run it on the clock.
                            outcome = yield self.env.process(outcome)
                        result = outcome if outcome is not None else NullWritable()
                        if not isinstance(result, Writable):
                            raise TypeError(
                                f"{method_name} returned non-Writable "
                                f"{type(result).__name__}"
                            )
                except ENGINE_EXCEPTIONS:
                    # Simulator bug or sanitizer violation — crash the
                    # run rather than serializing it to the client.
                    raise
                except Exception as exc:  # noqa: BLE001 - handler boundary
                    status = RpcStatus.ERROR
                    error = (type(exc).__name__, str(exc))
            if status == RpcStatus.SUCCESS:
                self.calls_handled += 1
                self.handled_counter.add()
            else:
                self.calls_errored += 1
                self.errored_counter.add()
            response = yield from self._serialize_response(scall, status, result, error)
            if hspan is not None:
                hspan.annotate("status", int(status))
                hspan.end()
            self.handlers_busy.dec()
            yield self.response_queue.put(response)

    def _serialize_response(self, scall: ServerCall, status, result, error):
        """Engine-specific response serialization, charged to the handler."""
        ledger = CostLedger(self.model)
        conn = scall.conn
        ib = isinstance(conn, IBServerConnection)
        if ib:
            out = RDMAOutputStream(
                self.pool, conn.protocol_name, scall.invocation.method + "#resp",
                ledger,
            )
        else:
            conf = self.conf
            if conf.version != self._conf_stamp:
                self._resp_buf_initial = conf.get_int("io.server.buffer.initial.size")
                self._conf_stamp = conf.version
            out = DataOutputBuffer(ledger, initial_size=self._resp_buf_initial)
        frames.write_response(out, scall.call_id, status, result, error)
        if ib:
            yield self.env.timeout(ledger.drain())
            return ("ib", conn, out, scall.trace)
        # Chunk list (gather write): the socket joins it exactly once.
        chunks = frames.stream_frame(ledger, out.get_view(), out.get_length())
        yield self.env.timeout(ledger.drain())
        self._heap.absorb(ledger)
        return ("socket", conn, chunks, scall.trace)

    # -- Responder -------------------------------------------------------------------
    #: most responses the Responder folds into one wire frame for a
    #: batch-aware (multiplexed) connection — bounds the frame the
    #: client must buffer and the latency penalty of the last merge.
    RESPONSE_BATCH_MAX = 64

    def _take_merged(self, kind: str, conn) -> list:
        """Pull every queued response bound for the same connection.

        The single Responder thread is the server's write bottleneck
        under incast; when it falls behind, responses for the same
        multiplexed connection pile up in its queue.  Draining them here
        — in queue order, up to ``RESPONSE_BATCH_MAX`` — turns that
        backlog into one batched write: adaptive by construction, since
        an idle Responder never finds anything to merge.
        """
        items = self.response_queue.items
        if not items:
            return []
        extras: list = []
        keep: list = []
        limit = self.RESPONSE_BATCH_MAX - 1
        for item in items:
            if len(extras) < limit and item[0] == kind and item[1] is conn:
                extras.append(item)
            else:
                keep.append(item)
        if extras:
            # In-place rebuild: Store.get aliases this deque.
            items.clear()
            items.extend(keep)
        return extras

    def _respond_merged(self, kind: str, conn, entries):
        """Write ``entries`` (≥2 responses, one connection) as a batch.

        Wire format mirrors the request side (:mod:`repro.rpc.frames`):
        per-response entries byte-identical to what each response would
        have carried alone.  The batch header rides in the same gather
        write, so no extra syscall or post is charged for it.
        """
        count = len(entries)
        self.responses_merged += count - 1
        spans = [self._respond_span(ref) for _, _, _, ref in entries]
        try:
            if kind == "ib":
                bodies = []
                for _, _, stream, _ in entries:
                    buffer, length = stream.detach()
                    with memoryview(buffer.data) as view:
                        bodies.append(bytes(view[:length]))
                    stream.release()  # pooled buffer recycles immediately
                lengths = [len(body) for body in bodies]
                # Read at post time: a live retune of the threshold
                # applies to merged posts exactly as to single ones.
                yield conn.qp.post_send(
                    frames.join_batch(bodies),
                    rdma_threshold=self.conf.get_int("rpc.ib.rdma.threshold"),
                )
            else:
                lengths = [
                    sum(len(chunk) for chunk in payload)
                    for _, _, payload, _ in entries
                ]
                chunks = [frames.stream_batch_header(count, sum(lengths))]
                for _, _, payload, _ in entries:
                    chunks.extend(payload)
                yield conn.sock.send(chunks)
        except (QPBrokenError, SocketClosed) as exc:
            self._end_respond(spans, error=type(exc).__name__)
            return
        self._end_respond(spans, lengths, merged=count)

    def _respond_span(self, ref):
        if ref is None:
            return None
        return self.tracer.start(
            "rpc.server.respond", parent=ref, node=self.node.name,
            category="rpc.server",
        )

    @staticmethod
    def _end_respond(spans, lengths=(), error=None, **tags) -> None:
        """Close ``rpc.server.respond`` spans: the transport error, or
        each response's bytes followed by ``tags``."""
        for i, rspan in enumerate(spans):
            if rspan is None:
                continue
            if error is not None:
                rspan.annotate("error", error).end()
                continue
            rspan.annotate("response_bytes", lengths[i])
            for key, value in tags.items():
                rspan.annotate(key, value)
            rspan.end()

    def _responder_loop(self):
        sw = self.model.software
        while self.running:
            kind, conn, payload, ref = yield self.response_queue.get()
            # Merge-before-handoff: the backlog inspection happens in
            # the same scheduler step as the get, so one thread handoff
            # covers the whole merged group.
            extras = self._take_merged(kind, conn) if conn.batch_aware else []
            yield self.env.timeout(sw.thread_handoff_us)
            if extras:
                yield from self._respond_merged(
                    kind, conn, [(kind, conn, payload, ref)] + extras
                )
                continue
            rspan = self._respond_span(ref)
            if kind == "ib":
                stream: RDMAOutputStream = payload
                buffer, length = stream.detach()
                # Same hoisted decision as the client: the response's
                # call kind ("method#resp") consults the server pool's
                # size predictor, so confidently predicted-large
                # responses pre-advertise their target buffer.
                choice = self.adaptive.choose(stream.protocol, stream.method, length)
                try:
                    yield conn.qp.post_send(buffer, length, choice=choice)
                except QPBrokenError:
                    stream.release()
                    self._end_respond((rspan,), error="QPBrokenError")
                    continue
                stream.release()
                if rspan is not None and choice.source != "static":
                    self._end_respond(
                        (rspan,), (length,), eager=choice.eager,
                        transport_source=choice.source, preposted=choice.preposted,
                    )
                else:
                    self._end_respond((rspan,), (length,))
            else:
                try:
                    yield conn.sock.send(payload)
                except SocketClosed:
                    self._end_respond((rspan,), error="SocketClosed")
                    continue
                if rspan is not None:
                    length = sum(len(chunk) for chunk in payload)
                    self._end_respond((rspan,), (length,))
