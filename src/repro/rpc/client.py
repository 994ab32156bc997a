"""Hadoop RPC client: caller threads + a Connection per server address.

The caller thread serializes and sends the call (Listing 1); the
Connection's receiver thread reads responses and completes the waiting
callers.  Exactly two connection classes implement the two engines —
the paper's RPCoIB keeps Hadoop's call semantics and swaps only the
engine underneath:

* :class:`SocketConnection` — the default Writable-over-sockets path
  with its DataOutputBuffer growth, BufferedOutputStream copy, and
  per-response heap-buffer allocation (Listing 2's client analogue);
* :class:`IBConnection` — RPCoIB: endpoint bootstrap over the socket
  address, then JVM-bypass serialization into pooled registered
  buffers and verbs send/recv / RDMA past the adaptive threshold.

Failure semantics mirror ``org.apache.hadoop.ipc.Client``: connect
retry with fixed/exponential backoff (``ipc.client.connect.max.retries``,
``ipc.client.connect.retry.interval``), per-call timeouts with ping
keepalive (``ipc.client.call.timeout``, ``ipc.ping.interval``) enforced
by a per-connection keeper process, idle-connection teardown
(``ipc.client.connection.maxidletime``) with lazy reconnect, and
backoff-and-retry on :class:`ServerOverloadedException`.  RPCoIB adds
the paper's graceful degradation: the sockets path is always present,
so a failed endpoint bootstrap or a QP that breaks mid-stream falls
back to :class:`SocketConnection` transparently — in-flight calls are
re-issued, the ``rpc.ib.fallbacks`` counter records the event, and the
active span is annotated.

:class:`BaseConnection` owns what the engines share: the one
``send_call`` (serialize in the caller, then write the frame inline or
hand it to the connection's :class:`repro.rpc.mux.Multiplexer`), the
keeper, and the one close/failure path that settles every outstanding
call exactly once.  A connection holds a multiplexer only when
``ipc.client.async.enabled`` was on at connect; it then serves every
protocol at its address and its sender flushes queued calls as batches
through the engine's batch write.

The wire format is not defined here: :mod:`repro.rpc.frames` is its
single owner.  Each engine encodes a call through one ``_encode_call``,
and every receive loop decodes through ``frames.read_responses`` — a
single response is the one-entry case of a batch — and settles through
:meth:`BaseConnection._settle`.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Set, Tuple, Type

from repro.calibration import CostModel, NetworkSpec
from repro.config import Configuration
from repro.io.data_input import DataInputBuffer
from repro.io.data_output import DataOutputBuffer
from repro.io.rdma_streams import RDMAInputStream, RDMAOutputStream
from repro.io.writable import Writable
from repro.mem.cost import CostLedger
from repro.mem.native_pool import build_pool
from repro.mem.shadow_pool import HistoryShadowPool
from repro.net import sockets as simsockets
from repro.net.fabric import Fabric, Node
from repro.net.sockets import SocketAddress, SocketClosed
from repro.net.verbs import (
    AdaptiveTransport,
    Endpoint,
    QPBreak,
    QPBrokenError,
    QueuePair,
)
from repro.obs.trace import NULL_SPAN
from repro.rpc import frames
from repro.rpc.call import (
    Call,
    ConnectionHeader,
    RemoteException,
    RetriableException,
    RetriesExhaustedError,
    RpcStatus,
    RpcTimeoutError,
    ServerOverloadedException,
    StandbyException,
)
from repro.rpc.frames import PING_CALL_ID
from repro.rpc.metrics import CallProfile, RpcMetrics
from repro.rpc.mux import Multiplexer
from repro.rpc.protocol import RpcProtocol
from repro.simcore.process import Process


class IBBootstrapError(ConnectionError):
    """The RPCoIB endpoint exchange failed; the sockets path remains."""


#: Connection-table key slot used instead of the protocol name when
#: ``ipc.client.async.enabled`` is on: a multiplexed connection is
#: shared per (address, transport) by *all* protocols on the node, so
#: it must never collide with a per-protocol key (protocol names are
#: dotted identifiers, never dunder strings).  A connection opened
#: under it holds a :class:`Multiplexer`.
MUX_CONNECTION_KEY = "__mux__"

#: initial capacity of the RPCoIB mux's aggregation buffer — warm enough
#: that a typical window of small calls gathers without growth charges.
_IB_AGGREGATION_INITIAL = 4096


#: Values the ``ipc.client.*.retry.policy`` keys accept.
RETRY_POLICIES = ("fixed", "exponential")


def retry_policy(conf: Configuration, key: str) -> str:
    """Read a retry-policy key; a typo must not silently mean ``fixed``."""
    policy = str(conf.get(key))
    if policy not in RETRY_POLICIES:
        raise ValueError(
            f"{key}={policy!r}: expected one of {', '.join(RETRY_POLICIES)}"
        )
    return policy


def _backoff_us(interval_us: float, attempt: int, policy: str) -> float:
    """Delay before retry ``attempt`` (1-based) under a backoff policy."""
    if policy == "exponential":
        return interval_us * (2.0 ** (attempt - 1))
    return interval_us


class Client:
    """RPC client bound to one node; shared by all callers on that node."""

    _ids = itertools.count(1)

    def __init__(
        self,
        fabric: Fabric,
        node: Node,
        spec: NetworkSpec,
        conf: Optional[Configuration] = None,
        metrics: Optional[RpcMetrics] = None,
        name: str = "",
    ):
        self.fabric = fabric
        self.env = fabric.env
        self.node = node
        self.spec = spec
        self.model: CostModel = fabric.model
        self.conf = conf or Configuration()
        self.metrics = metrics or RpcMetrics()
        self.name = name or f"client@{node.name}"
        self._call_ids = itertools.count(1)
        self._connections: Dict[Tuple[SocketAddress, str], "BaseConnection"] = {}
        self._connecting: Dict[Tuple[SocketAddress, str], object] = {}
        #: addresses where RPCoIB failed and the client fell back to the
        #: sockets engine — sticky, like Hadoop's per-address blacklists.
        self._ib_fallback: Set[SocketAddress] = set()
        # RPCoIB client-side pool, shared across connections (the
        # library-wide native pool of Section III-C).
        self._pool: Optional[HistoryShadowPool] = None
        # Registry instruments are get-or-create by (name, labels) — cache
        # them so the per-call hot path skips the label-key construction.
        # Created lazily on first use (not here) so the set of exported
        # instruments — and thus the metrics JSON — is unchanged.
        self._completed_counter = None
        self._failed_counter = None
        self._latency_tallies: Dict[Tuple[str, str], object] = {}
        # Per-call conf values parsed once per Configuration version
        # (the stamp check makes ``conf.set`` after client creation
        # still take effect on the next call), and call-process names
        # built once per (protocol, method).
        self._conf_stamp = -1
        self._conf_parsed: Tuple[float, int, float, int, bool, bool] = (
            0.0, 0, 0.0, 0, False, False,
        )
        self._call_names: Dict[Tuple[str, str], str] = {}
        # Per-size-class latency histograms (repro.obs.sizeclass):
        # armed only while the adaptive transport is enabled, so the
        # default metrics export is byte-identical.
        self._size_latency = None

    def _call_conf(self) -> Tuple[float, int, float, int, bool, bool]:
        """(call timeout, max retries, retry interval, buffer initial,
        mux enabled, adaptive transport enabled)."""
        conf = self.conf
        if conf.version != self._conf_stamp:
            self._conf_parsed = (
                conf.get_float("ipc.client.call.timeout"),
                conf.get_int("ipc.client.call.max.retries"),
                conf.get_float("ipc.client.call.retry.interval"),
                conf.get_int("io.buffer.initial.size"),
                conf.get_bool("ipc.client.async.enabled"),
                conf.get_bool("ipc.ib.adaptive.enabled"),
            )
            self._conf_stamp = conf.version
        return self._conf_parsed

    @property
    def ib_enabled(self) -> bool:
        return self.conf.get_bool("rpc.ib.enabled")

    @property
    def pool(self) -> HistoryShadowPool:
        if self._pool is None:
            self._pool = HistoryShadowPool(build_pool(self.model, self.conf))
        return self._pool

    # -- public API -------------------------------------------------------
    def call(
        self,
        address: SocketAddress,
        protocol: Type[RpcProtocol],
        method: str,
        params: List[Writable],
    ) -> Process:
        """Invoke ``protocol.method(*params)`` at ``address``.

        Returns a Process whose value is the returned Writable; raises
        :class:`RemoteException` on server-side errors and
        :class:`ConnectionError` subclasses (:class:`RpcTimeoutError`,
        :class:`RetriesExhaustedError`, ...) on transport failures.
        """
        key = (protocol.protocol_name(), method)
        name = self._call_names.get(key)
        if name is None:
            name = self._call_names[key] = f"call:{key[0]}.{method}"
        return self.env.process(
            self._call_proc(address, protocol, method, params), name=name
        )

    def _call_proc(self, address, protocol, method, params):
        tracer = self.fabric.tracer
        span = tracer.start(
            "rpc.call",
            node=self.node.name,
            category="rpc.client",
            protocol=protocol.protocol_name(),
            method=method,
            engine="rpcoib" if self.ib_enabled else "socket",
        )
        call_timeout_us, max_retries, retry_interval_us = self._call_conf()[:3]
        attempts = 0
        while True:
            try:
                conn = yield from self._get_connection(address, protocol, parent=span)
            except ConnectionError as exc:
                # ConnectionRefused / RetriesExhausted / SocketClosed
                span.annotate("error", type(exc).__name__).end()
                raise
            except BaseException:
                # Anything else is a simulator bug, not a connect failure —
                # close the span so the trace stays well-formed, then let it
                # crash the run.
                span.annotate("error", "unexpected").end()
                raise
            call = Call(
                next(self._call_ids), protocol.protocol_name(), method, params,
                self.env,
                deadline=(
                    self.env.now + call_timeout_us if call_timeout_us > 0 else None
                ),
            )
            call.span = span
            try:
                profile_info = yield from conn.send_call(call)
            except QPBrokenError:
                # The verbs engine died under the send.  The call is
                # already registered on the connection, so the engine
                # fallback re-issues it over sockets; wait for that
                # outcome below.  The send profile is lost.
                profile_info = None
            except SocketClosed as exc:
                # Transport reset mid-send: retry on a fresh connection.
                conn.calls.pop(call.id, None)
                attempts += 1
                if attempts > max_retries:
                    self._fail_call_metrics(span, type(exc).__name__)
                    raise RetriesExhaustedError(
                        f"{method}: transport failed after {attempts} attempt(s)",
                        attempts=attempts, cause=exc,
                    ) from exc
                yield self.env.timeout(
                    _backoff_us(retry_interval_us, attempts, "exponential")
                )
                continue
            try:
                value = yield call.done
            except (ServerOverloadedException, RetriableException) as exc:
                attempts += 1
                if attempts > max_retries:
                    self._fail_call_metrics(span, exc.CLASS_NAME)
                    raise RetriesExhaustedError(
                        f"{method}: server overloaded after {attempts} attempt(s)",
                        attempts=attempts, cause=exc,
                    ) from exc
                # A RetriableException carries the server's suggested
                # backoff (priority-aware); otherwise exponential.
                suggested_us = getattr(exc, "backoff_us", 0.0)
                yield self.env.timeout(
                    suggested_us if suggested_us > 0
                    else _backoff_us(retry_interval_us, attempts, "exponential")
                )
                continue
            except RpcTimeoutError:
                self._fail_call_metrics(span, "RpcTimeoutError")
                raise
            except RemoteException as exc:
                self._fail_call_metrics(span, exc.class_name)
                raise
            except ConnectionError as exc:
                # The connection died before a response arrived (socket
                # reset, failed engine fallback, crashed server): back
                # off and retry on a fresh connection.
                attempts += 1
                if attempts > max_retries:
                    self._fail_call_metrics(span, type(exc).__name__)
                    raise RetriesExhaustedError(
                        f"{method}: no response after {attempts} attempt(s)",
                        attempts=attempts, cause=exc,
                    ) from exc
                yield self.env.timeout(
                    _backoff_us(retry_interval_us, attempts, "exponential")
                )
                continue
            break
        latency_us = self.env.now - call.started_at
        if profile_info is not None:
            self.metrics.record_call(
                CallProfile(
                    protocol=call.protocol,
                    method=call.method,
                    mem_adjustments=profile_info["adjustments"],
                    serialization_us=profile_info["serialization_us"],
                    send_us=profile_info["send_us"],
                    latency_us=latency_us,
                    message_bytes=profile_info["message_bytes"],
                )
            )
        counter = self._completed_counter
        if counter is None:
            counter = self._completed_counter = self.fabric.metrics.counter(
                "rpc.client.calls_completed", node=self.node.name
            )
        counter.add()
        tally_key = (call.protocol, call.method)
        tally = self._latency_tallies.get(tally_key)
        if tally is None:
            tally = self.fabric.metrics.tally(
                "rpc.client.latency_us", protocol=call.protocol, method=call.method
            )
            self._latency_tallies[tally_key] = tally
        tally.observe(latency_us)
        if profile_info is not None and self._call_conf()[5]:
            size_latency = self._size_latency
            if size_latency is None:
                from repro.obs.sizeclass import SizeClassLatency

                size_latency = self._size_latency = SizeClassLatency(
                    self.fabric.metrics, node=self.node.name
                )
            size_latency.observe(profile_info["message_bytes"], latency_us)
        span.annotate("latency_us", latency_us)
        if profile_info is not None:
            span.annotate("message_bytes", profile_info["message_bytes"])
        if attempts:
            span.annotate("retries", attempts)
        span.end()
        return value

    def _fail_call_metrics(self, span, label: str) -> None:
        self.metrics.record_failure()
        counter = self._failed_counter
        if counter is None:
            counter = self._failed_counter = self.fabric.metrics.counter(
                "rpc.client.calls_failed", node=self.node.name
            )
        counter.add()
        span.annotate("error", label).end()

    def close(self) -> None:
        for conn in list(self._connections.values()):
            conn.close()  # leaves the table

    # -- connection management -----------------------------------------------
    def _get_connection(
        self, address: SocketAddress, protocol: Type[RpcProtocol], parent=None
    ):
        # Multiplexed mode: one shared connection per (address,
        # transport), whatever the protocol.
        key = (
            address,
            MUX_CONNECTION_KEY if self._call_conf()[4] else protocol.protocol_name(),
        )
        while True:
            conn = self._connections.get(key)
            if conn is not None and not conn.closed:
                return conn
            pending = self._connecting.get(key)
            if pending is not None:
                yield pending  # someone else is establishing; wait
                continue
            gate = self.env.event()
            self._connecting[key] = gate
            cspan = self.fabric.tracer.start(
                "rpc.connect",
                parent=parent,
                node=self.node.name,
                category="rpc.client",
                address=str(address),
            )
            try:
                conn = yield from self._establish(address, protocol, key, cspan)
                self._connections[key] = conn
                return conn
            finally:
                cspan.end()
                del self._connecting[key]
                gate.succeed()

    def _establish(self, address, protocol, key, cspan):
        """Connect with Hadoop's retry policy; RPCoIB bootstrap failures
        degrade to the sockets engine instead of consuming retries."""
        conf = self.conf
        max_retries = conf.get_int("ipc.client.connect.max.retries")
        interval_us = conf.get_float("ipc.client.connect.retry.interval")
        policy = retry_policy(conf, "ipc.client.connect.retry.policy")
        attempt = 0
        while True:
            if self.ib_enabled and address not in self._ib_fallback:
                conn = IBConnection(self, address, protocol, key)
            else:
                conn = SocketConnection(self, address, protocol, key)
            try:
                yield from conn.setup()
            except IBBootstrapError:
                # Graceful degradation (Section III-D): the socket
                # address is always serving, so fall back — sticky for
                # this address — without consuming connect retries.
                conn.close()
                self._note_ib_fallback(address, "bootstrap", span=cspan)
                continue
            except ConnectionError as exc:
                conn.close()
                attempt += 1
                if attempt > max_retries:
                    cspan.annotate("error", type(exc).__name__)
                    raise RetriesExhaustedError(
                        f"connect to {address} failed after {attempt} "
                        f"attempt(s): {exc}",
                        attempts=attempt, cause=exc,
                    ) from exc
                cspan.annotate("connect_retries", attempt)
                yield self.env.timeout(_backoff_us(interval_us, attempt, policy))
                continue
            return conn

    def _note_ib_fallback(self, address, reason: str, span=None) -> None:
        self._ib_fallback.add(address)
        self.fabric.metrics.counter(
            "rpc.ib.fallbacks", node=self.node.name, reason=reason
        ).add()
        if span is not None:
            span.annotate("ib_fallback", reason)

    def _forget(self, conn: "BaseConnection") -> None:
        """Drop a closed connection; the next call reconnects lazily."""
        if self._connections.get(conn.key) is conn:
            del self._connections[conn.key]

    # -- RPCoIB mid-stream fallback -------------------------------------------
    def _begin_fallback(self, conn: "IBConnection", reason: str) -> None:
        """A broken QP took the verbs engine down: migrate to sockets."""
        self.env.process(
            self._fallback_proc(conn, reason), name=f"rpc-fallback:{self.name}"
        )

    def _fallback_proc(self, conn, reason):
        pending = [c for c in conn.calls.values() if not c.done.triggered]
        conn.calls.clear()
        self._note_ib_fallback(conn.address, reason)
        try:
            newconn = yield from self._get_connection(conn.address, conn.protocol)
        except ConnectionError as exc:
            for call in pending:
                if not call.done.triggered:
                    call.error(exc)
            return
        for call in pending:
            if call.done.triggered:
                continue  # e.g. timed out while we were reconnecting
            if call.span is not None:
                call.span.annotate("engine_fallback", reason)
            try:
                yield from newconn.send_call(call)
            except ConnectionError as exc:
                newconn.calls.pop(call.id, None)
                if not call.done.triggered:
                    call.error(exc)


class BaseConnection:
    """One connection to a server address: the call table, the one
    ``send_call``, the keeper and the one close/failure path.

    Each engine subclass keeps only its setup (``_open``), encoding
    (``_encode_call``), single-frame write (``_write_call``), batch
    write (``_frame_batch``/``_write_batch``), ping and one receive
    loop.  A connection opened under the multiplexed key holds a
    :class:`repro.rpc.mux.Multiplexer` (``self.mux``) that queues,
    batches and flushes its calls; otherwise each caller writes its own
    frame inline.

    Every established connection runs a *keeper* process — the analogue
    of Hadoop's connection thread housekeeping: it enforces per-call
    deadlines, sends PING frames when the connection has been quiet too
    long with calls outstanding, and tears the connection down after
    ``ipc.client.connection.maxidletime`` without traffic.
    """

    #: receive-loop process name prefix.
    RECEIVER = "rpc-conn-recv"

    def __init__(
        self, client: Client, address: SocketAddress, protocol,
        key: Tuple[SocketAddress, str],
    ):
        self.client = client
        self.env = client.env
        self.model = client.model
        self.address = address
        self.protocol = protocol
        self.protocol_name = protocol.protocol_name()
        #: the connection-table key this connection lives under.
        self.key = key
        self.mux: Optional[Multiplexer] = (
            Multiplexer(self) if key[1] == MUX_CONNECTION_KEY else None
        )
        self.calls: Dict[int, Call] = {}
        self.closed = False
        conf = client.conf
        self.max_idle_us = conf.get_float("ipc.client.connection.maxidletime")
        self.ping_interval_us = (
            conf.get_float("ipc.ping.interval")
            if conf.get_bool("ipc.client.ping")
            else 0.0
        )
        self.last_activity = self.env.now
        self._kick = None
        self._keeper = None
        self._receiver = None
        # The client-daemon heap every call's ledger folds into —
        # resolved once (dict lookup + on-demand creation per absorb
        # otherwise).
        self._heap = client.node.heap("rpc-client")

    def setup(self):
        """Open the engine, then start the receiver, keeper and sender."""
        yield from self._open()
        self._receiver = self.env.process(
            self._receive_loop(), name=f"{self.RECEIVER}:{self.client.name}"
        )
        self._start_keeper()
        if self.mux is not None:
            self.mux.start_sender()

    def send_call(self, call: Call):
        """Listing 1: serialize in the caller's thread, then write the
        frame inline or hand the encoded call to the connection's mux.

        A queued call returns as soon as it is enqueued: the caller's
        ``yield call.done`` covers the queue wait, and the
        ``rpc.mux.queue`` span records it when the sender flushes it.
        """
        if self.closed:
            raise SocketClosed(f"{self.client.name}: connection closed")
        parent = call.span if call.span is not None else NULL_SPAN
        tracer = self.client.fabric.tracer
        node = self.client.node.name
        sspan = tracer.start(
            "rpc.serialize", parent=parent, node=node, category="rpc.client"
        )
        ledger = CostLedger(self.model)
        payload, length, adjustments, annotations = self._encode_call(call, ledger)
        serialization_us = ledger.total_us
        self.calls[call.id] = call
        yield self.env.timeout(ledger.drain())
        for key, value in annotations:
            sspan.annotate(key, value)
        sspan.annotate("adjustments", adjustments)
        sspan.annotate("message_bytes", length)
        sspan.end()
        if self.mux is None:
            dspan = tracer.start(
                "rpc.send", parent=parent, node=node, category="rpc.client"
            )
            send_us = yield from self._write_call(
                call, payload, length, ledger, parent.context, dspan
            )
        else:
            self._absorb(ledger)
            self.mux.enqueue(call, payload, length)
            send_us = 0.0  # the wire flush belongs to the mux's sender
        self._note_activity()
        self._wake_keeper()
        return {
            "adjustments": adjustments,
            "serialization_us": serialization_us,
            "send_us": send_us,
            "message_bytes": length,
        }

    def _settle(self, responses, receive_start: float, **tags) -> None:
        """Complete every response of one received frame (one wakeup),
        closing each traced call's ``rpc.recv`` span with ``tags``.

        On a multiplexed connection the window slots of a merged batch
        free *together*, so the sender immediately refills them with an
        equally big batch (what keeps adaptive batching self-sustaining).
        """
        if self.mux is not None:
            tags["batched"] = len(responses)
        tracer = self.client.fabric.tracer
        for call_id, status, value, error_cls, error_msg in responses:
            call = self.calls.get(call_id)
            if call is not None and call.span is not None:
                tracer.complete(
                    "rpc.recv", receive_start, self.env.now, parent=call.span,
                    node=self.client.node.name, category="rpc.client", **tags,
                )
            self._complete(call_id, status, value, error_cls, error_msg)
        self._note_activity()
        # Re-arm the keeper: its sleep was computed while these calls
        # were outstanding (ping cadence); idle teardown now applies.
        self._wake_keeper()

    def _complete(self, call_id: int, status: int, value, error_cls="", error_msg=""):
        call = self.calls.pop(call_id, None)
        if call is not None:  # else: a late response to an abandoned call
            if status == RpcStatus.SUCCESS:
                call.complete(value)
            elif error_cls == ServerOverloadedException.CLASS_NAME:
                call.error(ServerOverloadedException(error_msg))
            elif error_cls == RetriableException.CLASS_NAME:
                call.error(RetriableException.from_wire(error_msg))
            elif error_cls == StandbyException.CLASS_NAME:
                call.error(StandbyException(error_msg))
            else:
                call.error(RemoteException(error_cls, error_msg))
        if self.mux is not None:
            self.mux.free_slot(call_id)

    def _fail_all(self, exc: Exception) -> None:
        for call in list(self.calls.values()):
            if not call.done.triggered:
                call.error(exc)
        self.calls.clear()
        if self.mux is not None:
            self.mux.drop_window()

    def _absorb(self, ledger: CostLedger) -> None:
        """Fold an activity's allocation churn into the node's heap."""
        self._heap.absorb(ledger)

    # -- the one close/failure path -----------------------------------------
    def close(self) -> None:
        """Tear the connection down; every outstanding caller fails."""
        self._close_transport()
        self._shutdown(SocketClosed(f"{self.client.name}: connection closed"))

    def _shutdown(self, exc: Exception) -> None:
        """Mark the connection closed, leave the client's table and fail
        every outstanding call exactly once (``Call.error`` pre-defuses,
        and the table is cleared, so a later teardown is a no-op)."""
        self.closed = True
        self.client._forget(self)
        self._fail_all(exc)
        self._wake_keeper()

    # -- keeper: timeouts, pings, idle teardown ---------------------------
    def _start_keeper(self) -> None:
        self.last_activity = self.env.now
        self._keeper = self.env.process(
            self._keeper_loop(), name=f"rpc-conn-keeper:{self.client.name}"
        )

    def _note_activity(self) -> None:
        self.last_activity = self.env.now

    def _wake_keeper(self) -> None:
        if self._kick is not None and not self._kick.triggered:
            self._kick.succeed()

    def _next_wakeup(self) -> float:
        """Earliest housekeeping deadline; inf when nothing is armed."""
        wake = math.inf
        if self.calls:
            deadlines = [
                c.deadline for c in self.calls.values() if c.deadline is not None
            ]
            if deadlines:
                wake = min(deadlines)
            if self.ping_interval_us > 0:
                wake = min(wake, self.last_activity + self.ping_interval_us)
        elif self.max_idle_us > 0:
            wake = self.last_activity + self.max_idle_us
        return wake

    def _keeper_loop(self):
        while not self.closed:
            now = self.env.now
            wake = self._next_wakeup()
            if wake > now:
                self._kick = self.env.event()
                if math.isinf(wake):
                    # Nothing armed: sleep until a send/close kicks us.
                    yield self._kick
                else:
                    yield self.env.any_of(
                        [self.env.timeout(wake - now), self._kick]
                    )
                self._kick = None
                continue
            if self.calls:
                self._expire_calls(now)
                # Same arithmetic as _next_wakeup (last + interval vs
                # now), so a due wakeup always takes a branch — the
                # subtraction form can disagree under float rounding
                # and spin the loop.
                if (
                    self.ping_interval_us > 0
                    and self.calls
                    and now >= self.last_activity + self.ping_interval_us
                ):
                    try:
                        yield from self._send_ping()
                    except ConnectionError as exc:
                        # A broken QP has already started the fallback.
                        if not self.closed:
                            self._shutdown(exc)
                        return
                    self._note_activity()
            elif self.max_idle_us > 0 and now >= self.last_activity + self.max_idle_us:
                self.close()
                return

    def _expire_calls(self, now: float) -> None:
        for call_id, call in list(self.calls.items()):
            if call.deadline is not None and now >= call.deadline:
                del self.calls[call_id]
                call.error(
                    RpcTimeoutError(
                        f"{call.protocol}.{call.method} (call #{call_id}) "
                        f"timed out after {now - call.started_at:.0f}us"
                    )
                )
        if self.mux is not None:
            self.mux.purge_expired()


class SocketConnection(BaseConnection):
    """Default engine: Writable serialization over a socket stream."""

    def __init__(self, client, address, protocol, key):
        super().__init__(client, address, protocol, key)
        self.sock = None

    def _open(self):
        self.sock = yield simsockets.connect(
            self.client.fabric, self.client.node, self.address, self.client.spec
        )
        # Connection header: protocol name + version, length-prefixed.
        ledger = CostLedger(self.model)
        buf = DataOutputBuffer(ledger)
        ConnectionHeader(self.protocol_name, self.protocol.VERSION).write(buf)
        frame = frames.stream_frame(ledger, buf.get_view(), buf.get_length())
        yield self.env.timeout(ledger.drain())
        self._absorb(ledger)
        yield self.sock.send(frame)

    def _encode_call(self, call: Call, ledger: CostLedger):
        """Listing 1 serialization into a growable DataOutputBuffer."""
        buf = DataOutputBuffer(ledger, initial_size=self.client._call_conf()[3])
        frames.write_call(buf, call.id, call.method, call.params)
        # the view stays valid: the buffer is never written again.
        return buf.get_view(), buf.get_length(), buf.adjustments, ()

    def _write_call(self, call, payload, length, ledger, ref, dspan):
        """Length-prefix the serialized call and write it; returns the
        send time (completes at local write)."""
        send_start = self.env.now
        frame = frames.stream_frame(ledger, payload, length)
        yield self.env.timeout(ledger.drain())
        if ref is not None:  # None when tracing is disabled
            ref.sent_at = self.env.now
        yield self.sock.send(frame, trace=ref)
        send_us = self.env.now - send_start
        # frame = 4-byte length prefix + serialized message.
        dspan.annotate("frame_bytes", 4 + length)
        dspan.end()
        self._absorb(ledger)
        return send_us

    def _frame_batch(self, entries, ledger: CostLedger):
        """Every queued call in one flush (get_view framing)."""
        return frames.stream_batch(ledger, entries)

    def _write_batch(self, chunks, refs):
        yield self.sock.send(chunks, trace=refs)

    def _send_ping(self):
        """Hadoop ``Client.sendPing``: a PING_CALL_ID frame, liveness only."""
        ledger = CostLedger(self.model)
        buf = DataOutputBuffer(ledger)
        buf.write_int(PING_CALL_ID)
        frame = frames.stream_frame(ledger, buf.get_view(), buf.get_length())
        yield self.env.timeout(ledger.drain())
        self._absorb(ledger)
        yield self.sock.send(frame)

    def _receive_loop(self):
        """Connection thread: read response frames, complete callers.

        A call-at-a-time connection reads each frame with two blocking
        ``recv``s (length prefix, then body).  A multiplexed one takes
        everything the kernel already buffered in one read, so a
        server-merged response batch costs one wakeup.  The
        ``rpc.recv`` span of a frame starts once its length prefix has
        been read.
        """
        sw = self.model.software
        bulk = self.mux is not None
        pending = bytearray()
        receive_start = None
        while not self.closed:
            if len(pending) < 4:
                need = 4 - len(pending)
            else:
                if receive_start is None:
                    receive_start = self.env.now
                frame_len = int.from_bytes(pending[:4], "big")
                need = 4 + frame_len - len(pending)
            if need > 0:
                try:
                    chunk = yield self.sock.recv(
                        max(need, self.sock.available) if bulk else need
                    )
                except SocketClosed:
                    break
                pending += chunk
                continue
            ledger = CostLedger(self.model)
            ledger.charge_heap_alloc(4)
            # Listing 2's client analogue: allocate a heap buffer for
            # the whole response, copy it up from the native layer.
            ledger.charge_heap_alloc(frame_len)
            ledger.charge_copy(frame_len)
            payload = bytes(memoryview(pending)[4 : 4 + frame_len])
            del pending[: 4 + frame_len]
            responses = frames.read_responses(DataInputBuffer(payload, ledger))
            yield self.env.timeout(ledger.drain() + sw.thread_handoff_us)
            self._absorb(ledger)
            self._settle(responses, receive_start, response_bytes=frame_len)
            receive_start = None
        self._shutdown(SocketClosed("connection closed"))

    def _close_transport(self) -> None:
        if self.sock is not None:
            self.sock.close()


class IBConnection(BaseConnection):
    """RPCoIB engine: endpoint bootstrap, then verbs/RDMA data path."""

    RECEIVER = "rpcoib-conn-recv"

    def __init__(self, client, address, protocol, key):
        super().__init__(client, address, protocol, key)
        self.qp: Optional[QueuePair] = None
        self._adaptive: Optional[AdaptiveTransport] = None

    @property
    def adaptive(self) -> AdaptiveTransport:
        """Transport-choice policy, sharing the pool's size predictor."""
        if self._adaptive is None:
            self._adaptive = AdaptiveTransport(
                self.client.conf,
                self.client.pool.predictor,
                registry=self.client.fabric.metrics,
                node=self.client.node.name,
            )
        return self._adaptive

    def _open(self):
        """Section III-D: use the socket address to exchange endpoint
        information, then all communication goes through native IB."""
        fabric = self.client.fabric
        sock = yield simsockets.connect(
            fabric, self.client.node, self.address, self.client.spec
        )
        yield self.env.timeout(self.model.software.endpoint_exchange_us)
        if fabric.faults is not None and fabric.faults.ib_bootstrap_fails(
            self.client.node.name, self.address.node
        ):
            sock.close()
            raise IBBootstrapError(
                f"{self.address}: endpoint exchange failed (fault injected)"
            )
        service = fabric.listeners.get((self.address.node, self.address.port))
        server = getattr(service, "ib_service", None)
        if server is None:
            sock.close()
            raise IBBootstrapError(
                f"{self.address}: server is not RPCoIB-enabled"
            )
        endpoint = Endpoint(fabric, self.client.node, name=f"ep:{self.client.name}")
        self.qp = server.accept_ib(endpoint, self.protocol_name)
        sock.close()  # bootstrap channel no longer needed

    @property
    def rdma_threshold(self) -> int:
        return self.client.conf.get_int("rpc.ib.rdma.threshold")

    def _encode_call(self, call: Call, ledger: CostLedger):
        """JVM-bypass serialization into a pooled registered buffer.

        The annotations record Section III-C pool behaviour: whether
        the size-history prediction held, and any pool-doubling growths
        (RPCoIB's analogue of Algorithm-1 adjustments).  A multiplexed
        connection snapshots the payload at hand-off so the pooled
        buffer recycles immediately; the gather copy into the aggregated
        post is charged at the sender.
        """
        pool = self.client.pool
        predicted = pool.predicted_size(self.protocol_name, call.method)
        out = RDMAOutputStream(pool, self.protocol_name, call.method, ledger)
        frames.write_call(out, call.id, call.method, call.params)
        adjustments = out.grow_count
        annotations = (
            ("pool_predicted_bytes", predicted),
            ("pool_hit", adjustments == 0),
        )
        if self.mux is None:
            return out, out.get_length(), adjustments, annotations
        buffer, length = out.detach()
        with memoryview(buffer.data) as view:
            payload = bytes(view[:length])
        out.release()
        return payload, length, adjustments, annotations

    def _post(self, data, length, **kwargs):
        """Post on the QP.  A QP that broke under the post fails this
        engine over to sockets; on a closed connection the caller's
        call already belongs to the close or the fallback.  Both raise
        :class:`QPBrokenError`."""
        if self.qp.closed:
            raise QPBrokenError(f"{self.address}: connection closed")
        try:
            yield self.qp.post_send(data, length, **kwargs)
        except QPBrokenError:
            self._engine_failed("qp_break")
            raise

    def _write_call(self, call, out, length, ledger, ref, dspan):
        """Post the pooled buffer; returns the post time."""
        send_start = self.env.now
        buffer, length = out.detach()
        if ref is not None:  # None when tracing is disabled
            ref.sent_at = self.env.now
        # One resolved decision feeds the post, the costs, and the trace
        # tag — the classify() hoist that keeps them from drifting.
        choice = self.adaptive.choose(self.protocol_name, call.method, length)
        try:
            yield from self._post(
                buffer, length, choice=choice, context=call.id, trace=ref,
            )
        except QPBrokenError:
            out.release()
            dspan.annotate("error", "QPBrokenError").end()
            self._absorb(ledger)
            raise
        send_us = self.env.now - send_start
        out.release()  # buffer reusable: payload snapshotted at post
        yield self.env.timeout(ledger.drain())
        dspan.annotate("eager", choice.eager)
        if choice.source != "static":
            dspan.annotate("transport_source", choice.source)
            dspan.annotate("preposted", choice.preposted)
        dspan.end()
        self._absorb(ledger)
        return send_us

    def _frame_batch(self, entries, ledger: CostLedger):
        """Aggregate the window into one buffer (Ibdxnet-style ORB);
        ``buf.write`` is the aggregation copy, charged here."""
        buf = DataOutputBuffer(ledger, initial_size=_IB_AGGREGATION_INITIAL)
        frames.write_batch(buf, entries, buf.write)
        return buf

    def _write_batch(self, buf, refs):
        yield from self._post(
            buf.get_view(), buf.get_length(),
            rdma_threshold=self.rdma_threshold, trace=refs,
        )

    def _send_ping(self):
        """PING frame over the verbs engine (always eager-sized)."""
        ledger = CostLedger(self.model)
        out = RDMAOutputStream(
            self.client.pool, self.protocol_name, "__ping__", ledger
        )
        out.write_int(PING_CALL_ID)
        yield self.env.timeout(ledger.drain())
        buffer, length = out.detach()
        try:
            yield from self._post(
                buffer, length, rdma_threshold=self.rdma_threshold
            )
        finally:
            out.release()
        self._absorb(ledger)

    def _receive_loop(self):
        """Poll the QP; one completion settles every response it carries
        (a multiplexed connection's merged responses free their window
        slots together, which keeps its sender's batches big)."""
        sw = self.model.software
        while not self.closed:
            message = yield self.qp.recv()
            if isinstance(message, QPBreak):
                if not self.closed:
                    self._engine_failed(message.reason)
                return
            receive_start = self.env.now
            ledger = CostLedger(self.model)
            responses = frames.read_responses(
                RDMAInputStream(message.data, message.length, ledger)
            )
            yield self.env.timeout(ledger.drain() + sw.thread_handoff_us)
            self._absorb(ledger)
            self._settle(
                responses, receive_start,
                response_bytes=message.length, eager=message.eager,
            )

    def _engine_failed(self, reason: str) -> None:
        """The QP broke: close this engine and migrate every registered
        call — in flight or still queued on the mux — to the
        always-present sockets path (graceful degradation)."""
        if self.closed:
            return
        self.closed = True
        self.qp.close()
        self.client._forget(self)
        self._wake_keeper()
        self.client._begin_fallback(self, reason)
        if self.mux is not None:
            self.mux.drop_window()

    def _close_transport(self) -> None:
        if self.qp is not None:
            self.qp.close()
