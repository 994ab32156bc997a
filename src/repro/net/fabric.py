"""Cluster fabric: nodes, NIC engines, and wire transfers.

Topology model: every node hangs off one non-blocking switch (both of
the paper's clusters are single-switch).  Contention therefore happens
at the endpoints — each node has one transmit and one receive engine
per fabric direction, busy for the serialization time of each message.
That is exactly the resource the Fig. 5(b) incast (64 clients, one
server) stresses.

Each engine is a FIFO single server, so it is kept as one float — the
time it next falls idle (``Node.tx_free_at`` / ``Node.rx_free_at``) —
and a message's service interval follows in closed form:
``end = max(now, free_at) + serialization``.  A wire transfer therefore
costs two scheduled events (arrival at the destination, completion)
and no process; DESIGN.md ("NIC engines") shows why every completion
time equals the one of the earlier engine-as-``Resource`` model.
"""

from __future__ import annotations

from heapq import heappush
from typing import Dict, Optional

from repro.calibration import CostModel, NetworkSpec
from repro.faults import runtime as faults_runtime
from repro.mem.jvm import JvmHeap
from repro.obs import runtime as obs_runtime
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import NULL_TRACER
from repro.simcore import Environment, Resource
from repro.simcore.events import NORMAL, Event


class Node:
    """One cluster machine: CPU cores, NIC engines, JVM-heap registry."""

    def __init__(self, env: Environment, name: str, model: CostModel, cores: int = 8):
        self.env = env
        self.name = name
        self.model = model
        self.cores = cores
        #: task/daemon compute contends here (8 physical cores).
        self.cpu = Resource(env, capacity=cores)
        #: NIC serialization engines, one per direction (full duplex):
        #: each is a FIFO single server, kept as the time it next falls
        #: idle (see ``Fabric._wire``).
        self.tx_free_at = env.now
        self.rx_free_at = env.now
        #: JVM heaps of daemons hosted on this node, by daemon name.
        self.heaps: Dict[str, JvmHeap] = {}

    def heap(self, daemon: str) -> JvmHeap:
        """The (created-on-demand) JVM heap of a daemon on this node."""
        if daemon not in self.heaps:
            self.heaps[daemon] = JvmHeap(self.model, name=f"{self.name}/{daemon}")
        return self.heaps[daemon]

    def __repr__(self) -> str:
        return f"<Node {self.name}>"


class Fabric:
    """The cluster: a set of nodes joined by a non-blocking switch."""

    def __init__(self, env: Environment, model: Optional[CostModel] = None):
        self.env = env
        self.model = model or CostModel.default()
        self.nodes: Dict[str, Node] = {}
        #: (node_name, port) -> ListenerSocket, maintained by net.sockets.
        self.listeners: Dict[tuple, object] = {}
        # Observability: with an ObsSession active (``--trace``), every
        # fabric gets a real tracer + an exported registry; otherwise
        # the zero-cost null tracer and a private registry.  Neither
        # ever schedules simulated events, so recording is invisible to
        # the clock.
        session = obs_runtime.current()
        if session is not None:
            self.tracer = session.tracer_for(env) or NULL_TRACER
            self.metrics = session.registry_for(env)
        else:
            self.tracer = NULL_TRACER
            self.metrics = MetricsRegistry(env)
        # Fault injection (``--faults``): with a FaultSession armed the
        # plan is scheduled on this fabric's clock; otherwise every
        # transport hook is a single ``is None`` branch (zero cost).
        fault_session = faults_runtime.current()
        self.faults = (
            fault_session.attach(self) if fault_session is not None else None
        )

    def add_node(self, name: str, cores: Optional[int] = None) -> Node:
        if name in self.nodes:
            raise ValueError(f"duplicate node name {name!r}")
        node = Node(
            self.env,
            name,
            self.model,
            cores=cores or self.model.compute.cores_per_node,
        )
        self.nodes[name] = node
        return node

    def node(self, name: str) -> Node:
        return self.nodes[name]

    def add_nodes(self, prefix: str, count: int) -> list:
        return [self.add_node(f"{prefix}{i}") for i in range(count)]

    def transfer(self, src: Node, dst: Node, nbytes: int, spec: NetworkSpec) -> Event:
        """Move ``nbytes`` from ``src`` to ``dst`` over ``spec``.

        Returns the completion event: its value is True when the bytes
        arrived, False when a fault (crashed endpoint) swallowed them
        mid-flight.  Charges: source NIC engine busy for the
        serialization time, wire latency, destination NIC engine busy
        for the deserialization time.  Local (same-node) transfers
        short-circuit through loopback.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        if self.faults is not None:
            return self.env.process(
                self._faulty_transfer(src, dst, nbytes, spec), name="xfer"
            )
        if src is dst:
            return self.env.timeout(self._loopback_us(nbytes), True)
        return self._wire(src, dst, nbytes / spec.bandwidth, spec.latency_us)

    def _loopback_us(self, nbytes: int) -> float:
        """Loopback: kernel memcpy, no NIC, tiny latency."""
        return 1.0 + nbytes * self.model.memory.memcpy_per_byte_us

    def _wire(self, src: Node, dst: Node, serialization_us: float, latency_us: float) -> Event:
        """Cut-through pipeline over the two FIFO engines: the receive
        side trails the transmit side by the wire latency and both are
        busy for the serialization time; end-to-end = latency + nbytes/bw
        when uncontended, and endpoint contention queues naturally.

        The transmit engine is claimed now, in call order; the receive
        engine when the bytes arrive (``_arrive``), so messages from
        specs of different latency are served in the order they land.
        """
        env = self.env
        now = env._now
        start = src.tx_free_at
        if start < now:
            start = now
        tx_end = start + serialization_us
        src.tx_free_at = tx_end
        done = env.event()
        arrival = env.timeout(latency_us, (dst, serialization_us, tx_end, done))
        arrival.callbacks.append(_arrive)
        return done

    def _faulty_transfer(self, src: Node, dst: Node, nbytes: int, spec: NetworkSpec):
        """:meth:`transfer` with faults armed: partitions park the
        transfer until heal, a crashed endpoint loses the bytes, and a
        slow NIC scales the serialization time in force at departure."""
        faults = self.faults
        ok = yield from faults.wait_transferable(src, dst)
        if not ok:
            return False
        if src is dst:
            yield self.env.timeout(self._loopback_us(nbytes))
            return True
        serialization_us = nbytes / spec.bandwidth
        factor = faults.nic_factor(src.name, dst.name)
        if factor != 1.0:
            serialization_us *= factor
        yield self._wire(src, dst, serialization_us, spec.latency_us)
        return faults.deliverable(src, dst)


def _arrive(arrival: Event) -> None:
    """Arrival callback of a wire transfer: the bytes reach ``dst``,
    which claims its receive engine now and schedules ``done`` (value
    True) for when both engines have finished with the message."""
    dst, serialization_us, tx_end, done = arrival._value
    env = arrival.env
    now = env._now
    start = dst.rx_free_at
    if start < now:
        start = now
    rx_end = start + serialization_us
    dst.rx_free_at = rx_end
    done._ok = True
    done._value = True
    env._eid += 1
    heappush(env._queue, (tx_end if tx_end > rx_end else rx_end, NORMAL, env._eid, done))
