"""Per-fabric fault injection: schedules a FaultPlan as sim processes.

One :class:`FabricFaults` is attached per :class:`~repro.net.fabric.Fabric`
(see :mod:`repro.faults.runtime`).  Timed events (crash, restart,
partition on/off, QP break, degradation factors) are armed as ordinary
processes on the fabric's clock; stochastic rules (packet loss,
corruption, endpoint-bootstrap failure) are consulted by the transports
at the injection points:

* :meth:`wait_transferable` / :meth:`deliverable` gate
  ``Fabric.transfer`` — partitions blackhole the wire (transfers
  park until heal), crashed endpoints drop in flight;
* :meth:`loss_delay` / :meth:`corrupts` are drawn per wire chunk by
  ``SimSocket._tx_loop`` — loss charges a retransmission penalty,
  corruption resets the connection (a checksum-failure RST);
* :meth:`ib_bootstrap_fails` is drawn by ``IBConnection.setup`` during
  the endpoint exchange;
* :meth:`nic_factor` / :meth:`disk_factor` scale NIC serialization and
  DataNode disk costs.

Every draw comes from a dedicated :class:`repro.simcore.rng.RngRegistry`
stream derived from the plan seed (rule SIM007): two runs of the same
plan against the same workload produce bit-identical schedules.

A node crash is modeled at the network boundary — listeners are
stashed, established sockets reset, QPs broken — which is exactly what
a peer can observe of a crashed machine; a restart re-registers the
stashed listeners so the (still-running) server processes resume
serving.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.faults.plan import FaultEvent, FaultPlan
from repro.simcore.rng import RngRegistry, stable_seed


class FabricFaults:
    """Armed fault state + injection predicates for one fabric."""

    def __init__(self, fabric, plan: FaultPlan):
        self.fabric = fabric
        self.env = fabric.env
        self.plan = plan
        self.rng = RngRegistry(stable_seed(plan.seed, "faults"))
        #: names of currently-crashed nodes.
        self.down: set = set()
        #: active partitions: (side_a, side_b) frozensets.
        self.partitions: List[Tuple[frozenset, frozenset]] = []
        #: node name -> active degradation factor.
        self.nic_factors: Dict[str, float] = {}
        self.disk_factors: Dict[str, float] = {}
        #: tenant node -> load-amplification factor (abusive_tenant):
        #: consulted by multi-tenant workloads (e.g. the qos experiment)
        #: to scale a hostile client's issue rate.
        self.abusive_factors: Dict[str, float] = {}
        #: (event index, FaultEvent) for the stochastic rules; the index
        #: names each rule's RNG stream so rules draw independently.
        self.loss_rules: List[Tuple[int, FaultEvent]] = []
        self.corruption_rules: List[Tuple[int, FaultEvent]] = []
        self.bootstrap_rules: List[Tuple[int, FaultEvent]] = []
        #: live transport objects, registered at construction time so
        #: crash/qp_break events can reach them.
        self.sockets: List[object] = []
        self.qps: List[object] = []
        #: listeners removed by a crash, keyed by node name, restored on
        #: restart: {node: {(node, port): listener}}.
        self._stashed: Dict[str, Dict[tuple, object]] = {}
        #: fires (and is replaced) whenever reachability changes, waking
        #: transfers parked behind a partition.
        self._epoch = self.env.event()
        #: (sim time, kind, detail) of every injected fault, plus count.
        self.log: List[Tuple[float, str, str]] = []
        self.injected = 0
        for index, event in enumerate(plan.events):
            self._arm(index, event)

    # -- plan arming -------------------------------------------------------
    def _arm(self, index: int, event: FaultEvent) -> None:
        kind = event.kind
        if kind == "node_crash":
            self._at(event.at, lambda e=event: self._crash(e.node))
        elif kind == "node_restart":
            self._at(event.at, lambda e=event: self._restart(e.node))
        elif kind == "partition":
            self._at(event.at, lambda e=event: self._partition_on(e.between))
            if event.until is not None:
                self._at(event.until, lambda e=event: self._partition_off(e.between))
        elif kind == "qp_break":
            self._at(event.at, lambda e=event: self._break_qps(e.node))
        elif kind == "slow_nic":
            self._at(event.at, lambda e=event: self._set_factor(
                self.nic_factors, e.node, e.factor, "slow_nic"))
            if event.until is not None:
                self._at(event.until, lambda e=event: self._clear_factor(
                    self.nic_factors, e.node, "slow_nic"))
        elif kind == "slow_disk":
            self._at(event.at, lambda e=event: self._set_factor(
                self.disk_factors, e.node, e.factor, "slow_disk"))
            if event.until is not None:
                self._at(event.until, lambda e=event: self._clear_factor(
                    self.disk_factors, e.node, "slow_disk"))
        elif kind == "abusive_tenant":
            self._at(event.at, lambda e=event: self._set_factor(
                self.abusive_factors, e.node, e.factor, "abusive_tenant"))
            if event.until is not None:
                self._at(event.until, lambda e=event: self._clear_factor(
                    self.abusive_factors, e.node, "abusive_tenant"))
        elif kind == "packet_loss":
            self.loss_rules.append((index, event))
        elif kind == "corruption":
            self.corruption_rules.append((index, event))
        elif kind == "ib_bootstrap_failure":
            self.bootstrap_rules.append((index, event))

    def _at(self, when: float, action) -> None:
        """Run ``action`` at simulated time ``when`` via a sim process."""

        def proc():
            yield self.env.timeout(max(0.0, when - self.env.now))
            action()

        self._scheduler = self.env.process(proc(), name="fault-at")

    def _note(self, kind: str, detail: str) -> None:
        self.injected += 1
        self.log.append((self.env.now, kind, detail))
        self.fabric.metrics.counter("faults.injected", kind=kind).add()

    def _bump_epoch(self) -> None:
        """Wake everything parked on a reachability change."""
        fired, self._epoch = self._epoch, self.env.event()
        fired.succeed()

    # -- transport registration (called at construction time) -------------
    def register_socket(self, sock) -> None:
        self.sockets.append(sock)

    def register_qp(self, qp) -> None:
        self.qps.append(qp)

    # -- timed actions -----------------------------------------------------
    def _crash(self, node: str) -> None:
        if node in self.down:
            return
        self.down.add(node)
        stash = self._stashed.setdefault(node, {})
        for key, listener in list(self.fabric.listeners.items()):
            if key[0] == node:
                stash[key] = listener
                del self.fabric.listeners[key]
        # A crashed machine's TCP peers see a reset; established QPs
        # error out on both ends.
        self.sockets = [s for s in self.sockets if not s.closed]
        for sock in list(self.sockets):
            if sock.local.name == node or sock.remote.name == node:
                sock.close()
        self.qps = [q for q in self.qps if not (q.closed or q.broken)]
        for qp in list(self.qps):
            if qp.local.node.name == node or qp.remote.node.name == node:
                qp.break_qp(f"node {node} crashed")
        self._note("node_crash", node)
        self._bump_epoch()

    def _restart(self, node: str) -> None:
        if node not in self.down:
            return
        self.down.discard(node)
        for key, listener in self._stashed.pop(node, {}).items():
            self.fabric.listeners.setdefault(key, listener)
        self._note("node_restart", node)
        self._bump_epoch()

    def _partition_on(self, pair) -> None:
        self.partitions.append(pair)
        self._note("partition", f"{sorted(pair[0])} | {sorted(pair[1])}")
        self._bump_epoch()

    def _partition_off(self, pair) -> None:
        if pair in self.partitions:
            self.partitions.remove(pair)
        self._note("partition_heal", f"{sorted(pair[0])} | {sorted(pair[1])}")
        self._bump_epoch()

    def _break_qps(self, node: Optional[str]) -> None:
        self.qps = [q for q in self.qps if not (q.closed or q.broken)]
        broken = 0
        for qp in list(self.qps):
            if node is not None and node not in (
                qp.local.node.name, qp.remote.node.name
            ):
                continue
            qp.break_qp("injected qp_break")
            broken += 1
        self._note("qp_break", f"{node or '*'}: {broken} qp(s)")

    def _set_factor(self, table, node, factor, kind) -> None:
        table[node] = factor
        self._note(kind, f"{node} x{factor:g}")

    def _clear_factor(self, table, node, kind) -> None:
        table.pop(node, None)
        self._note(f"{kind}_end", node)

    # -- reachability ------------------------------------------------------
    def _partitioned(self, a: str, b: str) -> bool:
        for side_a, side_b in self.partitions:
            if (a in side_a and b in side_b) or (a in side_b and b in side_a):
                return True
        return False

    def blocked(self, a: str, b: str) -> bool:
        """No traffic can start between nodes ``a`` and ``b`` right now."""
        return a in self.down or b in self.down or self._partitioned(a, b)

    def wait_transferable(self, src, dst):
        """Generator: park while src->dst is partitioned; False if a
        crashed endpoint means the bytes are simply lost."""
        while True:
            if src.name in self.down or dst.name in self.down:
                return False
            if not self._partitioned(src.name, dst.name):
                return True
            yield self._epoch

    def deliverable(self, src, dst) -> bool:
        """Post-transfer delivery check: data sent to a node that died
        mid-flight is gone."""
        return src.name not in self.down and dst.name not in self.down

    # -- stochastic draws --------------------------------------------------
    def _matches(self, event: FaultEvent, a: str, b: str) -> bool:
        if not event.active(self.env.now):
            return False
        return event.node is None or event.node in (a, b)

    def loss_delay(self, src: str, dst: str) -> float:
        """Retransmission penalty (usec) if this wire chunk is lost."""
        for index, event in self.loss_rules:
            if self._matches(event, src, dst):
                if self.rng.stream(f"loss.{index}").random() < event.rate:
                    self._note("packet_loss", f"{src}->{dst}")
                    return event.rto_us
        return 0.0

    def corrupts(self, src: str, dst: str) -> bool:
        """Whether this wire chunk arrives corrupted (connection reset)."""
        for index, event in self.corruption_rules:
            if self._matches(event, src, dst):
                if self.rng.stream(f"corrupt.{index}").random() < event.rate:
                    self._note("corruption", f"{src}->{dst}")
                    return True
        return False

    def ib_bootstrap_fails(self, client: str, server: str) -> bool:
        """Whether this endpoint exchange fails (drawn once per attempt)."""
        for index, event in self.bootstrap_rules:
            if self._matches(event, client, server):
                if self.rng.stream(f"bootstrap.{index}").random() < event.rate:
                    self._note("ib_bootstrap_failure", f"{client}->{server}")
                    return True
        return False

    # -- degradation factors ----------------------------------------------
    def nic_factor(self, src: str, dst: str) -> float:
        return max(self.nic_factors.get(src, 1.0), self.nic_factors.get(dst, 1.0))

    def disk_factor(self, node: str) -> float:
        return self.disk_factors.get(node, 1.0)

    def abusive_factor(self, node: str) -> float:
        return self.abusive_factors.get(node, 1.0)
