"""The four benchmark workloads, each as one self-contained round.

A round builds a fresh simulated cluster, makes its inputs from a round
seed, warms up, runs a fixed amount of timed work, and returns what it
measured.  The same round seed always gives the same round on the
simulated clock, so every ``sim_*`` number is deterministic; only the
host-clock numbers vary.

The program is driven through its public API only: ``Environment``,
``Fabric``, ``RPC.get_server/get_client/get_proxy``, ``HdfsCluster``,
``HBaseCluster``/``HTable``.  A :class:`Probe` passed in by the caller
sees the start and end of the timed phase and the objects the round
built; the tracing probe in ``layers.py`` reads its counters there.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
from time import perf_counter
from typing import Callable, Dict, List

from repro.calibration import FABRICS, IB_RDMA, IPOIB_QDR
from repro.config import Configuration
from repro.hbase.cluster import HBaseCluster
from repro.hdfs.cluster import HdfsCluster
from repro.io.writables import BytesWritable
from repro.net.fabric import Fabric
from repro.rpc.call import RemoteException
from repro.rpc.engine import RPC
from repro.rpc.metrics import RpcMetrics
from repro.rpc.microbench import PingPongProtocol, PingPongService
from repro.rpc.protocol import RpcProtocol
from repro.simcore import Environment
from repro.simcore.environment import StopSimulation, events_total
from repro.simcore.rng import Random

import reference

SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "workloads.json")
with open(SPEC_PATH, encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

#: what an op may raise under the RPC failure semantics; anything else
#: is a simulator bug and crashes the run.
RPC_FAILURES = (RemoteException, ConnectionError)

#: p99 is reported only with at least this many samples (ten beyond it).
MIN_P99_SAMPLES = 1000


def loop_params(name: str) -> dict:
    return SPEC["workloads"][name]["loop"]


def percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def stream(workload: str, seed: str, part: str) -> random.Random:
    """An input stream for one workload part, fixed by the round seed."""
    return random.Random(f"{workload}/{seed}/{part}")


def sim_metrics(latencies: Dict[str, List[float]], window_us: float) -> dict:
    """Simulated-clock end-to-end metrics of timed ops.

    ``latencies`` maps op kind to latencies (us); ``window_us`` is the
    simulated length of the timed phase(s) they completed in.
    """
    every = sorted(v for values in latencies.values() for v in values)
    samples = len(every)
    out = {
        "sim_ops_per_s": samples / (window_us / 1e6),
        "sim_p50_us": percentile(every, 50.0),
        "sim_p99_us": percentile(every, 99.0),
        "samples": samples,
    }
    if len(latencies) > 1:
        for kind, values in latencies.items():
            out[f"sim_p99_us.{kind}"] = percentile(sorted(values), 99.0)
            out[f"samples.{kind}"] = len(values)
    return out


def pooled_sim(rounds: List[dict]) -> dict:
    """Sim metrics over several rounds' timed ops taken together."""
    latencies: Dict[str, List[float]] = {}
    for r in rounds:
        for kind, values in r["latencies"].items():
            latencies.setdefault(kind, []).extend(values)
    return sim_metrics(
        latencies, sum(end - start for start, end in (r["sim_window_us"] for r in rounds))
    )


class Probe:
    """Host-clock marks around one round; the tracing probe extends it.

    ``paused_s`` counts host time the probe itself spends inside the
    round (``SpeedProbe``'s reference samples); the round's host times
    leave it out.
    """

    def begin_round(self) -> None:
        self.paused_s = 0.0
        self.t_round = perf_counter()

    def watch(self, **objects) -> None:
        """The objects the round built (fabric, servers, clients, ...)."""

    def run(self, env: Environment, until):
        """Run the round's simulation until ``until`` is processed."""
        return env.run(until)

    def timed_start(self, env: Environment) -> None:
        self.t_start = perf_counter()
        self.paused_start = self.paused_s

    def timed_end(self, env: Environment) -> None:
        self.t_end = perf_counter()
        self.paused_end = self.paused_s


def _stop(event) -> None:
    raise StopSimulation(event)


class SpeedProbe(Probe):
    """Times the reference loop (``reference.py``) between slices of the
    simulation of about ``SLICE_S`` host seconds each, so the set-up and
    the timed phase each carry the host speed they ran at.

    A slice ends at a simulated instant (``env.run(<time>)``), and the
    round's own ``until`` ends the last slice the moment it is processed,
    as ``env.run(until)`` would: slicing does not change the simulation,
    which the traced run, run in one piece, checks bit for bit.
    """

    #: host seconds of simulation between two reference samples.
    SLICE_S = 0.03

    def __init__(self):
        self.step_us = 100.0

    def begin_round(self) -> None:
        self.rates = {"setup": [], "timed": [], "after": []}
        self.phase = "setup"
        self.rates["setup"].append(reference.sample()[0])
        super().begin_round()

    def _sample(self) -> None:
        rate, took = reference.sample()
        self.rates[self.phase].append(rate)
        self.paused_s += took

    def run(self, env: Environment, until):
        until.add_callback(_stop)
        while True:
            begin = perf_counter()
            value = env.run(env.now + self.step_us)
            took = perf_counter() - begin
            if until.callbacks is None:
                return value
            if env.peek() == math.inf:
                raise RuntimeError(f"no scheduled events left but {until!r} has not fired")
            self.step_us *= min(4.0, max(0.25, self.SLICE_S / max(took, 1e-4)))
            self._sample()

    def timed_start(self, env: Environment) -> None:
        super().timed_start(env)
        self.phase = "timed"

    def timed_end(self, env: Environment) -> None:
        super().timed_end(env)
        self.phase = "after"

    def host_rates(self) -> Dict[str, float]:
        """Median reference rate of the set-up and of the timed phase."""
        return {
            "setup": statistics.median(self.rates["setup"]),
            "timed": statistics.median(self.rates["timed"] or self.rates["setup"]),
        }


class OpLog:
    """Settlement accounting for every op a round issues."""

    def __init__(self, kinds: List[str]):
        self.attempted = 0
        self.completed = 0
        self.failed = 0
        self.timed_attempted = 0
        self.timed_failed = 0
        self.echoes = 0
        self.mismatches = 0
        self.latencies: Dict[str, List[float]] = {kind: [] for kind in kinds}
        self.issued: Dict[str, int] = {kind: 0 for kind in kinds}

    def run(self, env, kind: str, process, start: float, measure: bool,
            expected: bytes = None):
        """Generator: wait for one op, settle it exactly once."""
        self.attempted += 1
        self.issued[kind] += 1
        if measure:
            self.timed_attempted += 1
        try:
            value = yield process
        except RPC_FAILURES:
            self.failed += 1
            if measure:
                self.timed_failed += 1
            return
        self.completed += 1
        if expected is not None:
            self.echoes += 1
            if value.value != expected:
                self.mismatches += 1
        if measure:
            self.latencies[kind].append(env.now - start)

    def checks(self) -> Dict[str, bool]:
        out = {
            "every op settled exactly once": (
                self.completed + self.failed == self.attempted
            ),
        }
        if self.echoes:
            out["echoed bytes equal the sent payload"] = self.mismatches == 0
        for kind, values in self.latencies.items():
            out[f"p99 has >= 10 samples beyond it ({kind})"] = (
                len(values) >= MIN_P99_SAMPLES
            )
        return out


def closed_loop(env, callers: int, warmup: int, timed: int,
                do_op: Callable, probe: Probe, window: dict,
                start_offsets: List[float] = None) -> list:
    """Start ``callers`` call-at-a-time callers; a barrier after the
    warmup releases them together into the timed phase, where caller
    ``i`` first waits ``start_offsets[i]`` us when offsets are given."""
    barrier = env.event()
    counts = {"ready": 0, "done": 0}

    def caller(index: int):
        for op in range(warmup):
            yield from do_op(index, op, False)
        counts["ready"] += 1
        if counts["ready"] == callers:
            window["start"] = env.now
            probe.timed_start(env)
            barrier.succeed()
        else:
            yield barrier
        if start_offsets is not None:
            yield env.timeout(start_offsets[index])
        for op in range(warmup, warmup + timed):
            yield from do_op(index, op, True)
        counts["done"] += 1
        if counts["done"] == callers:
            window["end"] = env.now
            probe.timed_end(env)

    return [env.process(caller(i), name=f"bench-caller-{i}") for i in range(callers)]


def _finish(env, until, log: OpLog, window: dict, probe: Probe,
            extra_checks: Callable[[], Dict[str, bool]]) -> dict:
    events_before = events_total()
    run_start, paused_before = perf_counter(), probe.paused_s
    probe.run(env, until)
    run_s = perf_counter() - run_start - (probe.paused_s - paused_before)
    checks = log.checks()
    checks.update(extra_checks())
    return {
        "setup_s": probe.t_start - probe.t_round - probe.paused_start,
        "timed_s": probe.t_end - probe.t_start - (probe.paused_end - probe.paused_start),
        "run_s": run_s,
        "events": events_total() - events_before,
        "ops": log.timed_attempted - log.timed_failed,
        "round_ops": log.attempted,
        "attempted": log.timed_attempted,
        "failed": log.timed_failed,
        "sim_window_us": [window["start"], window["end"]],
        "latencies": log.latencies,
        "sim": sim_metrics(log.latencies, window["end"] - window["start"]),
        "checks": checks,
    }


# -- pingpong-closed -----------------------------------------------------------
def pingpong_closed(seed: str, probe: Probe) -> dict:
    """Fig. 5(b): RPCoIB, one server with 8 handlers, 64 callers on 8
    client nodes (one Client each, as the WBDB'13 harness runs it),
    call-at-a-time 512 B echoes."""
    params = loop_params("pingpong-closed")
    callers, nodes_n = params["callers"], params["client_nodes"]
    offsets_rng = stream("pingpong-closed", seed, "first-call-offsets")
    offsets = [offsets_rng.uniform(0.0, 20.0) for _ in range(callers)]

    probe.begin_round()
    env = Environment()
    fabric = Fabric(env)
    server_node = fabric.add_node("server")
    nodes = fabric.add_nodes("cn", nodes_n)
    conf = Configuration({"rpc.ib.enabled": True, "ipc.server.handler.count": 8})
    server = RPC.get_server(
        fabric, server_node, 9000, PingPongService(), PingPongProtocol,
        IPOIB_QDR, conf=conf,
    )
    metrics = RpcMetrics()
    clients = [
        RPC.get_client(fabric, nodes[i % nodes_n], IPOIB_QDR, conf=conf, metrics=metrics)
        for i in range(callers)
    ]
    proxies = [RPC.get_proxy(PingPongProtocol, server.address, c) for c in clients]
    payload = BytesWritable(b"\x5a" * 512)
    log = OpLog(["echo"])
    window: dict = {}

    def do_op(index, op, measure):
        start = env.now
        yield from log.run(
            env, "echo", proxies[index].pingpong(payload), start, measure,
            expected=payload.value,
        )

    procs = closed_loop(
        env, callers, params["warmup_ops_per_caller"],
        params["timed_ops_per_caller"], do_op, probe, window, offsets,
    )
    probe.watch(fabric=fabric, servers=[server], clients=clients, rpc_metrics=[metrics])
    return _finish(env, env.all_of(procs), log, window, probe, lambda: {
        "server.calls_handled equals calls issued": (
            server.calls_handled == log.attempted
        ),
    })


# -- incast-open ---------------------------------------------------------------
def incast_open(seed: str, probe: Probe) -> dict:
    """Open-loop incast: seeded Poisson arrivals from 1024 caller ids on
    4 client nodes against one server over sockets/IPoIB, async mux at
    window 32.  Every arrival issues its call at once; latency counts
    from the scheduled arrival."""
    params = loop_params("incast-open")
    ids, nodes_n = params["caller_ids"], params["client_nodes"]
    warm_n, timed_n = params["warmup_arrivals"], params["timed_arrivals"]
    total = warm_n + timed_n
    rng = stream("incast-open", seed, "arrivals")
    rate_per_us = params["rate_calls_per_s"] / 1e6
    arrivals = []
    at = 0.0
    for _ in range(total):
        at += rng.expovariate(rate_per_us)
        arrivals.append((at, rng.randrange(ids)))

    probe.begin_round()
    spec = FABRICS["ipoib"]
    env = Environment()
    fabric = Fabric(env)
    server_node = fabric.add_node("nn")
    nodes = fabric.add_nodes("cn", nodes_n)
    conf = Configuration({
        "rpc.ib.enabled": False,
        # sized as the incast experiment sizes it: one slot per caller
        "ipc.server.callqueue.size": ids,
        "ipc.client.async.enabled": True,
        "ipc.client.async.max-inflight": 32,
    })
    server = RPC.get_server(
        fabric, server_node, 9000, PingPongService(), PingPongProtocol,
        spec, conf=conf,
    )
    metrics = RpcMetrics()
    clients = [RPC.get_client(fabric, n, spec, conf=conf, metrics=metrics) for n in nodes]
    proxies = [RPC.get_proxy(PingPongProtocol, server.address, c) for c in clients]
    payload = BytesWritable(b"\x5a" * 128)
    log = OpLog(["echo"])
    window: dict = {}
    all_done = env.event()
    settled = {"timed": 0, "all": 0}

    def one_call(index, due, caller_id):
        measure = index >= warm_n
        yield from log.run(
            env, "echo", proxies[caller_id % nodes_n].pingpong(payload), due,
            measure, expected=payload.value,
        )
        settled["all"] += 1
        if measure:
            settled["timed"] += 1
            if settled["timed"] == timed_n:
                window["end"] = env.now
                probe.timed_end(env)
        if settled["all"] == total:
            all_done.succeed()

    def generator():
        for index, (due, caller_id) in enumerate(arrivals):
            yield env.timeout(max(0.0, due - env.now))
            if index == warm_n:
                window["start"] = env.now
                probe.timed_start(env)
            env.process(one_call(index, due, caller_id), name="bench-arrival")

    env.process(generator(), name="bench-arrivals")
    probe.watch(fabric=fabric, servers=[server], clients=clients, rpc_metrics=[metrics])
    return _finish(env, all_done, log, window, probe, lambda: {
        "server.calls_handled equals calls issued": (
            server.calls_handled == log.attempted
        ),
    })


# -- bulk-adaptive -------------------------------------------------------------
class BulkProtocol(RpcProtocol):
    """Two call kinds with very different message sizes."""

    VERSION = 1

    def small_op(self, payload: BytesWritable) -> BytesWritable:
        raise NotImplementedError

    def large_op(self, payload: BytesWritable) -> BytesWritable:
        raise NotImplementedError


class BulkService(BulkProtocol):
    def small_op(self, payload: BytesWritable) -> BytesWritable:
        return payload

    def large_op(self, payload: BytesWritable) -> BytesWritable:
        return payload


LARGE_MIN, LARGE_MAX = 16 * 1024, 512 * 1024


def bulk_adaptive(seed: str, probe: Probe) -> dict:
    """RPCoIB with the adaptive transport and the buddy pool; 8 callers
    on 2 nodes; every third op is a large_op whose size is drawn
    log-uniformly from [16 KB, 512 KB], the rest 512 B small_ops."""
    params = loop_params("bulk-adaptive")
    callers, nodes_n = params["callers"], params["client_nodes"]
    ops = params["warmup_ops_per_caller"] + params["timed_ops_per_caller"]
    rng = stream("bulk-adaptive", seed, "large-sizes")
    span = math.log(LARGE_MAX / LARGE_MIN)
    sizes = [
        [int(LARGE_MIN * math.exp(rng.random() * span)) for _ in range(ops)]
        for _ in range(callers)
    ]

    probe.begin_round()
    env = Environment()
    fabric = Fabric(env)
    server_node = fabric.add_node("server")
    nodes = fabric.add_nodes("cn", nodes_n)
    conf = Configuration({
        "rpc.ib.enabled": True,
        "ipc.ib.adaptive.enabled": True,
        "rpc.ib.pool.impl": "buddy",
        # 256 KB slabs: the largest messages outgrow a slab and take the
        # oversized path through the registration cache.
        "rpc.ib.pool.slab.bytes": 256 * 1024,
    })
    server = RPC.get_server(
        fabric, server_node, 9000, BulkService(), BulkProtocol, IPOIB_QDR, conf=conf,
    )
    metrics = RpcMetrics()
    clients = [RPC.get_client(fabric, n, IPOIB_QDR, conf=conf, metrics=metrics) for n in nodes]
    proxies = [
        RPC.get_proxy(BulkProtocol, server.address, clients[i % nodes_n])
        for i in range(callers)
    ]
    small = BytesWritable(b"\x11" * 512)
    log = OpLog(["small", "large"])
    window: dict = {}

    def do_op(index, op, measure):
        start = env.now
        if op % 3 == 2:
            payload = BytesWritable(bytes([index + 1]) * sizes[index][op])
            call = proxies[index].large_op(payload)
            yield from log.run(env, "large", call, start, measure, payload.value)
        else:
            call = proxies[index].small_op(small)
            yield from log.run(env, "small", call, start, measure, small.value)

    procs = closed_loop(
        env, callers, params["warmup_ops_per_caller"],
        params["timed_ops_per_caller"], do_op, probe, window,
    )
    probe.watch(fabric=fabric, servers=[server], clients=clients, rpc_metrics=[metrics])
    return _finish(env, env.all_of(procs), log, window, probe, lambda: {
        "server.calls_handled equals calls issued": (
            server.calls_handled == log.attempted
        ),
    })


# -- ycsb-mix ------------------------------------------------------------------
#: fig8_hbase's default op count (640K paper ops at scale 50).  The
#: memstore flush size is fig8's formula at that count, scaled by the
#: round's share of it, so each region server flushes about three
#: times a round — the pressure fig8 puts on it.
YCSB_FIG8_OPS = 12800
YCSB_RECORDS = 16000
YCSB_CLUSTER_SEED = 42
#: block cache scaled down with the record set (as fig8 scales the
#: records) so the 1 MB-per-server store exceeds it: misses stay nonzero.
YCSB_BLOCK_CACHE = 512 * 1024


def ycsb_mix(seed: str, probe: Probe) -> dict:
    """Fig. 8 HBaseoIB-RPCoIB stack: 16 region servers over HDFS, 16
    client nodes x 4 closed-loop threads, 50% get / 50% put of 1 KB
    records with seeded keys."""
    params = loop_params("ycsb-mix")
    nodes_n, threads = params["client_nodes"], params["threads_per_node"]
    callers = nodes_n * threads
    warmup, timed = params["warmup_ops_per_caller"], params["timed_ops_per_caller"]
    key_rng = stream("ycsb-mix", seed, "keys")
    plans = [
        [
            (f"user{key_rng.randrange(YCSB_RECORDS):012d}", key_rng.random() < 0.5)
            for _ in range(warmup + timed)
        ]
        for _ in range(callers)
    ]
    put_bytes_per_rs = 0.5 * YCSB_FIG8_OPS * 1024 / 16
    fig8_flush = max(128 * 1024, int(put_bytes_per_rs / 3.25))
    flush = int(fig8_flush * callers * timed / YCSB_FIG8_OPS)
    # The cluster's own draws (WAL peers, cache hits) come from a fixed
    # stream: the seed varies the inputs, not the testbed.
    cluster_rng = Random(YCSB_CLUSTER_SEED)

    probe.begin_round()
    env = Environment()
    fabric = Fabric(env)
    nn = fabric.add_node("namenode")
    rs_nodes = fabric.add_nodes("rs", 16)
    client_nodes = fabric.add_nodes("client", nodes_n)
    conf = Configuration({
        "rpc.ib.enabled": True,
        "hbase.hregion.memstore.flush.size": flush,
        "hbase.blockcache.size": YCSB_BLOCK_CACHE,
    })
    rpc_net = FABRICS["ipoib"]
    hdfs = HdfsCluster(
        fabric, nn, rs_nodes, rpc_net, conf=conf, data_transport="rdma",
        rng=Random(cluster_rng.getrandbits(32)), heartbeats=False,
    )
    hbase = HBaseCluster(
        fabric, rs_nodes, hdfs, rpc_net, conf=conf, payload_rdma=True,
        wal_data_spec=IB_RDMA, rng=Random(cluster_rng.getrandbits(32)),
    )
    hbase.preload(YCSB_RECORDS, 1024)
    tables = [hbase.table(node, 1024) for node in client_nodes]
    log = OpLog(["get", "put"])
    window: dict = {}

    def do_op(index, op, measure):
        row, is_get = plans[index][op]
        table = tables[index // threads]
        start = env.now
        if is_get:
            yield from log.run(env, "get", table.get(row), start, measure)
        else:
            yield from log.run(env, "put", table.put(row), start, measure)

    def start_threads():
        yield hdfs.wait_ready()
        procs = closed_loop(env, callers, warmup, timed, do_op, probe, window)
        yield env.all_of(procs)

    probe.watch(
        fabric=fabric, servers=[rs.server for rs in hbase.regionservers],
        clients=[t.client for t in tables], rpc_metrics=[hbase.metrics], hbase=hbase,
    )

    def checks():
        totals = hbase.totals()
        return {
            "region-server gets equal gets issued": totals["gets"] == log.issued["get"],
            "region-server puts equal puts issued": totals["puts"] == log.issued["put"],
        }

    return _finish(env, env.process(start_threads(), name="bench-ycsb"), log, window, probe, checks)


WORKLOADS = {
    "pingpong-closed": pingpong_closed,
    "incast-open": incast_open,
    "bulk-adaptive": bulk_adaptive,
    "ycsb-mix": ycsb_mix,
}
