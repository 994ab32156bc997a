"""Per-layer attribution for the traced run, done from outside the program.

The layers are the ``src/repro`` packages; ``rpc`` is split into client,
server and mux.  Installing a :class:`LayerTracer`:

* wraps every public, non-generator method of every class defined in a
  layer's modules, so host time inside it is charged to that layer;
* wraps the generator handed to ``Environment.process`` so each
  ``send``/``throw`` is charged to the layer of the generator's module;
* wraps ``Environment.run`` as the ``simcore`` layer, so the event loop's
  own time (outside every wrapped call) is simcore's self time.

Accounting is by switching: whichever layer is innermost owns the clock
until the next entry or exit, so nested calls are subtracted from their
callers and the buckets partition the host time exactly.  Time with no
layer innermost (the benchmark's own callers, unwrapped modules) goes to
the unattributed bucket.

The tracer also counts work at a few public entry points (transfers,
copies, allocations, serialized bytes, HDFS writes) and runs the round
under ``obs_session(trace=True)`` so the program's own ``rpc.*`` spans
give the simulated-clock stage times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
from collections import defaultdict
from enum import Enum
from time import perf_counter
from typing import Dict, List, Optional

from repro.obs.runtime import obs_session
from repro.simcore import Environment

from workloads import Probe, percentile

#: packages wrapped, and the layer each maps to.
LAYER_PACKAGES = ("rpc", "io", "mem", "net", "obs", "hdfs", "hbase")
RPC_SERVER_MODULES = ("server", "callqueue", "scheduler")
LAYERS = (
    "simcore", "rpc.client", "rpc.server", "rpc.mux", "io", "mem", "net",
    "obs", "hdfs", "hbase",
)


def layer_of(module: str) -> Optional[str]:
    """The layer a module belongs to, or None (unattributed)."""
    parts = module.split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return None
    package = parts[1]
    if package == "simcore":
        return "simcore"
    if package == "rpc":
        sub = parts[2] if len(parts) > 2 else ""
        if sub in RPC_SERVER_MODULES:
            return "rpc.server"
        return "rpc.mux" if sub == "mux" else "rpc.client"
    return package if package in LAYER_PACKAGES else None


class Clock:
    """Switch-based self-time accounting: one bucket owns the clock."""

    def __init__(self):
        self.acc: Dict[Optional[str], float] = defaultdict(float)
        self.stack: List[Optional[str]] = []
        self.top: Optional[str] = None
        self.last = perf_counter()

    def snapshot(self) -> Dict[Optional[str], float]:
        now = perf_counter()
        self.acc[self.top] += now - self.last
        self.last = now
        return dict(self.acc)


def _timed(clock: Clock, fn, layer: str, observe=None):
    acc = clock.acc
    stack = clock.stack

    def wrapper(*args, **kwargs):
        if observe is not None:
            observe(*args, **kwargs)
        if clock.top == layer:
            return fn(*args, **kwargs)
        now = perf_counter()
        acc[clock.top] += now - clock.last
        stack.append(clock.top)
        clock.top = layer
        clock.last = now
        try:
            return fn(*args, **kwargs)
        finally:
            now = perf_counter()
            acc[layer] += now - clock.last
            clock.top = stack.pop()
            clock.last = now

    return functools.wraps(fn)(wrapper)


class TimedGenerator:
    """A simulation process body whose resumptions are charged to a layer."""

    __slots__ = ("gen", "layer", "clock")

    def __init__(self, gen, layer, clock: Clock):
        self.gen = gen
        self.layer = layer
        self.clock = clock

    def _resume(self, method, *args):
        clock = self.clock
        if clock.top == self.layer:
            return method(*args)
        now = perf_counter()
        clock.acc[clock.top] += now - clock.last
        clock.stack.append(clock.top)
        clock.top = self.layer
        clock.last = now
        try:
            return method(*args)
        finally:
            now = perf_counter()
            clock.acc[self.layer] += now - clock.last
            clock.top = clock.stack.pop()
            clock.last = now

    def send(self, value):
        return self._resume(self.gen.send, value)

    def throw(self, *args):
        return self._resume(self.gen.throw, *args)

    def close(self):
        return self.gen.close()


def _wrappable(cls) -> bool:
    return not (
        issubclass(cls, (BaseException, Enum, tuple))
        or getattr(cls, "_is_protocol", False)
    )


class LayerTracer(Probe):
    """Probe that attributes host time to layers and counts layer work."""

    def __init__(self):
        self.clock = Clock()
        self.counts: Dict[str, float] = defaultdict(float)
        self.qps: set = set()
        self.shadow_pools: set = set()
        self.buddy_pools: set = set()
        self.heaps: set = set()
        self._layer_cache: Dict[object, Optional[str]] = {}
        self._session = None

    # -- installation -----------------------------------------------------
    def install(self) -> int:
        """Wrap every layer's public entry points; returns how many."""
        observers = self._observers()
        wrapped = 0
        for package in LAYER_PACKAGES:
            path = importlib.import_module(f"repro.{package}").__path__
            for info in pkgutil.iter_modules(path, f"repro.{package}."):
                wrapped += self._wrap_module(info.name, observers)
        self._wrap_simcore()
        return wrapped

    def _wrap_module(self, module_name: str, observers: dict) -> int:
        layer = layer_of(module_name)
        module = importlib.import_module(module_name)
        wrapped = 0
        for cls in list(vars(module).values()):
            if not (inspect.isclass(cls) and cls.__module__ == module_name
                    and _wrappable(cls)):
                continue
            for name, attr in list(vars(cls).items()):
                if name.startswith("_"):
                    continue
                observe = observers.get(f"{module_name}.{cls.__name__}.{name}")
                if isinstance(attr, (staticmethod, classmethod)):
                    fn = attr.__func__
                    if inspect.isgeneratorfunction(fn):
                        continue
                    setattr(cls, name, type(attr)(_timed(self.clock, fn, layer)))
                elif inspect.isfunction(attr):
                    if inspect.isgeneratorfunction(attr):
                        continue
                    setattr(cls, name, _timed(self.clock, attr, layer, observe))
                else:
                    continue
                wrapped += 1
        return wrapped

    def _wrap_simcore(self) -> None:
        clock = self.clock
        counts = self.counts
        cache = self._layer_cache
        original_process = Environment.process

        def process(env, generator, name=""):
            counts["processes"] += 1
            code = getattr(generator, "gi_code", None)
            layer = cache.get(code, False)
            if layer is False:
                frame = getattr(generator, "gi_frame", None)
                module = frame.f_globals.get("__name__", "") if frame else ""
                layer = cache[code] = layer_of(module)
            return original_process(
                env, TimedGenerator(generator, layer, clock),
                name=name or getattr(generator, "__name__", "process"),
            )

        Environment.process = process
        Environment.run = _timed(clock, Environment.run, "simcore")

    def _observers(self) -> dict:
        counts = self.counts

        def transfer(fabric, src, dst, nbytes, spec):
            counts["transfers"] += 1
            counts["wire_bytes"] += nbytes

        def post_send(qp, *args, **kwargs):
            self.qps.add(qp)

        def charge_copy(ledger, nbytes):
            counts["copy_bytes"] += nbytes

        def charge_heap_alloc(ledger, nbytes):
            counts["alloc_bytes"] += nbytes

        def charge_write_op(ledger, nbytes):
            counts["serialized_bytes"] += nbytes

        def call(client, *args, **kwargs):
            counts["rpc_calls"] += 1

        def write_file(dfs, path, nbytes, *args, **kwargs):
            counts["hdfs_bytes_written"] += nbytes

        return {
            "repro.net.fabric.Fabric.transfer": transfer,
            "repro.net.verbs.QueuePair.post_send": post_send,
            "repro.mem.cost.CostLedger.charge_copy": charge_copy,
            "repro.mem.cost.CostLedger.charge_heap_alloc": charge_heap_alloc,
            "repro.mem.cost.CostLedger.charge_write_op": charge_write_op,
            "repro.rpc.client.Client.call": call,
            "repro.hdfs.client.DFSClient.write_file": write_file,
            "repro.mem.shadow_pool.HistoryShadowPool.acquire": (
                lambda pool, *a, **k: self.shadow_pools.add(pool)
            ),
            "repro.mem.buddy_pool.BuddyBufferPool.get": (
                lambda pool, *a, **k: self.buddy_pools.add(pool)
            ),
            "repro.mem.jvm.JvmHeap.absorb": lambda heap, *a, **k: self.heaps.add(heap),
        }

    # -- probe hooks --------------------------------------------------------
    def begin_round(self) -> None:
        for seen in (self.qps, self.shadow_pools, self.buddy_pools, self.heaps):
            seen.clear()
        self.round_processes = self.counts["processes"]
        self._session_cm = obs_session(trace=True, label="perfbench")
        self._session = self._session_cm.__enter__()
        super().begin_round()

    def watch(self, **objects) -> None:
        self.objects = objects

    def _state(self, env) -> dict:
        """Everything counted so far, read at one simulated instant."""
        qp = {k: 0 for k in ("sends", "rdma_sends", "preposted_sends")}
        for pair in self.qps:
            for key in qp:
                qp[key] += getattr(pair, key)
        fabric = self.objects["fabric"]
        registry = {
            name: sum(c.value for c in fabric.metrics.find(name).values())
            for name in (
                "rpc.server.calls_rejected_overload", "rpc.ib.fallbacks",
                "net.predictor.hits", "net.predictor.misses",
                "net.predictor.fallbacks",
            )
        }
        state = {
            "clock": self.clock.snapshot(),
            "counts": dict(self.counts),
            "qp": qp,
            "registry": registry,
            "pool_predictions": sum(p.predictions for p in self.shadow_pools),
            "pool_hits": sum(p.prediction_hits for p in self.shadow_pools),
            "regcache_hits": sum(p.regcache_hits for p in self.buddy_pools),
            "regcache_misses": sum(p.regcache_misses for p in self.buddy_pools),
            "gc_debt_us": sum(h.gc_debt_us for h in self.heaps),
        }
        hbase = self.objects.get("hbase")
        if hbase is not None:
            state["hbase"] = hbase.totals()
        return state

    def timed_start(self, env) -> None:
        self.start_state = self._state(env)
        self.start_profiles = [len(m.call_profiles) for m in self.objects["rpc_metrics"]]
        super().timed_start(env)

    def timed_end(self, env) -> None:
        super().timed_end(env)
        self.end_state = self._state(env)

    def end_round(self, result: dict) -> dict:
        """Per-layer metrics of the round just run; closes its session."""
        self._session_cm.__exit__(None, None, None)
        session, self._session = self._session, None
        a, b = self.start_state, self.end_state
        ops = result["ops"]
        host_s = self.t_end - self.t_start
        layer_s = {
            layer: b["clock"].get(layer, 0.0) - a["clock"].get(layer, 0.0)
            for layer in LAYERS
        }
        unattributed = b["clock"].get(None, 0.0) - a["clock"].get(None, 0.0)

        def delta(*path):
            x, y = a, b
            for key in path:
                x, y = x.get(key, 0), y.get(key, 0)
            return y - x

        def ratio(num, den):
            return num / den if den else 0.0

        metrics = {f"{layer}.self_s": layer_s[layer] for layer in LAYERS}
        metrics.update(self._span_metrics(session, *result["sim_window_us"]))
        rdma = delta("qp", "rdma_sends")
        predictor = [delta("registry", f"net.predictor.{k}") for k in ("hits", "misses", "fallbacks")]
        calls = self._adjustments()
        metrics.update({
            "simcore.events_per_op": result["events"] / result["round_ops"],
            "simcore.processes_per_op": (
                (self.counts["processes"] - self.round_processes) / result["round_ops"]
            ),
            "rpc.calls_per_op": delta("counts", "rpc_calls") / ops,
            "rpc.server.rejected": delta("registry", "rpc.server.calls_rejected_overload"),
            "io.bytes_serialized_per_op": delta("counts", "serialized_bytes") / ops,
            "io.adjustments_per_call": ratio(*calls),
            "mem.pool.hit_rate": ratio(delta("pool_hits"), delta("pool_predictions")),
            "mem.predictor.hit_ratio": ratio(predictor[0], sum(predictor)),
            "mem.buddy.regcache_hit_ratio": ratio(
                delta("regcache_hits"), delta("regcache_hits") + delta("regcache_misses")
            ),
            "mem.copy_bytes_per_op": delta("counts", "copy_bytes") / ops,
            "mem.alloc_bytes_per_op": delta("counts", "alloc_bytes") / ops,
            "mem.gc_pause_us": delta("gc_debt_us") / ops,
            "net.transfers_per_op": delta("counts", "transfers") / ops,
            "net.wire_bytes_per_op": delta("counts", "wire_bytes") / ops,
            "net.prepost_ratio": ratio(delta("qp", "preposted_sends"), rdma),
            "net.ib.fallbacks": delta("registry", "rpc.ib.fallbacks"),
            "trace.unattributed_s": unattributed,
            "trace.host_s": host_s,
        })
        puts = result["sim"].get("samples.put", 0)
        hb_a, hb_b = a.get("hbase"), b.get("hbase")
        if hb_a is not None:
            gets = hb_b["gets"] - hb_a["gets"]
            misses = hb_b["cache_misses"] - hb_a["cache_misses"]
            metrics["hbase.block_cache_hit_ratio"] = 1.0 - ratio(misses, gets)
            metrics["hbase.flushes"] = hb_b["flushes"] - hb_a["flushes"]
            metrics["hbase.compactions"] = hb_b["compactions"] - hb_a["compactions"]
        else:
            for key in ("hbase.block_cache_hit_ratio", "hbase.flushes", "hbase.compactions"):
                metrics[key] = 0.0
        metrics["hdfs.bytes_written_per_put"] = ratio(delta("counts", "hdfs_bytes_written"), puts)
        self.objects = None
        return metrics

    def _adjustments(self):
        """(Algorithm-1 growths, calls) over the timed phase's call profiles."""
        growths = calls = 0
        for metrics, start in zip(self.objects["rpc_metrics"], self.start_profiles):
            window = metrics.call_profiles[start:]
            calls += len(window)
            growths += sum(p.mem_adjustments for p in window)
        return growths, calls

    @staticmethod
    def _span_metrics(session, sim_start: float, sim_end: float) -> dict:
        durations: Dict[str, List[float]] = defaultdict(list)
        retries = 0
        inverse_batch = 0.0
        for tracer in session.tracers:
            for span in tracer.spans:
                if span.end_us is None or not sim_start <= span.start_us <= sim_end:
                    continue
                durations[span.name].append(span.end_us - span.start_us)
                if span.name == "rpc.call":
                    retries += span.attrs.get("retries", 0)
                elif span.name == "rpc.mux.queue":
                    inverse_batch += 1.0 / span.attrs["batch_size"]

        def p(name, q):
            values = durations.get(name)
            return percentile(sorted(values), q) if values else 0.0

        mux_calls = len(durations.get("rpc.mux.queue", ()))
        return {
            "rpc.retries": retries,
            "rpc.serialize_us": p("rpc.serialize", 50),
            "rpc.wire_us": p("rpc.wire", 50),
            "rpc.server.handler_us": p("rpc.server.handler", 50),
            "rpc.server.respond_us": p("rpc.server.respond", 50),
            "rpc.server.queue_us.p50": p("rpc.server.queue", 50),
            "rpc.server.queue_us.p99": p("rpc.server.queue", 99),
            "rpc.mux.queue_us.p50": p("rpc.mux.queue", 50),
            "rpc.mux.queue_us.p99": p("rpc.mux.queue", 99),
            "rpc.mux.avg_batch": mux_calls / inverse_batch if inverse_batch else 0.0,
        }
