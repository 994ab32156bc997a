"""perfbench: the repository's benchmark — four RPC workloads, two clocks.

    python3 perfbench/run.py                        # all workloads, both runs
    python3 perfbench/run.py --workload incast-open --seed 1 --seconds 28 --trace 0

Each workload runs in its own single-threaded worker process.  With
``--trace 0`` the worker runs untraced and the last stdout line carries
every end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` an
untraced worker and then a layer-wrapping, span-recording worker run the
same rounds and the line carries every per-layer metric.  Host-clock
end-to-end metrics are medians over the rounds of a run, each round
scaled to a nominal host speed by the reference rates timed between
its slices (``reference.py``); simulated-clock metrics
are deterministic for a seed and must repeat in every round and in the
traced run bit for bit.  A failed check prints ``"correct": false`` and
exits 1.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys

from reference import NOMINAL_RATE, speed_factor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKER_TIMEOUT_S = 170
#: fresh interpreters whose import time setup_s takes the median of.
IMPORT_PROBES = 5
#: share of a --trace 1 run's seconds given to its untraced worker.
UNTRACED_SHARE = 0.4
#: per-layer self times plus the unattributed time must match the
#: traced host time this closely.
ATTRIBUTION_TOLERANCE = 0.05

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)
with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
WORKLOAD_NAMES = [w["name"] for w in BENCH["workloads"]]
SIM_E2E = ("sim_ops_per_s", "sim_p50_us", "sim_p99_us")


class WorkerFailed(RuntimeError):
    pass


def pooled_rounds(workload: str) -> int:
    return SPEC["workloads"][workload]["loop"]["rounds"]


def run_worker(workload: str, seed: int, budget: float, trace: int,
               min_rounds: int = 1, import_only: bool = False) -> dict:
    """One worker process; returns its JSON result line."""
    cmd = [
        sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
        "--budget", repr(budget), "--trace", str(trace),
        "--min-rounds", str(min_rounds),
    ] + (["--import-only"] if import_only else [])
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{workload} worker timed out after {exc.timeout}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise WorkerFailed(f"{workload} worker exited {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def round_checks(rounds: list, label: str, pooled: int) -> dict:
    """Every round's own checks, plus sim metrics repeating exactly in
    every round that reran an earlier round's seed."""
    checks = {}
    for name in rounds[0]["checks"]:
        checks[f"{label}: {name}"] = all(r["checks"][name] for r in rounds)
    checks[f"{label}: sim metrics repeat when a round seed reruns"] = all(
        r["sim"] == rounds[i % pooled]["sim"] for i, r in enumerate(rounds)
    )
    return checks


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    pooled = pooled_rounds(workload)
    out = run_worker(workload, seed, seconds, 0, min_rounds=pooled)
    rounds = out["rounds"]
    sim = out["pooled_sim"]
    # Each round's rate and set-up at nominal host speed, from the
    # reference rates timed beside them (reference.py).
    rate = statistics.median(
        r["ops"] / r["timed_s"] / speed_factor(r["host_rates"]["timed"]) for r in rounds
    )
    imports = [out] + [
        run_worker(workload, seed, 0, 0, import_only=True) for _ in range(IMPORT_PROBES - 1)
    ]
    setup = statistics.median(
        i["import_s"] * speed_factor(i["import_rate"]) for i in imports
    ) + statistics.median(
        r["setup_s"] * speed_factor(r["host_rates"]["setup"]) for r in rounds
    )
    values = {
        "host_ops_per_s": rate,
        "setup_s": setup,
        "peak_rss_mb": out["peak_rss_mb"],
    }
    values.update({name: sim[name] for name in SIM_E2E})
    return {
        "values": values,
        "sim": sim,
        "rounds": len(rounds),
        "host_speed": statistics.median(r["host_rates"]["timed"] for r in rounds) / NOMINAL_RATE,
        "raw_host_ops_per_s": statistics.median(r["ops"] / r["timed_s"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "checks": round_checks(rounds, "untraced", pooled),
    }


def per_layer(workload: str, seed: int, seconds: float) -> dict:
    pooled = pooled_rounds(workload)
    plain = run_worker(workload, seed, seconds * UNTRACED_SHARE, 0)["rounds"]
    traced = run_worker(workload, seed, seconds * (1 - UNTRACED_SHARE), 1)["rounds"]
    checks = round_checks(plain, "untraced", pooled)
    checks.update(round_checks(traced, "traced", pooled))
    checks["traced sim metrics bit-identical to untraced"] = all(
        t["sim"] == p["sim"] for t, p in zip(traced, plain)
    )
    layer_names = [m["name"] for m in BENCH["per_layer"]]
    self_names = [n for n in layer_names if n.endswith(".self_s")]
    worst = 0.0
    for r in traced:
        layers = r["layers"]
        accounted = sum(layers[n] for n in self_names) + layers["trace.unattributed_s"]
        worst = max(worst, abs(accounted - layers["trace.host_s"]) / layers["trace.host_s"])
    checks[f"layer self times + unattributed = traced host time (within {ATTRIBUTION_TOLERANCE:.0%})"] = (
        worst <= ATTRIBUTION_TOLERANCE
    )
    values = {
        "trace.overhead_ratio": (
            statistics.median(r["timed_s"] for r in traced)
            / statistics.median(r["timed_s"] for r in plain)
        ),
        "simcore.events_per_host_s": statistics.median(
            r["events"] / r["run_s"] for r in plain
        ),
    }
    for name in layer_names:
        if name not in values:
            values[name] = statistics.median(r["layers"][name] for r in traced)
    return {
        "values": values,
        "sim": plain[0]["sim"],
        "rounds": len(traced),
        "untraced_rounds": len(plain),
        "attribution_error": worst,
        "attempted": sum(r["attempted"] for r in traced),
        "failed": sum(r["failed"] for r in traced),
        "checks": checks,
    }


def clock_of(name: str) -> str:
    """Which clock a metric reads: host, sim, or neither (a count)."""
    if name.startswith("sim_") or name.endswith("_us") or "_us." in name:
        return "sim"
    if name in ("host_ops_per_s", "setup_s", "peak_rss_mb") or name.endswith(
        ("self_s", "unattributed_s", "per_host_s", "overhead_ratio")
    ):
        return "host"
    return ""


def units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCH[section]}


def print_report(workload: str, seed: int, trace: int, result: dict) -> None:
    spec = SPEC["workloads"][workload]
    loop = spec["loop"]
    shape = (
        f"open loop, {loop['rate_calls_per_s']} calls/s" if loop["kind"] == "open"
        else f"closed loop, {loop['callers']} callers"
    )
    kind = "per-layer (traced)" if trace else "end-to-end (untraced)"
    print(f"== {workload}  seed {seed}  {kind}  {shape}  rounds {result['rounds']}")
    section = "per_layer" if trace else "end_to_end"
    for name, unit in units(section).items():
        clock = clock_of(name)
        note = f"n={result['sim']['samples']}" if name in SIM_E2E[1:] else ""
        print(f"  {name:<30s} {result['values'][name]:>16.6g} {unit:<6s} {clock:<4s} {note}")
    sim = result["sim"]
    if not trace:
        for key in sorted(k for k in sim if k.startswith("sim_p99_us.")):
            kind_name = key.split(".", 1)[1]
            print(f"  {key:<30s} {sim[key]:>16.6g} {'us':<6s} sim  "
                  f"n={sim['samples.' + kind_name]}")
        print(f"  sim metrics pool {pooled_rounds(workload)} round seeds; host "
              f"metrics are medians over {result['rounds']} rounds at nominal "
              f"speed (reference loop ran at {result['host_speed']:.3f}x nominal; "
              f"unscaled host_ops_per_s {result['raw_host_ops_per_s']:.6g})")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'failed_ratio':<30s} {failed / attempted:>16.6g} {'ratio':<6s}      {failed}/{attempted} ops")
    if trace:
        print(f"  attribution error {result['attribution_error']:.3%} "
              f"(untraced rounds {result['untraced_rounds']})")
    passed = sum(result["checks"].values())
    print(f"  checks: {passed}/{len(result['checks'])} passed")
    for name, ok in result["checks"].items():
        if not ok:
            print(f"    FAILED: {name}")
    accuracy = SPEC["model_accuracy"]
    if not trace and workload == accuracy["workload"]:
        measured = sim[accuracy["metric"]]
        reference = accuracy["reference_ops_per_s"]
        print(f"  model accuracy: {accuracy['metric']} {measured:.0f} vs "
              f"{accuracy['reference']} {reference} ({measured / reference - 1:+.1%}); "
              f"{accuracy['status']}")
        print(f"  unvalidated, no error figure: {', '.join(accuracy['unvalidated'])}")


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    result = (per_layer if trace else end_to_end)(workload, seed, seconds)
    print_report(workload, seed, trace, result)
    return result


def result_line(results: dict) -> dict:
    """The final JSON line for results keyed by (workload, trace): one
    run's metrics, or with several runs ``<workload>/<metric>``."""
    correct = all(all(r["checks"].values()) for r in results.values())
    metrics = {}
    for (workload, trace), result in results.items():
        prefix = "" if len(results) == 1 else f"{workload}/"
        for name, unit in units("per_layer" if trace else "end_to_end").items():
            metrics[prefix + name] = {"value": result["values"][name], "unit": unit}
    plain = [r for (_, trace), r in results.items() if not trace] or list(results.values())
    return {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in plain),
        "failed": sum(r["failed"] for r in plain),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="Run the repository benchmark.")
    parser.add_argument("--workload", default="all", choices=["all"] + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=SPEC["default_seed"])
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer; default both "
                             "with --workload all, else 0")
    args = parser.parse_args()

    # Byte-compile the program once so no measured import compiles it.
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=2)
    names = WORKLOAD_NAMES if args.workload == "all" else [args.workload]
    traces = [args.trace] if args.trace is not None else (
        [0, 1] if args.workload == "all" else [0]
    )
    results = {}
    try:
        for name in names:
            for trace in traces:
                results[(name, trace)] = measure(name, args.seed, args.seconds, trace)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    line = result_line(results)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
