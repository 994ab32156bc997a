"""Run one workload in this host process until its time budget is spent.

Round ``i`` builds a fresh cluster and makes its inputs from the round
seed ``<seed>/<i mod K>``, where K is the workload's ``rounds`` in
``workloads.json``: the first K rounds are K different simulations,
whose timed ops are pooled into the run's sim metrics, and later rounds
repeat them exactly, for more host-clock samples.  The reference loop of
``reference.py`` is timed before the program is imported and, untraced,
between slices of every round (``workloads.SpeedProbe``).  Prints one
JSON line: the import time and the reference rate before it, the peak
RSS, the pooled sim metrics, and every round's measurements with the
reference rates of its set-up and timed phase (or, when ``--trace 1``
wraps the layers first, its per-layer metrics).  ``--import-only`` prints
just the import time and that rate.

    python3 perfbench/worker.py --workload pingpong-closed --seed 1 \\
        --budget 10 --trace 0
"""

from time import perf_counter

STARTED = perf_counter()

from reference import reference_rates  # noqa: E402

IMPORT_RATES = reference_rates()
IMPORT_STARTED = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import repro  # noqa: E402
import workloads  # noqa: E402

IMPORT_S = perf_counter() - IMPORT_STARTED


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True,
                        help="host seconds to spend, counted from process start")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-rounds", type=int, default=1,
                        help="rounds to run even past the budget")
    parser.add_argument("--import-only", action="store_true",
                        help="print the import time and exit")
    args = parser.parse_args()
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        # Measure the program in this checkout, never an installed copy.
        sys.exit(f"repro imported from {repro.__file__}, not from {SRC}")
    imported = {"import_s": IMPORT_S, "import_rate": statistics.median(IMPORT_RATES)}
    if args.import_only:
        print(json.dumps(imported))
        return 0

    if args.trace:
        from layers import LayerTracer

        probe = LayerTracer()
        probe.install()
    else:
        probe = workloads.SpeedProbe()
    run_round = workloads.WORKLOADS[args.workload]
    pooled = workloads.loop_params(args.workload)["rounds"]
    rounds = []
    while True:
        begin = perf_counter()
        result = run_round(f"{args.seed}/{len(rounds) % pooled}", probe)
        if args.trace:
            result["layers"] = probe.end_round(result)
        else:
            result["host_rates"] = probe.host_rates()
        result["wall_s"] = perf_counter() - begin
        rounds.append(result)
        gc.collect()
        typical = statistics.median(r["wall_s"] for r in rounds)
        if (len(rounds) >= args.min_rounds
                and perf_counter() - STARTED + typical > args.budget):
            break
    pooled_sim = (
        workloads.pooled_sim(rounds[:pooled]) if len(rounds) >= pooled else None
    )
    for r in rounds:
        del r["latencies"]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        **imported,
        "peak_rss_mb": peak_kb / 1024.0,
        "pooled_sim": pooled_sim,
        "rounds": rounds,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
