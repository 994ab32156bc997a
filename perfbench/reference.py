"""A fixed pure-Python reference load, to measure how fast the host is now.

The host this benchmark runs on is shared, and its speed drifts by tens
of percent within seconds as other tenants load it.  Host-clock metrics
are therefore reported at a nominal host speed.  The worker times this
loop — benchmark code that no change to the program can speed up or
slow down — before the program is imported and, in untraced rounds,
between short slices of the simulation (``workloads.SpeedProbe``), so
every phase of a round carries the speed the host ran at while it ran.
``run.py`` divides host rates (and multiplies host times) by
:func:`speed_factor` of that phase's median reference rate.  The loop
uses the interpreter the way the simulator does: heap pushes and pops,
generator resumes, small objects, dict stores and string formatting.
"""

import heapq
from time import perf_counter

ITERATIONS = 20000
#: iterations per second of :func:`reference_work` that the scaled host
#: metrics assume — about what a 2-vCPU Xeon guest reaches unloaded.
NOMINAL_RATE = 600_000.0
#: how far the simulator's host rate follows the reference rate: when the
#: reference loop runs 1% faster, the simulator runs about 0.6% faster.
#: Fitted on a 2-vCPU Xeon guest over 139 rounds of the four workloads,
#: each timed between slices against interleaved reference samples:
#: the spread of the run medians across 15 s windows over 7 minutes was
#: smallest between 0.5 and 0.75 on every workload, and larger at 1.0.
#: The simulator stalls on memory more than this small loop does, and
#: the stalls do not scale with the host's speed.
ELASTICITY = 0.6
#: iterations of one reference sample between two slices (about 3 ms).
SAMPLE_ITERATIONS = 2000


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key):
        self.key = key
        self.value = 0


def _accumulator(k):
    total = 0
    while True:
        total += (yield total) * k


def reference_work(n: int = ITERATIONS) -> int:
    heap = []
    gens = [_accumulator(i) for i in range(64)]
    for gen in gens:
        next(gen)
    table = {}
    checksum = 0
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 1000, i, _Item(i)))
        if len(heap) > 64:
            _, j, item = heapq.heappop(heap)
            item.value = gens[j % 64].send(j)
            table[j % 512] = item
            checksum += item.value & 0xFF
        checksum += len(f"x{i}")
    return checksum


def reference_rates(passes: int = 3) -> list:
    """Rates (iterations per host second) of back-to-back timed passes."""
    rates = []
    for _ in range(passes):
        begin = perf_counter()
        reference_work()
        rates.append(ITERATIONS / (perf_counter() - begin))
    return rates


def sample() -> tuple:
    """One short reference pass: (its rate, the host seconds it took)."""
    begin = perf_counter()
    reference_work(SAMPLE_ITERATIONS)
    took = perf_counter() - begin
    return SAMPLE_ITERATIONS / took, took


def speed_factor(rate: float) -> float:
    """How much faster than nominal the program ran while the reference
    loop ran at ``rate``."""
    return (rate / NOMINAL_RATE) ** ELASTICITY
