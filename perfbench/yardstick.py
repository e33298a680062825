"""A fixed pure-Python loop that gauges how fast the machine runs right now.

On a shared virtual machine the speed available to one process drifts by
tens of percent over minutes, which swamps the differences the benchmark
exists to show.  The benchmark times this loop around the work it measures
and reports times scaled to a machine on which the loop takes
``REFERENCE_S``: a pass that ran while the loop was 20% slow is scaled down
by 20%.  The loop does integer products and reductions on plain lists, the
kind of work the program's hot loops do, and imports nothing but ``time``,
so that timing it inside a fresh interpreter does not pre-load modules the
program would import.
"""

import time

REFERENCE_S = 0.004


def sample() -> float:
    """Seconds one run of the loop takes."""
    p = 10007
    f = list(range(1, 40))
    start = time.perf_counter()
    acc = 0
    for r in range(1, 13):
        out = [0] * 77
        for i, a in enumerate(f):
            for j, b in enumerate(f):
                out[i + j] = (out[i + j] + a * b * r) % p
        acc += sum(out)
    return time.perf_counter() - start


def measure(runs: int = 3) -> float:
    """Median of a few runs of the loop."""
    return sorted(sample() for _ in range(runs))[runs // 2]
