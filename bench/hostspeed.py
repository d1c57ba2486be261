"""Host-speed normalisation of the benchmark's timings.

The benchmark runs on shared hosts whose speed drifts: for tens of seconds
at a time every query of a pass can run 1.5 to 1.7 times slower than a
minute earlier, uniformly, whatever the query.  To keep runs of the same
code comparable, a pass times a fixed pure-Python snippet (``reference``)
before each query.  A query's host factor is the median reference time
over the queries around it, over ``REFERENCE_S``, the snippet's time on
the nominal host.  Timings are reported divided by their host factor, that
is, in seconds of the nominal host.  Raw times are recorded alongside.

The snippet is benchmark code: changing it, or ``REFERENCE_S``, changes
every reported timing, and is a change of the benchmark.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter
from typing import List

#: the snippet's time on the nominal host (a 2-vCPU Xeon VM, Python 3.11,
#: when its neighbours are quiet)
REFERENCE_S = 100e-6
#: a query's host factor is taken over this many queries either side of it
WINDOW = 8
#: reference samples taken right after set-up, for the set-up time
SETUP_SAMPLES = 15


def _snippet() -> None:
    d = {}
    for i in range(200):
        d[(i, i * 7 % 13)] = frozenset((i % 5, i % 7, i))
    sorted(d.items(), key=lambda kv: kv[0][1])


def reference() -> float:
    """Time a fixed snippet of dict, tuple, frozenset and sort work, the
    kinds of operation the package spends its time on.  An untimed first
    run warms the caches, so that what the previous query left in them
    matters less; the lesser of two timed runs is returned.  The collector
    is off meanwhile, so that the package's heap does not decide when a
    collection lands in the snippet."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        _snippet()
        best = float("inf")
        for _ in range(2):
            t0 = perf_counter()
            _snippet()
            best = min(best, perf_counter() - t0)
        return best
    finally:
        if was_on:
            gc.enable()


def setup_reference() -> float:
    """Median reference time just after set-up."""
    return statistics.median(reference() for _ in range(SETUP_SAMPLES))


def host_factors(ref_s: List[float]) -> List[float]:
    """Per query, how many times slower than nominal the host ran around it."""
    return [
        statistics.median(ref_s[max(0, i - WINDOW):i + WINDOW + 1]) / REFERENCE_S
        for i in range(len(ref_s))
    ]


def normalise(times: List[float], factors: List[float]) -> List[float]:
    return [t / f for t, f in zip(times, factors)]
