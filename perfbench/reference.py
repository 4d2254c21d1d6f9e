"""A fixed pure-Python loop that gauges how fast the host runs at the moment.

The measuring host shares its cores, and its speed drifts by 10-40 % over
seconds to minutes; a process's CPU time drifts with its wall time, so no
clock cancels it.  The benchmark runs this loop between requests and scales
each pass's timings by ``REFERENCE_S / (the loop's median time in that
pass)``: the timings it reports are seconds on a host that runs the loop in
``REFERENCE_S``.  The loop shares no code with singspec, so a change to the
program moves the scaled timings exactly as it moves the raw ones.

Its work resembles singspec's: Fraction arithmetic, a dict keyed by exponent
tuples, and a sort.  It runs twice and only the second run is timed, so what
the program left in the caches does not count; the cyclic collector is off
meanwhile, so garbage the program left behind is not collected on the loop's
clock either.
"""

import gc
import time
from fractions import Fraction

# about the loop's median time, run in the benchmark's driver process, on the
# 2-vCPU VM the baseline was measured on
REFERENCE_S = 0.003


def _work():
    terms = {}
    acc = Fraction(0)
    for i in range(300):
        key = (i % 7, i % 11, i % 5)
        c = Fraction(i % 13 + 1, i % 9 + 2)
        acc += c * c
        terms[key] = terms.get(key, 0) + c
    sorted(terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))


def loop_seconds() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        _work()
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
