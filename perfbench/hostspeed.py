"""Host-speed normalization of wall times.

The machines this benchmark runs on are shared: measured on a 2-core box,
the same pure-Python code ran 1.6 to 2.8 times slower in phases of 10 to 30
seconds, with CPU time tracking wall time (so no preemption or steal).  A
run's median would then depend on which phases it landed in.  To take the
phases out, a fixed pure-Python kernel is timed before and after the measured
code and, from a timer signal, every ``INTERVAL_S`` while it runs.
The kernel's own time is subtracted, and the rest is scaled by
``KERNEL_REF_S`` over the kernel's mean time: the result is the time the code
would take on a host that runs the kernel in ``KERNEL_REF_S``.  The kernel is
the benchmark's own code, so a change to cychom moves only the numerator.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter

from tracer import PROBE

INTERVAL_S = 0.1
# a round figure near the kernel's time on a 2-core x86-64 box with
# Python 3.11, which ranged from 0.7 to 1.5 ms
KERNEL_REF_S = 0.001


def kernel() -> int:
    # dict updates keyed by an integer recurrence: of the kernels tried
    # (integer-only, dicts, fractions, tuples) this one tracked the speed of
    # all three kinds of workload best
    table = {}
    x = 1
    for _ in range(2500):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        table[x & 0x3FF] = table.get(x & 0x3FF, 0) + x
    return len(table)


class Probe:
    """Kernel times taken around and during one measurement.

    With a tracer given, each sample is recorded as a ``PROBE`` span, so no
    layer's time includes it.
    """

    def __init__(self, spans=None):
        self.samples: list = []
        self.spans = spans

    def sample(self, *_signal_args) -> None:
        # a collection of the measured code's heap must not land in a sample
        collecting = gc.isenabled()
        gc.disable()
        if self.spans is not None:
            index = self.spans.begin(PROBE)
        start = perf_counter()
        kernel()
        self.samples.append(perf_counter() - start)
        if self.spans is not None:
            self.spans.end(index)
        if collecting:
            gc.enable()

    def normalize(self, seconds: float) -> float:
        return seconds * KERNEL_REF_S / statistics.mean(self.samples)


def timed(fn, spans=None) -> tuple:
    """Run fn(); return (its result, wall seconds, normalized seconds).

    The wall seconds exclude the kernel's samples taken during the call.
    """
    probe = Probe(spans)
    probe.sample()
    previous = signal.signal(signal.SIGALRM, probe.sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        start = perf_counter()
        result = fn()
        wall = perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall -= sum(probe.samples[1:])
    probe.sample()
    return result, wall, probe.normalize(wall)
