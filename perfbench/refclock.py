"""Host-speed calibration for CPU-bound timings.

The host's speed drifts: on the 2-vCPU VM the benchmark was tuned on, the
same protocol.run sweep took 0.37 to 0.64 ms per run within one minute, in
phases lasting from a fraction of a second to several seconds. A small,
fixed kernel slowed down by the same factor within 3-5% when it ran close
in time to the measured code. So kernel samples are taken between
operations and, for long operations, during them, and a time is multiplied
by CALIBRATION_REF_S over the median of the samples around it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from contextlib import contextmanager

# Median time of one _kernel() call on an idle 2-vCPU VM under CPython
# 3.11, where the benchmark was tuned.
CALIBRATION_REF_S = 0.00045
BRACKET_RUNS = 9
SAMPLE_PERIOD_S = 0.05


def _kernel() -> int:
    # Object-heavy like keyhop's own code (tuples, strings, frozensets,
    # dicts, a keyed sort), so host slowdowns hit both alike. It is the
    # benchmark's code, so a change to keyhop cannot move it.
    table = {}
    for i in range(300):
        key = (i, str(i))
        table[key] = frozenset((i, i + 1, i + 2)) ^ frozenset((i + 1,))
    acc = 0
    for key, value in table.items():
        acc += len(value) + hash(key) % 7
    return acc + len(sorted(table, key=lambda k: k[1]))


def _kernel_s() -> float:
    # With the collector on, the kernel's time would depend on how many
    # objects the measured code left alive.
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class ReferenceClock:
    """Kernel samples, and the speed factors derived from them."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.sample()

    def sample(self) -> int:
        """Take a bracket sample (the median of BRACKET_RUNS kernel runs)
        between operations; return its index."""
        self.samples.append(statistics.median(_kernel_s() for _ in range(BRACKET_RUNS)))
        return len(self.samples) - 1

    def factor(self, first: int) -> float:
        """The speed factor from the samples taken since index `first`."""
        return CALIBRATION_REF_S / statistics.median(self.samples[first:])

    def scale(self, raw_s: float) -> float:
        """Scale an operation that ran since the last sample, by that sample
        and a new one."""
        return raw_s * self.factor(self.sample() - 1)

    @contextmanager
    def sampling_during(self):
        """Sample the kernel every SAMPLE_PERIOD_S from SIGALRM while the
        block runs (main thread only). Yields a one-element list that ends
        up holding the seconds the samples took, to be subtracted from the
        block's wall time."""
        spent = [0.0]

        def handler(signum, frame):
            t0 = time.perf_counter()
            self.samples.append(_kernel_s())
            spent[0] += time.perf_counter() - t0

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield spent
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
