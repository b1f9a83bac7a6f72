"""Machine-speed calibration for a shared CPU.

On a shared machine the same Python work can take 0.6x to 1.3x its usual
time from one second to the next. A fixed
reference kernel slows down and speeds up with it, so a run samples the
kernel while it measures and scales its times to the speed at which the
kernel takes REFERENCE_S. The raw times and the scales are recorded with
every result.

The kernel runs with the garbage collector off, so that a collection over
a large tnlab heap cannot land inside a sample.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter

# Median time of reference_kernel() on the 2-core Xeon the benchmark was
# defined on. Only a unit: results stay comparable as long as it is fixed.
REFERENCE_S = 0.003

SAMPLE_INTERVAL_S = 0.1


def reference_kernel() -> int:
    """Fixed pure-Python work shaped like GF(2) elimination: frozenset
    symmetric differences, max, dict probes and XORs of wide ints."""
    rows: dict[int, tuple[frozenset, int]] = {}
    acc = 0
    vec: frozenset = frozenset()
    for i in range(1, 350):
        vec = vec ^ frozenset((i % 97, 100 + i % 89, 200 + i % 83))
        pivot = max(vec) if vec else 0
        row = rows.get(pivot)
        if row is None:
            rows[pivot] = (vec, 1 << (i % 320))
        else:
            acc ^= row[1] | (1 << i)
    return acc


class SpeedProbe:
    """Samples the reference kernel every `interval` seconds of wall time
    while active (from a SIGALRM handler, so no thread is started), and on
    request. Only the main thread of a process may use it."""

    def __init__(self, interval: float = SAMPLE_INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0  # wall time taken by the samples themselves
        self._previous = None
        self._sampling = False

    def sample(self, *_signal_args) -> None:
        if self._sampling:  # the timer fired inside an explicit sample
            return
        self._sampling = True
        gc_was_enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        reference_kernel()
        took = perf_counter() - start
        if gc_was_enabled:
            gc.enable()
        self.samples.append(took)
        self.spent += perf_counter() - start
        self._sampling = False

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def reset(self) -> None:
        self.samples = []
        self.spent = 0.0

    def scale(self) -> float:
        """Factor that takes times measured since the last reset to the
        reference speed: the mean of REFERENCE_S / sample. Samples come at
        even intervals, so this weights each stretch of time by the speed
        measured in it, which tracks the speed changing within a round
        better than the median sample does."""
        return statistics.fmean(REFERENCE_S / k for k in self.samples)
