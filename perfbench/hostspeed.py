"""The host's speed, sampled while the benchmark runs.

The benchmark runs on shared virtual machines whose speed drifts. On a
two-vCPU guest, the same pipeline took up to 1.7x longer for minutes at
a time, in CPU time as much as in wall time, so no estimator taken
within one run kept runs made minutes apart comparable. A timer signal
therefore runs a fixed pure-Python kernel every `PERIOD_S` seconds, in
the same process, between the program's bytecodes. The kernel uses only
the standard library, never `fetchahead`, so a faster program leaves it
unchanged. A time measured over an interval is multiplied by
`REFERENCE_KERNEL_S` over the kernel's median time in that interval. It
then reads as the time the same work takes on a host that runs the
kernel in `REFERENCE_KERNEL_S`.

On that guest, scaling each repetition this way halved the spread of
repetition times within a run (coefficient of variation 0.12-0.19 down
to 0.06-0.09). The kernel under-tracks the largest slowdowns. The
signal handler takes about 2% of every timed interval; it is counted in
the measured times, so it scales them all alike.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import signal
import statistics
import time

PERIOD_S = 0.025
# About the kernel's median time between pipeline steps on the machine
# the benchmark was written on (2-vCPU shared VM, Python 3.11.7); it only
# sets the scale of the normalised times.
REFERENCE_KERNEL_S = 0.0005
# an interval holding fewer samples borrows the nearest ones
MIN_SAMPLES = 5


def kernel() -> int:
    """Dicts, strings, sorting and JSON: the kind of work a pipeline does."""
    rows = {}
    for i in range(100):
        key = f"k{i}"
        rows[key] = {"id": i, "name": key + "x", "tags": [key, str(i)]}
    text = json.dumps(rows, sort_keys=True)
    return len(text) + len(sorted(rows, key=len))


class HostSpeed:
    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        kernel()
        self.starts.append(start)
        self.seconds.append(time.perf_counter() - start)

    @contextlib.contextmanager
    def sampling(self):
        # an interval shorter than the timer's period still gets a scale
        for _ in range(MIN_SAMPLES):
            self.sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_KERNEL_S over the kernel's median time between
        `start` and `end`, widened to the nearest MIN_SAMPLES samples."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            if lo > 0:
                lo -= 1
            if hi < len(self.starts) and hi - lo < MIN_SAMPLES:
                hi += 1
        return REFERENCE_KERNEL_S / statistics.median(self.seconds[lo:hi])
