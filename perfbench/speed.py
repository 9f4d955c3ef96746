"""Machine-speed probe: scales measured times to a reference machine speed.

The benchmark runs on a few virtual cores of a shared host.  There the same
work runs up to 1.7 times slower in phases that last from seconds to
minutes, as other tenants load the host; per-item medians cannot remove a
phase that covers a whole run.  So between items the benchmark times a
fixed reference kernel, a pure-Python arithmetic loop of about 2.5 ms.  A
measured time is multiplied by `REFERENCE_S` over the median kernel time
around it: it is the time the same work would take while the machine runs
the kernel in `REFERENCE_S`.  The kernel is part of the benchmark, not of
the program, so a change to the program does not change it; raw times are
reported beside the scaled ones.

The kernel runs on one core in the interpreter, and it follows only the
workloads whose items do too (`corona_cascade`, `cli_mixed`: CPU time about
equal to wall time).  `two_weight` and `sweep_n16` spend most of an item in
NumPy and LAPACK on two BLAS threads (CPU time 1.6 to 1.9 times wall time),
and scaling widened their spread (five seeds: pass time 0.07 raw against
0.09 scaled, and 0.10 against 0.14), so they report raw times.

Of the kernels tried (pure-Python arithmetic, small NumPy array operations,
streaming a 2 MiB and a 16 MiB array, and their sums), the pure-Python loop
followed the program's slow phases best: on four-minute recordings of
`corona_cascade` and `cli_mixed` it cut the quartile spread of the median
pass time over 20-second windows from 0.13 to 0.04 and from 0.23 to 0.08.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

# median kernel time on the baseline machine (2-vCPU Xeon VM, Python 3.11.7);
# it fixes the unit, and any constant would serve a comparison
REFERENCE_S = 0.0025
WINDOW_S = 1.0       # kernel samples within this distance of an interval scale it
MIN_SAMPLES = 5      # at least this many nearest samples, however far
KERNEL_STEPS = 30000


def kernel() -> float:
    """Run the reference kernel once; return its wall time."""
    t0 = perf_counter()
    s = 0
    for i in range(KERNEL_STEPS):
        s += i * i
    return perf_counter() - t0


class Speed:
    """Kernel samples in time order, and the scale they give an interval.
    A disabled instance takes no samples and scales by 1."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.times: list[float] = []      # midpoint of each sample
        self.values: list[float] = []

    def sample(self) -> None:
        if not self.enabled:
            return
        t0 = perf_counter()
        dt = kernel()
        self.times.append(t0 + dt / 2)
        self.values.append(dt)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median sample within WINDOW_S of [start, end],
        widened to the MIN_SAMPLES nearest samples."""
        if not self.enabled:
            return 1.0
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            if lo > 0:
                lo -= 1
            if hi < len(self.times) and hi - lo < MIN_SAMPLES:
                hi += 1
        return REFERENCE_S / statistics.median(self.values[lo:hi])
