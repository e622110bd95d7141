"""Scale timings to a reference speed of the processor they ran on.

On a shared host the speed of a virtual CPU changes by up to about 1.5x, for
seconds to minutes at a time, independently on each CPU. A wall time taken
in a slow period says as much about the host as about the program. So while
a timed call runs, a SIGALRM handler runs a fixed reference slice of the
benchmark's own code every PERIOD_S seconds in the same process, on the same
CPU, and times it. The slice mixes small numpy arrays and FFTs (as in the
program's raster code) with building a dict of tuples and lists (as in its
geometry and graph code). Of the slices tried, this mix tracked the
program's own slowdowns best, on a raster-heavy and on a raster-free
workload.

For one timed call:

    net_s    = wall time of the call - time spent in slices during it
    ref_s    = net_s * REF_SLICE_S / median(slice times during and around it)

ref_s is the time the call would take on a host where the slice takes
REF_SLICE_S; on the machine in NOTES.md it takes 3 to 5 ms. The
slice code never changes with the program, so the ratio between two
versions of the program is kept while the host's drift cancels out.
BRACKET slices are run just before and just after the call, outside its
time, so a call shorter than PERIOD_S still has samples.
"""

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
BRACKET = 5
REF_SLICE_S = 0.005

_GRID = (np.arange(64 * 64, dtype=np.float64).reshape(64, 64) % 7.0) / 7.0


def reference_slice() -> float:
    """Fixed work of about REF_SLICE_S seconds; the result is unused."""
    acc = 0.0
    for _ in range(40):
        g = np.zeros((64, 64))
        g[5:40, 7:50] += 1.0
        acc += float(np.linalg.norm(np.fft.rfft2(_GRID + g)[:32, :32]))
    cells = {}
    for i in range(3000):
        cells[(i % 97, i % 89)] = [i, i + 1]
    return acc + len(cells)


class SpeedReference:
    """Times reference slices during timed calls; see the module docstring."""

    def __init__(self):
        self.slices: list[tuple[float, float]] = []  # (start, duration)
        self._busy = False

    def _slice(self, *_):
        if self._busy:  # the timer fired during a bracket slice
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_slice()
        self.slices.append((t0, time.perf_counter() - t0))
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, fn, *args):
        """Call fn(*args); return (result, wall_s, net_s, ref_s, slowdown)."""
        first = len(self.slices)
        for _ in range(BRACKET):
            self._slice()
        t0 = time.perf_counter()
        result = fn(*args)
        t1 = time.perf_counter()
        for _ in range(BRACKET):
            self._slice()
        around = self.slices[first:]
        net = (t1 - t0) - sum(d for s, d in around if t0 <= s < t1)
        slowdown = statistics.median(d for _, d in around) / REF_SLICE_S
        return result, t1 - t0, net, net / slowdown, slowdown
