"""Step timings rescaled to a fixed host speed.

On a shared host the single-thread speed of this process switches between
a fast and a slow state every few seconds (the same one-second command
takes 0.7 s or 1.3 s), so raw wall times of the same work spread by
tens of percent between runs.  A `Stopwatch` therefore samples the host
speed while it runs: a SIGALRM every `INTERVAL` seconds runs a short,
fixed calibration kernel in the main thread and records how long it took.
The reported time is

    wall * mean(REF / kernel time)

the wall time rescaled to the speed at which the kernel takes `REF`
seconds (about the host's fast state).  It averages the sampled speeds
rather than taking a median kernel time, because the speed is bimodal: a
median jumps from one state to the other when the share of slow samples
crosses a half.  Work the program saves shows up
in full, because the kernel never changes; only the host's speed is
divided out.  The kernel mixes integer Python, float Python and small
numpy operations, like the program's own inner loops.

Set-up time is measured before numpy is imported, so `pure=True` drops the
numpy part of the kernel and uses its own reference `REF_PURE`.
"""

import math
import signal
import time

INTERVAL = 0.01
# Kernel seconds in the fast state of the host the benchmark was written
# on (2-vCPU Xeon, Python 3.11, numpy 2.4): the 5th percentile of 19,601
# samples taken during the workloads' commands.  They only fix the unit.
REF = 1.07e-4
REF_PURE = 0.73e-4


def _kernel(np, vec):
    s = 0
    for i in range(700):
        s += i * i % 7
    x = 0.3
    for _ in range(500):
        x = math.sin(x) * 1.0001 + 0.1
    if np is not None:
        for _ in range(12):
            vec = np.sqrt(vec * vec + 0.5) - 0.1 * vec
    return s, x


class Stopwatch:
    """Wall time of one region, with the host speed sampled during it.

    Only one Stopwatch may run at a time: it owns SIGALRM while running.
    """

    def __init__(self, pure=False):
        self._np = self._vec = None
        if not pure:
            import numpy
            self._np, self._vec = numpy, numpy.linspace(0.1, 1.0, 32)
        self._ref = REF_PURE if pure else REF
        self._samples = []

    def _sample(self, signum=None, frame=None):
        t = time.perf_counter()
        _kernel(self._np, self._vec)
        self._samples.append(time.perf_counter() - t)

    def start(self):
        self._samples = []
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self._t0 = time.perf_counter()
        return self

    def stop(self):
        """Returns (rescaled seconds, raw wall seconds)."""
        wall = time.perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        while len(self._samples) < 3:     # a region too short to be sampled
            self._sample()
        factor = sum(self._ref / c for c in self._samples) / len(self._samples)
        return wall * factor, wall
