"""Host-speed reference: a fixed kernel timed between the workload's operations.

On a small shared host the CPU's speed changes from second to second
and from minute to minute with the load its neighbours put on shared
cores and caches: on a 2-CPU x86 cloud host, 25 s windows of one
unchanged process read up to 40% apart, and slow spells last longer
than any run the time budget allows.  So the benchmark measures the
host's speed as it goes.  Between operations, at most every
``INTERVAL_S``, it times a fixed reference kernel (interpreter-level
integer and dict work plus small NumPy operations, the mix the
workloads spend their time in).  Every host-time interval is then
scaled to a nominal host, one on which the kernel takes ``NOMINAL_S``,
by the kernel's median time around that interval:

    scaled seconds = measured seconds * (NOMINAL_S / local median kernel time) ** e

The slow spells hit interpreter-bound code hardest: the kernel's time
swings by up to 1.7x, a workload's by less, the less of its time it
spends in the interpreter.  The exponent ``e`` is the workload's
elasticity, its log-time change per log-change of the kernel's time.
Fitted over runs of the unchanged program on a 2-CPU x86 cloud host it
is about 1 for the time spent in COMPSO's compress and decompress
calls, nearly all of it the Python rANS coder, and so for codec-catalog
as a whole, and about 0.5 for a training step or fleet job-step, of
whose time the coder and the trainer's Python glue are about half (see
a traced run's ``encoders.*_ms`` and ``kfac_dist.self_ms``).  Each
workload states its own (``host_elasticity``); compress and decompress
intervals use ``CODEC_ELASTICITY`` on every workload.

The kernel is the benchmark's own code, so a change to the program
does not move it; the unscaled figures and the host-speed factor are
printed beside the scaled ones.  The kernel's own time is kept out of
every measured interval.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

#: Seconds between two timings of the kernel, at least.  The host's
#: speed changes within a second, so the timings must be close together.
INTERVAL_S = 0.02
#: The kernel's time on the nominal host (a round figure near its
#: median on a 2-CPU x86 cloud host, 0.6-1.0 ms).
NOMINAL_S = 1.0e-3
#: An interval that holds fewer kernel timings than this is scaled by
#: this many timings nearest to its middle.
NEAREST = 9
#: The elasticity of time spent in COMPSO's compress and decompress
#: calls, which is mostly the Python rANS coder.
CODEC_ELASTICITY = 1.0


class HostSpeed:
    """Times the reference kernel now and then and keeps the timings."""

    def __init__(self, elasticity: float):
        self.elasticity = elasticity
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((48, 48))
        self._x = rng.standard_normal(8192).astype(np.float32)
        self._last = -1.0
        #: Middle ``perf_counter`` time and duration of every kernel timing.
        self.times: list[float] = []
        self.samples: list[float] = []
        #: Total seconds spent in the kernel, to take out of enclosing intervals.
        self.spent = 0.0

    def _kernel(self) -> int:
        state, table = 1, {}
        for i in range(1500):
            state = (state * 1103515245 + i) & 0xFFFFFFFF
            table[state & 255] = table.get(state & 255, 0) + (state >> 24)
        a = self._a
        for _ in range(6):
            a = np.tanh(a @ self._a)
        order = np.argsort(self._x)
        return len(table) + int(order[0]) + int(np.cumsum(self._x).argmax())

    def tick(self, force: bool = False) -> None:
        """Time the kernel if ``INTERVAL_S`` has passed since it last ran."""
        began = perf_counter()
        if not force and began - self._last < INTERVAL_S:
            return
        # The first run brings the kernel's code and data back into the
        # caches, so the timed one depends less on what ran before it.
        self._kernel()
        now = perf_counter()
        self._kernel()
        end = perf_counter()
        self.times.append(0.5 * (now + end))
        self.samples.append(end - now)
        self.spent += end - began
        self._last = end

    def scale(self, start: float, end: float, elasticity: float | None = None) -> float:
        """Factor from host seconds measured over ``[start, end]`` to
        nominal-host seconds, for work of the given elasticity (the
        workload's by default)."""
        lo = bisect_left(self.times, start)
        hi = bisect_right(self.times, end)
        if hi - lo < NEAREST:
            mid = bisect_left(self.times, 0.5 * (start + end))
            lo = max(0, min(mid - NEAREST // 2, len(self.times) - NEAREST))
            hi = lo + NEAREST
        if elasticity is None:
            elasticity = self.elasticity
        return (NOMINAL_S / statistics.median(self.samples[lo:hi])) ** elasticity

    def factor(self) -> float:
        """The host's speed over the whole run, relative to the nominal
        host's, as the kernel sees it (for the report)."""
        return NOMINAL_S / statistics.median(self.samples)
