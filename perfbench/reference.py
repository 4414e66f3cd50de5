"""Host-speed reference: a fixed numpy kernel timed between units.

The speed of a shared host drifts by up to a fifth over seconds to minutes
(other tenants, clock frequency), and the drift moves every timing of a run
together.  The runner times this kernel, in the dtype the workload
computes in, between units, for about ``REF_SHARE`` of the time the units
take, and divides each unit's latency by the median kernel time measured
within ``WINDOW_S`` of that unit.  The
kernel is benchmark code, not program code: a change to the program moves
the ratio, a change in host speed moves both sides of it.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

REF_SHARE = 0.05
WINDOW_S = 1.5


class Reference:
    def __init__(self, dtype=np.float32):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((2, 4, 64, 64)).astype(dtype)
        self._w = [rng.standard_normal((8, c, 3, 3)).astype(dtype)
                   for c in (4, 8)]
        self.times = []       # midpoint of each sample, perf_counter seconds
        self.seconds = []     # duration of each sample
        self._spent = 0.0
        for _ in range(3):    # first calls allocate; not samples
            self._kernel()

    def _kernel(self):
        # two conv + batch-norm + ReLU layers at 64x64 with few channels,
        # written with the same numpy calls as the program's largest layers:
        # its mix of copies, small GEMMs, reductions and elementwise work
        h = self._x
        for w in self._w:
            hp = np.pad(h, ((0, 0), (0, 0), (1, 1), (1, 1)))
            win = sliding_window_view(hp, (3, 3), axis=(2, 3))
            h = np.ascontiguousarray(np.tensordot(
                win, w, axes=([1, 4, 5], [1, 2, 3])).transpose(0, 3, 1, 2))
            m = h.mean(axis=(0, 2, 3), keepdims=True)
            v = h.var(axis=(0, 2, 3), keepdims=True)
            h = np.maximum((h - m) / np.sqrt(v + 1e-5), 0.0)
        return float(h.sum())

    def keep_up(self, unit_seconds):
        """Sample until the kernel has taken REF_SHARE of ``unit_seconds``,
        the time units have taken so far (at least one sample)."""
        while not self.seconds or self._spent < REF_SHARE * unit_seconds:
            t0 = time.perf_counter()
            self._kernel()
            t1 = time.perf_counter()
            self.times.append((t0 + t1) / 2)
            self.seconds.append(t1 - t0)
            self._spent += t1 - t0

    def local(self, t0, t1):
        """Median kernel time within WINDOW_S of the interval [t0, t1]."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        return statistics.median(self.seconds[lo:hi] or self.seconds)
