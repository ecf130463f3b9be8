"""Wall time scaled to a reference machine speed.

On a shared machine the CPU speed a process gets swings by up to about
1.6x for tens of seconds at a time, for reasons outside the program, and
that swing is larger than the changes the benchmark must resolve.  A
fixed loop that belongs to the benchmark (heap and dict traffic plus a
numpy scatter-min, the same mix as the engines) is timed at most every
``INTERVAL`` seconds.  A wall time measured between two loop timings is
multiplied by ``REF_MS`` / (median of the two timings around it and the
one on either side of those), which turns it into milliseconds at the
speed where the loop takes ``REF_MS``.  No program code runs inside the
loop, so a change to the program cannot move it.
"""
from __future__ import annotations

import heapq
import random
import statistics
import time

import numpy as np

INTERVAL = 0.25
REF_MS = 10.0


class SpeedScale:
    def __init__(self) -> None:
        rng = random.Random(0)
        self._keys = [rng.randrange(1 << 30) for _ in range(10000)]
        self._arr = np.arange(50000, dtype=np.int64)
        self._idx = self._arr[::-1] % 997
        self.loop_ms: list[float] = []
        self._last = float("-inf")

    def _loop(self) -> float:
        t0 = time.perf_counter()
        heap: list[tuple[int, int]] = []
        live: dict[int, int] = {}
        for i, k in enumerate(self._keys):
            heapq.heappush(heap, (k, i))
            live[i] = k
        while heap:
            k, i = heapq.heappop(heap)
            if live.get(i) == k:
                live[i] = -1
        for _ in range(3):
            np.minimum.at(self._arr.copy(), self._idx, self._arr)
        return (time.perf_counter() - t0) * 1000

    def mark(self, fresh: bool = False) -> int:
        """Index of the latest loop timing, taken now when one is due (or
        when fresh is set).  Mark before a timed call, and once more at the
        end, so that every call has a timing after it."""
        if fresh or time.perf_counter() - self._last >= INTERVAL:
            self.loop_ms.append(self._loop())
            self._last = time.perf_counter()
        return len(self.loop_ms) - 1

    def factor(self, mark: int) -> float:
        """Scale for a wall time measured after `mark` and before the next
        timing of the loop."""
        return REF_MS / statistics.median(self.loop_ms[max(0, mark - 1) : mark + 3])
