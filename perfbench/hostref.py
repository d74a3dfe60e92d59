"""A fixed reference computation that measures how fast the host runs right now.

On a shared host the CPU time of the same work drifts by tens of percent
over minutes, as neighbours load the caches and the memory bus. The run
times this reference between its passes and reports its gating times in
reference seconds: CPU seconds scaled by ``NOMINAL_S`` over the median CPU
time of the reference in that run. A change that makes a pass 10% faster
still lowers them by 10%; a slow spell of the host slows the passes and the
reference together and cancels out.

The reference uses only Python and numpy, never epcontrast, so no change to
the library can move it. It mixes the three kinds of work the workloads do:
interpreted Python, small dense matrix products and a memory-bound pass over
a 32 MiB array.
"""

from __future__ import annotations

import time

import numpy as np

# CPU time of one ``measure()`` on an idle 2-vCPU Xeon guest at 2.0 GHz
NOMINAL_S = 0.2


class HostReference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.normal(size=(1024, 64))
        self.w = rng.normal(size=(64, 32))
        self.big = rng.normal(size=1 << 22)

    def _work(self) -> float:
        counts: dict[int, float] = {}
        for i in range(150_000):
            counts[i % 1000] = counts.get(i % 1000, 0.0) + i * 0.5
        acc = sum(counts.values())
        for _ in range(300):
            acc += float(np.maximum(self.x @ self.w, 0.0).sum())
        for _ in range(15):
            acc += float((self.big * 1.0001).sum())
        return acc

    def measure(self) -> float:
        """CPU seconds of one run of the reference work."""
        start = time.process_time()
        self._work()
        return time.process_time() - start
