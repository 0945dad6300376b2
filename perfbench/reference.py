"""A fixed reference loop that reads how fast the machine runs right now.

The benchmark runs on a few cores of a shared host. Identical rounds of
one workload in one process run 10-30% faster or slower from one minute
to the next, and that drift, not the program, decides most of the spread
of a raw throughput between runs. The run therefore interleaves calls of
this loop with its rounds and scales the measured throughput and set-up
time by the loop's median time over :data:`NOMINAL_S`: figures that read
as on a machine where one call takes ``NOMINAL_S``. The drift
slows different kinds of code by different amounts, so this takes out
part of it, not all.

The loop mixes what lgnet's rounds spend their time on: interpreter work
(loops, dict updates), many small numpy calls on slices, and a one-thread
BLAS matmul with elementwise reductions. It uses no lgnet code, so a
change to the program leaves it, and the scale, as they were.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# median seconds of one call on a shared 2-core x86-64 virtual machine
# (Python 3.11.7, numpy 2.4.6, scipy-openblas 0.3.31, one BLAS thread)
NOMINAL_S = 0.040


class Reference:
    def __init__(self):
        rng = np.random.default_rng(1808)
        self.a = rng.standard_normal((64, 288))
        self.b = rng.standard_normal((288, 1024))
        self.x = rng.standard_normal((16, 32, 32, 32))
        self.f = rng.standard_normal((16, 16, 16))
        self.boxes = rng.integers(0, 16, size=(1200, 4)).tolist()
        self.times: list[float] = []
        self._once()  # first-call costs, not recorded

    def _once(self) -> float:
        t0 = perf_counter()
        total = 0
        for i in range(120000):
            total += i * i
        buckets = {}
        for i in range(40000):
            buckets[i % 101] = buckets.get(i % 101, 0) + i
        acc = 0.0
        for x0, y0, x1, y1 in self.boxes:
            ys, xs = slice(min(y0, y1), max(y0, y1) + 1), slice(min(x0, x1), max(x0, x1) + 1)
            acc += float(self.f[:, ys, xs].max()) + float(np.round(x0 * 0.5))
        for _ in range(8):
            acc += float((self.a @ self.b)[0, 0])
            acc += float(np.maximum(self.x, 0.0).sum(axis=(2, 3))[0, 0])
        return perf_counter() - t0

    def sample(self, busy_s: float) -> None:
        """Call the loop at least once, and until its calls add up to a
        tenth of ``busy_s``, the length of the round just run."""
        spent = 0.0
        while True:
            took = self._once()
            self.times.append(took)
            spent += took
            if spent >= 0.1 * busy_s:
                return

    def scale(self) -> float:
        """The factor that turns a throughput measured during the sampled
        rounds into one at nominal machine speed; a time is divided by it."""
        return statistics.median(self.times) / NOMINAL_S
