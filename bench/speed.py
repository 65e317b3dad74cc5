"""Machine speed reference for the benchmark.

The benchmark's host is shared: timing the same ``track()`` call over
three minutes on the 2-core machine the benchmark was built on gave
30-second medians from 0.22 s to 0.32 s, and pure-Python loops slowed
too; the process's CPU time equalled its wall time, so the machine ran
slower rather than the process waiting. Every timing the benchmark
reports is therefore scaled to a reference speed: a fixed computation
that does not touch velotrack is timed after every video, and the run's
seconds are multiplied by NOMINAL_S / (the median of those times). This
removes much of the drift, not all of it: the computation's mix is not
any one workload's mix, and ten-seed spreads of the scaled medians
stayed between 3 % and 13 %. The raw wall seconds are printed next to
the scaled ones.

The computation mixes what ``track()`` and ``evaluate()`` spend their
time on: interpreter work on dicts and tuples, many small numpy calls
in a Python loop, and gathers and reductions over arrays of a few MB.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median time of one reference computation on the machine the benchmark
# was built on; it only sets the unit of the scaled seconds.
NOMINAL_S = 0.015


class SpeedReference:
    """Times a fixed computation; its median gives the run's scale."""

    def __init__(self) -> None:
        self.times: list[float] = []
        rng = np.random.default_rng(12345)
        self._small = rng.random((48, 48))
        self._rows = rng.random((512, 40, 2))
        self._idx = rng.integers(0, 512, size=(512, 40))

    def _compute(self) -> None:
        # three parts of about equal time on the reference machine
        seen = {}
        for i in range(3500):
            seen[(i % 61, i % 7, i)] = (i, i + 1)
        sorted(seen.items())
        small = self._small
        v = np.zeros(small.shape[1])
        done = np.zeros(small.shape[1], dtype=bool)
        for i in range(600):
            d = np.where(done, np.inf, small[i % small.shape[0]] - v)
            j = int(np.argmin(d))
            v[j] += 0.001
            done[np.flatnonzero(d > 0.999)] = False
        g = self._rows[self._idx].reshape(512, 40, 40, 2)
        np.einsum("bjd,bjd->bj", g[:, :, 0], g[:, :, 1]).argmax(axis=1)

    def sample(self) -> None:
        """Time the reference computation once."""
        t0 = time.perf_counter()
        self._compute()
        self.times.append(time.perf_counter() - t0)

    def scale(self) -> float:
        """Factor that turns this run's wall seconds into reference seconds."""
        return NOMINAL_S / statistics.median(self.times)
