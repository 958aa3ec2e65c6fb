"""Host-speed calibration for the timed runs.

The benchmark runs on shared virtual machines whose speed drifts by about a
third within seconds. Measured on a 2-vCPU VM: the medians of a fixed CPU
block over five 20 s windows spread 33%, the decode latency over the same
windows 27%, and their ratio 5%. So every time in the result line is
scaled to a reference host speed: a raw interval is multiplied by
``REFERENCE_S / t_block``, where ``t_block`` is the median time of the fixed
block measured around that interval. A host slowdown that slows the program
and the block alike cancels; a slower program does not.

The block mixes what genret spends its time on: dict and tuple work in the
interpreter, small numpy allocations and reductions, and a sort.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# Block time on an idle 2.1 GHz vCPU; scaled times read as seconds there.
REFERENCE_S = 0.010
# A block every PERIOD_S while a Calibrator is active; an instant is scaled by
# the blocks within WINDOW_S of it. Chosen on a 60 s decode trace split into
# eight runs: raw p50 IQR 26%, scaled 2% (8% with 0.3 s / 1 s).
PERIOD_S = 0.1
WINDOW_S = 0.25
clock = time.perf_counter


def block() -> float:
    counts: dict = {}
    acc = 0.0
    for i in range(20000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0.0) + i * 0.5
        acc += (i % 7) * 1.5
    for i in range(300):
        row = np.full(120, 0.1)
        row[i % 120] += 1.0
        acc += float(row.sum())
    ordered = sorted((-(i * 7919 % 1000), i) for i in range(3000))
    return acc + ordered[0][1]


class Calibrator:
    """While active, runs the block from a SIGALRM handler every PERIOD_S, so
    blocks land inside long calls (a 10 s rqvae.train) as well as between
    short ones; every measured interval is then scaled by the blocks near
    each part of it, and the blocks run inside it are taken out. The blocks
    cost about a tenth of the run's wall time."""

    def __init__(self):
        self.mids: list[float] = []
        self.times: list[float] = []
        block()  # first run pays one-off costs; not a sample

    def __enter__(self):
        self.sample(3)
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample(3)

    def sample(self, blocks: int = 1) -> None:
        for _ in range(blocks):
            start = clock()
            block()
            end = clock()
            self.mids.append((start + end) / 2)
            self.times.append(end - start)

    def factor(self, at: float) -> float:
        """REFERENCE_S over the median block time within WINDOW_S of ``at``,
        or of the five blocks nearest to it."""
        lo = bisect.bisect_left(self.mids, at - WINDOW_S)
        hi = bisect.bisect_right(self.mids, at + WINDOW_S)
        if hi - lo < 3:
            mid = bisect.bisect_left(self.mids, at)
            lo, hi = max(0, mid - 3), min(len(self.mids), mid + 2)
        return REFERENCE_S / statistics.median(self.times[lo:hi])

    def scale(self, start: float, end: float) -> float:
        """[start, end] in reference seconds, less the blocks run inside it."""
        lo = bisect.bisect_right(self.mids, start)
        hi = bisect.bisect_left(self.mids, end)
        cuts = [start, *self.mids[lo:hi], end]
        total = sum((b - a) * self.factor((a + b) / 2) for a, b in zip(cuts, cuts[1:]))
        return total - sum(self.times[i] * self.factor(self.mids[i]) for i in range(lo, hi))

    def median_block_s(self) -> float:
        return statistics.median(self.times)
