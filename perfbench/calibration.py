"""Rescale wall times by the host's speed at the moment they were taken.

The benchmark runs on shared machines whose speed swings by tens of percent
for minutes at a time, far more than the changes it has to resolve.  A fixed
calibration kernel, which no program change can touch, is timed before and
after every measured interval.  The interval's wall time is multiplied by
``REFERENCE_PIECE_S`` over the mean kernel time around it, which gives the
seconds the interval would have taken on a host where the kernel takes
``REFERENCE_PIECE_S``: when the host slows down, the kernel slows with it and
the rescaled time stays put.

The kernel mimics the program's hot path (scalar cost polynomials behind a
numpy argument check, fixed-point rounding, seeded share draws, small tuples)
so that the slowdowns it sees are the ones the program sees.
"""

from __future__ import annotations

import random
import time

import numpy as np

#: One piece's time on the host the bounds were set on, in its fast periods
#: (a two-core x86-64 virtual machine, Python 3.11, numpy 2.4).  It only sets
#: the scale of the rescaled seconds.
REFERENCE_PIECE_S = 0.020
#: Pieces per probe; a probe takes 0.1 to 0.17 s, depending on the host's speed.
PIECES = 5


def piece() -> float:
    """Run the calibration kernel once; returns its wall seconds."""
    rng = random.Random(1)
    kept: list[tuple[int, tuple[int, int]]] = []
    start = time.perf_counter()
    for i in range(3000):
        s = 5.0 + (i % 135)
        if np.any(np.asarray(s) <= 0):
            raise ValueError(s)
        cost = (2260.6 + s * (70.18 + s * (0.29 + s * 0.003))) / s
        fixed = int(round((2 * cost + 10) * 1000))
        draws = (rng.randrange(-10**8, 10**8), rng.randrange(-10**8, 10**8))
        kept.append((fixed - sum(draws), draws))
        if len(kept) > 100:
            kept.clear()
    return time.perf_counter() - start


class Calibration:
    """Probes the kernel between intervals and rescales each interval's wall time."""

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.start()

    def probe(self) -> float:
        mean = sum(piece() for _ in range(PIECES)) / PIECES
        self.probes.append(mean)
        return mean

    def start(self) -> None:
        """Probe now, before an interval that does not follow the last one."""
        self._last = self.probe()

    def rescale(self, wall_s: float) -> float:
        """Rescale an interval that ended just now, since the previous probe."""
        after = self.probe()
        around = (self._last + after) / 2
        self._last = after
        return wall_s * REFERENCE_PIECE_S / around
