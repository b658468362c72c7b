"""Host-speed calibration for the timed metrics.

On a small shared host the speed of one CPU drifts by tens of percent
over minutes (the reference host below went 1.7x between two runs of
the same operations), which no amount of work per run averages out.
So every timed operation is bracketed by a fixed probe — a little pure
Python and a little NumPy, the program's own mix — run on the same CPU
as the program, and each operation's time is reported scaled to the
reference speed:

    reported = measured * PROBE_REF_S / probe time around the operation

The program's code never runs inside the probe, so a change to the
program moves the reported times exactly as it moves the measured
ones; only the host's speed cancels.  ``run.py`` pins itself and every
process it starts to one CPU so that the probe and the program share
it.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

__all__ = ["PROBE_REF_S", "Calibration", "probe"]

clock = time.perf_counter

#: Median probe time on the reference host (2-vCPU VM, see README.md).
PROBE_REF_S = 0.0010

_KEYS = np.arange(40_000, dtype=np.int64) * 7919 % 40_009


def _kernel() -> float:
    began = clock()
    acc = 0
    table: dict[int, int] = {}
    for i in range(2_500):
        acc = (acc + i * i) % 1_000_003
        table[i & 511] = acc
    order = np.argsort(_KEYS[:30_000], kind="stable")
    np.add.reduceat(_KEYS[order], np.arange(0, order.size, 64))
    return clock() - began


def probe() -> float:
    """The fixed probe: median of three short kernels (a stray
    interrupt hits one of them, not the median), in seconds."""
    return sorted(_kernel() for _ in range(3))[1]


class Calibration:
    """Probe times along one timed phase, and the per-operation scale."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.seconds: list[float] = []

    def probe(self) -> None:
        began = clock()
        seconds = probe()
        self.starts.append(began)
        self.ends.append(clock())
        self.seconds.append(seconds)

    def probe_every(self, interval: float) -> None:
        """Probe if ``interval`` seconds passed since the last probe."""
        if not self.ends or clock() - self.ends[-1] >= interval:
            self.probe()

    @classmethod
    def from_dict(cls, data: dict) -> "Calibration":
        cal = cls()
        cal.starts, cal.ends, cal.seconds = (
            list(data[key]) for key in ("starts", "ends", "seconds"))
        return cal

    def as_dict(self) -> dict:
        return {"starts": self.starts, "ends": self.ends, "seconds": self.seconds}

    def intervals(self) -> list[tuple[float, float]]:
        return list(zip(self.starts, self.ends))

    def median_s(self) -> float:
        return sorted(self.seconds)[len(self.seconds) // 2]

    def speed(self, start: float, end: float) -> float:
        """Probe time around ``[start, end]`` over the reference: the
        mean of the last probe that ended by ``start`` and the first
        that began after ``end`` (either alone at the edges)."""
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_left(self.starts, end)
        near = [self.seconds[i] for i in (before, after)
                if 0 <= i < len(self.seconds)]
        if not near:
            raise ValueError("no calibration probe around the operation")
        return sum(near) / len(near) / PROBE_REF_S

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` at the reference speed."""
        return (end - start) / self.speed(start, end)
