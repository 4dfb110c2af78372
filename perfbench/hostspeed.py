"""The host's speed during a run, from a fixed reference workload.

On a shared VM the same join can take 20-50% longer for minutes at a
time while neighbours load the machine, and every operation of the
program slows together.  ``HostProbe`` times a fixed piece of
pure-Python work every ``interval`` seconds between operations.  The
work is benchmark code only (no program change can touch it) and is
shaped like the program's inner loops: bounding boxes of small
polylines held as tuples, a sort, and dict updates.  The run's host
factor is ``REFERENCE_S`` over the median probe time: above 1 on a fast
stretch, below 1 on a slow one.  A wall time multiplied by it is in
seconds at the reference speed, which is what the end-to-end metrics
report.  The report prints the raw wall figures beside them.
"""

from __future__ import annotations

import random
import time

from stats import median

__all__ = ["REFERENCE_S", "HostProbe", "ReferenceWork"]

#: Nominal time of one ``ReferenceWork`` call, about its median on a
#: 2-vCPU x86-64 VM with CPython 3.11.  Only ratios matter: it fixes the
#: scale, so corrected figures read as seconds on such a host.
REFERENCE_S = 0.013


class ReferenceWork:
    """Fixed interpreter work over fixed data (same on every run)."""

    def __init__(self, n_lines: int = 3000, n_points: int = 8):
        rng = random.Random(1)
        self.lines = [
            [(rng.random(), rng.random()) for _ in range(n_points)]
            for _ in range(n_lines)
        ]

    def __call__(self) -> tuple:
        boxes = []
        for line in self.lines:
            xs = [p[0] for p in line]
            ys = [p[1] for p in line]
            boxes.append((min(xs), min(ys), max(xs), max(ys)))
        boxes.sort()
        cells = {}
        for i, box in enumerate(boxes):
            key = int(box[0] * 16) * 16 + int(box[1] * 16)
            cells[key] = cells.get(key, 0) + i % 7
        return boxes[0], len(cells)


class HostProbe:
    """Samples ``ReferenceWork`` at most once per *interval* seconds."""

    def __init__(self, interval: float = 0.5):
        self.interval = interval
        self.work = ReferenceWork()
        self.samples = []
        self.spent = 0.0  # seconds spent probing, kept out of throughput
        self._last = float("-inf")

    def sample(self) -> None:
        start = time.perf_counter()
        self.work()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.spent += end - start
        self._last = end

    def between_ops(self) -> None:
        """Take a sample if the last one is older than the interval."""
        if time.perf_counter() - self._last >= self.interval:
            self.sample()

    def factor(self) -> float:
        """``REFERENCE_S`` over the median sample time."""
        if not self.samples:
            raise ValueError("host probe took no sample")
        return REFERENCE_S / median(self.samples)
