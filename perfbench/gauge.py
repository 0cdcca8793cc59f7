"""Host-speed gauge: scales every time the benchmark reports.

The shared virtual machines this benchmark runs on change speed in
phases, on every vCPU at once: on a 2-vCPU Intel Xeon VM with nothing
else running in it, the task below read about 5 ms in fast stretches
and 8.5 ms in slow ones, each lasting from under a second to minutes,
and the same two flow jobs took from 0.46 s to 0.86 s with them.  A run
that falls in a slow stretch is slow as a whole, so no median, minimum
or longer run of job times removes it, and it is wider than the
regression bounds in ``BENCHMARK.json``.

So before every job, outside the timed region, a ``flow`` or ``verify``
run also times a fixed pure-Python task that runs no ``repro`` code (an
integer loop and a structural hash table built the way an AIG is), and
scales each job's measured time to a reference host speed::

    scaled = measured * REFERENCE_S / reading

``reading`` is the mean of the gauge readings taken just before and just
after the job.  On that VM this cut the spread of the same design's time
from one run to the next from about 0.25-0.31 to 0.15-0.19 (standard
deviation of the log ratio); readings averaged over longer windows
tracked worse, because the phases can be shorter than a second.  The
``service`` client reads the gauge while it waits between sends (see
``service.py``).  The unscaled times are printed beside the scaled ones
as a note.
"""

from __future__ import annotations

import gc
import time
from bisect import bisect_left, bisect_right

from stats import quartiles

#: Seconds one reading of the task takes on the reference host (about the
#: median reading of flow and verify runs on the 2-vCPU VM above), so
#: scaled times read about as seconds there.
REFERENCE_S = 0.007
#: Iterations of the task's integer loop and nodes it hashes: about
#: 4 ms each on the reference host.
TASK_LOOP = 40_000
TASK_NODES = 3000
#: Runs of the task per reading; the fastest is the reading, so a single
#: preemption does not count.
REPEATS = 3


def task() -> int:
    """The fixed task: an integer loop, then ``TASK_NODES`` two-input
    nodes hashed over a growing literal list (dict lookups on tuple keys,
    list appends), work of the kinds a ``repro`` job does."""
    total = 0
    for i in range(TASK_LOOP):
        total += i * i % 7
    table: dict[tuple[int, int], int] = {}
    lits = list(range(2, 130, 2))
    x = 12345
    for _ in range(TASK_NODES):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        a = lits[x % len(lits)]
        b = lits[(x >> 8) % len(lits)] ^ ((x >> 20) & 1)
        key = (a, b) if a < b else (b, a)
        lit = table.get(key)
        if lit is None:
            lit = table[key] = 2 * len(table) + 130
        lits.append(lit)
    return total + len(table)


class Gauge:
    """Readings of the task over one run, with the time each was taken."""

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.readings: list[float] = []

    def read(self) -> float:
        """Take one reading; return the wall seconds that took."""
        start = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = float("inf")
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                task()
                best = min(best, time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        self.stamps.append(time.perf_counter())
        self.readings.append(best)
        return self.stamps[-1] - start

    def scale(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the mean of the last reading taken before
        ``start`` and the first taken after ``end`` (``perf_counter``
        stamps of a job)."""
        near = [self.readings[k]
                for k in (bisect_right(self.stamps, start) - 1,
                          bisect_left(self.stamps, end))
                if 0 <= k < len(self.readings)]
        return REFERENCE_S / (sum(near) / len(near))

    def note(self) -> str:
        """The run's median reading and spread, for the run's notes."""
        q1, q2, q3 = quartiles(self.readings)
        return (f"host gauge {q2 * 1e3:.2f} ms (reference "
                f"{REFERENCE_S * 1e3:g} ms; median of {len(self.readings)}, "
                f"IQR/median {(q3 - q1) / q2:.2f})")

