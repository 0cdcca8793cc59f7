"""Order statistics shared by the workloads and the per-layer table."""

from __future__ import annotations

import statistics

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    values = list(values)
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values) -> tuple[float, float, int]:
    """The highest nearest-rank percentile with ``TAIL_BEYOND`` samples
    beyond it: ``(value, percentile, sample_count)``.

    With ``n`` samples that is the sample of rank ``n - TAIL_BEYOND``
    (1-based), i.e. percentile ``100 * (n - TAIL_BEYOND) / n``.  When that
    percentile would fall below the median, the median stands in
    (reported as percentile 50).
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = n - TAIL_BEYOND
    if 2 * rank < n:
        return median(ordered), 50.0, n
    return ordered[rank - 1], 100.0 * rank / n, n
