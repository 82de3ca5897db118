"""The benchmark's own arithmetic: summary statistics, reference
normalisation and span self time. Pure functions, no imports from ``repro``.
"""
from __future__ import annotations

import statistics
from typing import Iterable, List, Sequence, Tuple

#: The tail is the highest percentile that still has this many samples
#: beyond it.
TAIL_BEYOND = 10


def normalise(query_s: float, ref_s: float, nominal_s: float) -> float:
    """Reference-normalised seconds: ``query_s / ref_s * nominal_s``.

    ``ref_s`` is the reference computation timed right before the query, so
    a machine that is momentarily slower inflates both and the ratio stays.
    """
    if ref_s <= 0:
        raise ValueError(f"reference time must be positive, got {ref_s}")
    return query_s / ref_s * nominal_s


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> Tuple[float, float]:
    """``(percentile, value)`` of the tail of ``values``.

    The tail is the order statistic ``x_(n-beyond)`` (1-based, ascending), the
    highest one with at least ``beyond`` samples above it; its percentile is
    ``100·(n-beyond)/n``. With ``n <= 2·beyond`` that would sit at or below
    the median, so the median is returned instead, at percentile 50.
    """
    n = len(values)
    if n == 0:
        raise ValueError("tail of an empty sample")
    if n <= 2 * beyond:
        return 50.0, statistics.median(values)
    k = n - beyond
    return 100.0 * k / n, sorted(values)[k - 1]


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(
    start: float, end: float, children: Iterable[Tuple[float, float]]
) -> float:
    """A span's duration minus the part of it that its children cover."""
    clipped: List[Tuple[float, float]] = [
        (max(s, start), min(e, end)) for s, e in children if e > start and s < end
    ]
    return (end - start) - union_length(clipped)
