"""Summary statistics the benchmark reports: percentiles, tails, coverage."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

#: A tail percentile is reported only where at least this many samples
#: lie beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation) of a non-empty sample."""
    if len(values) == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def median_percentile(groups: Sequence[Sequence[float]], q: float) -> float:
    """The median over ``groups`` of each group's ``q``-th percentile.

    Groups are repetitions, or consecutive stretches of one stream: a
    disturbance confined to one group (a scheduler stall, a burst of
    steal time) moves one group's percentile, not the reported median.
    """
    return median([percentile(group, q) for group in groups])


@dataclass(frozen=True)
class Tail:
    """The highest percentile of a sample with ``beyond`` samples above it."""

    pct: float
    value: float
    samples: int
    beyond: int


def supported_tail(values: Sequence[float], min_beyond: int = MIN_BEYOND) -> Tail | None:
    """The highest percentile that has at least ``min_beyond`` samples beyond it.

    With ``n`` sorted samples the answer is the sample at 1-based rank
    ``n - min_beyond``: it is the ``100 * (n - min_beyond) / n``-th
    percentile and exactly ``min_beyond`` samples rank above it.  ``None``
    when the sample is too small to support any such percentile.
    """
    n = len(values)
    rank = n - min_beyond
    if rank < 1:
        return None
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    return Tail(
        pct=100.0 * rank / n,
        value=float(ordered[rank - 1]),
        samples=n,
        beyond=min_beyond,
    )


def covered_length(
    intervals: Iterable[tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``.

    Overlapping intervals (children running on several threads at once)
    are counted once, so the result never exceeds ``hi - lo``.
    """
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if end > lo and start < hi
    )
    total = 0.0
    cur_start = cur_end = None
    for start, end in clipped:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it its children cover."""
    return (end - start) - covered_length(children, start, end)
