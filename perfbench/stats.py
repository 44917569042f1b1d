"""Summary statistics shared by the benchmark and its compare command."""

from __future__ import annotations

import statistics
from typing import List, Optional, Tuple


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile (``statistics.quantiles``)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def tail(values: List[float], beyond: int = 10) -> Optional[Tuple[int, float]]:
    """The highest whole percentile with at least ``beyond`` samples above it.

    Returns ``(pct, value)``, or None when the samples support nothing
    past the median.
    """
    n = len(values)
    pct = 100 * (n - beyond) // n if n > beyond else 0
    if pct <= 50:
        return None
    return pct, percentile(values, pct)


def describe(values: List[float]) -> str:
    """``median=... pNN=... n=...`` for one metric's samples."""
    text = f"median={statistics.median(values):.6g}"
    high = tail(values)
    if high is not None:
        text += f" p{high[0]}={high[1]:.6g}"
    return text + f" n={len(values)}"
