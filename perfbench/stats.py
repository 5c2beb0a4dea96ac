"""Percentiles and quartiles used by the runner, the live client and
the compare mode."""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated percentile, ``q`` in [0, 100]; 0.0 when
    there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4)
    return first, median, third
