"""Small order statistics used by the benchmark."""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: A tail percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), interpolating linearly between
    closest ranks (NumPy's default method)."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError("q must be within [0, 100]")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def tail_percentile(values: Sequence[float], q: float) -> Optional[float]:
    """``percentile(values, q)`` when at least :data:`TAIL_SAMPLES`
    samples lie beyond it, else ``None``."""
    if len(values) * (100 - q) / 100 < TAIL_SAMPLES:
        return None
    return percentile(values, q)
