"""Small statistics the benchmark reports: percentiles and the failure ratio."""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: Tail percentiles considered, highest first.
TAIL_CANDIDATES = (0.999, 0.99, 0.95, 0.9)

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10


def rank(count: int, q: float) -> int:
    """Nearest-rank index (0-based) of quantile ``q`` in ``count`` sorted samples."""
    if count < 1:
        raise ValueError("no samples")
    return min(count - 1, max(0, math.ceil(q * count) - 1))


def samples_beyond(count: int, q: float) -> int:
    """How many samples lie strictly above the nearest-rank ``q`` quantile."""
    return count - 1 - rank(count, q)


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank quantile ``q`` of the already sorted ``ordered``."""
    return ordered[rank(len(ordered), q)]


def supports(count: int, q: float) -> bool:
    """Whether ``count`` samples leave at least ten beyond quantile ``q``."""
    return count > 0 and samples_beyond(count, q) >= MIN_SAMPLES_BEYOND


def highest_supported_tail(count: int) -> Optional[float]:
    """The highest candidate tail quantile with ten samples beyond it, if any."""
    for q in TAIL_CANDIDATES:
        if supports(count, q):
            return q
    return None


def failed_ratio(failed: int, attempted: int) -> float:
    """Share of attempted measured messages that failed (0 when none attempted)."""
    if failed < 0 or failed > attempted:
        raise ValueError(f"failed={failed} outside 0..attempted={attempted}")
    return failed / attempted if attempted else 0.0
