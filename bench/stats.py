"""Sample statistics under the suite's percentile rule."""

from __future__ import annotations

import statistics
from collections.abc import Sequence


def percentile(samples: Sequence[float], q: float) -> float | None:
    """The ``q``-th percentile, or None when the sample cannot support it.

    A percentile is reported only when at least ten samples lie beyond it
    (p90 needs 100 samples, p99 needs 1000, the median needs 20); a
    smaller sample yields None, never a weaker percentile under the same
    name. Nearest-rank on the sorted sample: the value returned is one
    that was measured.
    """
    n = len(samples)
    if not 0 < q < 100:
        raise ValueError(f"q must be inside (0, 100), got {q}")
    beyond = n * min(q, 100 - q) / 100
    if beyond < 10:
        return None
    ordered = sorted(samples)
    rank = max(1, -(-n * q // 100))  # ceil(n*q/100), 1-based
    return float(ordered[int(rank) - 1])


def median(samples: Sequence[float]) -> float | None:
    """Plain median of per-repeat values (no minimum count); None if empty."""
    return float(statistics.median(samples)) if samples else None


def spread(samples: Sequence[float]) -> dict[str, float | int | None]:
    """min / median / max of per-repeat raw values, for the results file."""
    if not samples:
        return {"n": 0, "min": None, "median": None, "max": None}
    return {
        "n": len(samples),
        "min": float(min(samples)),
        "median": median(samples),
        "max": float(max(samples)),
    }


def iqr_share(samples: Sequence[float]) -> float | None:
    """Interquartile distance as a share of the median (the driver's spread)."""
    if len(samples) < 2:
        return None
    q1, _, q3 = statistics.quantiles(samples, n=4)
    mid = statistics.median(samples)
    return abs(q3 - q1) / abs(mid) if mid else None
