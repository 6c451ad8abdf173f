"""Order statistics shared by the harness, the workloads and compare.py."""

from __future__ import annotations

import math
import statistics

__all__ = ["FAILED_MS", "geomean", "percentile", "quartiles", "summarize"]

#: Latency recorded for a failed or refused operation: it sorts after every
#: real sample, so a percentile that reaches a failure reads as one.
FAILED_MS = 1e9


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]) — always a value that occurred."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(len(ordered), rank) - 1]


def quartiles(values) -> tuple[float, float]:
    """(q1, q3) as ``statistics.quantiles(values, n=4)`` gives them — the
    same rule the acceptance check applies to ten runs."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def summarize(values) -> dict:
    """n / min / q1 / median / q3 / max of a list of measurements."""
    values = list(values)
    q1, q3 = quartiles(values)
    return {
        "n": len(values),
        "min": min(values),
        "q1": q1,
        "median": statistics.median(values),
        "q3": q3,
        "max": max(values),
    }
