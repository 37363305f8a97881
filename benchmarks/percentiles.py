"""Percentile summaries shared by the wall-clock benchmark scripts.

Linear interpolation between closest ranks (numpy's default ``linear`` method),
so a p50 over an even sample count is the mean of the middle pair.  The service
layer keeps its own nearest-rank helper because ``ServiceStats`` reports those
semantics.
"""

from __future__ import annotations

from typing import Dict, List


def percentile(samples: List[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``samples``; 0.0 for no samples."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    index = (len(ordered) - 1) * q
    lower = int(index)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = index - lower
    return ordered[lower] * (1 - fraction) + ordered[upper] * fraction


def summary(samples: List[float]) -> Dict[str, float]:
    """``p50``, ``p95`` and the sample count, the shape every BENCH_*.json row uses."""
    return {
        "p50": percentile(samples, 0.50),
        "p95": percentile(samples, 0.95),
        "samples": len(samples),
    }
