"""Per-operation latency figures and the mix rate."""

from __future__ import annotations

import statistics

P99_MIN_SAMPLES = 1000  # so that ten samples lie beyond the p99


def percentile(values, per_mille: int) -> float:
    """Nearest-rank percentile: the smallest sample with q of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * per_mille // 1000))
    return ordered[rank - 1]


def latency_summary(prefix: str, samples_ms) -> dict[str, dict]:
    """p50, and p99 from at least a thousand samples, each with its sample count."""
    n = len(samples_ms)
    if n == 0:
        return {}
    out = {f"{prefix}_p50_ms": {"value": statistics.median(samples_ms), "unit": "ms",
                                "samples": n}}
    if n >= P99_MIN_SAMPLES:
        out[f"{prefix}_p99_ms"] = {"value": percentile(samples_ms, 990), "unit": "ms",
                                   "samples": n}
    return out


def mix_rate(done_ops) -> float:
    """Completed operations per second of busy time over the whole mix.

    ``done_ops`` is (kind, ns) per completed operation.  Every operation
    counts at its full time, so a change that slows only some operations
    of a kind (large frames, rejections, collector pauses) moves the rate.
    """
    return len(done_ops) * 1e9 / sum(ns for _, ns in done_ops)
