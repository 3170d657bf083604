"""Per-layer metrics from the daemon's public ``stats`` op.

Only exact counters and histogram sums and counts are used: the
percentiles in ``stats`` come from a per-process reservoir.  A router's
payload nests each shard's daemon payload under ``shards``; those are
summed.  Every metric is the difference between a payload taken just
before the timed phase and one taken just after it.
"""

from __future__ import annotations

HISTOGRAMS = ("queue_wait_seconds", "batch_size", "lookup_seconds", "peel_seconds", "scan_seconds")
COUNTERS = ("served_from_cache", "responses_ok", "responses_error")


def daemon_payloads(stats: dict) -> list:
    """The daemon-level payloads inside one ``stats`` answer."""
    if "router" in stats:
        return [shard for shard in (stats.get("shards") or {}).values() if shard]
    return [stats]


def totals(stats: dict) -> dict:
    """Summed counters and histogram count/sum over every daemon."""
    out = {f"{name}.{part}": 0.0 for name in HISTOGRAMS for part in ("count", "sum")}
    out.update({name: 0 for name in COUNTERS})
    for payload in daemon_payloads(stats):
        metrics = payload.get("metrics") or {}
        for name in HISTOGRAMS:
            histogram = metrics.get(name) or {}
            out[f"{name}.count"] += histogram.get("count", 0)
            out[f"{name}.sum"] += histogram.get("sum", 0.0)
        for name in COUNTERS:
            out[name] += metrics.get(name, 0)
    return out


def stats_metrics(before: dict, after: dict) -> dict:
    """``{name: (value, unit)}`` over the interval between two payloads."""
    start, end = totals(before), totals(after)
    delta = {name: end[name] - start[name] for name in end}

    def mean(name: str, scale: float) -> float:
        count = delta[f"{name}.count"]
        return delta[f"{name}.sum"] / count * scale if count else 0.0

    answered = delta["responses_ok"] + delta["responses_error"]
    return {
        "service.queue_wait_ms": (mean("queue_wait_seconds", 1e3), "ms"),
        "service.batch_size_mean": (mean("batch_size", 1.0), "count"),
        "service.lookup_ms": (mean("lookup_seconds", 1e3), "ms"),
        "service.peel_ms": (mean("peel_seconds", 1e3), "ms"),
        "service.scan_ms": (mean("scan_seconds", 1e3), "ms"),
        "service.cache_hit_share": (delta["served_from_cache"] / answered if answered else 0.0, "share"),
    }
