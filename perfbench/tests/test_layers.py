"""Stats-derived layer metrics parse from recorded daemon and router
``stats`` payloads (taken before and after a little traffic)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import layers

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def load(name: str) -> dict:
    return json.loads((FIXTURES / f"stats_{name}.json").read_text())


@pytest.mark.parametrize("name", ["daemon", "router"])
def test_metrics_follow_the_recorded_sums_and_counts(name):
    payloads = load(name)
    before, after = payloads["before"], payloads["after"]
    metrics = layers.stats_metrics(before, after)
    start, end = layers.totals(before), layers.totals(after)
    waits = end["queue_wait_seconds.count"] - start["queue_wait_seconds.count"]
    wait_sum = end["queue_wait_seconds.sum"] - start["queue_wait_seconds.sum"]
    assert waits > 0
    assert metrics["service.queue_wait_ms"] == (pytest.approx(wait_sum / waits * 1e3), "ms")
    assert metrics["service.batch_size_mean"][0] >= 1.0
    assert metrics["service.peel_ms"][0] > 0.0  # both recordings include cold requests
    assert metrics["service.scan_ms"] == (0.0, "ms")
    share = metrics["service.cache_hit_share"][0]
    assert 0.0 < share < 1.0


def test_router_totals_sum_every_shard():
    after = load("router")["after"]
    shards = [s for s in after["shards"].values() if s]
    assert len(shards) == 2
    assert layers.totals(after)["responses_ok"] == sum(s["metrics"]["responses_ok"] for s in shards)
    assert layers.daemon_payloads(load("daemon")["after"]) == [load("daemon")["after"]]
