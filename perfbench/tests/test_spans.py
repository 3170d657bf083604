"""Self time is a span's duration minus what its children cover."""

from __future__ import annotations

import time

from perfbench.spans import Spans


def test_self_time_excludes_children_and_counts_units(tmp_path):
    spans = Spans()
    with spans.span("outer"):
        time.sleep(0.02)
        with spans.span("inner", units=4):
            time.sleep(0.03)
    table = spans.table()
    assert table["inner"]["units"] == 4 and table["outer"]["calls"] == 1
    assert abs(table["outer"]["total_s"] - table["outer"]["self_s"] - table["inner"]["total_s"]) < 1e-9
    assert table["outer"]["self_s"] < table["inner"]["self_s"]
    spans.dump(tmp_path / "spans.jsonl")
    assert len((tmp_path / "spans.jsonl").read_text().splitlines()) == 2


def test_disabled_recorder_records_nothing():
    spans = Spans(enabled=False)
    with spans.span("x"):
        spans.count("n")
    assert spans.table() == {} and not spans.counts
