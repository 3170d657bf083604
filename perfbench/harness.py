"""One benchmark run: set up, warm, time, check, report.

End-to-end metrics (``--trace 0``) are measured with tracing off:

* ``setup_s`` -- median over ``SETUPS`` launches, each from an empty
  private store directory to the server answering ``ping`` (BFS build,
  store write, map, A_i lists, process or shard spawn);
* ``functions_per_s`` -- functions answered per second of the timed
  phase (a ``batch`` counts each sub-request);
* ``latency_p50_ms`` / ``latency_p90_ms`` -- per top-level request,
  timed at the client;
* ``server_cpu_ms_per_fn`` -- server utime + stime over the timed phase
  per function answered;
* ``server_pss_mb`` -- summed ``Pss`` of the server processes at the end.

Workloads with a ``window_s`` take rate, percentiles and CPU per window
and report the median over windows.

``--trace 1`` sets up once and reports the per-layer metrics instead:
counters and sums from the daemon's own ``stats`` op over the timed
phase, and span self times from an in-process replay of the same inputs
(:mod:`perfbench.replay`).
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import threading
import time
from pathlib import Path

from perfbench import layers, oracle, workloads
from perfbench.load import closed_loop
from perfbench.server import Server
from perfbench.workloads import K, LISTS, WORKLOADS

#: Launches per run whose median is ``setup_s``; the last one serves.
SETUPS = 3


def quantile(values, q: float) -> float:
    """Nearest-rank quantile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))]


def run(checkout: Path, workload: str, seed: int, seconds: int, trace: bool, stem: Path) -> dict:
    """One run; its record goes to ``<stem>.json`` (spans, when traced,
    to ``<stem>.spans.jsonl``)."""
    spec = WORKLOADS[workload]
    root = checkout / ".perfbench" / f"run-{os.getpid()}-{time.time_ns()}"
    root.mkdir(parents=True)
    try:
        record = _run(checkout, root, spec, seed, seconds, trace, stem)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record


def _run(checkout: Path, root: Path, spec, seed: int, seconds: int, trace: bool, stem: Path) -> dict:
    setups = []
    phases = {}
    mark = time.perf_counter()

    def phase(name):
        nonlocal mark
        now = time.perf_counter()
        phases[name] = round(now - mark, 3)
        mark = now

    server = None
    try:
        for i in range(1 if trace else SETUPS):
            if server is not None:
                server.stop()
            server = Server(checkout, root / f"store-{i}", spec.shards)
            setups.append(server.start())
        phase("setup")
        private = root / "reference-store"
        shutil.copytree(server.store, private)
        ref = oracle.Reference(private)
        phase("reference")
        inputs = workloads.generate(spec.name, ref.db, seed, seconds)
        phase("generate")
        warm = closed_loop(server.address, inputs.warm, spec.connections, None)
        phase("warm")
        spin = host_spin_ms()
        before = server.stats()
        with CpuMarks(server, spec.window_s) as cpu:
            timed = closed_loop(server.address, inputs.lines, spec.connections, seconds)
        pss = server.pss_mb()
        after = server.stats()
        phase("timed")
    finally:
        if server is not None:
            server.stop()
    phase("stop")
    warm_verdict = oracle.check(inputs.warm, warm.samples, ref)
    verdict = oracle.check(inputs.lines, timed.samples, ref)
    phase("oracle")
    latencies = [s.latency * 1000.0 for s in timed.samples]
    windows = timing_windows(timed, verdict.answered, cpu.marks, spec.window_s, seconds)
    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        "functions_per_s": (statistics.median(w["functions_per_s"] for w in windows), "1/s"),
        "latency_p50_ms": (statistics.median(w["latency_p50_ms"] for w in windows), "ms"),
        "latency_p90_ms": (statistics.median(w["latency_p90_ms"] for w in windows), "ms"),
        "server_cpu_ms_per_fn": (statistics.median(w["server_cpu_ms_per_fn"] for w in windows), "ms"),
        "server_pss_mb": (pss, "MB"),
    }
    extra = {
        "requests": len(latencies),
        "windows": windows,
        "latency_p99_ms": quantile(latencies, 0.99) if len(latencies) >= 1000 else None,
        "failed_share": verdict.failed / verdict.attempted,
        "failure_reasons": dict(verdict.reasons),
        "warm_failures": warm_verdict.failed,
        "stream_exhausted": timed.exhausted,
        "setups_s": setups,
        "host_spin_ms": spin,
        "phases_s": phases,
    }
    record = {
        "workload": spec.name,
        "seed": seed,
        "seconds": seconds,
        "k": K,
        "lists": LISTS,
        "inputs_sha256": inputs.digest(),
        "rdb_checksum": _store_checksum(private),
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "correct": verdict.failed == 0 and warm_verdict.failed == 0,
        "end_to_end": {name: value for name, (value, _unit) in e2e.items()},
        "detail": extra,
    }
    metrics = e2e
    if trace:
        from perfbench import replay

        per_layer = layers.stats_metrics(before, after)
        group = max(1, round(per_layer["service.batch_size_mean"][0]))
        replayed, extra["spans_per_function"] = replay.replay(
            spec, inputs, timed.samples, ref, root, stem.with_suffix(".spans.jsonl"), group)
        per_layer.update(replayed)
        phase("replay")
        record["per_layer"] = {name: value for name, (value, _unit) in per_layer.items()}
        metrics = per_layer
    record["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    return record


def host_spin_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the shared host
    ran just before the timed phase (recorded to explain noise, never
    used to adjust a metric)."""
    times = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append((time.perf_counter() - started) * 1e3)
    return statistics.median(times)


class CpuMarks:
    """Server CPU seconds at the start, at each window boundary, and at
    the end of the timed phase (read on a helper thread)."""

    def __init__(self, server, window_s: "float | None") -> None:
        self.server = server
        self.window_s = window_s
        self.marks: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._tick, name="bench-cpu-marks")

    def __enter__(self) -> "CpuMarks":
        self.marks.append(self.server.cpu_seconds())
        self._thread.start()
        return self

    def _tick(self) -> None:
        if self.window_s is None:
            return
        start = time.perf_counter()
        while not self._stop.wait(start + len(self.marks) * self.window_s - time.perf_counter()):
            self.marks.append(self.server.cpu_seconds())

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        self.marks.append(self.server.cpu_seconds())


def timing_windows(timed, answered: list, cpu_marks: list, window_s: "float | None", seconds: int) -> list:
    """Per-window rate, latency percentiles and CPU per function.

    Requests belong to the window in which they were sent; the last
    window also holds the answers that arrived after the time was up.
    """
    count = 1 if window_s is None else max(1, int(seconds // window_s))
    span = timed.wall if window_s is None else window_s
    buckets: list = [[] for _ in range(count)]
    for sample, ok in zip(timed.samples, answered):
        index = min(count - 1, int((sample.started - timed.start) / span))
        buckets[index].append((sample.latency * 1000.0, ok))
    cpu = [b - a for a, b in zip(cpu_marks, cpu_marks[1:])]
    cpu += [0.0] * (count - len(cpu))  # the stream ran out before the last boundary
    cpu[count - 1] = sum(cpu[count - 1:])  # boundary reads past the last window
    windows = []
    for index, bucket in enumerate(buckets):
        if not bucket:
            continue
        functions = sum(ok for _latency, ok in bucket)
        latencies = [latency for latency, _ok in bucket]
        windows.append({
            "functions_per_s": functions / span,
            "latency_p50_ms": quantile(latencies, 0.50),
            "latency_p90_ms": quantile(latencies, 0.90),
            "server_cpu_ms_per_fn": cpu[index] * 1000.0 / max(functions, 1),
        })
    return windows


def _store_checksum(store: Path) -> str:
    from repro.store import read_header

    return read_header(next(store.glob("*.rdb"))).checksum.hex()
