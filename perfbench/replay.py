"""Traced in-process replay of a workload's exact inputs.

The replay sends a fixed prefix of the lines the end-to-end run sent
through the same public functions the daemon calls, in the same order,
with a span around each call into a layer:

=========================  ==============================================
span                       call
=========================  ==============================================
``protocol.decode``        ``service.protocol.decode_request``
``protocol.encode``        ``service.protocol.encode_response``
``core.canonical_vec``     ``core.packed_np.canonical_np`` at batch shape
``core.canonical_scalar``  ``core.equivalence.canonical``
``hashing.probe``          table probe of a canonical key (per key)
``cache.lookup``           ``service.cache.ResultCache.lookup``
``shaping.circuit``        ``Circuit.parse`` + ``depth`` + ``cost`` +
                           ``Permutation.spec`` of one answer
``search.peel``            ``synth.search.peel_minimal_circuit``
``search.scan``            ``MeetInTheMiddleSearch.search`` (its vectorized
                           A_i compose, canonicalize and probe included)
``specs.compile``          ``specs.compile_spec``
``sharding.route``         ``service.sharding.HashRing.owner``
=========================  ==============================================

Spans live only in this file: scalar canonicalizations and probes are
seen through a database subclass whose ``size_of`` wraps the same two
calls the library makes.  Each metric is a self time per unit of work
(or per call) plus a count per answered function.  Lines are replayed
in groups of the daemon's measured batch size, each group untraced and
traced in alternation from the same warm cache; the ratio of the two
wall times is the tracing overhead.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import time
from pathlib import Path

import numpy as np

from repro.core.circuit import Circuit
from repro.core.equivalence import canonical
from repro.core.packed_np import canonical_np
from repro.core.permutation import Permutation
from repro.engines import create_engine
from repro.errors import SizeLimitExceededError
from repro.service import protocol
from repro.service.cache import ResultCache
from repro.service.daemon import ServiceConfig, SynthesisService
from repro.service.sharding import HashRing, InProcessShard, ShardRouter, ShardSupervisor
from repro.specs import compile_spec, spec_from_wire
from repro.synth.bfs import build_database
from repro.synth.database import OptimalDatabase
from repro.synth.search import MeetInTheMiddleSearch, peel_minimal_circuit
from repro.store import write_rdb

from perfbench.oracle import functions_in
from perfbench.spans import Spans
from perfbench.workloads import K, LISTS, N_WIRES, encode

#: Timed lines replayed per workload (a ``batch`` line is 256 functions;
#: 40 ``hard_mix`` lines are two whole blocks).
PREFIX = {"hot_singles": 600, "cold_singles": 100, "hard_mix": 40, "router_batch": 1}
#: Passes over the prefix; each replays every line untraced and traced.
PASSES = 2
SHARDS = ("shard-0", "shard-1")


class TracedDatabase(OptimalDatabase):
    """The same table and representatives; ``size_of`` is spanned."""

    spans: Spans

    @classmethod
    def wrap(cls, db: OptimalDatabase, spans: Spans) -> "TracedDatabase":
        traced = cls(n_wires=db.n_wires, k=db.k, table=db.table, reps_by_size=db.reps_by_size)
        traced.spans = spans
        return traced

    def size_of(self, word: int) -> "int | None":
        if self.spans.active("search.peel"):
            self.spans.count("search.peel_probes")
        with self.spans.span("core.canonical_scalar"):
            key = canonical(word, self.n_wires)
        with self.spans.span("hashing.probe"):
            return self.table.get(key)


class Replayer:
    """The daemon's per-request path, one call per layer."""

    def __init__(self, ref, spans: Spans, cache: ResultCache) -> None:
        self.spans = spans
        self.db = TracedDatabase.wrap(ref.db, spans)
        self.search = MeetInTheMiddleSearch(self.db, ref.handle.engine.lists)
        handle = dataclasses.replace(ref.handle, database=self.db, engine=self.search)
        self.compiler = create_engine("optimal", n_wires=N_WIRES, handle=handle)
        self.cache = cache
        self.ring = HashRing(SHARDS)

    # -- request lines -------------------------------------------------
    def lines(self, chunk) -> None:
        """Answer lines that reach the daemon together: their ``synth``
        and ``size`` requests share one dispatcher batch, ``compile``
        and ``batch`` ops are answered one by one."""
        requests = []
        for line in chunk:
            with self.spans.span("protocol.decode"):
                requests.append(protocol.decode_request(line))
        batched = []
        for request in requests:
            if request.op == "batch":
                self.batch(request)
            elif request.op == "compile":
                self.compile(request)
            else:
                batched.append(request)
        if batched:
            self.work(batched)

    def compile(self, request: protocol.Request) -> str:
        with self.spans.span("specs.compile"):
            result = compile_spec(spec_from_wire(request.spec), self.compiler, n_wires=N_WIRES)
        self.spans.count("specs.completions_tried", result.completions_tried)
        body = result.to_wire()
        body["source"] = "engine"
        return self.encode(request.id, body)

    def work(self, requests: list) -> list:
        """One dispatcher batch: a single vectorized canonicalization and
        probe, then each request from the cache, by peeling, or by scan."""
        n = N_WIRES
        words = [Permutation.coerce(request.spec_value(), n).word for request in requests]
        with self.spans.span("core.canonical_vec"):
            keys = canonical_np(np.array(words, dtype=np.uint64), n)
        with self.spans.span("hashing.probe", units=len(words)):
            sizes = self.db.table.lookup_batch(keys)
        return [
            self.resolve(request, word, key, size)
            for request, word, key, size in zip(requests, words, keys.tolist(), sizes.tolist())
        ]

    def resolve(self, request: protocol.Request, word: int, key: int, size: int) -> str:
        n = N_WIRES
        with self.spans.span("cache.lookup"):
            hit = self.cache.lookup(n, key, word)
        if hit is not None and hit.size is not None and (request.op == "size" or hit.circuit is not None):
            return self.shape(request, word, hit.size, hit.circuit, "cache")
        if size != self.db.MISSING:
            self.cache.store_size(n, key, size)
            if request.op == "size":
                return self.shape(request, word, size, None, "db")
            with self.spans.span("search.peel"):
                text = str(peel_minimal_circuit(word, self.db))
            self.cache.store_circuit(n, key, word, size, text)
            return self.shape(request, word, size, text, "db")
        try:
            with self.spans.span("search.scan"):
                outcome = self.search.search(word)
        except SizeLimitExceededError as exc:
            self.spans.count("search.lists_scanned", len(self.search.lists))
            self.spans.count("search.candidates_tested", sum(len(lst) for lst in self.search.lists))
            self.cache.store_bound(n, key, exc.lower_bound, K + LISTS)
            return self.error(request.id, exc)
        self.spans.count("search.lists_scanned", outcome.lists_scanned)
        self.spans.count("search.candidates_tested", outcome.candidates_tested)
        text = str(outcome.circuit)
        self.cache.store_circuit(n, key, word, outcome.size, text)
        return self.shape(request, word, outcome.size, text, "scan",
                          lists_scanned=outcome.lists_scanned,
                          candidates_tested=outcome.candidates_tested)

    def shape(self, request, word, size, text, source, **extra) -> str:
        with self.spans.span("shaping.circuit"):
            body = {"spec": Permutation(word, N_WIRES).spec(), "word": protocol.word_to_hex(word),
                    "size": size, "source": source}
            if request.op == "synth":
                circuit = Circuit.parse(text if text != "(identity)" else "", N_WIRES)
                body.update(circuit=text, depth=circuit.depth(), cost=circuit.cost())
            body.update(extra)
        return self.encode(request.id, body)

    def encode(self, request_id, body: dict) -> str:
        with self.spans.span("protocol.encode"):
            return protocol.encode_response(request_id, result=body)

    def error(self, request_id, exc: BaseException) -> str:
        with self.spans.span("protocol.encode"):
            return protocol.encode_response(request_id, error=protocol.error_envelope(exc))

    # -- the router's batch path --------------------------------------
    def batch(self, request: protocol.Request) -> str:
        """Route each sub-request by its scalar canonical key, forward
        each owner's slice as a shard ``batch`` line, answer it the way
        the shard daemon does, and gather the envelopes."""
        entries = request.options["requests"]
        slices: dict = {}
        for index, entry in enumerate(entries):
            sub = protocol.decode_payload(entry)
            word = Permutation.coerce(sub.spec_value(), N_WIRES).word
            with self.spans.span("core.canonical_scalar"):
                key = canonical(word, N_WIRES)
            with self.spans.span("sharding.route"):
                owner = self.ring.owner(key)
            slices.setdefault(owner, []).append((index, entry))
        slots: list = [None] * len(entries)
        for items in slices.values():
            with self.spans.span("protocol.encode"):
                forward = json.dumps({"id": None, "op": "batch", "requests": [e for _, e in items]})
            with self.spans.span("protocol.decode"):
                shard_side = protocol.decode_request(forward)
            envelopes = []
            for entry in shard_side.options["requests"]:
                # The shard daemon submits a batch op's members one by one.
                sub = protocol.decode_payload(entry)
                answer = self.compile(sub) if sub.op == "compile" else self.work([sub])[0]
                with self.spans.span("protocol.decode"):
                    envelopes.append(json.loads(answer))
            with self.spans.span("protocol.encode"):
                reply = protocol.encode_response(None, result={"count": len(envelopes), "results": envelopes})
            with self.spans.span("protocol.decode"):
                gathered = protocol.decode_response(reply)["result"]["results"]
            for (index, _entry), answer in zip(items, gathered):
                slots[index] = answer
        with self.spans.span("protocol.encode"):
            return protocol.encode_response(request.id, result={"count": len(slots), "results": slots})


def _pool_specs(inputs, sent) -> list:
    """The pre-warmed functions the replayed lines ask for, in pool order."""
    wanted = {json.dumps(f["spec"]) for line in sent for f in functions_in(json.loads(line))}
    pool = [f["spec"] for line in inputs.warm for f in functions_in(json.loads(line))]
    return [spec for spec in pool if json.dumps(spec) in wanted]


def _pass(ref, spans: Spans, cache_file: Path, sent, group: int, number: int) -> "tuple[float, float]":
    """Replay ``sent`` twice from the saved warm cache, untraced and
    traced, ``group`` lines at a time (the daemon's batch shape),
    alternating which goes first so that host speed drifts cancel;
    returns both wall times.  Spans of group ``i`` carry the request id
    ``"<number>.<i>"``."""
    replayers = (
        Replayer(ref, Spans(enabled=False), ResultCache(path=cache_file)),
        Replayer(ref, spans, ResultCache(path=cache_file)),
    )
    walls = [0.0, 0.0]
    for index in range(0, len(sent), group):
        spans.request = f"{number}.{index // group}"
        for which in (0, 1) if index % (2 * group) == 0 else (1, 0):
            started = time.perf_counter()
            replayers[which].lines(sent[index:index + group])
            walls[which] += time.perf_counter() - started
    return walls[0], walls[1]


class _TimedService(SynthesisService):
    """Records the time each shard spends inside a ``batch`` submit."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.busy: list = []

    def submit(self, request):
        if request.op != "batch":
            return super().submit(request)
        started = time.perf_counter()
        try:
            return super().submit(request)
        finally:
            self.busy.append(time.perf_counter() - started)


def router_overhead_ms(ref, pool_specs, sent) -> float:
    """Mean in-process ``ShardRouter`` batch time minus the time the
    slower shard spent inside ``SynthesisService.submit`` (the slices
    run concurrently, so the slower one bounds the batch)."""
    config = ServiceConfig(n_wires=N_WIRES, k=K, max_list_size=LISTS)
    services = [_TimedService(ref.handle, config=config) for _ in SHARDS]
    supervisor = ShardSupervisor()
    for shard_id, service in zip(SHARDS, services):
        supervisor.add(InProcessShard(shard_id, service).start())
    router = ShardRouter(supervisor, n_wires=N_WIRES).start()
    try:
        if pool_specs:
            router.handle_line(encode({"id": "warm", "op": "batch", "requests": [
                {"id": i, "op": "synth", "spec": spec} for i, spec in enumerate(pool_specs)
            ]}))
        overheads = []
        for line in sent:
            for service in services:
                service.busy.clear()
            started = time.perf_counter()
            router.handle_line(line)
            wall = time.perf_counter() - started
            overheads.append(wall - max(sum(service.busy) for service in services))
    finally:
        router.shutdown()
    return statistics.mean(overheads) * 1e3


def setup_stages(workdir: Path) -> dict:
    """Seconds of each set-up stage, run in-process."""
    started = time.perf_counter()
    db = build_database(N_WIRES, K)
    built = time.perf_counter()
    path = write_rdb(db, workdir / "stages.rdb")
    written = time.perf_counter()
    mapped = OptimalDatabase.map(path)
    mapped_at = time.perf_counter()
    MeetInTheMiddleSearch.build_lists(mapped, LISTS)
    done = time.perf_counter()
    return {
        "synth.bfs_build_s": (built - started, "s"),
        "store.write_s": (written - built, "s"),
        "store.map_s": (mapped_at - written, "s"),
        "search.build_lists_s": (done - mapped_at, "s"),
    }


#: ``(metric, span, scale, unit)``: self time per unit of work.
SPAN_TIMES = (
    ("protocol.decode_us", "protocol.decode", 1e6, "us"),
    ("protocol.encode_us", "protocol.encode", 1e6, "us"),
    ("core.canonical_vec_us", "core.canonical_vec", 1e6, "us"),
    ("core.canonical_scalar_us", "core.canonical_scalar", 1e6, "us"),
    ("hashing.probe_us", "hashing.probe", 1e6, "us"),
    ("cache.lookup_us", "cache.lookup", 1e6, "us"),
    ("shaping.circuit_us", "shaping.circuit", 1e6, "us"),
    ("search.peel_ms", "search.peel", 1e3, "ms"),
    ("search.scan_ms", "search.scan", 1e3, "ms"),
    ("specs.compile_ms", "specs.compile", 1e3, "ms"),
    ("sharding.route_us", "sharding.route", 1e6, "us"),
)

#: Counts reported per answered function.
COUNTS = ("search.peel_probes", "search.candidates_tested", "search.lists_scanned", "specs.completions_tried")


def replay(workload, inputs, samples, ref, workdir: Path, spans_file: Path, group: int) -> "tuple[dict, dict]":
    """Per-layer metrics ``{name: (value, unit)}`` and the span table
    per answered function; ``group`` lines are replayed as one dispatcher
    batch, and every span goes to ``spans_file``."""
    sent = [inputs.lines[s.index] for s in samples][: PREFIX[workload.name]]
    pool_specs = _pool_specs(inputs, sent)
    cache_file = workdir / "replay-cache.json"
    warm = ResultCache(path=None)
    warming = Replayer(ref, Spans(enabled=False), warm)
    for index, spec in enumerate(pool_specs):
        warming.lines([encode({"id": index, "op": "synth", "spec": spec})])
    warm.save(cache_file)
    spans = Spans()
    walls = [_pass(ref, spans, cache_file, sent, group, number) for number in range(PASSES)]
    spans.dump(spans_file)
    answered = PASSES * sum(len(functions_in(json.loads(line))) for line in sent)
    table = spans.table()
    metrics: dict = {}
    for metric, name, scale, unit in SPAN_TIMES:
        row = table.get(name)
        metrics[metric] = (row["self_s"] / row["units"] * scale if row else 0.0, unit)
        metrics[f"{name}_calls"] = ((row["calls"] if row else 0) / answered, "count")
    for name in COUNTS:
        metrics[name] = (spans.counts.get(name, 0) / answered, "count")
    metrics["sharding.router_overhead_ms"] = (
        router_overhead_ms(ref, pool_specs, sent) if workload.shards else 0.0, "ms")
    metrics.update(setup_stages(workdir))
    untraced, traced = (sum(pair) for pair in zip(*walls))
    metrics["trace.overhead_share"] = (traced / untraced - 1.0, "share")
    per_function = {
        name: {"calls": row["calls"] / answered,
               "self_ms": row["self_s"] * 1e3 / answered,
               "total_ms": row["total_s"] * 1e3 / answered}
        for name, row in sorted(table.items())
    }
    return metrics, per_function
