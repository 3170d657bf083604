"""Seeded request streams for the four benchmark workloads.

Every workload is a closed loop: a client sends its next request only
after the previous answer arrived, because the daemon's callers
(compilers, the CLI, scripts) wait for each answer.  All inputs are a
pure function of ``(workload, seed, seconds)`` and the k = 5 database,
which is itself deterministic, so the same seed yields byte-identical
request lines.  Streams are sized for several times today's throughput;
a run that uses up its stream simply ends its timed phase early.

* ``hot_singles`` -- two connections; single ``synth`` (90 %) /
  ``size`` (10 %) requests drawn uniformly from a pre-warmed pool, so
  every timed request is a result-cache hit: protocol, queue window,
  canonicalization, cache read and response shaping do all the work.
* ``cold_singles`` -- two connections; single ``synth`` requests, each
  a distinct class of optimal size 3..5 never requested before: every
  one misses the cache, probes the table and peels.
* ``hard_mix`` -- one connection; functions of size 6..8 (A_i scan),
  uniform random permutations (exhausted proofs) and don't-care
  ``compile`` specs, every one distinct, so the cache never answers.
* ``router_batch`` -- ``batch`` ops of 256 through a 2-shard router:
  128 from a pre-warmed pool plus 128 fresh cold classes each.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from repro.core.gates import gate_words
from repro.core.permutation import Permutation
from repro.core.packed_np import all_variants_np, canonical_np, compose_np, expand_classes_np

#: Daemon parameters: ``repro serve -k 5`` (lists m = 3, so L = 8).
N_WIRES = 4
K = 5
LISTS = 3
MAX_SIZE = K + LISTS

#: Pre-warmed pool sizes.  Warming costs one peel per word (about 8 ms
#: at size 5), so the pools stay small enough to warm in a few seconds.
HOT_POOL = 1024
ROUTER_POOL = 256
BATCH_SIZE = 256

#: Stream lengths per second of ``--seconds``.
HOT_LINES_PER_S = 5000
COLD_LINES_PER_S = 2000
HARD_BLOCKS_PER_S = 6
BATCHES_PER_S = 4

#: One ``hard_mix`` block: 12 scans (4 each of optimal size 6, 7, 8),
#: 5 uniform random permutations and 3 don't-care compiles, shuffled.
#: Fixing the mix per block keeps every seed's cost distribution alike.
HARD_BLOCK = ("scan6",) * 4 + ("scan7",) * 4 + ("scan8",) * 4 + ("random",) * 5 + ("compile",) * 3

#: Don't-care rows per ``compile`` spec: 5! = 120 completions, all sized.
COMPILE_DONT_CARES = 5


@dataclass(frozen=True)
class Workload:
    name: str
    connections: int
    shards: int
    #: Timing windows: rates, percentiles and CPU are taken per window
    #: and the median over windows is reported, so a short stall on the
    #: host moves one window, not the result.  None: the whole phase.
    window_s: "float | None"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("hot_singles", 2, 0, 1.0),
        Workload("cold_singles", 2, 0, 2.0),
        Workload("hard_mix", 1, 0, None),
        Workload("router_batch", 1, 2, None),
    )
}


@dataclass(frozen=True)
class Inputs:
    """The request lines of one run: ``warm`` is sent untimed first."""

    warm: tuple
    lines: tuple

    def digest(self) -> str:
        h = hashlib.sha256()
        for line in self.warm:
            h.update(line)
        h.update(b"--timed--\n")
        for line in self.lines:
            h.update(line)
        return h.hexdigest()


def encode(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode() + b"\n"


def specs(words) -> list:
    """The bracketed spec string of each word, as a client sends it."""
    return [Permutation(int(w), N_WIRES).spec() for w in words]


def random_members(words: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One random member of each word's class (wire relabeling, inversion)."""
    words = np.asarray(words, dtype=np.uint64)
    if words.size == 0:
        return words
    variants = all_variants_np(words, N_WIRES)
    rows = rng.integers(0, variants.shape[0], size=words.shape[0])
    return variants[rows, np.arange(words.shape[0])]


def cold_classes(db, rng: np.random.Generator, count: int, exclude=()) -> np.ndarray:
    """``count`` distinct classes of optimal size 3..5, one random member
    each; classes whose canonical key is in ``exclude`` are skipped."""
    reps = np.concatenate([np.asarray(db.reps_by_size[s], dtype=np.uint64) for s in range(3, K + 1)])
    reps = reps[rng.permutation(reps.shape[0])]
    if len(exclude):
        reps = reps[~np.isin(reps, np.asarray(list(exclude), dtype=np.uint64))]
    return random_members(reps[:count], rng)


def pool_words(db, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` distinct functions of optimal size 0..5, stratified by
    size: the identity, all 32 single gates, the rest split evenly over
    sizes 2..5."""
    chosen = [np.asarray(db.reps_by_size[0], dtype=np.uint64)]
    chosen.append(expand_classes_np(np.asarray(db.reps_by_size[1], dtype=np.uint64), N_WIRES))
    left = count - sum(c.shape[0] for c in chosen)
    sizes = list(range(2, K + 1))
    for i, size in enumerate(sizes):
        quota = left // len(sizes) + (1 if i < left % len(sizes) else 0)
        reps = np.asarray(db.reps_by_size[size], dtype=np.uint64)
        picked: dict = {}
        while len(picked) < quota:
            draw = random_members(reps[rng.integers(0, reps.shape[0], size=quota)], rng)
            for word in draw.tolist():
                if len(picked) < quota:
                    picked.setdefault(word, None)
        chosen.append(np.asarray(list(picked), dtype=np.uint64))
    words = np.concatenate(chosen)
    return words[rng.permutation(words.shape[0])]


def sizes_beyond_table(db, words: np.ndarray) -> np.ndarray:
    """Exact optimal sizes of functions outside the size <= k table:
    k+1 when one gate appended reaches the table, k+2 when two do, and
    k+3 (meaning "at least k+3") otherwise."""
    gates = np.asarray(gate_words(N_WIRES), dtype=np.uint64)
    n, g = words.shape[0], gates.shape[0]
    sizes = np.full(n, K + 3)
    one = compose_np(np.repeat(words, g), np.tile(gates, n), N_WIRES)
    reach1 = (db.sizes_batch(one) != db.MISSING).reshape(n, g).any(axis=1)
    sizes[reach1] = K + 1
    rest = np.flatnonzero(~reach1)
    if rest.size:
        ones = one.reshape(n, g)[rest].ravel()
        two = compose_np(np.repeat(ones, g), np.tile(gates, ones.shape[0]), N_WIRES)
        reach2 = (db.sizes_batch(two) != db.MISSING).reshape(rest.size, g * g).any(axis=1)
        sizes[rest[reach2]] = K + 2
    return sizes


def of_size(db, rng: np.random.Generator, size: int, count: int, seen: set) -> list:
    """``count`` functions of optimal size exactly ``size`` (k+1..k+3),
    built from ``size`` random gates, each of a class not in ``seen``."""
    gates = np.asarray(gate_words(N_WIRES), dtype=np.uint64)
    found: list = []
    while len(found) < count:
        picks = gates[rng.integers(0, gates.shape[0], size=(2 * count, size))]
        words = picks[:, 0].copy()
        for step in range(1, size):
            words = compose_np(words, picks[:, step], N_WIRES)
        keys = canonical_np(words, N_WIRES)
        outside = db.table.lookup_batch(keys) == db.MISSING
        words, keys = words[outside], keys[outside]
        if size > K + 1:
            exact = sizes_beyond_table(db, words) == size
            words, keys = words[exact], keys[exact]
        for word, key in zip(words.tolist(), keys.tolist()):
            if key not in seen and len(found) < count:
                seen.add(key)
                found.append(word)
    return found


def _hot_singles(db, rng, seconds):
    pool = specs(pool_words(db, rng, HOT_POOL))
    warm = tuple(encode({"id": i, "op": "synth", "spec": spec}) for i, spec in enumerate(pool))
    n = HOT_LINES_PER_S * seconds
    picks = rng.integers(0, len(pool), size=n).tolist()
    ops = np.where(rng.random(n) < 0.9, "synth", "size").tolist()
    lines = tuple(
        encode({"id": i, "op": op, "spec": pool[p]})
        for i, (op, p) in enumerate(zip(ops, picks))
    )
    return warm, lines


def _cold_singles(db, rng, seconds):
    cold = specs(cold_classes(db, rng, COLD_LINES_PER_S * seconds))
    return (), tuple(encode({"id": i, "op": "synth", "spec": spec}) for i, spec in enumerate(cold))


def _compile_spec(word: int, dont_cares: int, rng) -> dict:
    rows: list = [(word >> (4 * x)) & 15 for x in range(16)]
    for x in rng.choice(16, size=dont_cares, replace=False).tolist():
        rows[x] = None
    return {"kind": "multi_output", "n_inputs": 4, "n_outputs": 4, "rows": rows}


def _fresh_random(rng, seen: set) -> Permutation:
    """A uniform random permutation of a class not in ``seen``."""
    while True:
        perm = Permutation.from_values(rng.permutation(16).tolist())
        key = int(canonical_np(np.array([perm.word], dtype=np.uint64), N_WIRES)[0])
        if key not in seen:
            seen.add(key)
            return perm


def _hard_mix(db, rng, seconds):
    blocks = HARD_BLOCKS_PER_S * seconds
    kinds: list = []
    for _ in range(blocks):
        kinds.extend(HARD_BLOCK[i] for i in rng.permutation(len(HARD_BLOCK)).tolist())
    seen: set = set()
    scans = {
        f"scan{size}": iter(of_size(db, rng, size, kinds.count(f"scan{size}"), seen))
        for size in (6, 7, 8)
    }
    reps = np.concatenate([np.asarray(db.reps_by_size[s], dtype=np.uint64) for s in range(3, K + 1)])
    bases = iter(random_members(reps[rng.integers(0, reps.shape[0], size=kinds.count("compile"))], rng).tolist())
    lines = []
    for i, kind in enumerate(kinds):
        if kind == "random":
            spec = _fresh_random(rng, seen).spec()
            lines.append(encode({"id": i, "op": "synth", "spec": spec}))
        elif kind == "compile":
            spec = _compile_spec(next(bases), COMPILE_DONT_CARES, rng)
            lines.append(encode({"id": i, "op": "compile", "spec": spec}))
        else:
            spec = Permutation(next(scans[kind]), N_WIRES).spec()
            lines.append(encode({"id": i, "op": "synth", "spec": spec}))
    return (), tuple(lines)


def _router_batch(db, rng, seconds):
    pool = pool_words(db, rng, ROUTER_POOL)
    pool_keys = set(canonical_np(pool, N_WIRES).tolist())
    pool = specs(pool)
    half = BATCH_SIZE // 2
    batches = BATCHES_PER_S * seconds
    cold = specs(cold_classes(db, rng, half * batches, exclude=pool_keys))
    warm = tuple(
        encode({"id": f"warm{b}", "op": "batch", "requests": [
            {"id": j, "op": "synth", "spec": spec}
            for j, spec in enumerate(pool[b:b + BATCH_SIZE])
        ]})
        for b in range(0, len(pool), BATCH_SIZE)
    )
    lines = []
    for b in range(batches):
        chosen = [pool[p] for p in rng.integers(0, len(pool), size=half).tolist()]
        chosen += cold[b * half:(b + 1) * half]
        order = rng.permutation(len(chosen)).tolist()
        lines.append(encode({"id": b, "op": "batch", "requests": [
            {"id": j, "op": "synth", "spec": chosen[o]} for j, o in enumerate(order)
        ]}))
    return warm, tuple(lines)


_GENERATORS = {
    "hot_singles": _hot_singles,
    "cold_singles": _cold_singles,
    "hard_mix": _hard_mix,
    "router_batch": _router_batch,
}


def generate(workload: str, db, seed: int, seconds: int) -> Inputs:
    """The request lines of ``workload`` for ``seed``; ``db`` is the
    k = 5 database the generator filters with."""
    rng = np.random.default_rng([seed, list(_GENERATORS).index(workload)])
    warm, lines = _GENERATORS[workload](db, rng, seconds)
    return Inputs(warm, lines)
