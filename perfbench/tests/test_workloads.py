"""The generators: deterministic per seed, and each workload's inputs
have the properties its purpose depends on."""

from __future__ import annotations

import json

import numpy as np
import pytest

from perfbench import workloads
from perfbench.oracle import functions_in
from repro.core.packed_np import canonical_np
from repro.core.permutation import Permutation


def words_of(lines):
    return [Permutation.coerce(f["spec"], 4).word
            for line in lines for f in functions_in(json.loads(line)) if f["op"] != "compile"]


def keys_of(words):
    return canonical_np(np.asarray(words, dtype=np.uint64), 4).tolist()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_lines(ref, workload):
    first = workloads.generate(workload, ref.db, 7, 1)
    again = workloads.generate(workload, ref.db, 7, 1)
    other = workloads.generate(workload, ref.db, 8, 1)
    assert first.lines and first.lines == again.lines and first.warm == again.warm
    assert first.digest() == again.digest() != other.digest()


def test_hot_singles_only_asks_for_the_warm_pool(ref):
    inputs = workloads.generate("hot_singles", ref.db, 1, 1)
    pool = words_of(inputs.warm)
    assert len(set(pool)) == len(pool) == workloads.HOT_POOL
    assert {ref.size(w) for w in pool} == set(range(workloads.K + 1))
    assert set(words_of(inputs.lines)) <= set(pool)
    ops = [json.loads(line)["op"] for line in inputs.lines]
    assert 0.85 < ops.count("synth") / len(ops) < 0.95


def test_cold_singles_are_distinct_classes_of_size_3_to_5(ref):
    words = words_of(workloads.generate("cold_singles", ref.db, 1, 1).lines)
    assert len(set(keys_of(words))) == len(words) == workloads.COLD_LINES_PER_S
    ref.prime(words)
    assert {ref.size(w) for w in words} <= {3, 4, 5}


def test_hard_mix_blocks_hold_the_stated_mix(ref):
    lines = workloads.generate("hard_mix", ref.db, 1, 1).lines
    block = [json.loads(line) for line in lines[: len(workloads.HARD_BLOCK)]]
    compiles = [r for r in block if r["op"] == "compile"]
    assert len(compiles) == workloads.HARD_BLOCK.count("compile")
    assert all(r["spec"]["rows"].count(None) == workloads.COMPILE_DONT_CARES for r in compiles)
    sizes = sorted(ref.size(Permutation.coerce(r["spec"], 4).word) or 0 for r in block if r["op"] == "synth")
    assert sizes.count(6) == sizes.count(7) == sizes.count(8) == 4
    assert len(set(keys_of(words_of(lines)))) == len(words_of(lines))


def test_router_batches_are_half_pool_half_fresh(ref):
    inputs = workloads.generate("router_batch", ref.db, 1, 1)
    pool_keys = set(keys_of(words_of(inputs.warm)))
    fresh: list = []
    for line in inputs.lines:
        keys = keys_of(words_of([line]))
        assert len(keys) == workloads.BATCH_SIZE
        cold = [k for k in keys if k not in pool_keys]
        assert len(cold) == workloads.BATCH_SIZE // 2
        fresh.extend(cold)
    assert len(set(fresh)) == len(fresh)
