"""Correctness oracle: every answer is checked against the in-process
library, run untimed on the same k and m.

* a ``synth`` circuit re-simulates to the requested word, its length
  equals ``size``, and ``size`` equals the reference optimum;
* a ``size`` answer equals the reference optimum;
* a ``size_limit`` error carries ``lower_bound`` = L + 1 and the
  reference also finds the function out of reach;
* a ``compile`` answer honours every specified row and its size equals
  an in-process ``compile_spec`` of the same spec;
* a degraded (``upper_bound``) answer, any other error envelope, a
  mismatched id or a transport error is a failure.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.circuit import Circuit
from repro.core.permutation import Permutation
from repro.engines import create_engine
from repro.errors import SizeLimitExceededError
from repro.specs import compile_spec, spec_from_wire
from repro.synth.synthesizer import OptimalSynthesizer

from perfbench.workloads import K, LISTS, MAX_SIZE, N_WIRES


class Reference:
    """The library's own answers, from a private copy of the store."""

    def __init__(self, store: Path) -> None:
        synth = OptimalSynthesizer(n_wires=N_WIRES, k=K, max_list_size=LISTS, cache_dir=store)
        self.handle = synth.prepare().handle()
        self.db = self.handle.database
        self.engine = create_engine("optimal", n_wires=N_WIRES, handle=self.handle)
        self._sizes: dict = {}

    def prime(self, words) -> None:
        """Look up many words in one vectorized probe."""
        words = [w for w in dict.fromkeys(words) if w not in self._sizes]
        if words:
            sizes = self.db.sizes_batch(np.asarray(words, dtype=np.uint64)).tolist()
            for word, size in zip(words, sizes):
                if size != self.db.MISSING:
                    self._sizes[word] = size

    def size(self, word: int) -> "int | None":
        """Optimal size, or None when it exceeds L."""
        if word not in self._sizes:
            try:
                self._sizes[word] = self.handle.engine.size_of(word)
            except SizeLimitExceededError:
                self._sizes[word] = None
        return self._sizes[word]

    def compile_size(self, wire: dict) -> int:
        return compile_spec(spec_from_wire(wire), self.engine, n_wires=N_WIRES).size


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)
    answered: list = field(default_factory=list)  # functions answered correctly, per sample

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        self.reasons[reason] += count


def _parse_circuit(text: str) -> Circuit:
    return Circuit.parse("" if text == "(identity)" else text, N_WIRES)


def check_word(request: dict, envelope: dict, ref: Reference) -> "str | None":
    """Failure reason for one ``synth``/``size`` answer, or None."""
    word = Permutation.coerce(request["spec"], N_WIRES).word
    size = ref.size(word)
    if not envelope.get("ok"):
        error = envelope.get("error") or {}
        if size is None and error.get("kind") == "size_limit" and error.get("lower_bound") == MAX_SIZE + 1:
            return None
        return f"error:{error.get('kind')}"
    result = envelope.get("result") or {}
    if size is None:
        return "answered an out-of-reach function"
    if result.get("guarantee") == "upper_bound" or result.get("source") == "degraded":
        return "degraded"
    if result.get("size") != size:
        return "size differs from reference"
    if request["op"] == "synth":
        circuit = _parse_circuit(result.get("circuit", ""))
        if circuit.to_word() != word:
            return "circuit does not re-simulate"
        if circuit.gate_count != size:
            return "circuit length differs from size"
    return None


def check_compile(request: dict, envelope: dict, ref: Reference) -> "str | None":
    """Failure reason for one ``compile`` answer, or None."""
    if not envelope.get("ok"):
        return f"error:{(envelope.get('error') or {}).get('kind')}"
    result = envelope.get("result") or {}
    if result.get("guarantee") == "upper_bound" or result.get("source") == "degraded":
        return "degraded"
    circuit = _parse_circuit(result.get("circuit", ""))
    if circuit.gate_count != result.get("size"):
        return "circuit length differs from size"
    embedding = result.get("embedding") or {}
    constants = sum(value << wire for wire, value in embedding.get("constant_wires", []))
    for x, want in enumerate(request["spec"]["rows"]):
        if want is None:
            continue
        state = constants | sum(((x >> i) & 1) << w for i, w in enumerate(embedding["input_wires"]))
        y = circuit.apply(state)
        got = sum(((y >> w) & 1) << j for j, w in enumerate(embedding["output_wires"]))
        if got != want:
            return "compiled circuit violates a specified row"
    if result.get("size") != ref.compile_size(request["spec"]):
        return "compile size differs from reference"
    return None


def check_one(request: dict, envelope: dict, ref: Reference) -> "str | None":
    if envelope.get("id") != request.get("id"):
        return "response id mismatch"
    if request["op"] == "compile":
        return check_compile(request, envelope, ref)
    return check_word(request, envelope, ref)


def functions_in(request: dict) -> list:
    return request["requests"] if request["op"] == "batch" else [request]


def check(lines, samples, ref: Reference) -> Verdict:
    """Check every answered line; ``samples`` carry raw response bytes."""
    verdict = Verdict()
    requests = [json.loads(lines[s.index]) for s in samples]
    ref.prime(
        Permutation.coerce(r["spec"], N_WIRES).word
        for request in requests for r in functions_in(request) if r["op"] != "compile"
    )
    for request, sample in zip(requests, samples):
        subs = functions_in(request)
        verdict.attempted += len(subs)
        failed_before = verdict.failed
        _check_sample(request, subs, sample, ref, verdict)
        verdict.answered.append(len(subs) - (verdict.failed - failed_before))
    return verdict


def _check_sample(request: dict, subs: list, sample, ref: Reference, verdict: Verdict) -> None:
    if sample.response is None:
        verdict.fail("transport error", len(subs))
        return
    envelope = json.loads(sample.response)
    if request["op"] != "batch":
        reason = check_one(request, envelope, ref)
        if reason:
            verdict.fail(reason)
        return
    results = ((envelope.get("result") or {}).get("results") or []) if envelope.get("ok") else []
    if envelope.get("id") != request["id"] or len(results) != len(subs):
        verdict.fail("malformed batch answer", len(subs))
        return
    for sub, sub_envelope in zip(subs, results):
        reason = check_one(sub, sub_envelope, ref)
        if reason:
            verdict.fail(reason)
