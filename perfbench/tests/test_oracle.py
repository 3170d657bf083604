"""The oracle accepts the library's own answers and rejects doctored ones."""

from __future__ import annotations

import json

from perfbench import oracle
from perfbench.load import Sample
from perfbench.workloads import MAX_SIZE
from repro.core.circuit import Circuit
from repro.core.permutation import Permutation

HARD = "[8,3,2,9,7,12,5,14,0,11,10,1,15,4,13,6]"
HWB4 = "[0,2,4,12,8,5,9,11,1,6,10,13,3,14,7,15]"


def answer(ref, spec: str, op: str = "synth") -> dict:
    outcome = ref.handle.engine.search(Permutation.coerce(spec, 4).word)
    result = {"size": outcome.size, "source": "db", "spec": spec}
    if op == "synth":
        result["circuit"] = str(outcome.circuit)
    return {"id": 1, "ok": True, "result": result}


def request(spec: str, op: str = "synth") -> dict:
    return {"id": 1, "op": op, "spec": spec}


def test_accepts_the_library_answer(ref):
    for spec in (HARD, "[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,0]"):
        assert oracle.check_one(request(spec), answer(ref, spec), ref) is None
        assert oracle.check_one(request(spec, "size"), answer(ref, spec, "size"), ref) is None


def test_rejects_a_doctored_circuit(ref):
    envelope = answer(ref, HARD)
    gates = envelope["result"]["circuit"].split()
    envelope["result"]["circuit"] = " ".join(gates[1:] + gates[:1])
    assert oracle.check_one(request(HARD), envelope, ref) == "circuit does not re-simulate"


def test_rejects_a_doctored_size(ref):
    envelope = answer(ref, HARD)
    envelope["result"]["size"] += 1
    assert oracle.check_one(request(HARD), envelope, ref) == "size differs from reference"
    envelope = answer(ref, HARD, "size")
    envelope["result"]["size"] -= 1
    assert oracle.check_one(request(HARD, "size"), envelope, ref) == "size differs from reference"


def test_rejects_degraded_answers_and_wrong_bounds(ref):
    envelope = answer(ref, HARD)
    envelope["result"]["guarantee"] = "upper_bound"
    assert oracle.check_one(request(HARD), envelope, ref) == "degraded"
    bound = {"id": 1, "ok": False, "error": {"kind": "size_limit", "lower_bound": MAX_SIZE + 1}}
    assert oracle.check_one(request(HWB4), bound, ref) is None
    bound["error"]["lower_bound"] = MAX_SIZE
    assert oracle.check_one(request(HWB4), bound, ref) == "error:size_limit"
    assert oracle.check_one(request(HARD), dict(bound, id=1), ref) == "error:size_limit"


def test_compile_rows_and_size_are_checked(ref):
    rows = [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, None, 1, 1, None, 1, 1]
    spec = {"kind": "truth_table", "n_inputs": 4, "rows": rows}
    from repro.specs import compile_spec, spec_from_wire

    body = compile_spec(spec_from_wire(spec), ref.engine).to_wire()
    good = {"id": 1, "ok": True, "result": dict(body, source="engine")}
    assert oracle.check_one(request(spec, "compile"), good, ref) is None
    flipped = dict(spec, rows=[1 - r if r is not None and i == 8 else r for i, r in enumerate(rows)])
    assert oracle.check_one(request(flipped, "compile"), good, ref) == "compiled circuit violates a specified row"
    longer = json.loads(json.dumps(good))
    longer["result"]["circuit"] += " NOT(a) NOT(a)"
    longer["result"]["size"] += 2
    assert oracle.check_one(request(spec, "compile"), longer, ref) == "compile size differs from reference"


def test_check_counts_batch_members_and_transport_errors(ref):
    specs = [HARD, Permutation(Circuit.parse("NOT(a)", 4).to_word(), 4).spec()]
    line = json.dumps({"id": 9, "op": "batch", "requests": [request(s) | {"id": i} for i, s in enumerate(specs)]})
    results = [answer(ref, s) | {"id": i} for i, s in enumerate(specs)]
    results[1]["result"]["size"] = 3
    reply = json.dumps({"id": 9, "ok": True, "result": {"count": 2, "results": results}}).encode()
    verdict = oracle.check([line.encode()], [Sample(0, 0.0, 0.1, reply)], ref)
    assert (verdict.attempted, verdict.failed) == (2, 1)
    verdict = oracle.check([line.encode()], [Sample(0, 0.0, 0.1, None)], ref)
    assert (verdict.attempted, verdict.failed) == (2, 2)
