"""Breadth-first search over equivalence classes (paper Algorithm 2).

Starting from the identity, each level composes every known function of
size ``i - 1`` (and its inverse) with every library gate, canonicalizes
the result, and keeps the classes not seen before: those have size
exactly ``i``.  Section 5 of the paper notes that only this generation
phase changes for another gate family, cost model or depth, so the
module holds one copy of each loop and every table in
:mod:`repro.synth` is an instantiation of them:

* :func:`level_search` -- the search: chunked, numpy-vectorized, over
  packed words, parameterized by the generator words, an integer weight
  per generator, the ×48 symmetry reduction (or none) and a bound.
* :func:`peel` -- the reconstruction: strip the last generator from
  every word of a batch in one vectorized round, each word keeping the
  first generator whose remainder sits exactly its weight lower.
* :func:`build_database` -- Algorithm 2 itself: NCT gates, unit
  weights, ×48 reduction; size-only storage (circuits are reconstructed
  by peeling).
* :func:`bfs_reference` -- a direct scalar transcription of the paper's
  Algorithm 2, including the per-representative witness gate and its
  first/last flag.  It is used as the ground truth in tests.

Correctness of expanding representatives and their inverses only: every
function g of size i factors as g = f·λ with size(f) = i - 1.  Writing
f = σ⁻¹ r σ (or σ⁻¹ r⁻¹ σ) for the canonical representative r of f's
class, conjugating the factorization by σ shows that some member of g's
class equals r·λ' (or r⁻¹·λ') for a library gate λ' -- precisely the
candidates the BFS generates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Sequence

import numpy as np

from repro.core import equivalence, packed
from repro.core.gates import Gate, all_gates
from repro.core.packed_np import canonical_np, compose_np, inverse_np
from repro.errors import DatabaseError
from repro.hashing.table import LinearProbingTable
from repro.perf.trace import trace
from repro.synth.database import OptimalDatabase


def level_search(
    n_wires: int,
    generators: "Sequence[int] | np.ndarray",
    bound: "int | None",
    weights: "Sequence[int] | None" = None,
    reduce: bool = True,
    chunk: int = 1 << 18,
    progress=None,
) -> "tuple[LinearProbingTable, list[np.ndarray]]":
    """Level-synchronous search from the identity over packed words.

    Level t holds the keys of minimal total generator weight exactly t:
    canonical representatives with ``reduce``, raw functions without.
    It is built in pull form: for each distinct weight w in increasing
    order, the keys of level t - w (with ``reduce``, also their
    inverses) are composed with every generator of weight w, and each
    key not seen before is inserted at once with value t.  Every weight
    is positive, so all values below t are final when level t starts.
    With unit weights this is Algorithm 2's loop, insertion order
    included.

    Args:
        n_wires: Wire count (2..4).
        generators: Generator words, expanded in this order.  With
            ``reduce`` the set must be closed under wire relabeling and
            inversion.
        bound: Last level to build; ``None`` runs until exhausted (the
            last ``max(weights)`` levels are empty).
        weights: Positive integer weight per generator (``None``: unit).
        reduce: Apply the ×48 symmetry reduction.
        chunk: Source chunk size for memory-bounded expansion.
        progress: Optional callback ``progress(level, n_new_keys)``.

    Returns ``(table, levels)``: the key -> level map and, per level
    built, its sorted new keys (``levels[0]`` is the identity).
    """
    words = np.asarray(generators, dtype=np.uint64)
    per_word = [1] * words.shape[0] if weights is None else list(weights)
    by_weight = {
        weight: words[[w == weight for w in per_word]]
        for weight in sorted(set(per_word))
    }
    reach = max(by_weight, default=1)

    table = LinearProbingTable(capacity_bits=8)
    levels = [np.array([packed.identity(n_wires)], dtype=np.uint64)]
    table.insert_batch(levels[0], np.uint8(0))
    with trace("bfs.build", n_wires=n_wires, k=bound):
        while bound is None or len(levels) <= bound:
            level = len(levels)
            with trace("bfs.level", level=level) as span:
                fresh_pieces: list[np.ndarray] = []
                for weight, weight_words in by_weight.items():
                    if weight > level:
                        break
                    sources = levels[level - weight]
                    if reduce:
                        sources = np.unique(
                            np.concatenate([sources, inverse_np(sources, n_wires)])
                        )
                    for start in range(0, sources.shape[0], chunk):
                        block = sources[start : start + chunk]
                        for word in weight_words:
                            candidates = compose_np(block, word, n_wires)
                            if reduce:
                                candidates = canonical_np(candidates, n_wires)
                            keys = np.unique(candidates)
                            fresh = keys[~table.contains_batch(keys)]
                            if fresh.size:
                                table.insert_batch(fresh, np.uint8(level))
                                fresh_pieces.append(fresh)
                if fresh_pieces:
                    levels.append(np.sort(np.concatenate(fresh_pieces)))
                else:
                    levels.append(np.empty(0, dtype=np.uint64))
                if span is not None:
                    span.attrs["classes"] = int(levels[-1].shape[0])
            if progress is not None:
                progress(level, int(levels[-1].shape[0]))
            if not any(recent.shape[0] for recent in levels[-reach:]):
                break
    return table, levels


def level_counts(levels: "list[np.ndarray]") -> list[int]:
    """Keys per level, without the empty levels that end an exhausted
    search."""
    counts = [int(keys.shape[0]) for keys in levels]
    while counts[-1] == 0:
        counts.pop()
    return counts


def peel(
    words: np.ndarray,
    sizes: "Sequence[int] | np.ndarray",
    steps: "Sequence[tuple[Any, Any, int]]",
    lookup: "Callable[[np.ndarray], np.ndarray]",
    compose: "Callable[[np.ndarray, np.ndarray], np.ndarray]",
) -> "list[list[Any]]":
    """Labels of a minimal generator sequence for every word, in order.

    ``words`` is an array of packed ``uint64`` words (or of value rows),
    ``sizes`` their sizes.  The peel runs in lock-step: each round
    composes every word not yet at size 0 with every step at once --
    ``compose(current, step_array)`` gives an ``(L, G, ...)`` array --
    and sizes all ``L * G`` remainders with one ``lookup`` call (flat
    array in, sizes out; absent entries may read as anything outside
    ``0..size``).  Each row then keeps the first ``(label, step,
    weight)`` triple in the given order whose weight fits its remaining
    size and whose remainder sits exactly ``weight`` lower: ``step``
    undoes the generator ``label`` as the last one applied.  That is the
    triple a one-step-at-a-time walk over the same order stops at, so
    the answers do not depend on which words share a call.

    Raises :class:`DatabaseError` naming the word and size of the first
    row with no fitting step, i.e. when ``lookup`` is inconsistent.
    """
    current = np.array(words)
    remaining = np.array(sizes, dtype=np.int64)
    step_array = np.asarray([step for _, step, _ in steps], dtype=current.dtype)
    weights = np.array([weight for _, _, weight in steps], dtype=np.int64)
    labels: list[list[Any]] = [[] for _ in range(current.shape[0])]
    live = np.flatnonzero(remaining > 0)
    while live.size:
        candidates = compose(current[live], step_array)
        found = lookup(
            candidates.reshape(-1, *current.shape[1:])
        ).reshape(live.size, -1)
        target = remaining[live, None] - weights
        fits = (target >= 0) & (found == target)
        stuck = ~fits.any(axis=1)
        if stuck.any():
            row = int(live[np.argmax(stuck)])
            stuck_word = current[row]
            name = (
                f"{int(stuck_word):#x}" if stuck_word.ndim == 0
                else str(stuck_word.tolist())
            )
            raise DatabaseError(
                f"no peelable gate found for word {name} at size "
                f"{remaining[row]}; the database is inconsistent"
            )
        choice = fits.argmax(axis=1)
        current[live] = candidates[np.arange(live.size), choice]
        remaining[live] -= weights[choice]
        for row, index in zip(live.tolist(), choice.tolist()):
            labels[row].append(steps[index][0])
        live = live[remaining[live] > 0]
    for sequence in labels:
        sequence.reverse()
    return labels


@lru_cache(maxsize=None)
def nct_steps(n_wires: int) -> "tuple[tuple[Gate, int, int], ...]":
    """The NCT library as unit-weight peel steps (gates are involutions,
    so each gate's word also undoes it)."""
    return tuple((gate, gate.to_word(n_wires), 1) for gate in all_gates(n_wires))


def packed_compose(n_wires: int) -> "Callable[[np.ndarray, np.ndarray], np.ndarray]":
    """Every packed word composed with every step word, ``(L,) x (G,) ->
    (L, G)``, for :func:`peel`."""

    def compose(words: np.ndarray, step_words: np.ndarray) -> np.ndarray:
        return compose_np(words[:, None], step_words[None, :], n_wires)

    return compose


def reduced_lookup(
    table: LinearProbingTable, n_wires: int
) -> "Callable[[np.ndarray], np.ndarray]":
    """Vectorized lookup in a ×48-reduced table, for :func:`peel`:
    canonicalize the words, then probe (absent keys read 255)."""
    return lambda words: table.lookup_batch(canonical_np(words, n_wires))


def build_database(
    n_wires: int,
    k: int,
    gates: "list[Gate] | None" = None,
    chunk: int = 1 << 18,
    progress=None,
) -> OptimalDatabase:
    """Run the vectorized BFS up to size ``k`` and return the database.

    Args:
        n_wires: Wire count (2..4).
        k: Maximum circuit size to enumerate.
        gates: Gate library; defaults to the full NCT library.
        chunk: Frontier chunk size for memory-bounded expansion.
        progress: Optional callback ``progress(level, n_new_classes)``.
    """
    if gates is None:
        gates = all_gates(n_wires)
    table, reps_by_size = level_search(
        n_wires,
        [g.to_word(n_wires) for g in gates],
        k,
        chunk=chunk,
        progress=progress,
    )
    # An exhausted group stops early: pad the remaining levels.
    while len(reps_by_size) <= k:
        reps_by_size.append(np.empty(0, dtype=np.uint64))
    return OptimalDatabase(n_wires=n_wires, k=k, table=table, reps_by_size=reps_by_size)


# ----------------------------------------------------------------------
# Scalar reference engine (faithful Algorithm 2, with witnesses)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Witness:
    """Per-representative reconstruction hint, as stored by the paper.

    ``gate`` is the first or last gate of a minimal circuit for the
    canonical representative; ``is_last`` tells which end it belongs to.
    """

    size: int
    gate: "Gate | None"
    is_last: bool


def bfs_reference(
    n_wires: int, k: int, gates: "list[Gate] | None" = None
) -> dict[int, Witness]:
    """Scalar BFS storing witness gates, transcribing Algorithm 2.

    Returns a dict mapping each canonical representative of size <= k to
    its :class:`Witness`.  Exponentially slower than
    :func:`build_database`; intended for tests and small parameters.
    """
    if gates is None:
        gates = all_gates(n_wires)
    gate_words = [(g, g.to_word(n_wires)) for g in gates]

    identity = packed.identity(n_wires)
    known: dict[int, Witness] = {
        identity: Witness(size=0, gate=None, is_last=True)
    }
    frontier = [identity]
    for size in range(1, k + 1):
        sources = set(frontier)
        sources.update(packed.inverse(f, n_wires) for f in frontier)
        new_reps: list[int] = []
        for f in sorted(sources):
            for gate, gate_word in gate_words:
                h = packed.compose(f, gate_word, n_wires)
                canon = equivalence.canonical(h, n_wires)
                if canon in known:
                    continue
                witness = _make_witness(h, canon, gate, size, n_wires)
                known[canon] = witness
                new_reps.append(canon)
        frontier = new_reps
        if not frontier:
            break
    return known


def _make_witness(
    h: int, canon: int, gate: Gate, size: int, n_wires: int
) -> Witness:
    """Translate the last gate of ``h`` into a witness for ``canon``.

    If ``canon`` is a conjugate of ``h`` by σ, the relabeled gate is the
    *last* gate of a minimal circuit for ``canon``; if ``canon`` is a
    conjugate of ``h⁻¹``, it is the *first* gate (paper Algorithm 2).
    """
    sigma = equivalence.find_conjugating_perm(h, canon, n_wires)
    if sigma is not None:
        return Witness(size=size, gate=gate.relabeled(sigma), is_last=True)
    h_inv = packed.inverse(h, n_wires)
    sigma = equivalence.find_conjugating_perm(h_inv, canon, n_wires)
    if sigma is None:
        raise AssertionError(
            "canonical representative is neither a conjugate of the "
            "function nor of its inverse"
        )
    return Witness(size=size, gate=gate.relabeled(sigma), is_last=False)


def reconstruct_from_witnesses(
    canon: int, witnesses: dict[int, Witness], n_wires: int
) -> list[Gate]:
    """Minimal circuit for a canonical representative, following witness
    gates exactly as the paper's Algorithm 1 fast path does.

    Returns the gate list in application order.
    """

    def sizes(words: np.ndarray) -> np.ndarray:
        keys = canonical_np(words, n_wires).tolist()
        return np.array(
            [witnesses[key].size if key in witnesses else -1 for key in keys]
        )

    gates_front: list[Gate] = []
    gates_back: list[Gate] = []
    current = canon
    while True:
        witness = witnesses[current]
        if witness.size == 0:
            break
        gate = witness.gate
        gate_word = gate.to_word(n_wires)
        if witness.is_last:
            # current = rest·gate  =>  rest = current·gate (involution)
            rest = packed.compose(current, gate_word, n_wires)
            gates_back.insert(0, gate)
        else:
            # current = gate·rest  =>  rest = gate·current
            rest = packed.compose(gate_word, current, n_wires)
            gates_front.append(gate)
        expected = witness.size - 1
        rest_canon = equivalence.canonical(rest, n_wires)
        if witnesses[rest_canon].size != expected:
            raise AssertionError("witness chain inconsistent")
        # The remainder may only be *equivalent* to a stored representative;
        # continue the walk on the representative of the remainder's class,
        # keeping track is unnecessary because we only need sizes -- but to
        # emit actual gates we must stay on `rest` itself.  Peel `rest`
        # directly using sizes from the witness table.
        current = rest
        if rest != rest_canon:
            # Fall back to size-directed peeling for non-canonical remainders.
            [middle] = peel(
                np.array([rest], dtype=np.uint64),
                [expected],
                nct_steps(n_wires),
                sizes,
                packed_compose(n_wires),
            )
            return gates_front + middle + gates_back
    return gates_front + gates_back
