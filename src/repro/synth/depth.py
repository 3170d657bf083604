"""Depth-optimal synthesis (paper Section 5, second extension).

"To optimize depth, one needs to consider a different family of gates,
where, for instance, sequence NOT(a) CNOT(b,c) is counted as a single
gate."  Concretely: a *layer* is a non-empty set of NCT gates with
pairwise disjoint wire support, all of which fire simultaneously; the
depth of a circuit is the minimal number of layers.

This module enumerates all layers (103 on four wires), runs the same
symmetry-reduced BFS over layers, and synthesizes depth-optimal circuits
by layer peeling.  Layers are products of commuting involutions and the
layer set is closed under wire relabeling, so the canonical-representative
reduction remains sound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import equivalence, packed
from repro.core.circuit import Circuit
from repro.core.gates import Gate, all_gates
from repro.core.permutation import Permutation
from repro.errors import SynthesisError
from repro.hashing.table import LinearProbingTable
from repro.synth.bfs import (
    level_counts,
    level_search,
    packed_compose,
    peel,
    reduced_lookup,
)


def all_layers(n_wires: int) -> list[tuple[Gate, ...]]:
    """All non-empty sets of gates with pairwise disjoint support.

    Gates within a layer are sorted (deterministic order).  For n = 4 the
    NCT library yields 103 layers; single-gate layers come first.
    """
    library = all_gates(n_wires)
    layers: list[tuple[Gate, ...]] = []

    def extend(start: int, chosen: list[Gate], used: frozenset[int]) -> None:
        for idx in range(start, len(library)):
            gate = library[idx]
            if used & gate.support:
                continue
            layers.append(tuple(chosen + [gate]))
            extend(idx + 1, chosen + [gate], used | gate.support)

    extend(0, [], frozenset())
    layers.sort(key=lambda layer: (len(layer), layer))
    return layers


def layer_word(layer: tuple[Gate, ...], n_wires: int) -> int:
    """Packed permutation of a layer (order irrelevant: disjoint support)."""
    word = packed.identity(n_wires)
    for gate in layer:
        word = packed.compose(word, gate.to_word(n_wires), n_wires)
    return word


@dataclass
class DepthDatabase:
    """Optimal depth per equivalence class, up to ``max_depth``.

    Attributes:
        n_wires: Wire count.
        max_depth: Exploration bound; deeper classes are absent.
        table: Canonical word -> minimal depth.
        levels: ``levels[d]`` = sorted canonical words of depth d.
    """

    n_wires: int
    max_depth: int
    table: LinearProbingTable
    levels: list[np.ndarray]

    def depth_of(self, word: int) -> "int | None":
        """Minimal depth, or None when above the explored bound."""
        return self.table.get(equivalence.canonical(word, self.n_wires))

    def counts_by_depth(self) -> list[int]:
        """Number of equivalence classes at each optimal depth."""
        return level_counts(self.levels)


def build_depth_database(n_wires: int, max_depth: int) -> DepthDatabase:
    """Symmetry-reduced BFS where one step appends a whole layer."""
    layer_words = sorted({layer_word(layer, n_wires) for layer in all_layers(n_wires)})
    table, levels = level_search(n_wires, layer_words, max_depth)
    return DepthDatabase(
        n_wires=n_wires, max_depth=max_depth, table=table, levels=levels
    )


class DepthOptimalSynthesizer:
    """Exact minimum-depth synthesis for functions within the depth bound."""

    def __init__(self, n_wires: int = 4, max_depth: int = 4):
        self.n_wires = n_wires
        self.max_depth = max_depth
        self._db: "DepthDatabase | None" = None
        self._layers: "list[tuple[tuple[Gate, ...], int, int]] | None" = None

    @property
    def database(self) -> DepthDatabase:
        if self._db is None:
            self._db = build_depth_database(self.n_wires, self.max_depth)
            self._layers = [
                (layer, layer_word(layer, self.n_wires), 1)
                for layer in all_layers(self.n_wires)
            ]
        return self._db

    def depth(self, spec) -> int:
        """Minimal circuit depth of ``spec``."""
        perm = Permutation.coerce(spec, self.n_wires)
        depth = self.database.depth_of(perm.word)
        if depth is None:
            raise SynthesisError(
                f"function depth exceeds the search bound {self.max_depth}"
            )
        return depth

    def synthesize(self, spec) -> Circuit:
        """A provably depth-minimal circuit (layers flattened left-to-right).

        The returned circuit's :meth:`Circuit.depth` equals
        :meth:`depth` of the specification.
        """
        perm = Permutation.coerce(spec, self.n_wires)
        db = self.database
        assert self._layers is not None
        [layers] = peel(
            np.array([perm.word], dtype=np.uint64),
            [self.depth(perm)],
            self._layers,
            reduced_lookup(db.table, self.n_wires),
            packed_compose(self.n_wires),
        )
        gates = tuple(gate for layer in layers for gate in layer)
        circuit = Circuit(gates=gates, n_wires=self.n_wires)
        if not circuit.implements(perm):
            raise AssertionError("depth-optimal peel produced a wrong circuit")
        return circuit
