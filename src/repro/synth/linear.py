"""Optimal synthesis of linear reversible circuits (paper Section 4.3).

Linear reversible functions (computable by NOT and CNOT gates) form a
group of 322,560 elements for n = 4 -- small enough to enumerate
exhaustively.  The paper synthesized optimal circuits for all of them in
under two seconds and reports the size distribution in Table 5; the
hardest 138 functions require 10 gates.

This module runs a complete breadth-first search over that group with
the 16-gate NOT/CNOT library, producing both the exact Table 5
distribution and, via peeling, an optimal circuit for any linear
function.  No symmetry reduction is applied (the group is tiny), which
also gives the tests an independent cross-check of the reduced engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.circuit import Circuit
from repro.core.gates import linear_gates
from repro.core.permutation import Permutation
from repro.errors import SynthesisError
from repro.hashing.table import LinearProbingTable
from repro.synth.bfs import level_counts, level_search, packed_compose, peel


@dataclass
class LinearDatabase:
    """Exhaustive optimal-size table for the NOT/CNOT group.

    Attributes:
        n_wires: Wire count.
        table: Map packed word -> optimal NOT/CNOT gate count.
        counts: ``counts[s]`` = number of linear functions of size s
            (Table 5 of the paper for n = 4).
    """

    n_wires: int
    table: LinearProbingTable
    counts: list[int]

    @property
    def max_size(self) -> int:
        """The largest optimal size in the group (10 for n = 4)."""
        return len(self.counts) - 1

    @property
    def total_functions(self) -> int:
        """Group order (322,560 for n = 4)."""
        return sum(self.counts)

    def size_of(self, word: int) -> "int | None":
        """Optimal linear gate count, or None if not a linear function."""
        # repro: allow[unrouted-lookup] the linear database enumerates the whole affine group raw (no §3.2 reduction), so raw keys are exact
        return self.table.get(word)


def build_linear_database(n_wires: int = 4) -> LinearDatabase:
    """Exhaustive BFS over the affine group with NOT and CNOT gates."""
    table, levels = level_search(
        n_wires,
        [g.to_word(n_wires) for g in linear_gates(n_wires)],
        None,
        reduce=False,
    )
    return LinearDatabase(n_wires=n_wires, table=table, counts=level_counts(levels))


class LinearSynthesizer:
    """Optimal NOT/CNOT synthesis for linear reversible functions.

    Builds the exhaustive database on first use (about a second for
    n = 4) and synthesizes by gate peeling.
    """

    def __init__(self, n_wires: int = 4):
        self.n_wires = n_wires
        self._db: "LinearDatabase | None" = None

    @property
    def database(self) -> LinearDatabase:
        if self._db is None:
            self._db = build_linear_database(self.n_wires)
        return self._db

    def size(self, spec) -> int:
        """Optimal NOT/CNOT gate count for a linear function."""
        perm = Permutation.coerce(spec, self.n_wires)
        size = self.database.size_of(perm.word)
        if size is None:
            raise SynthesisError(
                f"{perm.spec()} is not a linear reversible function"
            )
        return size

    def synthesize(self, spec) -> Circuit:
        """A provably minimal NOT/CNOT circuit for a linear function."""
        perm = Permutation.coerce(spec, self.n_wires)
        n = self.n_wires
        steps = [(g, g.to_word(n), 1) for g in linear_gates(n)]
        # The table holds every linear function raw, so raw words are its keys.
        [gates] = peel(
            np.array([perm.word], dtype=np.uint64),
            [self.size(perm)],
            steps,
            self.database.table.lookup_batch,
            packed_compose(n),
        )
        return Circuit(gates=tuple(gates), n_wires=n)

    def hardest_functions(self) -> list[Permutation]:
        """All linear functions attaining the maximal optimal size.

        For n = 4 these are the 138 ten-gate functions of Table 5; the
        paper exhibits one of them, a,b,c,d -> b⊕1, a⊕c⊕1, d⊕1, a.
        """
        db = self.database
        keys, values = db.table.items()
        hardest = keys[values == db.max_size]
        return [Permutation(int(w), self.n_wires) for w in np.sort(hardest)]
