"""Plain breadth-first search baseline (no symmetry reduction).

Prasad et al. (paper reference [13]) enumerated optimal 4-bit circuits by
straight BFS over *functions* -- no equivalence-class reduction -- reaching
26,000,000 circuits of up to 6 gates.  This module implements that
baseline so the value of the paper's ×48 reduction can be measured
head-to-head (states stored, time per level): compare
:func:`plain_bfs_counts` with the "Reduced Functions" column produced by
:func:`repro.synth.bfs.build_database`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.gates import all_gates
from repro.hashing.table import LinearProbingTable
from repro.synth.bfs import level_search


@dataclass
class PlainBfsResult:
    """Outcome of the non-reduced BFS.

    Attributes:
        n_wires: Wire count.
        k: Depth reached.
        counts: ``counts[s]`` = number of *functions* of optimal size s
            (Table 4, middle column -- computed here without symmetry).
        table: Map function word -> optimal size (every function, not
            just class representatives).
    """

    n_wires: int
    k: int
    counts: list[int]
    table: LinearProbingTable

    def size_of(self, word: int) -> "int | None":
        """Optimal size of ``word`` when <= k, else None."""
        # repro: allow[unrouted-lookup] the plain-BFS table deliberately stores every raw function (no §3.2 reduction), so uncanonicalized keys are exact
        return self.table.get(word)

    @property
    def states_stored(self) -> int:
        """Total functions stored -- the baseline's memory footprint."""
        return len(self.table)


def plain_bfs(n_wires: int, k: int, chunk: int = 1 << 20) -> PlainBfsResult:
    """BFS over raw functions with the full NCT library.

    Memory grows with the *function* counts of Table 4 (×48 versus the
    reduced engine), so useful depths are k <= 5 for n = 4 on commodity
    memory -- which is precisely the limitation the paper's symmetry
    reduction removes.
    """
    table, levels = level_search(
        n_wires,
        [g.to_word(n_wires) for g in all_gates(n_wires)],
        k,
        reduce=False,
        chunk=chunk,
    )
    counts = [int(keys.shape[0]) for keys in levels]
    return PlainBfsResult(n_wires=n_wires, k=k, counts=counts, table=table)


def plain_bfs_counts(n_wires: int, k: int) -> list[int]:
    """Just the per-size function counts (convenience for benchmarks)."""
    return plain_bfs(n_wires, k).counts
