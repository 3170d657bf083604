"""Cost-aware optimal synthesis (paper Section 5, first extension).

The paper notes that "to account for different gate costs, one needs to
search for small circuits via increasing cost by one ... as opposed to
adding a gate to all maximal size optimal circuits."  This module
implements exactly that: the level search of :mod:`repro.synth.bfs` with
integer per-gate weights (a uniform-cost search over equivalence
classes).

The default cost model is the standard NCV quantum-cost table
(NOT = CNOT = 1, TOF = 5, TOF4 = 13), reflecting the paper's remark that
"generally, NOT is much simpler than CNOT, which in turn, is simpler
than Toffoli".

The symmetry reduction remains sound because every cost model keyed on
the number of controls is invariant under wire relabeling and circuit
reversal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.core import equivalence
from repro.core.circuit import Circuit
from repro.core.gates import Gate, all_gates
from repro.core.permutation import Permutation
from repro.errors import SynthesisError
from repro.hashing.table import LinearProbingTable
from repro.synth.bfs import level_search, packed_compose, peel, reduced_lookup

#: Standard NCV quantum-cost per control count (Barenco et al. decompositions).
NCV_COST_BY_CONTROLS: dict[int, int] = {0: 1, 1: 1, 2: 5, 3: 13}

#: Uniform cost model -- makes cost-optimal equal gate-count-optimal.
UNIT_COST_BY_CONTROLS: dict[int, int] = {0: 1, 1: 1, 2: 1, 3: 1}

#: Largest cost the uint8 table stores (255 marks an absent class).
MAX_STORED_COST = 254


def gate_cost(gate: Gate, model: "dict[int, int] | None" = None) -> int:
    """Cost of one gate under a per-control-count model."""
    if model is None:
        model = NCV_COST_BY_CONTROLS
    return model[len(gate.controls)]


def _check_model(model: "Mapping[int, object]", n_wires: int) -> None:
    """Raise :class:`SynthesisError` unless ``model`` gives every control
    count 0..n_wires-1 a positive integer cost."""
    for controls in range(n_wires):
        cost = model.get(controls)
        if cost is None:
            raise SynthesisError(
                f"cost model {model} has no cost for gates with "
                f"{controls} controls"
            )
        if not isinstance(cost, int) or cost <= 0:
            raise SynthesisError(
                f"gate costs must be positive integers, got {cost!r} for "
                f"gates with {controls} controls"
            )


@dataclass
class CostDatabase:
    """Optimal *cost* (not gate count) per equivalence class, up to a bound.

    Attributes:
        n_wires: Wire count.
        max_cost: Exploration bound; classes costlier than this are absent.
        table: Canonical word -> minimal circuit cost.
        levels: ``levels[c]`` = sorted canonical words of cost c.
        model: The per-control-count cost table used.
    """

    n_wires: int
    max_cost: int
    table: LinearProbingTable
    levels: list[np.ndarray]
    model: dict[int, int]

    def cost_of(self, word: int) -> "int | None":
        """Minimal cost of the function, or None when above the bound."""
        return self.table.get(equivalence.canonical(word, self.n_wires))

    def counts_by_cost(self) -> dict[int, int]:
        """Number of equivalence classes per optimal cost (ablation data)."""
        return {
            cost: int(keys.shape[0])
            for cost, keys in enumerate(self.levels)
            if keys.shape[0]
        }


def build_cost_database(
    n_wires: int,
    max_cost: int,
    model: "dict[int, int] | None" = None,
) -> CostDatabase:
    """Uniform-cost search over equivalence classes by circuit cost.

    The symmetry-reduced level search with each gate weighted by its
    cost: level c pulls from level c - w for every gate weight w.
    Costs are stored in the table's uint8 slots, so ``max_cost`` is at
    most 254.
    """
    if model is None:
        model = NCV_COST_BY_CONTROLS
    _check_model(model, n_wires)
    if not 0 <= max_cost <= MAX_STORED_COST:
        raise SynthesisError(
            f"max_cost must be in 0..{MAX_STORED_COST}, got {max_cost}"
        )
    gates = all_gates(n_wires)
    table, levels = level_search(
        n_wires,
        [gate.to_word(n_wires) for gate in gates],
        max_cost,
        weights=[gate_cost(gate, model) for gate in gates],
    )
    return CostDatabase(
        n_wires=n_wires, max_cost=max_cost, table=table, levels=levels, model=dict(model)
    )


class CostOptimalSynthesizer:
    """Exact minimum-cost synthesis for functions within the cost bound.

    Note the scaling difference from gate-count search: the number of
    classes grows with *cost*, so NCV bound C roughly corresponds to
    gate-count C when circuits are CNOT-dominated but only C/5 when
    Toffoli-dominated.
    """

    def __init__(
        self,
        n_wires: int = 4,
        max_cost: int = 12,
        model: "dict[int, int] | None" = None,
    ):
        self.n_wires = n_wires
        self.max_cost = max_cost
        self.model = dict(NCV_COST_BY_CONTROLS if model is None else model)
        _check_model(self.model, n_wires)
        self._db: "CostDatabase | None" = None

    @property
    def database(self) -> CostDatabase:
        if self._db is None:
            self._db = build_cost_database(
                self.n_wires, self.max_cost, self.model
            )
        return self._db

    def cost(self, spec) -> int:
        """Minimal circuit cost of ``spec`` under the model."""
        perm = Permutation.coerce(spec, self.n_wires)
        cost = self.database.cost_of(perm.word)
        if cost is None:
            raise SynthesisError(
                f"function cost exceeds the search bound {self.max_cost}"
            )
        return cost

    def synthesize(self, spec) -> Circuit:
        """A provably minimum-cost circuit (peeled from the cost table)."""
        perm = Permutation.coerce(spec, self.n_wires)
        n = self.n_wires
        steps = [(g, g.to_word(n), gate_cost(g, self.model)) for g in all_gates(n)]
        [gates] = peel(
            np.array([perm.word], dtype=np.uint64),
            [self.cost(perm)],
            steps,
            reduced_lookup(self.database.table, n),
            packed_compose(n),
        )
        circuit = Circuit(gates=tuple(gates), n_wires=n)
        if not circuit.implements(perm):
            raise AssertionError("cost-optimal peel produced a wrong circuit")
        return circuit
