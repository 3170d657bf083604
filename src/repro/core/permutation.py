"""User-facing :class:`Permutation` wrapper around packed words.

The packed-word modules are deliberately low-level (plain ints and numpy
arrays).  ``Permutation`` gives library users a safe, hashable value type
with the vocabulary of the paper: composition, inversion, conjugation by
wire relabelings, canonical representatives, and linearity tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core import equivalence, packed, spec as spec_mod
from repro.errors import InvalidPermutationError


@dataclass(frozen=True)
class Permutation:
    """An n-bit reversible function (2 <= n <= 4) as an immutable value.

    Attributes:
        word: Packed 64-bit encoding (nibble ``i`` holds ``f(i)``).
        n_wires: Number of wires/bits.
    """

    word: int
    n_wires: int

    def __post_init__(self) -> None:
        if not packed.is_valid(self.word, self.n_wires):
            raise InvalidPermutationError(
                f"word {self.word:#x} is not a valid {self.n_wires}-wire "
                "packed permutation"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def identity(n_wires: int) -> "Permutation":
        """The identity function on ``n_wires`` wires."""
        return Permutation(packed.identity(n_wires), n_wires)

    @staticmethod
    def from_values(values: Iterable[int]) -> "Permutation":
        """Build from an output sequence, e.g. ``[0, 2, 1, 3]``.

        :func:`~repro.core.spec.spec_to_word` is the one validity check
        on this path, so the word is not checked again.
        """
        word, n_wires = spec_mod.spec_to_word(values)
        perm = object.__new__(Permutation)
        object.__setattr__(perm, "word", word)
        object.__setattr__(perm, "n_wires", n_wires)
        return perm

    @staticmethod
    def from_spec(text: str) -> "Permutation":
        """Build from the paper's bracketed spec string."""
        return Permutation.from_values(spec_mod.spec_values(text))

    @staticmethod
    def from_word(word: int, n_wires: int) -> "Permutation":
        """Build from a packed word (validated)."""
        return Permutation(word, n_wires)

    @staticmethod
    def coerce(
        value: "Permutation | str | int | Iterable[int]",
        n_wires: "int | None" = None,
    ) -> "Permutation":
        """Accept a Permutation, spec string, value sequence, or packed word."""
        if isinstance(value, Permutation):
            return value
        if isinstance(value, str):
            return Permutation.from_spec(value)
        if isinstance(value, int):
            if n_wires is None:
                raise InvalidPermutationError(
                    "n_wires is required to interpret a packed word"
                )
            return Permutation(value, n_wires)
        return Permutation.from_values(list(value))

    @staticmethod
    def random(n_wires: int, rng: packed.Shuffler) -> "Permutation":
        """Uniformly random permutation using ``rng.shuffle``."""
        return Permutation(packed.random_word(n_wires, rng), n_wires)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def values(self) -> tuple[int, ...]:
        """The output sequence ``f(0), ..., f(2**n - 1)``."""
        return packed.unpack(self.word, self.n_wires)

    @property
    def size_of_domain(self) -> int:
        """Number of basis states, ``2**n_wires``."""
        return packed.num_states(self.n_wires)

    def spec(self) -> str:
        """The paper's bracketed spec string."""
        return spec_mod.format_spec(self.values)

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycle decomposition (fixed points omitted)."""
        return spec_mod.cycles(list(self.values))

    def parity(self) -> int:
        """0 for an even permutation, 1 for odd."""
        return spec_mod.parity(list(self.values))

    def fixed_points(self) -> list[int]:
        """Inputs mapped to themselves."""
        return [x for x, y in enumerate(self.values) if x == y]

    def __call__(self, x: int) -> int:
        """Evaluate ``f(x)``."""
        if not 0 <= x < self.size_of_domain:
            raise InvalidPermutationError(
                f"input {x} out of range for {self.n_wires} wires"
            )
        return packed.get(self.word, x)

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def then(self, other: "Permutation") -> "Permutation":
        """Sequential composition: apply ``self`` first, then ``other``."""
        self._check_same_width(other)
        return Permutation(
            packed.compose(self.word, other.word, self.n_wires), self.n_wires
        )

    def compose_after(self, other: "Permutation") -> "Permutation":
        """Mathematical composition ``self ∘ other`` (other acts first)."""
        return other.then(self)

    def inverse(self) -> "Permutation":
        """The inverse function."""
        return Permutation(packed.inverse(self.word, self.n_wires), self.n_wires)

    def is_identity(self) -> bool:
        """True iff this is the identity function."""
        return self.word == packed.identity(self.n_wires)

    def order(self) -> int:
        """Smallest positive ``m`` with ``f^m = identity``."""
        import math

        result = 1
        for cycle in self.cycles():
            result = math.lcm(result, len(cycle))
        return result

    def conjugate(self, wire_perm: tuple[int, ...]) -> "Permutation":
        """Conjugation by a simultaneous input/output relabeling."""
        return Permutation(
            packed.conjugate_by_wire_perm(self.word, tuple(wire_perm), self.n_wires),
            self.n_wires,
        )

    # ------------------------------------------------------------------
    # Equivalence (paper Section 3.2)
    # ------------------------------------------------------------------
    def canonical(self) -> "Permutation":
        """Canonical representative of the equivalence class."""
        return Permutation(
            equivalence.canonical(self.word, self.n_wires), self.n_wires
        )

    def is_canonical(self) -> bool:
        """True iff this function is its own canonical representative."""
        return equivalence.is_canonical(self.word, self.n_wires)

    def equivalence_class(self) -> list["Permutation"]:
        """All functions equivalent to this one (sorted by packed word)."""
        members = sorted(equivalence.equivalence_class(self.word, self.n_wires))
        return [Permutation(w, self.n_wires) for w in members]

    def class_size(self) -> int:
        """Size of the equivalence class (at most ``2 * n!``)."""
        return equivalence.class_size(self.word, self.n_wires)

    # ------------------------------------------------------------------
    # Structure tests
    # ------------------------------------------------------------------
    def is_linear(self) -> bool:
        """True iff computable by CNOT gates alone (f(0) = 0 and f is
        GF(2)-linear)."""
        from repro.synth.gf2 import is_linear_permutation

        return is_linear_permutation(self)

    def is_affine(self) -> bool:
        """True iff computable by NOT and CNOT gates alone.

        This is the class the paper calls "linear reversible functions"
        in Section 4.3 (322,560 functions for n = 4).
        """
        from repro.synth.gf2 import is_affine_permutation

        return is_affine_permutation(self)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _check_same_width(self, other: "Permutation") -> None:
        if other.n_wires != self.n_wires:
            raise InvalidPermutationError(
                f"width mismatch: {self.n_wires} vs {other.n_wires} wires"
            )

    def __str__(self) -> str:
        return self.spec()

    def __repr__(self) -> str:
        return f"Permutation({self.spec()}, n_wires={self.n_wires})"
