"""Parsing and formatting of reversible-function specifications.

The paper specifies functions as output sequences, e.g. ``hwb4`` is
``[0,2,4,12,8,5,9,11,1,6,10,13,3,14,7,15]``: input ``i`` maps to the
``i``-th listed value.  This module converts between that notation,
truth tables, cycle notation, and the packed-word representation.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

import numpy as np

from repro.core import packed
from repro.errors import InvalidPermutationError

_INT_RE = re.compile(r"-?\d+")


def parse_spec(text: str) -> list[int]:
    """Parse a bracketed (or bare) comma/space-separated value list.

    >>> parse_spec("[0, 2, 1, 3]")
    [0, 2, 1, 3]
    >>> parse_spec("3 1 2 0")
    [3, 1, 2, 0]
    """
    values = spec_values(text)
    validate_spec(values)
    return values


def spec_values(text: str) -> list[int]:
    """The integers of a spec string, in order, not yet validated."""
    values = list(map(int, _INT_RE.findall(text)))
    if not values:
        raise InvalidPermutationError(f"no values found in spec: {text!r}")
    return values


def validate_spec(values: list[int]) -> int:
    """Check that ``values`` is a permutation of ``range(2**n)``; return n."""
    size = len(values)
    n_wires = size.bit_length() - 1
    if size != 1 << n_wires or n_wires < 1:
        raise InvalidPermutationError(
            f"spec length must be a power of two >= 2, got {size}"
        )
    if sorted(values) != list(range(size)):
        raise InvalidPermutationError(
            f"spec is not a permutation of 0..{size - 1}: {values!r}"
        )
    return n_wires


def format_spec(values: Iterable[int]) -> str:
    """Format a value sequence in the paper's bracketed style."""
    return "[" + ",".join(str(v) for v in values) + "]"


def spec_to_word(values: Iterable[int]) -> tuple[int, int]:
    """Validate and pack a spec; returns ``(word, n_wires)``."""
    values = list(values)
    n_wires = validate_spec(values)
    return packed.pack_nibbles(values), n_wires


def spec_words(specs: "Sequence[object]", n_wires: int) -> np.ndarray:
    """Packed ``uint64`` words for many specs in one numpy pass.

    Covers strings in the compact form :func:`format_spec` writes, with
    ``2**n_wires`` values.  Any other spec, and any string that does not
    list a permutation, gets 0, which no permutation packs to: parse those
    one by one, which words the error.  Should numpy read other than
    ``2**n_wires`` values per compact spec, every word is 0.
    """
    size = 1 << n_wires
    words = np.zeros(len(specs), dtype=np.uint64)
    compact = [
        index for index, spec in enumerate(specs)
        if isinstance(spec, str) and spec[:1] == "[" and spec[-1:] == "]"
        and spec.count(",") == size - 1 and spec.isascii()
        and spec[1:-1].replace(",", "").isdigit()
        and spec[1] != "," and spec[-2] != "," and ",," not in spec
    ]
    if not compact:
        return words
    inner = ",".join([specs[index][1:-1] for index in compact])
    try:
        values = np.fromstring(inner, dtype=np.int64, sep=",")
    except ValueError:
        return words
    if values.size != len(compact) * size:
        return words
    values = values.reshape(-1, size)
    valid = (np.sort(values, axis=1) == np.arange(size)).all(axis=1)
    shifts = np.arange(size, dtype=np.uint64) * np.uint64(packed.NIBBLE_BITS)
    rows = np.bitwise_or.reduce(values.astype(np.uint64) << shifts, axis=1)
    words[np.asarray(compact)[valid]] = rows[valid]
    return words


def word_to_spec(word: int, n_wires: int) -> list[int]:
    """Unpack a word into a value list."""
    return list(packed.unpack(word, n_wires))


def cycles(values: Iterable[int]) -> list[tuple[int, ...]]:
    """Disjoint cycle decomposition (fixed points omitted).

    >>> cycles([1, 0, 2, 3])
    [(0, 1)]
    """
    values = list(values)
    validate_spec(values)
    seen = [False] * len(values)
    out: list[tuple[int, ...]] = []
    for start in range(len(values)):
        if seen[start] or values[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        current = values[start]
        while current != start:
            cycle.append(current)
            seen[current] = True
            current = values[current]
        out.append(tuple(cycle))
    return out


def parity(values: Iterable[int]) -> int:
    """Permutation parity: 0 for even, 1 for odd.

    NOT, CNOT and TOF are even permutations of the 16 basis states while
    TOF4 is odd (a single transposition), so the parity of a function
    equals the parity of the TOF4 count of any circuit implementing it.
    """
    return sum(len(c) - 1 for c in cycles(values)) % 2


def truth_table_lines(
    values: Iterable[int], n_wires: "int | None" = None
) -> list[str]:
    """Human-readable truth table, one ``inputs -> outputs`` row per line.

    Bit order within a row is ``a b c d`` (wire 0 first).
    """
    values = list(values)
    inferred = validate_spec(values)
    if n_wires is None:
        n_wires = inferred
    lines: list[str] = []
    for x, y in enumerate(values):
        in_bits = " ".join(str((x >> w) & 1) for w in range(n_wires))
        out_bits = " ".join(str((y >> w) & 1) for w in range(n_wires))
        lines.append(f"{in_bits} -> {out_bits}")
    return lines
