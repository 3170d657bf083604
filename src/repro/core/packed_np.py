"""Numpy-vectorized packed-word arithmetic.

Mirrors :mod:`repro.core.packed` on ``uint64`` arrays.  These routines are
the workhorses of the breadth-first search (Algorithm 2) and the
meet-in-the-middle search (Algorithm 1): a single call processes millions
of packed permutations with a few dozen whole-array passes.

All functions accept and return ``numpy.ndarray`` of dtype ``uint64``;
scalars may be passed as plain Python ints where noted.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from repro.core import packed
from repro.core.combinatorics import plain_changes

_U = np.uint64
NIBBLE_MASK = _U(0xF)

#: Alias for the array type every routine here consumes and produces.
U64Array = npt.NDArray[np.uint64]


def as_words(values: npt.ArrayLike) -> U64Array:
    """Coerce a sequence of packed words to a ``uint64`` array."""
    return np.asarray(values, dtype=np.uint64)


def compose_np(p: npt.ArrayLike, q: npt.ArrayLike, n_wires: int) -> U64Array:
    """Vectorized composition: result(x) = q(p(x)) (apply p, then q).

    ``p`` and ``q`` may each be an array or a scalar word; standard numpy
    broadcasting applies (at least one of them should be an array).
    """
    size = packed.num_states(n_wires)
    p = np.asarray(p, dtype=np.uint64)
    q = np.asarray(q, dtype=np.uint64)
    r = np.zeros(np.broadcast(p, q).shape, dtype=np.uint64)
    for i in range(size):
        v = (p >> _U(4 * i)) & NIBBLE_MASK
        r |= ((q >> (v << _U(2))) & NIBBLE_MASK) << _U(4 * i)
    return r


def inverse_np(p: npt.ArrayLike, n_wires: int) -> U64Array:
    """Vectorized inverse permutation."""
    size = packed.num_states(n_wires)
    p = np.asarray(p, dtype=np.uint64)
    q = np.zeros(p.shape, dtype=np.uint64)
    for i in range(size):
        v = (p >> _U(4 * i)) & NIBBLE_MASK
        q |= _U(i) << (v << _U(2))
    return q


class _NpSwapMasks:
    """uint64 copies of the adjacent-swap mask sets for one wire count."""

    def __init__(self, n_wires: int) -> None:
        masks = packed.adjacent_swap_masks(n_wires)
        self.index_masks = [
            (_U(keep), _U(up), _U(down), _U(shift))
            for keep, up, down, shift in masks.index_masks
        ]
        self.value_masks = [
            (_U(keep), _U(lo), _U(hi)) for keep, lo, hi in masks.value_masks
        ]


_NP_MASK_CACHE: dict[int, _NpSwapMasks] = {}


def _np_masks(n_wires: int) -> _NpSwapMasks:
    masks = _NP_MASK_CACHE.get(n_wires)
    if masks is None:
        masks = _NpSwapMasks(n_wires)
        _NP_MASK_CACHE[n_wires] = masks
    return masks


def conjugate_adjacent_np(words: U64Array, pair: int, n_wires: int) -> U64Array:
    """Vectorized conjugation by the wire transposition ``(pair, pair+1)``."""
    masks = _np_masks(n_wires)
    keep, up, down, shift = masks.index_masks[pair]
    words = (words & keep) | ((words & up) << shift) | ((words & down) >> shift)
    keep, bit_lo, bit_hi = masks.value_masks[pair]
    return (words & keep) | ((words & bit_lo) << _U(1)) | ((words & bit_hi) >> _U(1))


_SCHEDULE_CACHE: dict[int, list[int]] = {}


def _conjugation_schedule(n_wires: int) -> list[int]:
    """Plain-changes swap schedule reused for every canonicalization call."""
    sched = _SCHEDULE_CACHE.get(n_wires)
    if sched is None:
        sched = plain_changes(n_wires)
        _SCHEDULE_CACHE[n_wires] = sched
    return sched


def _delta_swap(words: U64Array, scratch: U64Array, low: np.uint64, shift: np.uint64) -> None:
    """Swap, in place, each bit under ``low`` with the bit ``shift`` above it."""
    np.right_shift(words, shift, out=scratch)
    scratch ^= words
    scratch &= low
    words ^= scratch
    # repro: allow[unmasked-op] scratch was just masked to `low`, whose bits shifted by `shift` stay inside the 64-bit word by construction
    scratch <<= shift
    words ^= scratch


def _fold_conjugates_min(words: U64Array, n_wires: int, best: U64Array) -> None:
    """Fold ``min`` over all conjugates of ``words`` into ``best`` in place.

    Each step is :func:`conjugate_adjacent_np` done as two in-place delta
    swaps (nibble positions, then value bits) on one working copy: fewer
    numpy calls and temporaries than the masked form.
    """
    np.minimum(best, words, out=best)
    masks = _np_masks(n_wires)
    cur = words.copy()
    scratch = np.empty_like(cur)
    for pair in _conjugation_schedule(n_wires):
        _keep, up, _down, shift = masks.index_masks[pair]
        _delta_swap(cur, scratch, up, shift)
        _keep, bit_lo, _bit_hi = masks.value_masks[pair]
        _delta_swap(cur, scratch, bit_lo, _U(1))
        np.minimum(best, cur, out=best)


def canonical_np(words: npt.ArrayLike, n_wires: int) -> U64Array:
    """Canonical representative of the equivalence class of each word.

    The representative is the numerically smallest packed word among the
    up-to-48 equivalents (24 wire-relabeling conjugates of ``f`` and 24 of
    ``f⁻¹``), exactly as in Section 3.2 of the paper.  ``f`` and ``f⁻¹``
    are folded as one stacked array, which halves the numpy calls a small
    batch pays for.
    """
    words = np.asarray(words, dtype=np.uint64)
    both = np.stack([words, inverse_np(words, n_wires)])
    best = both.copy()
    _fold_conjugates_min(both, n_wires, best)
    return np.minimum(best[0], best[1])


def canonical_conjugation_only_np(
    words: npt.ArrayLike, n_wires: int
) -> U64Array:
    """Canonical representative under wire relabeling only (no inversion).

    Used by variants of the search that must distinguish a class from the
    class of its inverse (e.g. cost models that are not reversal-symmetric).
    """
    words = np.asarray(words, dtype=np.uint64)
    best = words.copy()
    _fold_conjugates_min(words, n_wires, best)
    return best


def all_variants_np(words: npt.ArrayLike, n_wires: int) -> U64Array:
    """Matrix of all equivalence-class members, shape ``(2 * n!, len(words))``.

    Row 0 is ``words`` itself; rows may repeat when the class is smaller
    than ``2 * n!`` (symmetric functions).
    """
    words = np.asarray(words, dtype=np.uint64)
    sched = _conjugation_schedule(n_wires)
    n_conj = len(sched) + 1
    out = np.empty((2 * n_conj, words.shape[0]), dtype=np.uint64)
    cur = words.copy()
    out[0] = cur
    for row, pair in enumerate(sched, start=1):
        cur = conjugate_adjacent_np(cur, pair, n_wires)
        out[row] = cur
    cur = inverse_np(words, n_wires)
    out[n_conj] = cur
    for row, pair in enumerate(sched, start=n_conj + 1):
        cur = conjugate_adjacent_np(cur, pair, n_wires)
        out[row] = cur
    return out


def class_sizes_np(
    words: npt.ArrayLike, n_wires: int, chunk: int = 1 << 18
) -> npt.NDArray[np.int64]:
    """Number of distinct functions in the equivalence class of each word.

    Vectorized: builds the ``(2 * n!, chunk)`` variant matrix and counts
    distinct entries per column.  The sum of class sizes over all canonical
    representatives of one size is the "Functions" column of Table 4.
    """
    words = np.asarray(words, dtype=np.uint64)
    sizes = np.empty(words.shape[0], dtype=np.int64)
    for start in range(0, words.shape[0], chunk):
        block = words[start : start + chunk]
        variants = all_variants_np(block, n_wires)
        variants.sort(axis=0)
        distinct = (np.diff(variants, axis=0) != 0).sum(axis=0) + 1
        sizes[start : start + block.shape[0]] = distinct
    return sizes


def expand_classes_np(
    reps: npt.ArrayLike, n_wires: int, chunk: int = 1 << 18
) -> U64Array:
    """All distinct members of the classes of ``reps``, sorted, deduplicated.

    Used to materialize the lists ``A_i`` of *all* functions of a given
    size from the stored canonical representatives (Algorithm 1 needs
    sequential access to every function of size ``i``).
    """
    reps = np.asarray(reps, dtype=np.uint64)
    pieces: list[U64Array] = []
    for start in range(0, reps.shape[0], chunk):
        block = reps[start : start + chunk]
        variants = all_variants_np(block, n_wires).reshape(-1)
        pieces.append(np.unique(variants))
    if not pieces:
        return np.empty(0, dtype=np.uint64)
    return np.unique(np.concatenate(pieces))


def is_valid_np(words: npt.ArrayLike, n_wires: int) -> npt.NDArray[np.bool_]:
    """Boolean mask of words that encode valid permutations."""
    size = packed.num_states(n_wires)
    words = np.asarray(words, dtype=np.uint64)
    seen = np.zeros(words.shape, dtype=np.uint64)
    ok = np.ones(words.shape, dtype=bool)
    if size < 16:
        ok &= (words >> _U(4 * size)) == 0
    for i in range(size):
        v = (words >> _U(4 * i)) & NIBBLE_MASK
        ok &= v < size
        seen |= _U(1) << v
    ok &= seen == _U((1 << size) - 1)
    return ok
