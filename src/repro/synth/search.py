"""Meet-in-the-middle optimal search (paper Algorithm 1).

Given a database of all classes of size <= k and the lists ``A_i`` of
*all* functions of size exactly ``i`` (i <= m), any function of size
s <= L = k + m is synthesized minimally:

* if size(f) <= k, the minimal circuit is peeled directly from the
  database;
* otherwise f = u·h with size(u) = i and size(h) <= k, so scanning the
  inverse-closed list ``A_i`` for the smallest ``i`` such that some
  v ∈ A_i makes size(v·f) <= k yields a provably minimal split
  (u = v⁻¹; see the correctness argument in the module tests and in
  Section 3.1 of the paper).

The list scan is fully vectorized: one numpy pass composes f with the
whole list, canonicalizes the results (48 variants folded with
element-wise minima), and batch-probes the hash table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core import packed
from repro.core.circuit import Circuit
from repro.core.packed_np import compose_np, expand_classes_np, is_valid_np
from repro.errors import SizeLimitExceededError, SynthesisError
from repro.perf.trace import trace
from repro.synth.bfs import nct_steps, packed_compose, peel
from repro.synth.database import OptimalDatabase


#: Most words one lock-step :func:`peel` call takes.  Each peel round
#: sizes the ``32 * w`` remainders of its ``w`` live words with one table
#: lookup, whose probe loop narrows its pending set step by step and so
#: allocates arrays of nearly every size below that.  numpy keeps up to
#: 7 freed buffers of each size under 1 KiB for reuse, up to about 3.5 MB
#: per process; a small cap keeps most of those sizes from occurring.
#: A smaller cap costs more calls (see docs/SERVICE.md for the trade).
PEEL_CAP = 8


def _not_a_permutation(word: int, n_wires: int) -> SynthesisError:
    return SynthesisError(
        f"{word:#x} is not a permutation of 0..2^n-1 = "
        f"0..{(1 << n_wires) - 1}"
    )


def _check_permutation(word: int, n_wires: int) -> None:
    """Raise :class:`SynthesisError` unless ``word`` is a packed
    permutation: a table lookup would canonicalize anything else into
    some class and answer for the wrong function."""
    if not packed.is_valid(word, n_wires):
        raise _not_a_permutation(word, n_wires)


def peel_minimal_circuits(
    words: "Sequence[int] | np.ndarray",
    db: OptimalDatabase,
    sizes: "Sequence[int] | np.ndarray | None" = None,
) -> list[Circuit]:
    """Minimal circuits for functions of size <= k, by gate peeling.

    Words are peeled together in lock-step (:func:`repro.synth.bfs.peel`),
    :data:`PEEL_CAP` at a time: one vectorized canonicalization and
    probe per round for each chunk.  Each circuit is the one the word
    gets when peeled alone.
    ``sizes`` spares that lookup for callers that already made it.
    Raises :class:`SynthesisError` for a word that is not a permutation
    and :class:`SizeLimitExceededError` when a function is not in the
    database.
    """
    n = db.n_wires
    words = np.asarray(words, dtype=np.uint64).reshape(-1)
    valid = is_valid_np(words, n)
    if not valid.all():
        raise _not_a_permutation(int(words[np.argmin(valid)]), n)
    sizes = db.sizes_batch(words) if sizes is None else np.asarray(sizes)
    if (sizes == db.MISSING).any():
        raise SizeLimitExceededError(
            f"function of size > {db.k} cannot be peeled directly",
            lower_bound=db.k + 1,
        )
    steps, compose = nct_steps(n), packed_compose(n)
    circuits = []
    for start in range(0, len(words), PEEL_CAP):
        chunk = slice(start, start + PEEL_CAP)
        with trace("search.peel", size=int(sizes[chunk].max()), words=len(words[chunk])):
            gate_lists = peel(words[chunk], sizes[chunk], steps, db.sizes_batch, compose)
        circuits += [Circuit(gates=tuple(gates), n_wires=n) for gates in gate_lists]
    return circuits


def peel_minimal_circuit(word: int, db: OptimalDatabase) -> Circuit:
    """Minimal circuit for one function of size <= k: the one-word case
    of :func:`peel_minimal_circuits`."""
    return peel_minimal_circuits([word], db)[0]


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one synthesis query.

    Attributes:
        circuit: A minimal circuit for the query function.
        size: Its gate count (the optimal size).
        lists_scanned: How many lists ``A_i`` were composed against the
            query before the split was found (0 for the fast path).
        candidates_tested: Total list entries composed and looked up.
    """

    circuit: Circuit
    size: int
    lists_scanned: int
    candidates_tested: int


class MeetInTheMiddleSearch:
    """Algorithm 1: optimal synthesis for functions of size <= k + m.

    Args:
        db: The BFS database (size <= k).
        lists: ``lists[i - 1]`` holds all functions of size exactly ``i``;
            build them with :meth:`build_lists`.
    """

    def __init__(self, db: OptimalDatabase, lists: "list[np.ndarray] | None" = None):
        self.db = db
        self.lists = lists if lists is not None else []
        for i, lst in enumerate(self.lists, start=1):
            if lst.dtype != np.uint64:
                raise TypeError(f"list A_{i} must be uint64")

    @staticmethod
    def build_lists(db: OptimalDatabase, max_list_size: int) -> list[np.ndarray]:
        """Materialize ``A_1 .. A_max_list_size`` from the database.

        Each ``A_i`` is produced by expanding the equivalence classes of
        the stored canonical representatives of size ``i``; the result is
        sorted, duplicate-free, and closed under inversion.
        """
        if max_list_size > db.k:
            raise ValueError(
                f"lists of size {max_list_size} exceed database depth k={db.k}"
            )
        return [
            expand_classes_np(db.reps_by_size[i], db.n_wires)
            for i in range(1, max_list_size + 1)
        ]

    @property
    def max_size(self) -> int:
        """The largest size L this search can synthesize (k + m)."""
        return self.db.k + len(self.lists)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def minimal_circuit(self, word: int, cancel=None) -> Circuit:
        """A provably minimal circuit for ``word``; raises
        :class:`SizeLimitExceededError` when size > L."""
        return self.search(word, cancel=cancel).circuit

    def size_of(self, word: int, cancel=None) -> int:
        """Optimal size of ``word`` (without reconstructing the circuit)."""
        _check_permutation(word, self.db.n_wires)
        fast = self.db.size_of(word)
        if fast is not None:
            return fast
        i, _v, h_size, tested = self._scan_lists(word, cancel=cancel)
        if i is None:
            raise SizeLimitExceededError(
                f"function requires more than {self.max_size} gates",
                lower_bound=self.max_size + 1,
            )
        return i + h_size

    def search(self, word: int, cancel=None) -> SearchOutcome:
        """Full query returning the circuit plus search statistics.

        ``cancel`` is an optional zero-argument cooperative checkpoint
        (typically a bound ``CancelToken.checkpoint``): it is invoked
        between list scans and may abort the query by raising.  The
        scan itself never catches what it raises.
        """
        _check_permutation(word, self.db.n_wires)
        with trace("search.query"):
            return self._search(word, cancel=cancel)

    def _search(self, word: int, cancel=None) -> SearchOutcome:
        n = self.db.n_wires
        fast = self.db.size_of(word)
        if fast is not None:
            [circuit] = peel_minimal_circuits([word], self.db, [fast])
            return SearchOutcome(
                circuit=circuit, size=fast, lists_scanned=0, candidates_tested=0
            )
        i, v, h_size, tested = self._scan_lists(word, cancel=cancel)
        if i is None:
            raise SizeLimitExceededError(
                f"function requires more than {self.max_size} gates "
                f"(proven by exhausted search)",
                lower_bound=self.max_size + 1,
            )
        # word = u·h with u = v⁻¹ of size i and h = v·word of size h_size.
        u = packed.inverse(v, n)
        h = packed.compose(v, word, n)
        head, tail = peel_minimal_circuits([u, h], self.db, [i, h_size])
        circuit = head.then(tail)
        if circuit.gate_count != i + h_size:
            raise AssertionError("reconstructed circuit has unexpected size")
        return SearchOutcome(
            circuit=circuit,
            size=i + h_size,
            lists_scanned=i,
            candidates_tested=tested,
        )

    def prove_lower_bound(self, word: int, cancel=None) -> int:
        """Exhaust the search and return the proven lower bound.

        Returns size(word) when it is within reach, else ``L + 1`` (the
        failure of the exhaustive scan proves size > L, paper Section 4.4's
        argument for oc7).
        """
        try:
            return self.size_of(word, cancel=cancel)
        except SizeLimitExceededError as exc:
            return exc.lower_bound

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _scan_lists(self, word: int, cancel=None):
        """Scan A_1, A_2, ... for the smallest split; returns
        ``(i, v, h_size, candidates_tested)`` or ``(None, None, None, t)``.

        ``cancel`` (when given) runs before each list is composed -- the
        cooperative preemption point for cancellable hard work: each
        ``A_i`` pass is one numpy call, so this is the finest boundary
        at which the scan can stop without losing vectorization.
        """
        n = self.db.n_wires
        word_u = np.uint64(word)
        tested = 0
        with trace("search.scan"):
            for i, candidates_v in enumerate(self.lists, start=1):
                if cancel is not None:
                    cancel()
                if candidates_v.shape[0] == 0:
                    continue
                with trace("search.list", list=i):
                    h = compose_np(candidates_v, word_u, n)
                    sizes = self.db.sizes_batch(h)
                    tested += int(candidates_v.shape[0])
                    hits = np.flatnonzero(sizes != self.db.MISSING)
                if hits.size:
                    idx = int(hits[0])
                    return i, int(candidates_v[idx]), int(sizes[idx]), tested
        return None, None, None, tested
