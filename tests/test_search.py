"""Tests for the meet-in-the-middle search (paper Algorithm 1)."""

import hashlib
import random

import pytest

from repro.core import packed
from repro.errors import SizeLimitExceededError, SynthesisError
from repro.rng.sampling import PermutationSampler
from repro.synth.bfs import build_database
from repro.synth.search import (
    MeetInTheMiddleSearch,
    peel_minimal_circuit,
    peel_minimal_circuits,
)


def _digest(lines) -> str:
    return hashlib.sha256("".join(f"{line}\n" for line in lines).encode()).hexdigest()


def _random_member(word: int, n: int, rng: random.Random) -> int:
    """A seeded member of ``word``'s class: relabeled, maybe inverted."""
    sigma = tuple(rng.sample(range(n), n))
    member = packed.conjugate_by_wire_perm(word, sigma, n)
    return packed.inverse(member, n) if rng.random() < 0.5 else member


class TestPeel:
    def test_peel_reconstructs_minimal_circuits(self, db4_k4, rng):
        for size in range(5):
            reps = db4_k4.reps_by_size[size]
            for _ in range(4):
                word = int(reps[rng.randrange(len(reps))])
                circuit = peel_minimal_circuit(word, db4_k4)
                assert circuit.gate_count == size
                assert circuit.to_word() == word

    def test_peel_works_on_non_canonical_members(self, db4_k4, rng):
        from repro.core import equivalence

        reps = db4_k4.reps_by_size[4]
        word = int(reps[rng.randrange(len(reps))])
        for member in sorted(equivalence.equivalence_class(word, 4))[:8]:
            circuit = peel_minimal_circuit(member, db4_k4)
            assert circuit.gate_count == 4
            assert circuit.to_word() == member

    def test_peel_rejects_out_of_reach(self, db4_k4):
        from repro.benchmarks_data import get_benchmark

        with pytest.raises(SizeLimitExceededError):
            peel_minimal_circuit(get_benchmark("hwb4").permutation().word, db4_k4)

    def test_golden_digest_all_n3_classes(self, db3):
        """Byte identity against a fixed reference: the peeled circuit of
        every one of the 3,670 n = 3 class representatives, in (size,
        word) order, one line each."""
        lines = [
            str(peel_minimal_circuit(int(word), db3))
            for reps in db3.reps_by_size
            for word in reps.tolist()
        ]
        assert len(lines) == 3670
        digest = hashlib.sha256("".join(f"{line}\n" for line in lines).encode())
        assert digest.hexdigest() == (
            "d1fdfab46063bc8a8c6c99d504cde708d9e2d3232eacc87ef610937d74cf1464"
        )



class TestLockStepPeel:
    """Peeling many words in one call gives each the circuit it gets when
    peeled alone.  The pinned digests were taken from the one-word,
    one-gate-at-a-time scalar peel the lock-step form replaced."""

    def test_all_n3_classes_and_a_member_of_each_in_one_call(self, db3):
        reps = [word for reps in db3.reps_by_size for word in reps.tolist()]
        rng = random.Random(15)
        members = [_random_member(word, 3, rng) for word in reps]
        lines = [str(c) for c in peel_minimal_circuits(reps + members, db3)]
        assert len(lines) == 7340
        assert _digest(lines[:3670]) == (
            "d1fdfab46063bc8a8c6c99d504cde708d9e2d3232eacc87ef610937d74cf1464"
        )
        assert _digest(lines[3670:]) == (
            "998d3a4c441f7d78875115e3e97bc86dd1c74464c321a592ff9b75c0838f623b"
        )
        for word, line in zip(members[::97], lines[3670::97]):
            assert str(peel_minimal_circuit(word, db3)) == line

    def test_seeded_n4_sample_with_duplicates_in_one_call(self, db4_k5):
        rng = random.Random(4)
        words = []
        for reps in db4_k5.reps_by_size:
            reps = reps.tolist()
            for word in rng.sample(reps, min(40, len(reps))):
                words.append(_random_member(word, 4, rng))
        words += words[:25] + [packed.identity(4)] * 2
        rng.shuffle(words)
        assert {db4_k5.size_of(word) for word in words} == set(range(6))
        circuits = peel_minimal_circuits(words, db4_k5)
        lines = [str(circuit) for circuit in circuits]
        assert _digest(lines) == (
            "cdb487abb8c6d2ac601c0d1b73dd77a14d52270481d7044c8d1907ce66c2af01"
        )
        for word, circuit in zip(words, circuits):
            assert circuit.to_word() == word
            assert circuit == peel_minimal_circuit(word, db4_k5)

    def test_calls_stay_under_the_cap(self, db4_k5, monkeypatch):
        from repro.synth import bfs, search

        rng = random.Random(16)
        words = [
            _random_member(word, 4, rng)
            for reps in db4_k5.reps_by_size
            for word in rng.sample(reps.tolist(), min(12, len(reps)))
        ]
        monkeypatch.setattr(search, "PEEL_CAP", len(words))
        uncapped = peel_minimal_circuits(words, db4_k5)
        monkeypatch.undo()
        widths = []

        def counting_peel(chunk, *args):
            widths.append(len(chunk))
            return bfs.peel(chunk, *args)

        monkeypatch.setattr(search, "peel", counting_peel)
        assert peel_minimal_circuits(words, db4_k5) == uncapped
        assert max(widths) == search.PEEL_CAP < len(words)
        assert len(widths) == -(-len(words) // search.PEEL_CAP)

    def test_empty_batch(self, db4_k4):
        assert peel_minimal_circuits([], db4_k4) == []

    def test_one_word_out_of_reach_fails_the_call(self, db4_k4):
        from repro.benchmarks_data import get_benchmark

        hwb4 = get_benchmark("hwb4").permutation().word
        with pytest.raises(SizeLimitExceededError):
            peel_minimal_circuits([packed.identity(4), hwb4], db4_k4)


#: Words that are not permutations of 0..7: all zero, repeated values,
#: bits above the eight n = 3 nibbles.
NOT_PERMUTATIONS = [0, 0x11111111, 1 << 40]


class TestRejectsNonPermutations:
    """A non-permutation canonicalizes into some class like any word; it
    must be rejected before that, not answered for the wrong function."""

    @pytest.fixture(scope="class")
    def search3(self):
        db = build_database(3, 4)
        return MeetInTheMiddleSearch(db, MeetInTheMiddleSearch.build_lists(db, 2))

    @pytest.mark.parametrize("word", NOT_PERMUTATIONS)
    def test_search(self, search3, word):
        with pytest.raises(SynthesisError, match="not a permutation") as info:
            search3.search(word)
        assert not isinstance(info.value, SizeLimitExceededError)

    @pytest.mark.parametrize("word", NOT_PERMUTATIONS)
    def test_prove_lower_bound(self, search3, word):
        with pytest.raises(SynthesisError, match="not a permutation"):
            search3.prove_lower_bound(word)

    @pytest.mark.parametrize("word", NOT_PERMUTATIONS)
    def test_peel_minimal_circuit(self, search3, word):
        with pytest.raises(SynthesisError, match="not a permutation") as info:
            peel_minimal_circuit(word, search3.db)
        assert not isinstance(info.value, SizeLimitExceededError)

    @pytest.mark.parametrize("word", NOT_PERMUTATIONS)
    def test_peel_minimal_circuits(self, search3, word):
        valid = packed.identity(3)
        with pytest.raises(SynthesisError, match=f"{word:#x} is not a permutation"):
            peel_minimal_circuits([valid, word], search3.db)

class TestSearchCorrectness:
    def test_exhaustive_n3(self, engine3, db3):
        """For n = 3 every function is reachable; spot-check sizes against
        the full database and validate all returned circuits."""
        sampler = PermutationSampler(3, seed=77)
        for _ in range(60):
            word = sampler.sample_word()
            outcome = engine3.search(word)
            assert outcome.circuit.to_word() == word
            assert outcome.size == db3.size_of(word)

    def test_benchmarks_within_reach(self, engine4_l9):
        from repro.benchmarks_data import BENCHMARKS

        for bench in BENCHMARKS:
            if bench.optimal_size > engine4_l9.max_size:
                continue
            perm = bench.permutation()
            outcome = engine4_l9.search(perm.word)
            assert outcome.size == bench.optimal_size, bench.name
            assert outcome.circuit.implements(perm)

    def test_sizes_match_between_engines(self, engine4_l7, engine4_l9):
        """Two engines with different (k, m) splits agree on sizes.

        Query functions are drawn as random 7-gate circuits so their
        sizes are guaranteed within both engines' reach (uniform random
        permutations almost surely exceed L = 7).
        """
        from repro.rng.mt19937 import MersenneTwister
        from repro.rng.sampling import random_circuit

        rng = MersenneTwister(31)
        for _ in range(15):
            word = random_circuit(4, 7, rng).to_word()
            assert engine4_l7.size_of(word) == engine4_l9.size_of(word)

    def test_minimality_against_reference_bfs(self, engine4_l7):
        """Every size-5..7 result is confirmed minimal by independent
        exhaustive BFS levels (via list membership)."""
        # A function on list A_i has size exactly i; the search must agree.
        for i, candidates in enumerate(engine4_l7.lists, start=1):
            for word in candidates[:: max(1, len(candidates) // 10)][:10].tolist():
                assert engine4_l7.size_of(word) == i

    def test_search_statistics(self, engine4_l7):
        from repro.benchmarks_data import get_benchmark

        outcome = engine4_l7.search(get_benchmark("4bit-7-8").permutation().word)
        assert outcome.size == 7
        assert outcome.lists_scanned == 3  # needed A_3 (7 = 4 + 3)
        assert outcome.candidates_tested > 0

    def test_fast_path_statistics(self, engine4_l7):
        outcome = engine4_l7.search(packed.identity(4))
        assert outcome.size == 0
        assert outcome.lists_scanned == 0
        assert outcome.candidates_tested == 0


class TestSearchProperties:
    """Property-based invariants of the optimal search."""

    def test_size_never_exceeds_any_circuit_length(self, engine4_l7):
        """For any circuit C, size(function(C)) <= |C| and the returned
        circuit implements the same function (hypothesis over gates)."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.core.circuit import Circuit
        from repro.core.gates import all_gates

        @given(gates=st.lists(st.sampled_from(all_gates(4)), max_size=6))
        @settings(deadline=None, max_examples=40)
        def run(gates):
            circuit = Circuit.from_gates(gates, 4)
            word = circuit.to_word()
            outcome = engine4_l7.search(word)
            assert outcome.size <= circuit.gate_count
            assert outcome.circuit.to_word() == word

        run()

    def test_size_is_invariant_under_inversion(self, engine4_l7):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.core.circuit import Circuit
        from repro.core.gates import all_gates

        @given(gates=st.lists(st.sampled_from(all_gates(4)), max_size=6))
        @settings(deadline=None, max_examples=25)
        def run(gates):
            word = Circuit.from_gates(gates, 4).to_word()
            assert engine4_l7.size_of(word) == engine4_l7.size_of(
                packed.inverse(word, 4)
            )

        run()

    def test_subadditivity(self, engine4_l7):
        """size(f·g) <= size(f) + size(g) (concatenate the circuits)."""
        from repro.rng.mt19937 import MersenneTwister
        from repro.rng.sampling import random_circuit

        rng = MersenneTwister(17)
        for _ in range(10):
            f = random_circuit(4, 3, rng).to_word()
            g = random_circuit(4, 3, rng).to_word()
            combined = packed.compose(f, g, 4)
            assert engine4_l7.size_of(combined) <= engine4_l7.size_of(
                f
            ) + engine4_l7.size_of(g)


class TestBounds:
    def test_size_limit_exceeded_carries_bound(self, engine4_l7):
        from repro.benchmarks_data import get_benchmark

        hwb4 = get_benchmark("hwb4").permutation()  # size 11 > 7
        with pytest.raises(SizeLimitExceededError) as excinfo:
            engine4_l7.size_of(hwb4.word)
        assert excinfo.value.lower_bound == 8

    def test_prove_lower_bound(self, engine4_l7):
        from repro.benchmarks_data import get_benchmark

        hwb4 = get_benchmark("hwb4").permutation()
        assert engine4_l7.prove_lower_bound(hwb4.word) == 8
        rd32 = get_benchmark("rd32").permutation()
        assert engine4_l7.prove_lower_bound(rd32.word) == 4

    def test_max_size(self, engine4_l7, engine4_l9, engine3):
        assert engine4_l7.max_size == 7
        assert engine4_l9.max_size == 9
        assert engine3.max_size == 12


class TestListConstruction:
    def test_list_sizes_match_table4(self, db4_k4):
        lists = MeetInTheMiddleSearch.build_lists(db4_k4, 3)
        assert [len(lst) for lst in lists] == [32, 784, 16204]

    def test_lists_are_inverse_closed(self, db4_k4):
        lists = MeetInTheMiddleSearch.build_lists(db4_k4, 2)
        for lst in lists:
            members = set(lst.tolist())
            for word in members:
                assert packed.inverse(word, 4) in members

    def test_lists_depth_capped_by_k(self, db4_k4):
        with pytest.raises(ValueError):
            MeetInTheMiddleSearch.build_lists(db4_k4, 5)

    def test_list_dtype_validated(self, db4_k4):
        import numpy as np

        with pytest.raises(TypeError):
            MeetInTheMiddleSearch(db4_k4, [np.array([1.0])])
