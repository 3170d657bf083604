"""Tests for spec parsing/formatting."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import packed
from repro.core import spec as spec_mod
from repro.errors import InvalidPermutationError


class TestParsing:
    def test_parse_bracketed(self):
        assert spec_mod.parse_spec("[0, 2, 1, 3]") == [0, 2, 1, 3]

    def test_parse_bare(self):
        assert spec_mod.parse_spec("3 1 2 0") == [3, 1, 2, 0]

    def test_parse_paper_style(self):
        values = spec_mod.parse_spec(
            "[15,1,12,3,5,6,8,7,0,10,13,9,2,4,14,11]"
        )
        assert len(values) == 16 and values[0] == 15

    def test_parse_rejects_empty(self):
        with pytest.raises(InvalidPermutationError):
            spec_mod.parse_spec("[]")

    def test_parse_rejects_non_permutation(self):
        with pytest.raises(InvalidPermutationError):
            spec_mod.parse_spec("[0,0,1,2]")

    def test_parse_rejects_bad_length(self):
        with pytest.raises(InvalidPermutationError):
            spec_mod.parse_spec("[0,1,2]")

    @given(st.permutations(list(range(16))))
    def test_format_parse_roundtrip(self, values):
        assert spec_mod.parse_spec(spec_mod.format_spec(values)) == list(values)


class TestWordConversion:
    @given(st.permutations(list(range(8))))
    def test_word_roundtrip_n3(self, values):
        word, n_wires = spec_mod.spec_to_word(values)
        assert n_wires == 3
        assert spec_mod.word_to_spec(word, 3) == list(values)


class TestSpecWords:
    """The vectorized parse agrees with the scalar one, or defers to it."""

    def test_matches_scalar_parse(self):
        import random

        from repro.core.permutation import Permutation

        rng = random.Random(16)
        specs = []
        for _ in range(200):
            values = list(range(16))
            rng.shuffle(values)
            specs.append(spec_mod.format_spec(values))
        specs += [
            "[0,0,1,2,3,4,5,6,7,8,9,10,11,12,13,14]",  # repeated value
            "[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16]",  # out of range
            "[" + ",".join(["99999999999999999999"] * 16) + "]",
            "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]",
            "[0,1,2,3,4,5,6,7]",  # another width
            "[]", "[broken", [1, 0, 2, 3], 7, None,
        ]
        words = spec_mod.spec_words(specs, 4).tolist()
        for spec, word in zip(specs[:200], words):
            assert word == Permutation.coerce(spec, 4).word
        assert words[200:] == [0] * (len(specs) - 200)

    def test_no_specs(self):
        assert spec_mod.spec_words([], 4).tolist() == []

    @pytest.mark.parametrize("bad", [
        "[1,,2,3,4,5,6,7,8,9,10,11,12,13,14,15]",  # an empty value
        "[,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15]",  # empty first value
        "[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,]",  # empty last value
        "[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,,]",
    ])
    def test_an_empty_value_defers_only_its_spec(self, bad):
        valid = spec_mod.format_spec(range(16))
        assert spec_mod.spec_words([bad], 4).tolist() == [0]
        identity = packed.identity(4)
        assert spec_mod.spec_words([valid, bad], 4).tolist() == [identity, 0]
        assert spec_mod.spec_words([bad, valid, bad], 4).tolist() == [0, identity, 0]

    def test_a_short_numpy_read_defers_the_whole_call(self, monkeypatch):
        """Some numpy versions stop at a malformed value and return what
        they read so far; a count that is still a multiple of 2**n must
        not misalign the words with their specs."""
        real = np.fromstring

        def short_read(text, dtype, sep):
            return real(text, dtype=dtype, sep=sep)[:16]

        monkeypatch.setattr(np, "fromstring", short_read)
        specs = [spec_mod.format_spec(range(16)), spec_mod.format_spec(range(15, -1, -1))]
        assert spec_mod.spec_words(specs, 4).tolist() == [0, 0]


class TestCycles:
    def test_identity_has_no_cycles(self):
        assert spec_mod.cycles(list(range(16))) == []

    def test_transposition(self):
        assert spec_mod.cycles([1, 0, 2, 3]) == [(0, 1)]

    def test_full_cycle(self):
        values = [1, 2, 3, 0]
        assert spec_mod.cycles(values) == [(0, 1, 2, 3)]

    @given(st.permutations(list(range(16))))
    def test_cycles_partition_non_fixed_points(self, values):
        cycles = spec_mod.cycles(list(values))
        touched = [x for cycle in cycles for x in cycle]
        assert len(touched) == len(set(touched))
        fixed = {x for x in range(16) if values[x] == x}
        assert set(touched) | fixed == set(range(16))


class TestParity:
    def test_identity_even(self):
        assert spec_mod.parity(list(range(16))) == 0

    def test_single_transposition_odd(self):
        assert spec_mod.parity([1, 0] + list(range(2, 16))) == 1

    def test_gate_parities(self):
        """NOT/CNOT/TOF are even permutations of 16 states; TOF4 is odd."""
        from repro.core.gates import CNOT, NOT, TOF, TOF4
        from repro.core import packed

        for gate, expected in [
            (NOT(0), 0),
            (CNOT(0, 1), 0),
            (TOF(0, 1, 2), 0),
            (TOF4(0, 1, 2, 3), 1),
        ]:
            values = list(packed.unpack(gate.to_word(4), 4))
            assert spec_mod.parity(values) == expected

    @given(st.permutations(list(range(16))), st.permutations(list(range(16))))
    def test_parity_is_homomorphism(self, p, q):
        composed = [q[p[i]] for i in range(16)]
        assert spec_mod.parity(composed) == (
            spec_mod.parity(list(p)) ^ spec_mod.parity(list(q))
        )


def test_truth_table_lines():
    lines = spec_mod.truth_table_lines([0, 2, 1, 3])
    assert lines[0] == "0 0 -> 0 0"
    assert lines[1] == "1 0 -> 0 1"
    assert len(lines) == 4
