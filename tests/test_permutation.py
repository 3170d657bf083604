"""Tests for the Permutation value type."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.permutation import Permutation
from repro.errors import InvalidPermutationError

perms4 = st.permutations(list(range(16))).map(Permutation.from_values)
perms3 = st.permutations(list(range(8))).map(Permutation.from_values)


class TestConstruction:
    def test_identity(self):
        identity = Permutation.identity(4)
        assert identity.is_identity()
        assert identity.values == tuple(range(16))

    def test_from_spec(self):
        perm = Permutation.from_spec("[0,2,1,3]")
        assert perm.n_wires == 2
        assert perm(1) == 2

    def test_coerce_accepts_everything(self):
        reference = Permutation.from_values([0, 2, 1, 3])
        assert Permutation.coerce(reference) is reference
        assert Permutation.coerce("[0,2,1,3]") == reference
        assert Permutation.coerce([0, 2, 1, 3]) == reference
        assert Permutation.coerce(reference.word, 2) == reference

    def test_coerce_word_needs_width(self):
        with pytest.raises(InvalidPermutationError):
            Permutation.coerce(0x3210)

    def test_invalid_word_rejected(self):
        with pytest.raises(InvalidPermutationError):
            Permutation(0xFFFF, 2)

    def test_random_is_valid(self, rng):
        for _ in range(20):
            perm = Permutation.random(4, rng)
            assert sorted(perm.values) == list(range(16))


#: Bad specs from across the suite, with the exact error each raises.
BAD_SPECS = [
    ("[]", "no values found in spec: '[]'"),
    ("[broken", "no values found in spec: '[broken'"),
    ("[nope", "no values found in spec: '[nope'"),
    ("not a spec at all []", "no values found in spec: 'not a spec at all []'"),
    ("[0,1,2]", "spec length must be a power of two >= 2, got 3"),
    ("[0,0,1]", "spec length must be a power of two >= 2, got 3"),
    ("[1,2,3]", "spec length must be a power of two >= 2, got 3"),
    ("[0]", "spec length must be a power of two >= 2, got 1"),
    ("[0,1,2,3,4]", "spec length must be a power of two >= 2, got 5"),
    ("[0,0,1,2]", "spec is not a permutation of 0..3: [0, 0, 1, 2]"),
    ("[-1,0]", "spec is not a permutation of 0..1: [-1, 0]"),
    ("[0,1,2,16]", "spec is not a permutation of 0..3: [0, 1, 2, 16]"),
    (
        str(list(range(1, 17))),
        f"spec is not a permutation of 0..15: {list(range(1, 17))!r}",
    ),
    (str(list(range(32))), "length must be 2, 4, 8 or 16 (a power of two), got 32"),
]


class TestSpecValidation:
    @pytest.mark.parametrize("text, message", BAD_SPECS)
    def test_bad_spec_errors_are_unchanged(self, text, message):
        with pytest.raises(InvalidPermutationError) as excinfo:
            Permutation.from_spec(text)
        assert str(excinfo.value) == message
        with pytest.raises(InvalidPermutationError) as excinfo:
            Permutation.coerce(text, 4)
        assert str(excinfo.value) == message

    def test_float_list_error_is_unchanged(self):
        values = [1.0, 0.0] + [float(v) for v in range(2, 16)]
        with pytest.raises(TypeError) as excinfo:
            Permutation.coerce(values, 4)
        assert str(excinfo.value) == "unsupported operand type(s) for <<: 'float' and 'int'"

    def test_spec_is_checked_once(self, monkeypatch):
        from repro.core import packed
        from repro.core import spec as spec_mod

        calls = []
        for module, name in (
            (spec_mod, "validate_spec"), (packed, "is_valid"), (packed, "pack"),
        ):
            real = getattr(module, name)
            monkeypatch.setattr(
                module, name,
                lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args),
            )
        perm = Permutation.from_spec("[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,0]")
        assert calls == ["validate_spec"]
        assert perm == Permutation(perm.word, 4)


class TestAlgebra:
    @given(perms4)
    def test_inverse(self, perm):
        assert perm.then(perm.inverse()).is_identity()
        assert perm.inverse().inverse() == perm

    @given(perms4, perms4)
    def test_then_order(self, p, q):
        composed = p.then(q)
        for x in range(16):
            assert composed(x) == q(p(x))

    @given(perms4, perms4)
    def test_compose_after_is_mathematical_composition(self, p, q):
        assert p.compose_after(q) == q.then(p)

    def test_width_mismatch(self):
        with pytest.raises(InvalidPermutationError):
            Permutation.identity(4).then(Permutation.identity(3))

    @given(perms4)
    def test_order_annihilates(self, perm):
        power = Permutation.identity(4)
        for _ in range(perm.order()):
            power = power.then(perm)
        assert power.is_identity()

    def test_call_range_check(self):
        with pytest.raises(InvalidPermutationError):
            Permutation.identity(4)(16)


class TestEquivalence:
    @given(perms4)
    def test_canonical_minimal(self, perm):
        members = perm.equivalence_class()
        assert perm.canonical() == members[0]
        assert perm.canonical().is_canonical()
        assert len(members) == perm.class_size()

    @given(perms4)
    def test_conjugate_stays_in_class(self, perm):
        conjugate = perm.conjugate((1, 0, 3, 2))
        assert conjugate.canonical() == perm.canonical()

    @given(perms3)
    def test_n3_class_size_bounds(self, perm):
        assert 1 <= perm.class_size() <= 12


class TestStructure:
    def test_fixed_points(self):
        perm = Permutation.from_values([0, 1, 3, 2])
        assert perm.fixed_points() == [0, 1]

    def test_parity_matches_spec_module(self):
        from repro.core.spec import parity

        perm = Permutation.from_spec("[1,0,2,3]")
        assert perm.parity() == parity([1, 0, 2, 3]) == 1

    def test_is_affine_linear(self):
        # NOT(a) is affine but not strictly linear.
        not_a = Permutation.from_values([x ^ 1 for x in range(16)])
        assert not_a.is_affine()
        assert not not_a.is_linear()
        # CNOT(a,b) is strictly linear.
        cnot = Permutation.from_values([x ^ ((x & 1) << 1) for x in range(16)])
        assert cnot.is_linear() and cnot.is_affine()
        # TOF is not affine.
        tof = Permutation.from_values(
            [x ^ (((x & 1) & ((x >> 1) & 1)) << 2) for x in range(16)]
        )
        assert not tof.is_affine()

    def test_spec_string_roundtrip(self):
        perm = Permutation.from_spec("[0,2,4,12,8,5,9,11,1,6,10,13,3,14,7,15]")
        assert Permutation.from_spec(perm.spec()) == perm
        assert "hwb" not in repr(perm)  # repr is the spec, not a name
