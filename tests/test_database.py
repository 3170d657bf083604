"""Tests for OptimalDatabase: lookups, persistence, peeling."""

import struct

import numpy as np
import pytest

from repro.core import equivalence, packed
from repro.errors import DatabaseError
from repro.store import HEADER_SIZE, write_rdb
from repro.synth.bfs import nct_steps, packed_compose, peel
from repro.synth.database import OptimalDatabase


class TestLookups:
    def test_identity_size_zero(self, db4_k4):
        assert db4_k4.size_of(packed.identity(4)) == 0

    def test_gate_size_one(self, db4_k4):
        from repro.core.gates import gate_words

        for word in gate_words(4):
            assert db4_k4.size_of(word) == 1

    def test_size_lookup_entire_class(self, db4_k4, rng):
        """Every member of a class gets the class size."""
        for _ in range(10):
            reps = db4_k4.reps_by_size[3]
            word = int(reps[rng.randrange(len(reps))])
            for member in equivalence.equivalence_class(word, 4):
                assert db4_k4.size_of(member) == 3

    def test_missing_beyond_k(self, db4_k4):
        from repro.benchmarks_data import get_benchmark

        hwb4 = get_benchmark("hwb4").permutation()  # size 11 > 4
        assert db4_k4.size_of(hwb4.word) is None
        assert hwb4.word not in db4_k4

    def test_sizes_batch(self, db4_k4):
        words = np.concatenate(
            [db4_k4.reps_by_size[2][:10], db4_k4.reps_by_size[4][:10]]
        )
        sizes = db4_k4.sizes_batch(words, assume_canonical=True)
        assert sizes[:10].tolist() == [2] * 10
        assert sizes[10:].tolist() == [4] * 10

    def test_sizes_batch_canonicalizes_by_default(self, db4_k4, rng):
        word = int(db4_k4.reps_by_size[3][7])
        member = sorted(equivalence.equivalence_class(word, 4))[-1]
        sizes = db4_k4.sizes_batch(np.array([member], dtype=np.uint64))
        assert sizes.tolist() == [3]

    def test_sizes_batch_assume_canonical_missing_is_255(self, db4_k4):
        """Canonical words of absent classes come back as MISSING = 255."""
        from repro.benchmarks_data import get_benchmark

        hwb4 = get_benchmark("hwb4").permutation()  # size 11 > k = 4
        canon = equivalence.canonical(hwb4.word, 4)
        present = int(db4_k4.reps_by_size[2][0])
        sizes = db4_k4.sizes_batch(
            np.array([canon, present], dtype=np.uint64), assume_canonical=True
        )
        assert db4_k4.MISSING == 255
        assert sizes.tolist() == [255, 2]
        assert sizes.dtype == np.uint8

    def test_sizes_batch_assume_canonical_skips_folding(self, db4_k4):
        """With assume_canonical=True a non-canonical member is NOT folded
        to its representative, so it reads as MISSING."""
        word = int(db4_k4.reps_by_size[3][7])
        member = sorted(equivalence.equivalence_class(word, 4))[-1]
        assert member != word  # genuinely non-canonical
        sizes = db4_k4.sizes_batch(
            np.array([member], dtype=np.uint64), assume_canonical=True
        )
        assert sizes.tolist() == [db4_k4.MISSING]

    def test_canonical_key_matches_equivalence(self, db4_k4, rng):
        reps = db4_k4.reps_by_size[3]
        word = int(reps[rng.randrange(len(reps))])
        for member in equivalence.equivalence_class(word, 4):
            assert db4_k4.canonical_key(member) == word

    def test_lookup_with_keys(self, db4_k4):
        word = int(db4_k4.reps_by_size[3][1])
        members = sorted(equivalence.equivalence_class(word, 4))
        keys, sizes = db4_k4.lookup_with_keys(
            np.array(members, dtype=np.uint64)
        )
        assert set(keys.tolist()) == {word}
        assert set(sizes.tolist()) == {3}


class TestPersistence:
    """Persistence is the ``.rdb`` store: :func:`write_rdb` saves,
    :meth:`OptimalDatabase.map` loads, and the "meta" record is the
    store header.  Every failure is a DatabaseError naming the path."""

    @staticmethod
    def _patched(db, path, offset, value):
        """``db`` written to ``path`` with one header uint32 replaced."""
        write_rdb(db, path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, offset, value)
        path.write_bytes(bytes(raw))
        return path

    def test_save_load_roundtrip(self, db4_k4, tmp_path):
        path = write_rdb(db4_k4, tmp_path / "db.rdb")
        loaded = OptimalDatabase.map(path)
        assert loaded.n_wires == 4 and loaded.k == 4
        assert loaded.reduced_counts() == db4_k4.reduced_counts()
        for a, b in zip(loaded.reps_by_size, db4_k4.reps_by_size):
            assert np.array_equal(a, b)
        assert loaded.size_of(packed.identity(4)) == 0

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(DatabaseError, match="nope.rdb"):
            OptimalDatabase.map(tmp_path / "nope.rdb")

    def test_save_creates_directories(self, db4_k4, tmp_path):
        path = tmp_path / "deep" / "nested" / "db.rdb"
        write_rdb(db4_k4, path)
        assert path.exists()

    def test_load_not_an_archive(self, tmp_path):
        path = tmp_path / "garbage.rdb"
        path.write_bytes(b"this is not a database store" * 200)
        with pytest.raises(DatabaseError, match="garbage.rdb"):
            OptimalDatabase.map(path)

    def test_load_truncated_zip(self, db4_k4, tmp_path):
        """A legacy .npz archive, cut off mid-file, raises DatabaseError
        naming the path, not a raw zipfile.BadZipFile."""
        path = tmp_path / "cut.npz"
        np.savez_compressed(path, reps_0=db4_k4.reps_by_size[0])
        path.write_bytes(path.read_bytes()[:200])
        with pytest.raises(DatabaseError, match="cut.npz"):
            OptimalDatabase.map(path)

    def test_load_missing_meta(self, db4_k4, tmp_path):
        path = write_rdb(db4_k4, tmp_path / "no_meta.rdb")
        raw = path.read_bytes()
        path.write_bytes(bytes(HEADER_SIZE) + raw[HEADER_SIZE:])
        with pytest.raises(DatabaseError, match="no_meta.rdb.*bad magic"):
            OptimalDatabase.map(path)

    def test_load_malformed_meta(self, db4_k4, tmp_path):
        path = self._patched(db4_k4, tmp_path / "bad_meta.rdb", 12, 64)
        with pytest.raises(DatabaseError, match="header_size"):
            OptimalDatabase.map(path)

    def test_load_invalid_meta_values(self, db4_k4, tmp_path):
        path = self._patched(db4_k4, tmp_path / "bad_values.rdb", 16, 9)
        with pytest.raises(DatabaseError, match="invalid n_wires=9"):
            OptimalDatabase.map(path)

    def test_load_truncated_reps(self, db4_k4, tmp_path):
        """A store cut off inside the representative arrays names the
        path and the length its header requires."""
        path = write_rdb(db4_k4, tmp_path / "truncated.rdb")
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DatabaseError) as excinfo:
            OptimalDatabase.map(path)
        assert "requires" in str(excinfo.value)
        assert "truncated.rdb" in str(excinfo.value)

    def test_from_reps_empty_rejected(self):
        with pytest.raises(DatabaseError, match="empty"):
            OptimalDatabase.from_reps(4, 0, [])
        with pytest.raises(DatabaseError, match="empty"):
            OptimalDatabase.from_reps(
                4, 1, [np.array([], dtype=np.uint64)] * 2
            )


class TestPeeling:
    """The core peel (:func:`repro.synth.bfs.peel`) over the NCT steps,
    one word per call."""

    @staticmethod
    def _peel(db, word, size):
        [gates] = peel(
            np.array([word], dtype=np.uint64),
            [size],
            nct_steps(4),
            db.sizes_batch,
            packed_compose(4),
        )
        return gates

    def test_peel_last_gate_reduces_size(self, db4_k4, rng):
        for size in (2, 3, 4):
            reps = db4_k4.reps_by_size[size]
            for _ in range(5):
                word = int(reps[rng.randrange(len(reps))])
                gates = self._peel(db4_k4, word, size)
                assert len(gates) == size
                gate = gates[-1]
                rest = packed.compose(word, gate.to_word(4), 4)
                assert db4_k4.size_of(rest) == size - 1
                # Appending the gate back reproduces the function.
                assert packed.compose(rest, gate.to_word(4), 4) == word

    def test_peel_inconsistent_raises(self, db4_k4):
        from repro.benchmarks_data import get_benchmark

        word = get_benchmark("hwb4").permutation().word
        with pytest.raises(DatabaseError):
            self._peel(db4_k4, word, 1)

    def test_peel_inconsistent_message_names_word(self, db4_k4):
        """The inconsistency error identifies the offending word and size."""
        from repro.benchmarks_data import get_benchmark

        word = get_benchmark("hwb4").permutation().word
        with pytest.raises(DatabaseError, match="inconsistent") as excinfo:
            self._peel(db4_k4, word, 1)
        assert f"{word:#x}" in str(excinfo.value)
        assert "size 1" in str(excinfo.value)

    def test_peel_wrong_claimed_size_raises(self, db4_k4):
        """Claiming size 1 for the identity (true size 0) needs a gate
        whose remainder has size 0, i.e. a gate equal to the identity:
        there is none."""
        identity = packed.identity(4)
        with pytest.raises(DatabaseError):
            self._peel(db4_k4, identity, 1)
