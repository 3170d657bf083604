"""Rendezvous (highest-random-weight) routing over the canonical keyspace.

Each request is routed by the *canonical representative* of its
specification (the Section 3.2 symmetry key), so all <= 48 members of an
equivalence class land on the same shard and share one result-cache
partition.  Rendezvous hashing gives the two properties the cluster
needs with no virtual-node bookkeeping:

* **Balance** -- each of N shards owns ~1/N of the keyspace, because
  the per-(key, member) scores are independent 64-bit hashes.
* **Minimal disruption** -- removing a member re-routes only the keys
  it owned; adding one steals ~1/(N+1) of each survivor's slice.
  Nothing else moves, which is what makes live join/leave cheap.

Ownership is an *affinity*, not a capability: every shard maps the same
complete read-only ``.rdb`` store (shared physical pages, see
``docs/DATABASE.md``), so any shard can answer any query exactly.
Failover re-routing therefore returns exact answers; degraded
(upper-bound) answers happen only when no live shard is reachable.

The scores mix :func:`repro.hashing.wang.hash64shift` -- the same
Thomas Wang finalizer the database's hash table uses (Table 2) -- over
the key and a per-member seed derived from the shard id, so routing is
deterministic across processes and runs (no ``PYTHONHASHSEED``
dependence).

Every membership change bumps the ring *epoch*; the router surfaces it
in ``health``/``stats``/``shards`` rollups so operators (and the chaos
tests) can see exactly when the routing table moved.
"""

from __future__ import annotations

import hashlib
import threading

import numpy as np

from repro.hashing.wang import MASK64, hash64shift, hash64shift_np

#: Odd multiplicative constant (2^64 / golden ratio) spreading the key
#: before the Wang finalizer; keys are canonical representatives, which
#: are far from uniform in the low bits.
_SPREAD = 0x9E3779B97F4A7C15


def member_seed(member: str) -> int:
    """A stable 64-bit seed for a member id.

    Uses blake2b rather than ``hash()`` so routing is identical in
    every process regardless of interpreter hash randomization.
    """
    digest = hashlib.blake2b(member.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def rendezvous_score(key: int, seed: int) -> int:
    """The HRW weight of ``key`` on the member with ``seed``."""
    return hash64shift((key * _SPREAD ^ seed) & MASK64)


class HashRing:
    """Thread-safe rendezvous-hash routing table with an epoch counter.

    Members are shard ids (strings).  ``owner(key)`` is the member with
    the highest rendezvous score for the key; ``preference(key)`` ranks
    every member by descending score (ties broken by id), which is the
    failover order the router walks when the owner is unreachable.
    """

    def __init__(self, members=()) -> None:
        self._lock = threading.Lock()
        self._seeds: "dict[str, int]" = {}
        self._epoch = 0
        for member in members:
            self.add(member)

    @property
    def epoch(self) -> int:
        """Bumped on every successful add/remove."""
        with self._lock:
            return self._epoch

    @property
    def members(self) -> "tuple[str, ...]":
        with self._lock:
            return tuple(sorted(self._seeds))

    def __len__(self) -> int:
        with self._lock:
            return len(self._seeds)

    def __contains__(self, member: str) -> bool:
        with self._lock:
            return member in self._seeds

    def add(self, member: str) -> bool:
        """Add a member; True when the ring changed (epoch bumped)."""
        with self._lock:
            if member in self._seeds:
                return False
            self._seeds[member] = member_seed(member)
            self._epoch += 1
            return True

    def remove(self, member: str) -> bool:
        """Remove a member; True when the ring changed (epoch bumped)."""
        with self._lock:
            if member not in self._seeds:
                return False
            del self._seeds[member]
            self._epoch += 1
            return True

    def owner(self, key: int) -> "str | None":
        """The member owning ``key`` (None on an empty ring)."""
        with self._lock:
            best = None
            best_score = -1
            for member, seed in self._seeds.items():
                score = rendezvous_score(key, seed)
                if score > best_score or (
                    score == best_score and (best is None or member < best)
                ):
                    best, best_score = member, score
            return best

    def owners(self, keys) -> "list[str | None]":
        """``[owner(key) for key in keys]`` in one vectorized pass: each
        member's scores for the whole batch are one ``hash64shift_np``
        call, and ties go to the smallest id as in :meth:`owner`."""
        keys = np.asarray(keys, dtype=np.uint64).reshape(-1)
        with self._lock:
            members = sorted(self._seeds.items())
        if not members:
            return [None] * keys.shape[0]
        spread = keys * np.uint64(_SPREAD)
        scores = np.stack([
            hash64shift_np(spread ^ np.uint64(seed)) for _, seed in members
        ])
        names = [member for member, _ in members]
        return [names[index] for index in scores.argmax(axis=0).tolist()]

    def preference(self, key: int) -> "list[str]":
        """All members ranked by descending score: the failover order."""
        with self._lock:
            items = list(self._seeds.items())
        ranked = sorted(
            items,
            key=lambda item: (-rendezvous_score(key, item[1]), item[0]),
        )
        return [member for member, _ in ranked]

    def spread(self, keys) -> "dict[str, int]":
        """How many of ``keys`` each member owns (balance diagnostics)."""
        counts: "dict[str, int]" = {member: 0 for member in self.members}
        for owner in self.owners(list(keys)):
            if owner is not None:
                counts[owner] += 1
        return counts


__all__ = ["HashRing", "member_seed", "rendezvous_score"]
