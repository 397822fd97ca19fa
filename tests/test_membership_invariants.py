"""Churn invariants of the incremental membership index.

The :class:`~repro.index.membership.MembershipIndex` replaces the facade's
O(peers) rescans with sets maintained by ring state/value hooks and failure
hooks.  These tests drive a deployment through a randomized churn schedule --
joins, item inserts (splits), item deletes (merges and leaves), fail-stop
failures -- and after *every* step assert that

* the incremental live/free/ring-member sets equal a from-scratch rescan of
  every peer ever created,
* the ring-member view is strictly sorted by ``(ring value, address)`` and
  equals a fresh sort of the rescan (``ring_members()`` keeps its list
  between membership changes),
* no failed peer is ever reported as a ring member.

A second group pins down :meth:`PRingIndex.peer_for_key` at the ring
boundaries (below the smallest ring value, above the largest, exactly on a
member's value, single-member ring) against the new sorted view.
"""

from __future__ import annotations

import random

import pytest

from repro import PRingIndex, default_config

CHURN_STEPS = 500


# --------------------------------------------------------------------------- helpers
def rescan(index: PRingIndex):
    """The ground truth the incremental index must match: scan every peer."""
    live = {a: p for a, p in index.peers.items() if p.alive}
    members = {a: p for a, p in live.items() if p.in_ring}
    free = {a: p for a, p in live.items() if p.is_free}
    return live, members, free


def assert_membership_consistent(index: PRingIndex, context: str = "") -> None:
    live, members, free = rescan(index)
    got_live = index.live_peers()
    got_members = index.ring_members()
    got_free = index.free_peers()
    assert {p.address for p in got_live} == set(live), f"live set diverged {context}"
    assert {p.address for p in got_members} == set(members), (
        f"ring-member set diverged {context}"
    )
    assert {p.address for p in got_free} == set(free), f"free set diverged {context}"
    # Counts must come from the same bookkeeping (no duplicates hiding in sets).
    assert len(got_live) == len(live)
    assert len(got_members) == len(members)
    assert len(got_free) == len(free)
    # The sorted view: strictly increasing (value, address) pairs, and the
    # kept list equals a fresh sort of the rescan.
    ordering = [(p.ring.value, p.address) for p in got_members]
    assert all(a < b for a, b in zip(ordering, ordering[1:])), (
        f"ring-value ordering not strictly sorted {context}: {ordering}"
    )
    rescanned = sorted(members.values(), key=lambda p: (p.ring.value, p.address))
    assert got_members == rescanned, f"kept ring-member list is stale {context}"
    # Each call returns a copy: a caller's edit never reaches the next call.
    got_members.clear()
    assert index.ring_members() == rescanned
    # A failed peer must never be reported as a ring member.
    assert all(p.alive for p in got_members), f"failed peer among members {context}"
    assert all(p.alive for p in got_free), f"failed peer among free peers {context}"


def build_index(seed: int, free_peers: int = 0) -> PRingIndex:
    """Bootstrap plus ``free_peers`` waiting peers (splits pull them into the ring)."""
    config = default_config(seed=seed).with_pepper_protocols()
    index = PRingIndex(config)
    index.bootstrap()
    for _ in range(free_peers):
        index.add_peer()
    return index


# --------------------------------------------------------------------------- randomized churn
def test_membership_index_matches_rescan_under_randomized_churn():
    """The acceptance schedule: 500 randomized join/insert/delete/fail steps."""
    index = build_index(seed=61)
    rng = random.Random(0xC0FFEE)
    next_key = iter(range(1, 100_000))
    inserted: list = []

    for step in range(CHURN_STEPS):
        roll = rng.random()
        if roll < 0.20:
            index.add_peer()
        elif roll < 0.55:
            key = (next(next_key) * 7.3) % index.config.key_space
            if index.insert_item_now(key):
                inserted.append(key)
        elif roll < 0.70 and inserted:
            victim_key = inserted.pop(rng.randrange(len(inserted)))
            index.delete_item_now(victim_key)
        elif roll < 0.80:
            members = index.ring_members()
            if len(members) > 3:
                index.fail_peer(rng.choice(members).address)
        index.run(rng.uniform(0.05, 0.4))
        assert_membership_consistent(index, context=f"after step {step}")

    # The schedule must actually have exercised the interesting transitions.
    assert index.history.count("peer_failed") > 0
    assert index.metrics.count("insert_succ") > 0


def test_membership_survives_merges_and_leaves():
    """Deleting most items forces underflows -> merges -> LEAVING/FREE transitions."""
    index = build_index(seed=62, free_peers=10)
    rng = random.Random(9)
    keys = [i * 97.0 % index.config.key_space for i in range(1, 60)]
    for key in keys:
        index.insert_item_now(key)
        index.run(0.2)
    index.run(20.0)
    assert_membership_consistent(index, "after build")
    before = len(index.ring_members())
    assert before > 2
    for key in rng.sample(keys, int(len(keys) * 0.8)):
        index.delete_item_now(key)
        index.run(0.5)
        assert_membership_consistent(index, f"after deleting {key}")
    index.run(30.0)
    assert_membership_consistent(index, "after merge settle")
    # Merged-away peers must have moved to the free set, not vanished.
    assert len(index.ring_members()) < before
    assert len(index.free_peers()) > 0


def test_membership_survives_correlated_failures():
    index = build_index(seed=63, free_peers=12)
    for i in range(1, 80):
        index.insert_item_now(i * 127.0 % index.config.key_space)
    index.run(25.0)
    assert_membership_consistent(index, "after build")
    members = index.ring_members()
    assert len(members) > 5
    for victim in members[2:5]:  # ring-adjacent victims: the hard case
        index.fail_peer(victim.address)
        assert_membership_consistent(index, f"right after failing {victim.address}")
    index.run(40.0)
    assert_membership_consistent(index, "after repair settle")


# --------------------------------------------------------------------------- peer_for_key boundaries
@pytest.fixture(scope="module")
def settled_index():
    index = build_index(seed=64, free_peers=10)
    for i in range(1, 70):
        index.insert_item_now(i * 139.0 % index.config.key_space)
    index.run(30.0)
    assert len(index.ring_members()) >= 4
    return index


def test_peer_for_key_below_smallest_value_wraps_to_first_member(settled_index):
    members = settled_index.ring_members()
    smallest = members[0]
    key = smallest.ring.value / 2.0
    owner = settled_index.peer_for_key(key)
    assert owner is smallest
    assert owner.store.owns_key(key)


def test_peer_for_key_above_largest_value_wraps_to_first_member():
    # The bootstrap peer owns value == key_space (the domain maximum), so "a
    # key above the largest ring value" only exists after that peer fails and
    # the ring repairs around the gap.
    index = build_index(seed=67, free_peers=10)
    for i in range(1, 70):
        index.insert_item_now(i * 151.0 % index.config.key_space)
    index.run(30.0)
    members = index.ring_members()
    assert members[-1].ring.value == index.config.key_space
    index.fail_peer(members[-1].address)
    index.run(40.0)  # failure detection + replica revival
    members = index.ring_members()
    largest = members[-1]
    assert largest.ring.value < index.config.key_space
    key = (largest.ring.value + index.config.key_space) / 2.0
    assert key > largest.ring.value
    owner = index.peer_for_key(key)
    # The wrap-around arm (largest, smallest] belongs to the smallest-value peer.
    assert owner is members[0]
    assert owner.store.owns_key(key)


def test_peer_for_key_exactly_on_a_ring_value_is_inclusive(settled_index):
    # Ranges are (pred.value, own.value]: a key equal to a member's ring value
    # belongs to that member, not its successor.
    for member in settled_index.ring_members():
        owner = settled_index.peer_for_key(member.ring.value)
        assert owner is member


def test_peer_for_key_between_two_members_picks_the_upper(settled_index):
    members = settled_index.ring_members()
    lower, upper = members[1], members[2]
    key = (lower.ring.value + upper.ring.value) / 2.0
    owner = settled_index.peer_for_key(key)
    assert owner is upper


def test_peer_for_key_single_member_ring_owns_everything():
    index = build_index(seed=65)
    only = index.ring_members()[0]
    for key in (0.0, 1.0, index.config.key_space / 2, index.config.key_space):
        assert index.peer_for_key(key) is only


def test_peer_for_key_no_members_returns_none():
    index = PRingIndex(default_config(seed=66))
    assert index.peer_for_key(1.0) is None
