"""Incrementally maintained membership index for a simulated deployment.

The cluster facade used to answer ``ring_members()`` / ``free_peers()`` /
``peer_for_key()`` by rescanning every peer ever created -- O(peers) per call,
invoked from the churn scheduler, the figure sweeps and every metrics
snapshot.  Past ~1000 peers those scans dominate the harness.

:class:`MembershipIndex` replaces the scans with sets that are updated *at the
moment membership changes*:

* the ring layer notifies it on every ring **state transition**
  (FREE/JOINING/JOINED/INSERTING/LEAVING, see :mod:`repro.ring.entries`) and
  every ring **value change** (Data Store redistribution) through the
  ``membership`` hook on :class:`~repro.ring.chord.ChordRing`;
* the peer notifies it on failure / graceful departure
  (:meth:`IndexPeer.on_failed` / :meth:`IndexPeer.on_departed`).

Ring members are additionally kept in a list sorted by ``(ring value,
address)`` via :mod:`bisect`, so "members in ring order" and "the member
responsible for a key" are O(1) / O(log n) instead of a scan plus a sort.

Invariant (enforced by ``tests/test_membership_invariants.py`` after every
step of a randomized churn schedule): the incremental sets equal a
from-scratch rescan of all peers, the sorted view is strictly ordered, and no
failed peer is ever reported as a ring member.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.ring.entries import INSERTING, JOINED, JOINING, LEAVING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.index.peer import IndexPeer

# Ring states that make a live peer a ring member (mirrors ``ChordRing.is_joined``).
_MEMBER_STATES = frozenset((JOINED, INSERTING, LEAVING))

# Ring states of a peer mid-way through entering the ring (a join or a split's
# insert still in flight) -- what the phase executor's quiescence condition
# watches (:meth:`MembershipIndex.in_flight_count`).
_IN_FLIGHT_STATES = frozenset((JOINING, INSERTING))


class MembershipIndex:
    """Live/free/ring-member sets updated on join, split, leave and failure."""

    def __init__(self):
        # All three map address -> peer and preserve insertion order; a peer is
        # in exactly one of ``_free`` / ``_members`` while it is in ``_live``.
        self._live: Dict[str, "IndexPeer"] = {}
        self._free: Dict[str, "IndexPeer"] = {}
        self._members: Dict[str, "IndexPeer"] = {}
        # Ring members sorted by (ring value, address); ``_member_value``
        # remembers the value each sorted entry was filed under so a member can
        # be removed in O(log n) even while its value is being updated.
        self._sorted: List[tuple] = []
        self._member_value: Dict[str, float] = {}
        # ``ring_members()``'s list, built on first use after a change to
        # ``_sorted`` (every change to ``_members`` also changes ``_sorted``).
        self._ring: Optional[List["IndexPeer"]] = None
        # Quiescence bookkeeping: peers currently JOINING/INSERTING, plus a
        # monotonic stamp bumped on *every* membership change so "nothing
        # happened for T seconds" is one integer comparison per poll.
        self._in_flight: Dict[str, "IndexPeer"] = {}
        self.transition_count: int = 0

    # ------------------------------------------------------------------ update hooks
    def track(self, peer: "IndexPeer") -> None:
        """Start tracking a newly created peer and hook into its ring."""
        peer.ring.membership = self
        self.transition_count += 1
        if peer.ring.state in _IN_FLIGHT_STATES:
            self._in_flight[peer.address] = peer
        self._live[peer.address] = peer
        if peer.ring.state in _MEMBER_STATES:
            self._enter_ring(peer)
        else:
            self._free[peer.address] = peer

    def ring_state_changed(self, peer: "IndexPeer", old_state: str, new_state: str) -> None:
        """Ring layer hook: the peer's lifecycle state transitioned."""
        if peer.address not in self._live:
            return  # a failed peer's ring can no longer change its membership
        self.transition_count += 1
        if new_state in _IN_FLIGHT_STATES:
            self._in_flight[peer.address] = peer
        else:
            self._in_flight.pop(peer.address, None)
        was_member = old_state in _MEMBER_STATES
        is_member = new_state in _MEMBER_STATES
        if was_member == is_member:
            return
        if is_member:
            self._free.pop(peer.address, None)
            self._enter_ring(peer)
        else:
            self._leave_ring(peer.address)
            self._free[peer.address] = peer

    def ring_value_changed(self, peer: "IndexPeer", old_value: float, new_value: float) -> None:
        """Ring layer hook: the peer's ring value moved (redistribution)."""
        if peer.address not in self._members:
            return
        self._remove_sorted(peer.address)
        self._insert_sorted(peer.address, new_value)

    def peer_gone(self, peer: "IndexPeer") -> None:
        """The peer failed or departed: drop it from every set."""
        self.transition_count += 1
        self._live.pop(peer.address, None)
        self._free.pop(peer.address, None)
        self._in_flight.pop(peer.address, None)
        self._leave_ring(peer.address)

    def in_flight_count(self) -> int:
        """Live peers currently mid-way into the ring (JOINING/INSERTING).

        Together with :attr:`transition_count` this is the quiescence signal:
        a deployment is quiescent over a window when no peer was in flight and
        the stamp did not move for its whole length.
        """
        return len(self._in_flight)

    # ------------------------------------------------------------------ internals
    def _enter_ring(self, peer: "IndexPeer") -> None:
        self._members[peer.address] = peer
        self._insert_sorted(peer.address, peer.ring.value)

    def _leave_ring(self, address: str) -> None:
        if self._members.pop(address, None) is not None:
            self._remove_sorted(address)

    def _insert_sorted(self, address: str, value: float) -> None:
        bisect.insort(self._sorted, (value, address))
        self._member_value[address] = value
        self._ring = None

    def _remove_sorted(self, address: str) -> None:
        value = self._member_value.pop(address)
        index = bisect.bisect_left(self._sorted, (value, address))
        del self._sorted[index]
        self._ring = None

    # ------------------------------------------------------------------ queries
    def live_peers(self) -> List["IndexPeer"]:
        """All peers that have not failed (creation order)."""
        return list(self._live.values())

    def free_peers(self) -> List["IndexPeer"]:
        """All live peers currently outside the ring (creation order)."""
        return list(self._free.values())

    def ring_members(self) -> List["IndexPeer"]:
        """All live ring members, sorted by (ring value, address) (a copy)."""
        if self._ring is None:
            members = self._members
            self._ring = [members[address] for _value, address in self._sorted]
        return list(self._ring)

    def first_member(self) -> Optional["IndexPeer"]:
        """The longest-standing current ring member, or ``None``.

        Used as the default entry point for routed operations: the oldest
        member has the most-refreshed routing table (a freshly split-in peer
        has an empty one until its first refresh period elapses), so routing
        through it keeps hop counts at their steady-state level.
        """
        for peer in self._members.values():
            return peer
        return None

    def member_for_key(self, key: float) -> Optional["IndexPeer"]:
        """The member whose range ``(pred.value, own.value]`` should hold ``key``.

        Ranges follow ring values: a member owns the keys up to and including
        its own value, starting after its predecessor's, and the member with
        the smallest value also covers the wrap-around arm (keys above the
        largest value and at or below the smallest).
        """
        if not self._sorted:
            return None
        index = bisect.bisect_left(self._sorted, (key, ""))
        if index == len(self._sorted):
            index = 0  # wrapped: the smallest-value member owns the top arm
        return self._members[self._sorted[index][1]]
