"""Successor-list entries, peer states, and the successor list as a value.

The paper's ring maintains, at every peer, a ``succList`` of pointers to the
next peers clockwise around the ring, and (for the PEPPER protocols) a parallel
``stateList`` recording whether each pointed-to peer is JOINING, JOINED or
LEAVING.  We fold the two lists into a single list of :class:`SuccessorEntry`
records.

How such a list is merged, extended and trimmed is what Theorem 1's
consistent successor pointers rest on, so those rules live here, once, as pure
functions: each returns a new list and changes no entry it is given
(``docs/ARCHITECTURE.md``, "Contract: the successor list").  An entry's
address, value and state never change once it is in a list; a new state is
a new entry.  The ring classes call them and keep only the locking, the
RPCs and the listener events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Collection, Dict, Iterable, List, Optional, Set, Tuple

# Peer / pointer states (Section 4.3.1 and 5.1 of the paper).
JOINING = "JOINING"  # being inserted; pointers to it may be inconsistent
JOINED = "JOINED"  # fully part of the ring
LEAVING = "LEAVING"  # announced departure (merge); predecessors lengthen lists
INSERTING = "INSERTING"  # a peer currently running insertSucc for a new successor
FREE = "FREE"  # not part of the ring (free peers of the P-Ring Data Store)

NEVER = float("-inf")  # the heard time of a peer nothing has heard from

# A peer's lifecycle only moves forward (JOINING -> JOINED -> LEAVING), so of
# two reports on one peer the more advanced state is the newer.
_STATE_RANK = {JOINING: 0, JOINED: 1, LEAVING: 2}


@dataclass(slots=True)
class SuccessorEntry:
    """One pointer in a peer's successor list.

    ``heard`` is when this peer last heard from the pointed-to peer first-hand
    (a stabilize reply, a JOINED or LEAVING ping reply, or a stabilize request
    from it); ``vouched`` is the first-hand time the first successor's last
    stabilize reply relayed for it, which some peer along the ring heard
    itself.  Neither is part of :meth:`to_wire`: the stabilize reply carries
    ``max(heard, vouched)`` per entry in a map of its own
    (:meth:`repro.ring.chord.ChordRing._handle_stabilize`).
    """

    address: str
    value: float
    state: str = JOINED
    heard: float = NEVER
    vouched: float = NEVER

    def copy(self) -> "SuccessorEntry":
        """Return an independent copy of this entry."""
        return SuccessorEntry(self.address, self.value, self.state, self.heard, self.vouched)

    def to_wire(self) -> Dict[str, Any]:
        """Serialise for inclusion in an RPC payload."""
        return {
            "address": self.address,
            "value": self.value,
            "state": self.state,
        }

    @staticmethod
    def from_wire(data: Dict[str, Any]) -> "SuccessorEntry":
        """Reconstruct an entry received over the network (never heard from)."""
        return SuccessorEntry(data["address"], data["value"], data.get("state", JOINED))


def entries_to_wire(entries: Iterable[SuccessorEntry]) -> List[Dict[str, Any]]:
    """Serialise a successor list for an RPC payload."""
    return [entry.to_wire() for entry in entries]


def entries_from_wire(data: Iterable[Dict[str, Any]]) -> List[SuccessorEntry]:
    """Deserialise a successor list received over the network."""
    return [SuccessorEntry.from_wire(item) for item in data]


def flat_wire(data: Iterable[Dict[str, Any]]) -> Tuple[Any, ...]:
    """A received list in one flat tuple, address, value and state per entry: a kept
    copy that holds no dict per pointer (:func:`wire_from_flat` undoes it)."""
    flat: List[Any] = []
    for item in data:
        flat += (item["address"], item["value"], item.get("state", JOINED))
    return tuple(flat)


def wire_from_flat(flat: Tuple[Any, ...]) -> List[Dict[str, Any]]:
    """The received list :func:`flat_wire` kept, as it came over the wire."""
    return [{"address": address, "value": value, "state": state}
            for address, value, state in zip(flat[0::3], flat[1::3], flat[2::3])]


def same_wire(ours: List[SuccessorEntry], theirs: List[SuccessorEntry]) -> bool:
    """Whether two lists carry the same wire content: address, value and state of
    each entry, in order.

    An entry both lists hold is not compared: no entry's wire fields change
    once it is in a list.
    """
    if ours is theirs:
        return True
    if len(ours) != len(theirs):
        return False
    for a, b in zip(ours, theirs):
        if a is not b and (a.address != b.address or a.value != b.value or a.state != b.state):
            return False
    return True


# --------------------------------------------------------------------------- the list as a value
def clockwise_distance(value: float, own_value: float, key_space: float) -> float:
    """Clockwise distance from ``own_value`` to ``value`` on the ring (own value: a full turn)."""
    distance = (value - own_value) % key_space
    return distance if distance > 0 else key_space


def merge(ours: List[SuccessorEntry], head: SuccessorEntry, received: List[Dict[str, Any]],
          own: str, own_value: float, key_space: float) -> Tuple[List[SuccessorEntry], Set[str]]:
    """Merge a stabilize reply -- its sender ``head`` and its list ``received``, as it came
    over the wire -- into ``ours``.

    Returns the merged list and the set of addresses the reply reported (the
    head and ``received``, less ``own``).  The merge keeps one entry per
    address, never ``own``; the most advanced state any copy reports; the
    reply's value; our own ``heard`` (the reply carries none); and every
    entry only we hold.  The result runs clockwise from ``own_value``.  It
    is not trimmed.

    A quiet round's reply just extends our list (:func:`_extension`); it
    is then installed as it is, our own entries first, and the full merge
    (:func:`_merge_all`) would return the same list.  Otherwise the result
    holds copies of our entries, never our entries themselves.
    """
    head_address = head.address
    received = [i for i in received if i["address"] != own and i["address"] != head_address]
    reported = {item["address"] for item in received}
    reported.add(head_address)
    learned = _extension(ours, head, received, own_value, key_space)
    if learned is None:
        learned = _merge_all(ours, head, received, own, own_value, key_space)
    return learned, reported


def _extension(ours, head, received, own_value, key_space) -> Optional[List[SuccessorEntry]]:
    """``ours`` plus the rest of the reply, if the reply only extends ``ours``; else ``None``.

    The quiet-round branch of :func:`merge`: the head and ``received`` must
    start with exactly our list (addresses, values and states, in order),
    and our list followed by the rest of ``received`` must name no address
    twice and run clockwise from ``own_value``.  Then no copy of ours adds
    anything and sorting moves nothing.
    """
    if not ours:
        return None
    first = ours[0]
    if first.address != head.address or first.value != head.value or first.state != head.state:
        return None
    if len(received) < len(ours) - 1:
        return None
    for entry, item in zip(ours[1:], received):
        if (
            entry.address != item["address"]
            or entry.value != item["value"]
            or entry.state != item.get("state", JOINED)
        ):
            return None
    learned = ours + [SuccessorEntry.from_wire(item) for item in received[len(ours) - 1 :]]
    if len({entry.address for entry in learned}) != len(learned):
        return None
    previous = 0.0
    for entry in learned:
        # :func:`clockwise_distance`, inline: this loop runs on nearly every adopt.
        distance = (entry.value - own_value) % key_space
        if distance <= 0:
            distance = key_space
        if distance < previous:
            return None
        previous = distance
    return learned


def _merge_all(ours, head, received, own, own_value, key_space) -> List[SuccessorEntry]:
    """:func:`merge` in full: per address the first copy's value, the most advanced state
    and the latest ``heard``, sorted clockwise."""
    best: Dict[str, SuccessorEntry] = {}
    for entry in [head, *entries_from_wire(received), *(held.copy() for held in ours)]:
        address = entry.address
        if address == own:
            continue
        first = best.get(address)
        if first is None:
            best[address] = entry
            continue
        upgrade = _STATE_RANK.get(entry.state, 1) > _STATE_RANK.get(first.state, 1)
        if upgrade or entry.heard > first.heard:
            state = entry.state if upgrade else first.state
            heard = max(first.heard, entry.heard)
            best[address] = SuccessorEntry(address, first.value, state, heard)
    return sorted(best.values(), key=lambda e: clockwise_distance(e.value, own_value, key_space))


def insert_sorted(entries: List[SuccessorEntry], entry: SuccessorEntry, own_value: float,
                  key_space: float) -> List[SuccessorEntry]:
    """``entries`` with ``entry`` added, the whole list sorted clockwise from ``own_value``.

    A peer already listed keeps its entry, with ``entry``'s state if that is
    more advanced (never a downgrade).  Not trimmed.
    """
    result = list(entries)
    for index, held in enumerate(result):
        if held.address == entry.address:
            if _STATE_RANK.get(entry.state, 1) > _STATE_RANK.get(held.state, 1):
                result[index] = upgraded = held.copy()
                upgraded.state = entry.state
            break
    else:
        result.append(entry)
    result.sort(key=lambda e: clockwise_distance(e.value, own_value, key_space))
    return result


def promoted(entries: List[SuccessorEntry], address: str) -> List[SuccessorEntry]:
    """``entries`` with each entry of ``address`` not yet JOINED replaced by a JOINED copy."""
    result = []
    for entry in entries:
        if entry.address == address and entry.state != JOINED:
            entry = entry.copy()
            entry.state = JOINED
        result.append(entry)
    return result


def trim(entries: List[SuccessorEntry], limit: int) -> List[SuccessorEntry]:
    """The first ``limit`` entries: the plain ring's length bound."""
    return entries[:limit]


def trim_riding(entries: List[SuccessorEntry], limit: int,
                pending: Optional[str]) -> List[SuccessorEntry]:
    """The PEPPER ring's length bound: riders ride along without counting.

    The first copy of each address is kept.  LEAVING entries (Section 5.1's
    "lengthen the list by one") and the JOINING entry of ``pending``, the
    insert we run ourselves (Algorithm 1's ``push_front``), ride along; of
    the rest -- JOINED entries and JOINING pointers learned from elsewhere,
    which take a regular slot as in Algorithm 2, so that no peer holds a
    pointer beyond a JOINING peer it need not know about (Theorem 1) -- the
    first ``limit`` count.  At most ``2 * limit + 2`` entries are kept.
    """
    result = []
    counted = 0
    seen = set()
    for entry in entries:
        if entry.address in seen:
            continue
        seen.add(entry.address)
        if entry.state == LEAVING or (entry.state == JOINING and entry.address == pending):
            result.append(entry)
        elif counted < limit:
            counted += 1
            result.append(entry)
    return result[: 2 * limit + 2]


def without(entries: List[SuccessorEntry], addresses: Collection[str]) -> List[SuccessorEntry]:
    """``entries`` less every entry pointing at one of ``addresses``."""
    return [entry for entry in entries if entry.address not in addresses]
