"""Successor-list entries and peer states.

The paper's ring maintains, at every peer, a ``succList`` of pointers to the
next peers clockwise around the ring, and (for the PEPPER protocols) a parallel
``stateList`` recording whether each pointed-to peer is JOINING, JOINED or
LEAVING, plus a per-pointer *stabilized* flag.  We fold the two lists into a
single list of :class:`SuccessorEntry` records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List

# Peer / pointer states (Section 4.3.1 and 5.1 of the paper).
JOINING = "JOINING"  # being inserted; pointers to it may be inconsistent
JOINED = "JOINED"  # fully part of the ring
LEAVING = "LEAVING"  # announced departure (merge); predecessors lengthen lists
INSERTING = "INSERTING"  # a peer currently running insertSucc for a new successor
FREE = "FREE"  # not part of the ring (free peers of the P-Ring Data Store)

NEVER = float("-inf")  # the heard time of a peer nothing has heard from


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
    stabilized: bool = False
    heard: float = NEVER
    vouched: float = NEVER

    def copy(self) -> "SuccessorEntry":
        """Return an independent copy of this entry."""
        return SuccessorEntry(
            self.address, self.value, self.state, self.stabilized, self.heard, self.vouched
        )

    def to_wire(self) -> Dict[str, Any]:
        """Serialise for inclusion in an RPC payload."""
        return {
            "address": self.address,
            "value": self.value,
            "state": self.state,
        }

    @staticmethod
    def from_wire(data: Dict[str, Any]) -> "SuccessorEntry":
        """Reconstruct an entry received over the network (never stabilized)."""
        return SuccessorEntry(
            address=data["address"],
            value=data["value"],
            state=data.get("state", JOINED),
            stabilized=False,
        )


def entries_to_wire(entries: Iterable[SuccessorEntry]) -> List[Dict[str, Any]]:
    """Serialise a successor list for an RPC payload."""
    return [entry.to_wire() for entry in entries]


def entries_from_wire(data: Iterable[Dict[str, Any]]) -> List[SuccessorEntry]:
    """Deserialise a successor list received over the network."""
    return [SuccessorEntry.from_wire(item) for item in data]
