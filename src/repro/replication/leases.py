"""Replica leases (Gray and Cheriton, SOSP 1989): which held copies may be revived.

A holder's :class:`LeaseTable` is one value: ``leases`` maps each owner to the
:class:`Lease` of its last snapshot push; ``copies`` maps a key to when a copy
last arrived on a non-snapshot push (an extra hop, an insert's cast, a split's
shed), or to the time of the superseded snapshot that last carried it;
``tombstones`` maps a deleted key to its deletion time, and ``asked`` an owner
to the version we asked its snapshot at.  A copy is *promotable* (Definition
3) while no live tombstone covers it and some lease inside the window carries
it.  Expiry is final: :func:`expire`, once a round, drops what no lease has
carried for the window plus one period.  Only these functions read or change a
table, in place (a peer holds hundreds of records in a 1,000-peer build).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

# How many replication periods a copy stays promotable past its lease time.
LEASE_PERIODS = 4
# How many replication periods a deletion blocks copies of its key: by then a
# stale copy has lost its lease too, and a later re-insertion is not blocked.
TOMBSTONE_PERIODS = 3


@dataclass(slots=True)
class Lease:
    """One snapshot push.  ``time`` is first-hand: the push's receipt, or a later
    receipt of the owner's own beacon at ``version``; relayed or handed on
    (:func:`handed`), never advanced.
    ``keys`` are sorted and bisected: a tuple takes a slot a key, a set four."""

    version: Any
    time: float
    keys: Tuple[float, ...]
    targets: Tuple[str, ...]

    def carries(self, key: float) -> bool:
        index = bisect_left(self.keys, key)
        return index < len(self.keys) and self.keys[index] == key


class LeaseTable(NamedTuple):
    """What one holder knows of its copies' leases (see the module docstring)."""

    period: float  # the replication round's period
    leases: Dict[str, Lease]
    copies: Dict[float, float]
    tombstones: Dict[float, float]
    asked: Dict[str, Any]


def deleted(table: LeaseTable, key: float, now: float) -> bool:
    """Whether a live tombstone covers ``key``."""
    at = table.tombstones.get(key)
    return at is not None and now - at <= TOMBSTONE_PERIODS * table.period


def receive(table: LeaseTable, push: dict, now: float) -> List[dict]:
    """Take a ``rep_store_replicas`` push in; return the wire entries no live
    tombstone covers, to hold.  A snapshot push becomes its owner's lease,
    at ``now`` or at the time a handed-on lease keeps (:func:`handed`); the
    keys it dropped from the one it supersedes keep that lease's time in
    ``copies``.  A non-snapshot push stamps its keys there."""
    kept = [entry for entry in push["items"] if not deleted(table, entry["skv"], now)]
    if not push.get("snapshot", True):
        table.copies.update((entry["skv"], now) for entry in kept)
        return kept
    keys = push.get("keys") or sorted(entry["skv"] for entry in push["items"])
    lease = Lease(push.get("version"), push.get("time", now), tuple(keys),
                  tuple(push.get("targets", ())))
    superseded = table.leases.get(push["owner"])
    for key in superseded.keys if superseded is not None else ():
        if not lease.carries(key):
            table.copies[key] = max(table.copies.get(key, superseded.time), superseded.time)
    table.leases[push["owner"]] = lease
    return kept


def renew(table: LeaseTable, beacons: Dict[str, tuple], now: float) -> List[str]:
    """Move each lease a beacon names at its version up to the beacon's time
    (``now`` for the sender's own), O(1) per owner; return the owners with no
    recorded snapshot to ask for it, once per owner and version.  Another
    version renews nothing: its owner's next round pushes the new snapshot."""
    asks = []
    for owner, (version, time) in beacons.items():
        time = now if time is None else time
        lease = table.leases.get(owner)
        if lease is None:
            if table.asked.get(owner) != version:  # a beaconed version is never None
                table.asked[owner] = version
                asks.append(owner)
        elif lease.version == version and time > lease.time:
            lease.time = time
    return asks


def handed(table: LeaseTable, owner: Optional[str]) -> Optional[dict]:
    """``owner``'s lease as a push handing its version, time, keys and targets
    on unchanged (the caller adds the copies); None if there is none."""
    lease = table.leases.get(owner)
    return lease and {"owner": owner, "version": lease.version, "time": lease.time,
                      "keys": lease.keys, "targets": lease.targets}


def relayed(table: LeaseTable, target: str, now: float) -> Dict[str, tuple]:
    """The version and time, unchanged, of each lease inside the window whose
    owner pushed to ``target`` too: the relay stops outside the targets."""
    horizon = now - LEASE_PERIODS * table.period
    return {owner: (lease.version, lease.time) for owner, lease in table.leases.items()
            if lease.time >= horizon and target in lease.targets}


def _carried(table: LeaseTable, key: float, now: float, window: float) -> bool:
    """Whether a lease no older than ``window`` carries ``key``."""
    time = table.copies.get(key)
    return (time is not None and now - time <= window) or any(
        now - lease.time <= window and lease.carries(key) for lease in table.leases.values())


def promotable(table: LeaseTable, key: float, now: float) -> bool:
    """Whether a held copy of ``key`` may be revived into the Data Store."""
    return not deleted(table, key, now) and _carried(table, key, now, LEASE_PERIODS * table.period)


def expire(table: LeaseTable, now: float) -> List[float]:
    """Drop the leases and copy times past the window plus one period,
    and the expired tombstones; return the keys nothing kept carries, whose
    copies to drop.  A dropped owner may be asked for its snapshot again."""
    age = (LEASE_PERIODS + 1) * table.period
    gone = [owner for owner, lease in table.leases.items() if now - lease.time > age]
    stale = [key for key, time in table.copies.items() if now - time > age]
    for key in [key for key in table.tombstones if not deleted(table, key, now)]:
        del table.tombstones[key]
    if not (gone or stale):
        return []
    dropped = set(stale).union(*(table.leases[owner].keys for owner in gone))
    for owner in gone:
        del table.leases[owner]
        table.asked.pop(owner, None)
    for key in stale:
        del table.copies[key]
    for lease in table.leases.values():  # one pass over each kept lease, not one per key
        dropped.difference_update(lease.keys)
    return list(dropped.difference(table.copies))


def delete(table: LeaseTable, key: float, now: float) -> None:
    """Record the deletion of ``key``: its tombstone, and no copy time."""
    table.copies.pop(key, None)
    table.tombstones[key] = now


def snapshot(table: LeaseTable, owner: str, now: float):
    """``owner``'s recorded snapshot, which replica reads answer from, as
    ``(version, sorted keys, deleted keys)``; None if there is none."""
    lease = table.leases.get(owner)
    return None if lease is None else (lease.version, lease.keys, {
        key for key in table.tombstones if lease.carries(key) and deleted(table, key, now)})


def census(table: LeaseTable, held: List[float], now: float) -> Dict[str, int]:
    """Counts of the ``held`` copies, snapshot records and tombstones, by lease age."""
    window, period = LEASE_PERIODS * table.period, table.period
    ages = [now - lease.time for lease in table.leases.values()]
    live = sum(deleted(table, key, now) for key in table.tombstones)
    return {
        "replica_copies": len(held),
        "replica_copies_unpromotable": sum(not promotable(table, key, now) for key in held),
        "replica_copies_past_window_and_period": sum(
            not _carried(table, key, now, window + period) for key in held),
        "snapshot_records": len(ages),
        "snapshot_records_past_window": sum(age > window for age in ages),
        "snapshot_records_past_window_and_period": sum(age > window + period for age in ages),
        "tombstones_live": live,
        "tombstones_expired_kept": len(table.tombstones) - live,
    }
