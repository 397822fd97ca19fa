"""CFS-style Replication Manager.

Every :data:`REPLICATION_TICKS` th ring maintenance tick, a peer pushes a
snapshot of its Data Store to its ``k`` ring successors (the replication
factor, Section 6.1 default 6), as the tick's stabilize just learnt them, if
the store or the successors changed since the last push.  Which held copies
may be revived is the holder's lease table (:mod:`repro.replication.leases`),
renewed by the owner's ``ring_stabilize`` beacons.  A failed peer's successor
*revives* its items from the replicas it holds (Definition 3).
"""

from __future__ import annotations

from typing import List, Optional

from repro.datastore.items import Item, ItemStore, items_to_wire
from repro.datastore.store import DataStore
from repro.index.config import IndexConfig
from repro.replication import leases
from repro.replication.extra_hop import push_items_one_extra_hop
from repro.ring.chord import ChordRing, RingListener
from repro.transport import Endpoint

#: Ring maintenance ticks per replication round, the lease table's period.
REPLICATION_TICKS = 2


class ReplicationManager(RingListener):
    """Replication component of one peer: the casts, the rounds and the revive."""

    def __init__(self, node: Endpoint, ring: ChordRing, store: DataStore, config: IndexConfig,
                 history=None):
        self.node = node
        self.ring = ring
        self.store = store
        self.config = config
        self.history = history
        self.replicas = ItemStore()
        self.table = leases.LeaseTable(REPLICATION_TICKS * config.stabilization_period,
                                       {}, {}, {}, {})
        # Fingerprint of the last fan-out: store version + target set.
        self._last_push: tuple = ()
        self._ticks = 0
        ring.add_listener(self)
        ring.beacon_source = self.beacons_for
        ring.beacon_sink = self.renew
        node.register_handler("rep_store_replicas", self._handle_store_replicas)
        node.register_handler("rep_remove_replica", self._handle_remove_replica)
        node.register_handler("rep_resync", self._handle_resync)

    def _record_op(self, kind: str, **attrs) -> None:
        if self.history is not None:
            self.history.record(kind, peer=self.node.address, **attrs)

    def promotable_keys(self) -> List[float]:
        """Keys of the held replicas a revive may still promote."""
        now = self.node.sim.now
        return [skv for skv in self.replicas.keys() if leases.promotable(self.table, skv, now)]

    def census(self) -> dict:
        """Counts of the held copies, snapshot records and tombstones, by lease age."""
        return leases.census(self.table, self.replicas.keys(), self.node.sim.now)

    def clear(self) -> None:
        """Drop all replicas (a merged-away peer returning to the free pool)."""
        self.replicas.clear()
        self.table = leases.LeaseTable(self.table.period, {}, {}, self.table.tombstones, {})
        self._last_push = ()

    # ------------------------------------------------------------------ rounds
    def on_tick(self, ring) -> None:
        """Every :data:`REPLICATION_TICKS` th maintenance tick is a round."""
        self._ticks += 1
        if self._ticks % REPLICATION_TICKS == 0:
            self.refresh_now()

    def refresh_now(self) -> None:
        """One replication round (also run right after a split's join): push a
        changed Data Store snapshot to the k successors, expire, then revive."""
        items = self.store.items
        if self.store.active and self.config.replication_factor > 0 and len(items):
            # Push only when the store's version or the targets changed: the
            # beacons renew a settled store's leases, but only a snapshot that
            # arrived, so on a lossy network every round pushes.
            fingerprint = (items.version, tuple(self.ring.joined_successors(
                self.config.replication_factor)))
            if fingerprint != self._last_push or self.node.network.config.drop_probability > 0:
                self._last_push = fingerprint
                # Fire-and-forget: one one-way message per target, no reply,
                # no expiry timer; a failed receiver swallows it.
                payload = self._snapshot_payload()
                for target in payload["targets"]:
                    self.node.cast(target, "rep_store_replicas", payload)
        # Expiry is final: drop the copies and records no lease carries any more.
        for skv in leases.expire(self.table, self.node.sim.now):
            self.replicas.remove(skv)
        # Promote the replicas whose keys now fall in our range: a revive after
        # a predecessor failure, or a self-heal if a range change raced a round.
        candidates = self._promotion_candidates()
        if candidates:
            self.node.spawn(self._promote_replicas(candidates), name="rep-revive")

    def _snapshot_payload(self) -> dict:
        """The ``rep_store_replicas`` payload of the last recorded push."""
        version, targets = self._last_push  # holders relay beacons only to targets
        return {"items": self.store.items.to_wire(), "owner": self.node.address,
                "version": version, "targets": targets}

    # ------------------------------------------------------------------ leases
    def beacons_for(self, target: str) -> dict:
        """The beacons our ``ring_stabilize`` request to ``target`` carries: our
        store's version, unstamped (the receiver stamps it), if ``target`` holds
        our current snapshot, and the leases we relay (:func:`leases.relayed`)."""
        beacons = {}
        if target in self.current_holders():
            beacons[self.node.address] = (self._last_push[0], None)
        beacons.update(leases.relayed(self.table, target, self.node.sim.now))
        return beacons

    def renew(self, beacons: dict) -> None:
        """Renew the held snapshots the beacons name (:func:`leases.renew`).

        A beacon for an owner whose snapshot we do not hold (a push missed us
        while its fingerprint held, or our record expired) gets one
        ``rep_resync``; an owner that no longer pushes to us stays silent.
        """
        for owner in leases.renew(self.table, beacons, self.node.sim.now):
            if owner != self.node.address:
                self.node.cast(owner, "rep_resync", {"holder": self.node.address})

    def _handle_resync(self, payload, request):
        """Cast: a target holds no snapshot of ours; push it the current one (a
        changed store pushes a new snapshot at its next round anyway)."""
        if payload["holder"] in self.current_holders():
            self.node.cast(payload["holder"], "rep_store_replicas", self._snapshot_payload())

    def current_holders(self) -> tuple:
        """The targets of our last push if our store has not changed since:
        the peers that hold our current snapshot."""
        pushed = self._last_push
        return pushed[1] if pushed and pushed[0] == self.store.items.version else ()

    def _promote_replicas(self, candidates: List[Item]):
        """Move the candidates still in our range and not stored into the Data Store."""
        if not candidates:
            return
        yield self.store.range_lock.acquire_write()
        try:
            if not self.store.active or self.store.range is None:
                return
            for item in candidates:
                if self.store.range.contains(item.skv) and item.skv not in self.store.items:
                    self.store.store_local(item, reason="replica_revive")
                    self._record_op("replica_revived", skv=item.skv)
        finally:
            self.store.range_lock.release_write()

    def _promotion_candidates(self) -> List[Item]:
        """Held replicas inside our range (two bisects of the replica store's
        sorted keys, in ascending order), not stored here, and promotable."""
        if not self.store.active or self.store.range is None:
            return []
        held, now = self.store.items, self.node.sim.now
        return [item for item in self.replicas.items_in_range(self.store.range)
                if item.skv not in held and leases.promotable(self.table, item.skv, now)]

    # ------------------------------------------------------------------ ring events
    def on_predecessor_changed(self, ring, old_address, old_value, new_address, new_value):
        """Our range may have grown (predecessor failed): revive affected replicas."""
        if self.store.active:
            self.node.spawn(self._revive_after_range_update(), name="rep-revive")

    def _revive_after_range_update(self):
        """Revive once the Data Store, the earlier listener, has moved our
        range's low end under its range write lock: queued behind it on the
        same FIFO lock, the revive sees the grown range (run at once, it saw
        the old one, and the items waited up to :data:`REPLICATION_TICKS`
        ticks for the next round)."""
        lock = self.store.range_lock
        yield lock.acquire_write()
        lock.release_write()
        yield from self._promote_replicas(self._promotion_candidates())

    # ------------------------------------------------------------------ merge support
    def push_extra_hop(self):
        """Section 5.2: replicate everything we hold one additional hop before
        leaving.  Only promotable replicas: a stale copy of a deleted item would
        resurrect it at the receivers."""
        now = self.node.sim.now
        held = [entry for entry in self.replicas.to_wire()
                if leases.promotable(self.table, entry["skv"], now)] + self.store.items.to_wire()
        count = yield from push_items_one_extra_hop(
            self.node, self.ring, held, max(self.config.replication_factor, 1))
        self._record_op("extra_hop_replication", items=len(held), acknowledged=count)
        return count

    def keep_handed_over(self, items: List[Item]) -> None:
        """Hold the copies a finished split shed as the new peer's replicas: its
        first snapshot reached us, its first successor, while we held them as
        primaries, and no push brings them while its fingerprint holds."""
        shed = {"items": items_to_wire(items), "owner": self.node.address, "snapshot": False}
        self._handle_store_replicas(shed, None)

    def lease_for(self, owner: Optional[str]) -> Optional[dict]:
        """Our lease for ``owner`` and its copies as a push (:func:`leases.handed`):
        a split's new peer succeeds our predecessor before that one's next round."""
        push = leases.handed(self.table, owner)
        if push is not None:
            push["items"] = items_to_wire(filter(None, map(self.replicas.get, push["keys"])))
        return push

    def take_lease(self, push: dict) -> None:
        """Hold a lease a splitter handed us (:meth:`lease_for`)."""
        self._handle_store_replicas(push, None)

    def propagate_delete(self, skv: float) -> None:
        """Forget a deleted item everywhere it is replicated (prevents
        resurrection), starting with our own tombstone and replica."""
        self._handle_remove_replica({"skv": skv}, None)
        if self.config.replication_factor <= 0:
            return
        # One-way notifications: the deletion either lands or the stale
        # replica ages out of the promotable window on its own.
        for target in self.ring.joined_successors(self.config.replication_factor):
            self.node.cast(target, "rep_remove_replica", {"skv": skv})

    # ------------------------------------------------------------------ RPC handlers
    def _handle_store_replicas(self, payload, request):
        """Cast (a call from the extra hop): hold a predecessor's pushed copies
        (:func:`leases.receive`).  A tombstoned key stays in a snapshot's key
        set but is *not* stored, so a replica read that needs it refuses."""
        kept = leases.receive(self.table, payload, self.node.sim.now)
        primaries = self.store.items if self.store.active else ()
        return {"stored": sum(  # ``put`` skips a key already held as a replica
            entry["skv"] not in primaries and self.replicas.put(entry["skv"], entry.get("payload"))
            for entry in kept)}

    def _handle_remove_replica(self, payload, request):
        """Cast: a primary copy was deleted; drop our replica and remember the deletion."""
        leases.delete(self.table, payload["skv"], self.node.sim.now)
        return {"removed": self.replicas.remove(payload["skv"]) is not None}
