"""CFS-style Replication Manager.

Every peer pushes a snapshot of its Data Store to its ``k`` ring successors
(the replication factor, Section 6.1 default 6) whenever the store or the
successor set changed since the last push.  A held snapshot stays promotable
on a lease: four refresh periods past the last first-hand time its owner was
heard at that snapshot's version.  The owner's version rides its
``ring_stabilize`` request to its first successor, which stamps it with the
receipt time; each holder relays the stamp, unchanged, to the next target on
its own stabilize request (:meth:`ReplicationManager.beacons_for`,
:meth:`ReplicationManager.renew`).  So a settled store costs no replication
message, and a dead owner's copies age out four periods after its death,
however the beacons circulate.

When a peer fails, its successor's range grows to cover the failed peer's
range (detected through the ring's predecessor-change events), and the
successor *revives* the affected items from the replicas it holds, so the
items become live again (Definition 3).

The manager also implements the interactions the paper adds for merges: the
``push_extra_hop`` step of Section 5.2, and replica-deletion propagation so
deleted items are not resurrected from stale replicas.
"""

from __future__ import annotations

from typing import List, Optional

from repro.datastore.items import Item, ItemStore
from repro.datastore.store import DataStore
from repro.index.config import STABILIZATION_JITTER, IndexConfig
from repro.replication.extra_hop import push_items_one_extra_hop
from repro.ring.chord import ChordRing, RingListener
from repro.transport import Endpoint

# How many refresh periods a copy stays promotable past its lease time.
LEASE_PERIODS = 4


class Lease:
    """How long a set of held copies may be revived.

    A snapshot push makes one lease, shared by every key it carried (through
    ``ReplicationManager._freshness``) and recorded as the owner's snapshot in
    ``_push_state``: the owner's store ``version``, the pushed ``keys`` and
    the ``targets`` the owner pushed to.  ``time`` is a first-hand time: the
    push's receipt, or a later receipt of the owner's own beacon at the same
    version, relayed and never advanced.  A non-snapshot push (a fresh
    insert's one-item cast, a leaver's extra hop) makes a lease no beacon
    renews, and so does a snapshot once its owner's next one supersedes it.
    """

    __slots__ = ("version", "time", "keys", "targets")

    def __init__(self, version, time: float, keys: tuple = (), targets: tuple = ()):
        self.version = version
        self.time = time
        self.keys = keys
        self.targets = targets


class ReplicationManager(RingListener):
    """Replication component of one peer."""

    def __init__(
        self,
        node: Endpoint,
        ring: ChordRing,
        store: DataStore,
        config: IndexConfig,
        metrics=None,
        history=None,
    ):
        self.node = node
        self.ring = ring
        self.store = store
        self.config = config
        self.metrics = metrics
        self.history = history

        self.replicas = ItemStore()
        # Per-replica lease (the :class:`Lease` of the push that last carried
        # the key) and tombstones of deleted keys.  Both guard the revive
        # path: a replica is only promoted into the Data Store if its lease is
        # recent and it has not been deleted, so stale copies cannot
        # resurrect deleted items.
        self._freshness: dict = {}
        self._tombstones: dict = {}
        self._lease_window = LEASE_PERIODS * config.replication_refresh_period
        # Fingerprint of the last fan-out: store version + target set.
        self._last_push: tuple = ()
        # Owner -> the beaconed version we last asked a snapshot of
        # (``rep_resync``); one ask per owner and version.  Built on the first
        # ask: most peers never ask.
        self._asked: Optional[dict] = None
        # What each predecessor last pushed to us: owner address -> its
        # snapshot's :class:`Lease`.  The serve layer's replica reads consult
        # this: a replica read is valid only while the owner's live version
        # still equals the recorded push version -- any mutation since the
        # push (insert, delete, split, shed) bumps the version and sends
        # readers back to the primary.
        self._push_state: dict = {}

        ring.add_listener(self)
        ring.beacon_source = self.beacons_for
        ring.beacon_sink = self.renew
        node.register_handler("rep_store_replicas", self._handle_store_replicas)
        node.register_handler("rep_remove_replica", self._handle_remove_replica)
        node.register_handler("rep_resync", self._handle_resync)

        node.every(
            config.replication_refresh_period,
            self._refresh_once,
            jitter=STABILIZATION_JITTER,
            name="rep-refresh",
            initial_delay=config.replication_refresh_period / 2,
        )

    # ------------------------------------------------------------------ helpers
    @property
    def address(self) -> str:
        return self.node.address

    def _record_op(self, kind: str, **attrs) -> None:
        if self.history is not None:
            self.history.record(kind, peer=self.address, **attrs)

    def replica_keys(self) -> List[float]:
        """Keys of all items currently replicated at this peer."""
        return self.replicas.keys()

    def replica_count(self) -> int:
        return len(self.replicas)

    def clear(self) -> None:
        """Drop all replicas (a merged-away peer returning to the free pool)."""
        self.replicas.clear()
        self._freshness.clear()
        self._push_state.clear()
        self._asked = None
        self._last_push = ()

    def _tombstoned(self, skv: float) -> bool:
        """Whether ``skv`` was recently deleted (blocks replication/revival).

        Tombstones expire after a few refresh periods: by then any stale copy
        of the deleted item has also lost its freshness, and an expired
        tombstone no longer blocks replicas of a later re-insertion.
        """
        deleted_at = self._tombstones.get(skv)
        if deleted_at is None:
            return False
        window = 3 * self.config.replication_refresh_period
        if self.node.sim.now - deleted_at > window:
            self._tombstones.pop(skv, None)
            return False
        return True

    def _is_promotable(self, skv: float) -> bool:
        """Whether a held replica may be revived into the Data Store."""
        if self._tombstoned(skv):
            return False
        lease = self._freshness.get(skv)
        if lease is None:
            return False
        return self.node.sim.now - lease.time <= self._lease_window

    # ------------------------------------------------------------------ refresh
    def refresh_now(self) -> None:
        """Trigger an immediate replication round (e.g. right after a split)."""
        self.node.spawn(self._refresh_once(), name="rep-refresh-now")

    def _refresh_once(self):
        """Push a changed Data Store snapshot to the k successors; then revive."""
        if not self.node.alive:
            return
        items = self.store.items
        if self.store.active and self.config.replication_factor > 0 and len(items):
            targets = self.ring.joined_successors(self.config.replication_factor)
            if self._should_push(targets):
                # Fire-and-forget fan-out: the pushes are independent and
                # nobody reads the acknowledgements, so each costs one
                # one-way message -- no reply event, no expiry timer, no
                # reply traffic.  A failed receiver swallows the push
                # silently, exactly as it did when the discarded reply
                # event timed out unobserved.
                payload = self._snapshot_payload()
                for target in payload["targets"]:
                    self.node.cast(target, "rep_store_replicas", payload)
        # Promote any replica we hold whose key now falls in our own range --
        # this both revives items after a predecessor failure and self-heals if
        # a range-change notification raced with a refresh.
        yield from self._promote_replicas()

    def _should_push(self, targets) -> bool:
        """Whether this round's fan-out would tell the successors anything new.

        A round pushes only when the Data Store contents (tracked by the item
        store's mutation version) or the target set changed since the last
        push.  A settled store's copies stay promotable on their lease, which
        the beacons renew (:meth:`beacons_for`, :meth:`renew`), so an
        unchanged snapshot is never sent again.

        The lease renews only a snapshot that arrived.  On a lossy network a
        recorded push may never have reached anyone (the fan-out is
        fire-and-forget), so in that regime every round pushes.
        """
        fingerprint = (self.store.items.version, tuple(targets))
        if fingerprint == self._last_push and self.node.network.config.drop_probability <= 0:
            return False
        self._last_push = fingerprint
        return True

    def _snapshot_payload(self) -> dict:
        """The ``rep_store_replicas`` payload of the last recorded push."""
        version, targets = self._last_push
        return {
            "items": self.store.items.to_wire(),
            "owner": self.address,
            # The store version this push snapshots; receivers record it so
            # replica reads can detect staleness, and renew it on beacons.
            "version": version,
            # Whom the snapshot went to: a holder relays the owner's beacon
            # only to a stabilize target in this set.
            "targets": targets,
        }

    # ------------------------------------------------------------------ leases
    def beacons_for(self, target: str) -> dict:
        """The beacons our ``ring_stabilize`` request to ``target`` carries.

        Our own store version, unstamped, if ``target`` got our last push and
        the store has not changed since (a changed store pushes a new
        snapshot at its next round); the receiver stamps it with its receipt
        time.  And for each owner whose snapshot we hold and who pushed to
        ``target`` too, our lease's version and time, copied unchanged, while
        the lease is inside the promotable window.  One entry per owner and
        no hop counter: the relay stops at the first peer outside the owner's
        targets.
        """
        beacons = {}
        pushed = self._last_push
        if pushed and pushed[0] == self.store.items.version and target in pushed[1]:
            beacons[self.node.address] = (pushed[0], None)
        if self._push_state:
            horizon = self.node.sim.now - self._lease_window
            for owner, lease in self._push_state.items():
                if lease.time >= horizon and target in lease.targets:
                    beacons[owner] = (lease.version, lease.time)
        return beacons

    def renew(self, beacons: dict) -> None:
        """Renew each held snapshot a beacon names at its held version.

        O(1) per owner: the lease every key of the snapshot shares moves to
        the beacon's time, which only the owner's first successor sets (an
        unstamped beacon is its predecessor's own) and nobody advances.  A
        beacon at another version renews nothing: that snapshot is stale, and
        the owner's next refresh round pushes the new one.  A beacon for an
        owner whose snapshot we do not hold means a push missed us while the
        owner's fingerprint held (we cleared our replicas and rejoined in the
        same slot): we ask the owner for its snapshot with one
        ``rep_resync`` cast, once per owner and beaconed version.  The owner
        stays silent when it no longer pushes to us or its store changed (its
        next round pushes), and a dead owner never answers, so an answer is
        not what ends the asking.
        """
        now = self.node.sim.now
        push_state = self._push_state
        for owner, (version, time) in beacons.items():
            if time is None:
                time = now
            lease = push_state.get(owner)
            if lease is None:
                if owner != self.address:
                    self._ask(owner, version)
            elif lease.version == version and time > lease.time:
                lease.time = time

    def _ask(self, owner: str, version) -> None:
        """Cast ``rep_resync`` to ``owner``, once per beaconed version."""
        if self._asked is None:
            self._asked = {}
        elif self._asked.get(owner) == version:
            return
        self._asked[owner] = version
        self.node.cast(owner, "rep_resync", {"holder": self.address})

    def _handle_resync(self, payload, request):
        """Cast: a target holds no snapshot of ours; push it the current one."""
        pushed = self._last_push
        if not pushed or pushed[0] != self.store.items.version:
            return  # a changed store pushes a new snapshot at its next round
        if payload["holder"] in pushed[1]:
            self.node.cast(payload["holder"], "rep_store_replicas", self._snapshot_payload())

    def _promote_replicas(self):
        """Move replicas whose keys are now our responsibility into the Data Store."""
        if not self.store.active or self.store.range is None:
            return
        candidates = self._promotion_candidates()
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
        """Held replicas inside our range, not stored here, and promotable.

        The range's replicas come from two bisects of the replica store's
        sorted keys, in the ascending order a full scan yields them.
        """
        held = self.store.items
        return [
            item
            for item in self.replicas.items_in_range(self.store.range)
            if item.skv not in held and self._is_promotable(item.skv)
        ]

    # ------------------------------------------------------------------ ring events
    def on_predecessor_changed(self, ring, old_address, old_value, new_address, new_value):
        """Our range may have grown (predecessor failed): revive affected replicas."""
        if self.store.active:
            self.node.spawn(self._revive_after_range_update(), name="rep-revive")

    def _revive_after_range_update(self):
        """Revive once the Data Store has moved our range's low end.

        The Data Store hears of the new predecessor first (it is the earlier
        listener) and moves the bound under its range write lock.  Queueing
        behind that update on the same FIFO lock makes the revive see the grown
        range; run at once, it saw the old one, and the items waited for the
        next refresh round -- up to a full ``replication_refresh_period``.
        """
        lock = self.store.range_lock
        yield lock.acquire_write()
        lock.release_write()
        yield from self._promote_replicas()

    def on_predecessor_failed(self, ring, old_address, old_value):
        """Failure detected; the revive happens once the new predecessor appears.

        Nothing to do immediately -- the range boundary only moves when the new
        predecessor announces itself -- but we record the detection so that the
        availability analysis can correlate failures with revivals.
        """
        self._record_op("replication_noticed_failure", failed=old_address)

    # ------------------------------------------------------------------ merge support
    def push_extra_hop(self):
        """Section 5.2: replicate everything we hold one additional hop before leaving.

        Replicas we hold are forwarded only while they are still promotable
        (fresh and not tombstoned); forwarding a stale copy of a deleted item
        would resurrect it at the receivers.
        """
        held = [
            entry
            for entry in self.replicas.to_wire()
            if self._is_promotable(entry["skv"])
        ] + self.store.items.to_wire()
        count = yield from push_items_one_extra_hop(
            self.node, self.ring, held, max(self.config.replication_factor, 1)
        )
        self._record_op("extra_hop_replication", items=len(held), acknowledged=count)
        return count

    def keep_handed_over(self, items: List[Item]) -> None:
        """Hold the copies a finished split shed as the new peer's replicas.

        We are the new peer's first successor.  Its first snapshot reached us
        while we still held those keys as primaries, so the push stored none
        of them, and its fingerprint holds until its store changes: no push
        would bring them.  A copy with no lease yet gets one from now; the
        new peer's snapshot, when it lands, moves it onto that snapshot's.
        """
        fresh = Lease(None, self.node.sim.now)
        tombstones = self._tombstones
        for item in items:
            skv = item.skv
            if skv in tombstones and self._tombstoned(skv):
                continue
            self.replicas.put(skv, item.payload)
            self._freshness.setdefault(skv, fresh)

    def propagate_delete(self, skv: float) -> None:
        """Forget a deleted item everywhere it is replicated (prevents resurrection).

        The owning peer drops its own replica and records a tombstone first --
        it may itself hold a replica from before it became responsible for the
        key -- and then notifies its successors.
        """
        self._tombstones[skv] = self.node.sim.now
        self._freshness.pop(skv, None)
        self.replicas.remove(skv)
        if self.config.replication_factor <= 0:
            return
        # One-way notifications: the deletion either lands or the stale
        # replica ages out of the promotable window on its own.
        for target in self.ring.joined_successors(self.config.replication_factor):
            self.node.cast(target, "rep_remove_replica", {"skv": skv})

    # ------------------------------------------------------------------ RPC handlers
    def _handle_store_replicas(self, payload, request):
        """Cast: store replicas on behalf of a predecessor.

        The extra-hop push (:func:`push_items_one_extra_hop`) calls it and
        reads the acknowledgement.  A snapshot moves every key it carries
        onto its lease.  A non-snapshot push gives its lease only to a key
        that is not promotable yet (no lease, or an expired one): a leaver's
        extra hop that lands after an owner's newer snapshot must not move
        that snapshot's keys onto a lease no beacon renews.
        """
        stored = 0
        pushed: List[float] = []
        tombstones = self._tombstones
        freshness = self._freshness
        replicas = self.replicas
        primaries = self.store.items if self.store.active else ()
        snapshot = payload.get("snapshot", True)
        owner = payload["owner"]
        now = self.node.sim.now
        window = self._lease_window
        lease = Lease(payload.get("version"), now, targets=payload.get("targets", ()))
        # Only a tombstoned key pays the expiry check; ``put`` skips a key
        # already held as a replica.
        for entry in payload["items"]:
            skv = entry["skv"]
            pushed.append(skv)
            if skv in tombstones and self._tombstoned(skv):
                continue  # deleted; do not let a stale copy come back
            # A non-snapshot push leaves a promotable copy on its lease.
            held = None if snapshot else freshness.get(skv)
            if held is None or now - held.time > window:
                freshness[skv] = lease
            if skv in primaries:
                continue  # we already hold the primary copy
            if replicas.put(skv, entry.get("payload")):
                stored += 1
        # Remember the push as the owner's claimed snapshot.  Tombstoned keys
        # stay in the recorded key set but were *not* stored, so a replica
        # read that needs one finds it missing and falls back to the primary
        # -- a tombstoned copy is never served.  The owner's one-item cast of
        # a fresh insert and a leaver's extra hop are no snapshot and leave
        # the record alone.
        if snapshot:
            lease.keys = tuple(pushed)
            superseded = self._push_state.get(owner)
            self._push_state[owner] = lease
            if superseded is not None:
                self._rehome(superseded, lease)
        return {"stored": stored}

    def _rehome(self, superseded: Lease, lease: Lease) -> None:
        """Move the keys an owner's new snapshot dropped to a lease that carries them.

        An owner leaves out of its new snapshot the keys it handed on (a
        split's lower range, a redistribution's share).  A key still on the
        superseded lease would age out, although another owner's snapshot we
        hold may carry it: a split's new peer pushes its first snapshot while
        the splitter still holds the keys, and a splitter push in between
        moves them onto the splitter's lease, which the shed then supersedes.
        Each such key moves to the freshest recorded snapshot that carries it;
        a key that none carries keeps the superseded lease and ages out.
        """
        freshness = self._freshness
        dropped = set(superseded.keys).difference(lease.keys)
        orphans = {skv for skv in dropped if freshness.get(skv) is superseded}
        if not orphans:
            return
        for carrier in self._push_state.values():
            for skv in orphans.intersection(carrier.keys):
                held = freshness[skv]
                if held is superseded or carrier.time > held.time:
                    freshness[skv] = carrier

    def _handle_remove_replica(self, payload, request):
        """Cast: a primary copy was deleted; drop our replica and remember the deletion."""
        skv = payload["skv"]
        self._tombstones[skv] = self.node.sim.now
        self._freshness.pop(skv, None)
        removed = self.replicas.remove(skv) is not None
        return {"removed": removed}
