"""CFS-style Replication Manager.

Every peer periodically pushes the items in its Data Store to its ``k`` ring
successors (the replication factor, Section 6.1 default 6).  When a peer fails,
its successor's range grows to cover the failed peer's range (detected through
the ring's predecessor-change events), and the successor *revives* the affected
items from the replicas it holds, so the items become live again (Definition 3).

The manager also implements the interactions the paper adds for merges: the
``push_extra_hop`` step of Section 5.2, and replica-deletion propagation so
deleted items are not resurrected from stale replicas.
"""

from __future__ import annotations

from typing import List

from repro.datastore.items import Item, ItemStore, items_to_wire
from repro.datastore.store import DataStore
from repro.index.config import IndexConfig
from repro.replication.extra_hop import push_items_one_extra_hop
from repro.ring.chord import ChordRing, RingListener
from repro.transport import Endpoint


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
        # Per-replica freshness (last refresh time) and tombstones of deleted
        # keys.  Both guard the revive path: a replica is only promoted into
        # the Data Store if it has been refreshed recently and has not been
        # deleted, so stale copies cannot resurrect deleted items.
        self._freshness: dict = {}
        self._tombstones: dict = {}
        # Fingerprint of the last fan-out (store version + target set) and how
        # many refresh rounds were skipped because nothing changed.  Skipping
        # is bounded so receiver-side freshness never leaves the promotable
        # window (see :meth:`_refresh_once`).
        self._last_push: tuple = ()
        self._pushes_skipped = 0
        # What each predecessor last pushed to us: owner address ->
        # (owner's ItemStore.version at push time, receive time, pushed keys).
        # The serve layer's replica reads consult this: a replica read is
        # valid only while the owner's live version still equals the recorded
        # push version -- any mutation since the push (insert, delete, split,
        # shed) bumps the version and sends readers back to the primary.
        self._push_state: dict = {}

        ring.add_listener(self)
        node.register_handler("rep_store_replicas", self._handle_store_replicas)
        node.register_handler("rep_remove_replica", self._handle_remove_replica)

        # The refresh cadence follows the maintenance policy: the fixed period
        # by default, or an interval seeded from the network's observed round
        # trip under ``cadence="rtt_scaled"`` (WAN deployments refresh more
        # often so revives keep up with the slower failure-repair pipeline).
        node.every(
            config.maintenance_policy.maintenance_interval(
                config.replication_refresh_period, node.network.observed_rtt
            ),
            self._refresh_once,
            jitter=config.stabilization_jitter,
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
        freshness = self._freshness.get(skv)
        if freshness is None:
            return False
        window = 4 * self.config.replication_refresh_period
        return self.node.sim.now - freshness <= window

    # ------------------------------------------------------------------ refresh
    def refresh_now(self) -> None:
        """Trigger an immediate replication round (e.g. right after a split)."""
        self.node.spawn(self._refresh_once(), name="rep-refresh-now")

    def _refresh_once(self):
        """Push the local Data Store contents to the k successors; then revive."""
        if not self.node.alive:
            return
        items = self.store.items
        if self.store.active and self.config.replication_factor > 0 and len(items):
            targets = self.ring.joined_successors(self.config.replication_factor)
            if self._should_push(targets):
                payload = {
                    "items": items_to_wire(items.all_items()),
                    "owner": self.address,
                    # The store version this push snapshots; receivers
                    # record it so replica reads can detect staleness.
                    "version": items.version,
                }
                # Fire-and-forget fan-out: the pushes are independent and
                # nobody reads the acknowledgements, so each costs one
                # one-way message -- no reply event, no expiry timer, no
                # reply traffic.  A failed receiver swallows the push
                # silently, exactly as it did when the discarded reply
                # event timed out unobserved.
                for target in targets:
                    self.node.cast(target, "rep_store_replicas", payload)
        # Promote any replica we hold whose key now falls in our own range --
        # this both revives items after a predecessor failure and self-heals if
        # a range-change notification raced with a refresh.
        yield from self._promote_replicas()

    def _should_push(self, targets) -> bool:
        """Whether this round's fan-out would tell the successors anything new.

        A round is a no-op when neither the Data Store contents (tracked by the
        item store's mutation version) nor the target set changed since the
        last push.  At most one consecutive no-op round is skipped: receivers
        consider a replica promotable for ``4 *`` the refresh period
        (:meth:`_is_promotable`), so pushing at least every second round keeps
        two full periods of slack for failure detection plus range propagation
        before a revive -- enough even when ring-adjacent peers fail together
        (skipping two rounds is not: the revive after an adjacent double
        failure can then find its replicas just outside the window).

        That slack argument assumes pushes are delivered.  On a lossy network
        a recorded push may never have refreshed anyone (the fan-out is
        fire-and-forget), so skipping on top of an undetected loss could
        double the refresh gap -- in that regime every round pushes.
        """
        if self.node.network.config.drop_probability > 0:
            return True
        fingerprint = (self.store.items.version, tuple(targets))
        if fingerprint == self._last_push and self._pushes_skipped < 1:
            self._pushes_skipped += 1
            return False
        self._last_push = fingerprint
        self._pushes_skipped = 0
        return True

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
            self.node.spawn(self._promote_replicas(), name="rep-revive")

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
            item
            for item in self.replicas.all_items()
            if self._is_promotable(item.skv)
        ] + list(self.store.items.all_items())
        count = yield from push_items_one_extra_hop(
            self.node, self.ring, held, max(self.config.replication_factor, 1)
        )
        self._record_op("extra_hop_replication", items=len(held), acknowledged=count)
        return count

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
        """RPC: store replicas on behalf of a predecessor."""
        stored = 0
        now = self.node.sim.now
        pushed: List[float] = []
        tombstones = self._tombstones
        freshness = self._freshness
        replicas = self.replicas
        primaries = self.store.items if self.store.active else ()
        # Most pushed keys are already held: an Item is built only for a key
        # that is stored, and only a tombstoned key pays the expiry check.
        for entry in payload["items"]:
            skv = entry["skv"]
            pushed.append(skv)
            if skv in tombstones and self._tombstoned(skv):
                continue  # deleted; do not let a stale copy come back
            freshness[skv] = now
            if skv in primaries:
                continue  # we already hold the primary copy
            if skv not in replicas:
                replicas.add(Item.from_wire(entry))
                stored += 1
        # Remember the push as the owner's claimed snapshot.  Tombstoned keys
        # stay in the recorded key set but were *not* stored, so a replica
        # read that needs one finds it missing and falls back to the primary
        # -- a tombstoned copy is never served.  The owner's one-item cast of
        # a fresh insert is no snapshot and leaves the record alone.
        if payload.get("snapshot", True):
            self._push_state[payload["owner"]] = (
                payload.get("version"),
                now,
                tuple(pushed),
            )
        return {"stored": stored}

    def _handle_remove_replica(self, payload, request):
        """RPC: a primary copy was deleted; drop our replica and remember the deletion."""
        skv = payload["skv"]
        self._tombstones[skv] = self.node.sim.now
        self._freshness.pop(skv, None)
        removed = self.replicas.remove(skv) is not None
        return {"removed": removed}
