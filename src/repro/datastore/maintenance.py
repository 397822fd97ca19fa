"""Storage balancing: split, merge and redistribute (Section 2.3).

The P-Ring Data Store keeps every live peer's item count between ``sf`` and
``2*sf``.  The :class:`StorageBalancer` component implements the three
maintenance operations:

* **Split** -- an overflowing peer acquires a free peer from the
  :class:`FreePeerPool`, hands it the lower half of its range and items, and
  the free peer joins the ring as the successor of the splitting peer's
  predecessor (using whichever ``insertSucc`` protocol the configuration
  selects).
* **Redistribute** -- an underflowing peer asks its successor for items; the
  successor gives up its lowest items and the boundary (the underflowing
  peer's ring value) moves up.
* **Merge** -- if the successor cannot spare items, the underflowing peer
  transfers everything it has to the successor, replicates the items it holds
  one additional hop (Section 5.2, when enabled), performs the ring ``leave``
  (availability-preserving or naive, per configuration), and returns itself to
  the free-peer pool.

One repair path complements the three paper operations (see
docs/ARCHITECTURE.md, "Contract: reachability and the stranded-item shed"):

* **Shed** -- the periodic check routes *ring-stranded* copies (items below
  the effective ring boundary after a half-completed split; counted by
  ``total_stored_items()`` but invisible to ``scan_range``) back to their
  responsible owner through the normal store path, and drops the local copy
  only after a version-checked ack.

A FREE peer enters the ring only through a split, and a split starts only
when a store holds more than ``2*sf`` items.  The split is move-then-delete:
the splitter drops the handed-over slice only after the new peer has joined
and confirmed, so a crash on either side loses nothing.

The merge path is exactly what Figure 22 measures and what the availability
ablations stress.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional

from repro.datastore.items import columns_to_wire, items_to_wire
from repro.datastore.ranges import CircularRange
from repro.datastore.store import DataStore
from repro.index.config import IndexConfig
from repro.ring.chord import ChordRing, RingListener
from repro.transport import Endpoint, RpcError


def _open_gate(gate, _event=None) -> None:
    """Timer or callback: stop waiting on ``gate`` (the first to fire wins)."""
    if not gate.triggered:
        gate.succeed()


class FreePeerPool(Endpoint):
    """A directory of free peers (P-Ring keeps spare peers outside the ring).

    Modelled as an addressable service so that acquiring/releasing free peers
    remains message-based like everything else in the system.
    """

    def __init__(self, sim, network, address: str = "pool"):
        super().__init__(sim, network, address)
        self._free: List[str] = []

    def add(self, address: str) -> None:
        """Register a free peer (done by the cluster facade on peer arrival)."""
        if address not in self._free:
            self._free.append(address)

    def available(self) -> int:
        """Number of free peers currently available."""
        return len(self._free)

    def rpc_pool_acquire(self, payload, request):
        """RPC: hand out one free peer (or none)."""
        if not self._free:
            return {"address": None}
        return {"address": self._free.pop(0)}

    def rpc_pool_release(self, payload, request):
        """RPC: a peer merged away and is free again."""
        self.add(payload["address"])
        return {"ok": True}


class StorageBalancer(RingListener):
    """Split / merge / redistribute orchestration for one peer."""

    def __init__(
        self,
        node: Endpoint,
        ring: ChordRing,
        store: DataStore,
        replication,
        config: IndexConfig,
        pool_address: Optional[str],
        router=None,
        metrics=None,
        history=None,
    ):
        self.node = node
        self.ring = ring
        self.store = store
        self.replication = replication
        self.config = config
        self.pool_address = pool_address
        self.router = router
        self.metrics = metrics
        self.history = history

        self._balancing = False
        self._pending_split: Optional[Dict] = None
        # Deferral backoff (periodic path only): a deferred split -- no free
        # peer, or an overflow made of ring-stranded items -- used to be
        # retried on every balancer round, hot-spinning the periodic check at
        # saturation.  Consecutive deferrals now back the retry off
        # multiplicatively; an overflow event (a new insert) still triggers an
        # immediate attempt, and a started split resets the backoff.  The
        # delay doubles per deferral, up to 8 base periods.
        self._defer_until = 0.0
        self._defer_delay = self._defer_base

        store.on_overflow = self.schedule_split
        store.on_underflow = self.schedule_merge
        store.on_range_changed = self.schedule_shed

        node.register_handler("ds_activate", self._handle_activate)
        node.register_handler("ds_split_complete", self._handle_split_complete)
        node.register_handler("ds_redistribute_request", self._handle_redistribute_request)
        node.register_handler("ds_absorb_items", self._handle_absorb_items)
        # Replaces the Data Store's plain delete: the same reply, sent once
        # an in-flight split's new peer has dropped its copy too.
        node.register_handler("ds_remove_item", self._handle_remove_item)
        # The periodic check (:meth:`on_tick`, run by the ring's maintenance
        # tick) re-checks thresholds in case a triggered attempt aborted (no
        # free peers, busy successor, transient failures).
        ring.add_listener(self)

    # ------------------------------------------------------------------ helpers
    @property
    def address(self) -> str:
        return self.node.address

    def _record_op(self, kind: str, **attrs) -> None:
        if self.history is not None:
            self.history.record(kind, peer=self.address, **attrs)

    def _record_metric(self, name: str, value: float) -> None:
        if self.metrics is not None:
            self.metrics.record(name, value)

    # ------------------------------------------------------------------ triggers
    def schedule_split(self) -> None:
        """Request a split attempt (called on overflow)."""
        if not self._balancing:
            self.node.spawn(self.maybe_split(), name="ds-split")

    def schedule_merge(self) -> None:
        """Request a merge/redistribute attempt (called on underflow)."""
        if not self._balancing:
            self.node.spawn(self.maybe_merge(), name="ds-merge")

    def schedule_shed(self) -> None:
        """Request a shed pass (called when a range boundary moves).

        Event-driven so a boundary shrink that strands copies near the end of
        a run is healed immediately instead of waiting out a periodic round.
        """
        if not self._balancing and self._shed_due():
            self.node.spawn(self.maybe_shed(), name="ds-shed")

    def on_tick(self, ring) -> None:
        """The periodic check: the safety net under the triggered attempts."""
        if self._balancing or not self.store.active:
            return
        count = self.store.item_count()
        if count > self.config.overflow_threshold and self.node.sim.now >= self._defer_until:
            self.schedule_split()
        elif count < self.config.underflow_threshold:
            self.schedule_merge()
        elif self._shed_due():
            self.node.spawn(self.maybe_shed(), name="ds-shed")

    # ------------------------------------------------------------------ split
    def maybe_split(self):
        """Split the local range with a free peer if still overflowing."""
        if self._balancing or self._pending_split is not None:
            return
        if self.pool_address is None:
            return
        shed_instead = False
        self._balancing = True
        try:
            yield self.store.range_lock.acquire_write()
            try:
                if (
                    not self.store.active
                    or self.store.range is None
                    or self.store.item_count() <= self.config.overflow_threshold
                    or self.store.item_count() < 2
                ):
                    return
                # Only items inside the *ring-coherent* slice of the range can
                # seed a split (see _split_candidates): a split key below the
                # boundary the ring currently recognises produces a partner
                # whose join is redirected forever -- it aborts at its attempt
                # cap, returns to the pool, and the periodic check retries the
                # same doomed split indefinitely.
                base = self._split_base()
                ordered, payloads = self.store.items.arc_columns(base, self.ring.value)
                if len(ordered) <= self.config.overflow_threshold or len(ordered) < 2:
                    # Overflowed only counting items the ring would not accept
                    # a join for (stranded by a boundary move): a split cannot
                    # help, so defer instead of churning the free-peer pool --
                    # and shed the stranded copies, which is the actual remedy
                    # (an overflow branch that always wins the periodic check
                    # would otherwise starve the shed until the deferral
                    # backoff opens a window).
                    self._note_deferral("ring_boundary_mismatch")
                    shed_instead = self._shed_due()
                    return
                middle = (len(ordered) - 1) // 2
                split_key = ordered[middle]
                if split_key == self.ring.value:
                    return  # degenerate: the split would take the whole range
                # The handed-over prefix, snapshotted under the lock as
                # column slices (no Item per copy).
                lower_keys = ordered[: middle + 1]
                lower_payloads = payloads[: middle + 1]
                range_low = base
                # The new peer inserts right before us: address the join at
                # our predecessor (a stale pointer is corrected by redirects).
                pred_address = self.ring.pred_address or self.address
            finally:
                self.store.range_lock.release_write()

            try:
                response = yield self.node.call(self.pool_address, "pool_acquire", {})
            except RpcError:
                return
            free_address = response.get("address")
            if free_address is None:
                self._note_deferral("no_free_peer")
                shed_instead = self._shed_due()
                return
            # A split is actually starting: the conditions that caused earlier
            # deferrals no longer hold, so retry promptly from now on.
            self._defer_delay = self._defer_base
            self._defer_until = 0.0

            completion = self.node.sim.event()
            activation = self.node.call(
                free_address,
                "ds_activate",
                {
                    "value": split_key,
                    "range": (range_low, split_key, False),
                    "items": columns_to_wire(lower_keys, lower_payloads),
                    "join_via": pred_address,
                    "notify": self.address,
                    # Our predecessor's lease: the new peer becomes its first
                    # successor before its next round pushes there.
                    "lease": self.replication.lease_for(self.ring.pred_address),
                },
            )
            self._pending_split = {
                "new_peer": free_address,
                "split_key": split_key,
                "range_low": range_low,
                "transferred": set(lower_keys),
                "deleted_during": set(),
                "activation": activation,
                "event": completion,
            }
            self._record_op(
                "split_started", new_peer=free_address, split_key=split_key
            )
            try:
                yield activation
            except RpcError:
                # The free peer is unreachable; forget the split attempt.
                self._pending_split = None
                return

            # Wait for the new peer to report that it joined the ring.
            deadline = self.node.sim.timeout(self.config.leave_ack_timeout + 30.0)
            yield self.node.sim.any_of([completion, deadline])
            if not completion.triggered:
                self._record_op("split_timed_out", new_peer=free_address)
                self._pending_split = None
                return
            yield from self._finish_split()
        finally:
            self._balancing = False
        if shed_instead:
            yield from self.maybe_shed()

    def _handle_activate(self, payload, request):
        """RPC (at the free peer): take over a range and join the ring."""
        if self.store.active:
            return {"accepted": False, "reason": "already_active"}
        crange = CircularRange.from_tuple(tuple(payload["range"]))
        value = payload["value"]
        self.ring.update_value(value)
        self.store.activate(crange, payload["items"])
        if payload.get("lease") is not None:
            self.replication.take_lease(payload["lease"])
        self.node.spawn(
            self._activation_join(payload["join_via"], payload["notify"]),
            name="ds-activate-join",
        )
        return {"accepted": True}

    def _activation_join(self, join_via: str, notify: str):
        """Join the ring (via the configured insertSucc) and notify the splitter."""
        if join_via == self.node.address:
            # The splitter's predecessor pointer can be stale and name a peer
            # that has since merged away and been recycled from the pool --
            # this one; join through the splitter instead.
            join_via = notify
        try:
            yield from self.ring.join(join_via)
        except Exception:
            joined = False
            if join_via != notify:
                # The addressed contact was stale (merged away, or a redirect
                # chain dead-ended).  The splitter itself is certainly still a
                # ring member -- it is waiting for our confirmation -- so
                # retry the join through it before giving the attempt up.
                try:
                    yield from self.ring.join(notify)
                    joined = True
                except Exception:
                    joined = False
            if not joined:
                # Could not join: drop the transferred copies -- the splitter
                # only sheds its own copies after our confirmation, so nothing
                # is lost -- and return to the free-peer pool for a later
                # attempt.
                self.store.deactivate()
                if self.pool_address is not None:
                    try:
                        yield self.node.call(
                            self.pool_address, "pool_release", {"address": self.address}
                        )
                    except RpcError:
                        pass
                return
        self.replication.refresh_now()
        try:
            response = yield self.node.call(
                notify,
                "ds_split_complete",
                {"new_peer": self.address, "split_key": self.ring.value},
            )
        except RpcError:
            # The splitter failed: keep the range -- our copies may now be
            # the only live ones, and the ring has already adopted us.
            return
        if not response.get("ok"):
            # The splitter timed out waiting and abandoned the split (it
            # kept its full range and never sheds the transferred items), so
            # a completed join here would leave both peers claiming
            # (range_low, split_key].  Undo: leave the ring gracefully and
            # return to the free-peer pool; the splitter's periodic check
            # will retry the split from scratch.
            self.store.deactivate()
            yield from self.ring.leave()
            self.replication.clear()
            self._record_op("split_rolled_back", splitter=notify)
            if self.pool_address is not None:
                try:
                    yield self.node.call(
                        self.pool_address, "pool_release", {"address": self.address}
                    )
                except RpcError:
                    pass

    def _handle_split_complete(self, payload, request):
        """RPC (at the splitter): the new peer is in the ring; shed the lower half."""
        pending = self._pending_split
        if pending is None or pending["new_peer"] != payload.get("new_peer"):
            return {"ok": False}
        if not pending["event"].triggered:
            pending["event"].succeed(payload)
        # First-hand knowledge: the partner sits directly behind us now.
        # Adopting it immediately closes the window in which a stale
        # predecessor announcement re-widens the range below the split key.
        self.ring.adopt_inserted_predecessor(
            payload["new_peer"], payload["split_key"]
        )
        return {"ok": True}

    def _finish_split(self):
        """Phase 3 of the split: drop the transferred items and shrink the range."""
        pending = self._pending_split
        if pending is None:
            return
        split_key = pending["split_key"]
        new_peer = pending["new_peer"]
        lower_range = CircularRange(pending["range_low"], split_key)
        yield self.store.range_lock.acquire_write()
        try:
            if self.store.range is None:
                return
            # Items that arrived in the lower half while the new peer was
            # joining must be forwarded, not dropped.
            transferred = pending["transferred"]
            late_arrivals = []
            shed = []
            for skv in self.store.items.range_keys(lower_range):
                item = self.store.remove_local(skv, reason="split_shed")
                shed.append(item)
                if skv not in transferred:
                    late_arrivals.append(item)
            self.store.set_range_low(split_key, reason="split")
            self.replication.keep_handed_over(shed)
        finally:
            self.store.range_lock.release_write()

        for item in late_arrivals:
            try:
                yield self.node.call(
                    new_peer, "ds_store_item", {"item": item.to_wire(), "reason": "split_late"}
                )
            except RpcError:
                pass
        for skv in list(pending["deleted_during"]):  # a forward may still drop one
            try:
                yield self.node.call(new_peer, "ds_remove_item", {"skv": skv})
            except RpcError:
                pass
        self._record_op("split_finished", new_peer=new_peer, split_key=split_key)
        self._pending_split = None

    def _handle_remove_item(self, payload, request):
        """RPC: the Data Store's delete, reaching a split's new peer first.

        A delete of a key an in-flight split handed over must not be
        acknowledged while the new peer still holds a copy: the new peer
        serves that copy the moment it has joined, before the split finishes.
        So the delete is forwarded to it, and acknowledged when it answers
        (:meth:`_forward_delete`).
        """
        reply = self.store._handle_remove_item(payload, request)
        pending = self._pending_split
        if not reply["removed"] or pending is None or payload["skv"] not in pending["transferred"]:
            return reply
        return self._forward_delete(pending, payload["skv"], reply)

    def _forward_delete(self, pending: Dict, skv: float, reply: Dict):
        """Generator: delete ``skv`` at the split's new peer, then answer ``reply``.

        The delete follows the activation's answer, so it cannot overtake
        the copies it deletes.  The whole wait is bounded by half an RPC
        timeout: the caller gave up ``rpc_timeout`` after sending, one
        message before we got the delete, and a retry would find the key
        gone here and never see it acknowledged.  A new peer that has not
        answered by then (it is dead, or a message was lost) is past
        serving, or gets the delete again once it has joined: the key is
        queued for :meth:`_finish_split` before the forward, and dropped
        from the queue only when the new peer confirms.
        """
        deleted_during = pending["deleted_during"]
        deleted_during.add(skv)
        sim = self.node.sim
        budget = self.node.network.config.rpc_timeout / 2
        deadline = sim.now + budget
        activation = pending["activation"]
        if not activation.triggered:
            gate = sim.event()
            timer = sim.schedule_timer(budget, _open_gate, gate)
            activation._add_callback(partial(_open_gate, gate))
            try:
                yield gate
            finally:
                sim.cancel_timer(timer)
        accepted = activation.triggered and activation.ok and activation.value.get("accepted")
        if not accepted or sim.now >= deadline:
            return reply
        try:
            response = yield self.node.call(
                pending["new_peer"], "ds_remove_item", {"skv": skv}, timeout=deadline - sim.now
            )
        except RpcError:
            return reply
        if response.get("removed"):
            deleted_during.discard(skv)
        return reply

    @property
    def _defer_base(self) -> float:
        """The first deferral's delay, and the one after a split starts."""
        return max(self.config.stabilization_period, 2.0)

    def _note_deferral(self, reason: str) -> None:
        """Record a deferred split and push the next periodic retry out."""
        self._record_op("split_deferred", reason=reason)
        self._defer_until = self.node.sim.now + self._defer_delay
        self._defer_delay = min(self._defer_delay * 2.0, self._defer_base * 8.0)

    # ------------------------------------------------------------------ stranded-item shed
    def _stranded_items(self) -> list:
        """Copies below the effective ring boundary -- stored but scan-invisible.

        The complement of :meth:`_split_candidates`: a half-completed split
        (or a predecessor moving inside a lagging range) leaves copies whose
        keys the ring no longer attributes to this peer.  ``scan_range`` only
        serves items inside the current range, so these copies are unreachable
        until shed to their responsible owner.
        """
        if not self._can_strand():
            return []
        return self.store.items.off_arc_items(self._split_base(), self.ring.value)

    def _can_strand(self) -> bool:
        store = self.store
        return store.active and store.range is not None and not store.range.full

    def _shed_due(self) -> bool:
        return (
            self.router is not None
            and self._can_strand()
            and self.store.items.any_off_arc(self._split_base(), self.ring.value)
        )

    def maybe_shed(self):
        """Route ring-stranded copies to their responsible owner, then drop them.

        Store-then-delete: the local copy is removed only after the owner's
        ack -- which carries the owner's store mutation version -- confirms
        the copy is durably held elsewhere, and only if the copy is *still*
        stranded at deletion time (the boundary may have moved back while the
        store RPC was in flight).  Any failure leaves the copy where it was
        for the next periodic round.
        """
        if self._balancing or self._pending_split is not None or self.router is None:
            return
        self._balancing = True
        shed = 0
        try:
            for item in self._stranded_items():
                if not self.store.active:
                    break
                target = yield from self.router.find_responsible(item.skv)
                if target is None or target == self.address:
                    continue
                try:
                    response = yield self.node.call(
                        target,
                        "ds_store_item",
                        {"item": item.to_wire(), "reason": "shed"},
                    )
                except RpcError:
                    continue
                if not response.get("stored") or response.get("version") is None:
                    continue
                yield self.store.range_lock.acquire_write()
                try:
                    still_stranded = any(
                        stray.skv == item.skv for stray in self._stranded_items()
                    )
                    if still_stranded:
                        self.store.remove_local(item.skv, reason="shed")
                        shed += 1
                        self._record_op("item_shed", skv=item.skv, to_peer=target)
                finally:
                    self.store.range_lock.release_write()
        finally:
            self._balancing = False
            if shed:
                self._record_metric("shed", shed)

    # ------------------------------------------------------------------ merge / redistribute
    def maybe_merge(self):
        """Handle an underflow by redistributing with, or merging into, the successor.

        The boundary-moving and item-moving steps run under the participating
        peers' range write locks so in-flight scans never observe a torn range,
        but neither peer holds its own lock across the cross-peer RPC (the
        locks are local, per-peer, exactly as in the paper's Algorithms).
        """
        if self._balancing or self._pending_split is not None:
            return
        self._balancing = True
        started = self.node.sim.now
        try:
            successor = self.ring.first_live_successor()
            if successor is None or not self.store.active:
                return
            if self.store.item_count() >= self.config.underflow_threshold:
                return
            need = self.config.storage_factor - self.store.item_count()
            try:
                response = yield self.node.call(
                    successor,
                    "ds_redistribute_request",
                    {"need": need, "requester": self.address},
                    timeout=10.0,
                )
            except RpcError:
                return
            action = response.get("action")
            if action == "redistribute":
                received = response["items"]
                boundary = response["new_boundary"]
                yield self.store.range_lock.acquire_write()
                try:
                    self.store.store_wire(received, reason="redistribute_in")
                    self.store.set_range_high(boundary, reason="redistribute")
                    self.ring.update_value(boundary)
                finally:
                    self.store.range_lock.release_write()
                self._record_op(
                    "redistribute", from_peer=successor, received=len(received)
                )
                self._record_metric("redistribute", self.node.sim.now - started)
                return
            if action != "merge":
                return  # successor busy; retry on the next periodic check

            # --- Merge: give everything to the successor and leave. ----------
            yield self.store.range_lock.acquire_write()
            try:
                if not self.store.active or self.store.range is None:
                    return
                outgoing = self.store.items.to_wire()
                new_low = (
                    self.store.range.low
                    if not self.store.range.full
                    else self.ring.value
                )
                try:
                    yield self.node.call(
                        successor,
                        "ds_absorb_items",
                        {
                            "items": outgoing,
                            "new_low": new_low,
                            "from_peer": self.address,
                        },
                        timeout=10.0,
                    )
                except RpcError:
                    return
                for entry in outgoing:
                    self.store.remove_local(entry["skv"], reason="merge_transfer")
                self.store.deactivate()
            finally:
                self.store.range_lock.release_write()
            self._record_op("merge_transfer", to_peer=successor, count=len(outgoing))

            # Section 5.2: push every item we hold (notably our replicas) one
            # additional hop so the replica count is not reduced by our leave.
            if self.config.extra_hop_replication:
                yield from self.replication.push_extra_hop()

            # Leave the ring (availability-preserving or naive, per config).
            leave_duration = yield from self.ring.leave()
            self.replication.clear()

            merge_duration = self.node.sim.now - started
            self._record_metric("merge", merge_duration)
            self._record_op(
                "merge_finished",
                to_peer=successor,
                duration=merge_duration,
                leave_duration=leave_duration,
            )
            if self.pool_address is not None:
                try:
                    yield self.node.call(
                        self.pool_address, "pool_release", {"address": self.address}
                    )
                except RpcError:
                    pass
        finally:
            self._balancing = False

    def _handle_redistribute_request(self, payload, request):
        """RPC (at the successor): either spare some items or invite a merge."""
        if self._balancing or not self.store.active or self.store.range is None:
            return {"action": "busy"}
        yield self.store.range_lock.acquire_write()
        try:
            if not self.store.active or self.store.range is None:
                return {"action": "busy"}
            need = int(payload.get("need", 1))
            spare = self.store.item_count() - self.config.storage_factor
            if spare < need or spare <= 0:
                return {"action": "merge"}
            give = min(spare, max(need, 1))
            victims = sorted(
                self.store.items.range_keys(self.store.range),
                key=self._distance_from_low,
            )[:give]
            if not victims:
                return {"action": "merge"}
            boundary = max(victims, key=self._distance_from_low)
            given = [
                self.store.remove_local(skv, reason="redistribute_out")
                for skv in victims
            ]
            self.store.set_range_low(boundary, reason="redistribute")
            self._record_op(
                "redistribute_out", to_peer=payload.get("requester"), given=len(victims)
            )
            return {
                "action": "redistribute",
                "items": items_to_wire(given),
                "new_boundary": boundary,
            }
        finally:
            self.store.range_lock.release_write()

    def _split_base(self) -> float:
        """The lower boundary a split must stay strictly above.

        Normally the store range's lower bound (or the peer's own value for
        the bootstrap full range).  When the ring's predecessor pointer sits
        *inside* the store range -- a peer inserted between us and our old
        boundary while the store's range lagged behind -- the predecessor's
        value is the effective boundary: the ring will never accept a join at
        a value the predecessor already claims.
        """
        if self.store.range is None or self.store.range.full:
            return self.ring.value
        base = self.store.range.low
        pred_value = self.ring.pred_value
        if (
            self.ring.pred_address not in (None, self.node.address)
            and pred_value is not None
            and pred_value != self.ring.value
            and self._clockwise_distance(pred_value, base)
            < self._clockwise_distance(self.ring.value, base)
        ):
            base = pred_value
        return base

    def _split_candidates(self) -> list:
        """Keys of the items a split could legitimately hand to a new ring member.

        The keys on the arc from :meth:`_split_base` to the peer's own value,
        in clockwise order from the base (a split hands over a prefix).  Keys
        at or below the base (strays stranded by a boundary move, or items the
        ring's current predecessor already claims) are excluded -- a split
        keyed on one of them can never complete.  :meth:`maybe_split` reads
        the same arc with its payloads (``ItemStore.arc_columns``) and hands
        over a prefix of both columns.
        """
        if self.store.range is None:
            return []
        return self.store.items.arc_keys(self._split_base(), self.ring.value)

    def split_feasible(self) -> bool:
        """Whether an overflow split could currently be accepted by the ring.

        Used by :meth:`repro.index.pring.PRingIndex.split_pressure` (the
        phase executor's quiescence signal): a store whose overflow consists
        of ring-stranded items exerts no split pressure -- retrying its split
        would spin forever, and the deployment is as settled as it can get.
        """
        if not self.store.active or self.store.range is None:
            return False
        if self.store.item_count() <= self.config.overflow_threshold:
            return False
        candidates = self._split_candidates()
        return len(candidates) > self.config.overflow_threshold and len(candidates) >= 2

    def _distance_from_low(self, key: float) -> float:
        """Clockwise distance of ``key`` from this peer's range lower bound."""
        low = self.store.range.low if self.store.range is not None else 0.0
        return self._clockwise_distance(key, low)

    def _clockwise_distance(self, key: float, base: float) -> float:
        """Clockwise distance of ``key`` from ``base`` on the circular key space."""
        if key > base:
            return key - base
        return self.config.key_space - base + key

    def _handle_absorb_items(self, payload, request):
        """RPC (at the successor): take over a merging predecessor's items and range."""
        items = payload["items"]
        new_low = payload["new_low"]
        yield self.store.range_lock.acquire_write()
        try:
            self.store.store_wire(items, reason="merge_absorb")
            if (
                self.store.active
                and self.store.range is not None
                and not self.store.range.full
            ):
                self.store.set_range_low(new_low, reason="merge_absorb")
        finally:
            self.store.range_lock.release_write()
        self._record_op(
            "merge_absorb", from_peer=payload.get("from_peer"), count=len(items)
        )
        return {"ok": True}
