"""PEPPER ring protocols: consistent ``insertSucc`` and availability-preserving ``leave``.

This module implements the paper's two ring-level contributions on top of the
Chord-style substrate in :mod:`repro.ring.chord`:

* **Consistent insertSucc** (Section 4.3.1, Algorithms 1-2).  A newly inserted
  peer starts in the JOINING state.  The pointer to it propagates backwards
  through predecessors' successor lists, piggybacked on ring stabilization;
  only once every predecessor that could otherwise end up with a "missing"
  pointer knows about the new peer does it transition to JOINED.  The
  proactive-predecessor optimisation (nudging predecessors to stabilize
  immediately) makes the latency a small multiple of the network round-trip
  instead of the stabilization period.

* **Availability-preserving leave** (Section 5.1).  A peer that wants to leave
  (because of a Data Store merge) first enters the LEAVING state.  Predecessors
  that point to it lengthen their successor lists by one (they keep the LEAVING
  pointer *in addition to* the usual number of JOINED pointers), again
  piggybacked on stabilization.  Only when the information has reached every
  predecessor that points at the leaver does the leaver receive a leave-ack and
  actually depart, so the ring's tolerance to subsequent failures is not
  reduced.

Small-ring adaptation: in rings with fewer JOINED peers than the successor-list
length the propagation wraps around; the inserter detects its own pending
JOINING pointer coming back and self-acks, and a leaver whose list shows that
every remaining peer already knows acks early.  This preserves the guarantees
(the set of peers that must learn is exactly the set of ring members) while
avoiding unbounded waits.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.ring.chord import ChordRing
from repro.ring.entries import (
    FREE,
    INSERTING,
    JOINED,
    JOINING,
    LEAVING,
    SuccessorEntry,
    insert_sorted,
    promoted,
    trim_riding,
    without,
)
from repro.transport import RpcError


class PepperRing(ChordRing):
    """Chord ring augmented with the paper's consistency/availability protocols."""

    def __init__(self, node, value, config, metrics=None, history=None):
        super().__init__(node, value, config, metrics=metrics, history=history)
        node.register_handler("ring_join_ack", self._handle_join_ack)
        node.register_handler("ring_leave_ack", self._handle_leave_ack)
        node.register_handler("ring_joining_notice", self._handle_joining_notice)
        node.register_handler("ring_leaving_notice", self._handle_leaving_notice)
        # Pending insertSucc bookkeeping (at most one at a time, as in Alg. 1).
        self._pending_insert: Optional[Dict] = None
        # Event the leave protocol waits on.
        self._leave_ack_event = None
        # First-seen timestamps for JOINING/LEAVING rider entries, used to prune
        # stale riders left behind by aborted protocols or failed peers.
        self._rider_seen: Dict[str, float] = {}

    # ------------------------------------------------------------------ insertSucc
    def _insert_protocol(self, new_address: str, new_value: float):
        """PEPPER insertSucc (Algorithm 1) run at the predecessor of the new peer."""
        if not self.config.consistent_insert:
            # Configuration selects the naive baseline (Section 6.2).
            yield from super()._insert_protocol(new_address, new_value)
            return
        started = self.sim.now
        yield self.succ_lock.acquire_write()
        if self.state != JOINED or self._pending_insert is not None:
            self.succ_lock.release_write()
            return
        self._set_state(INSERTING)
        entry = SuccessorEntry(new_address, new_value, JOINING)
        self.succ_list = [entry, *self.succ_list]
        ack_event = self.sim.event()
        self._pending_insert = {
            "address": new_address,
            "value": new_value,
            "event": ack_event,
        }
        other_members = [
            e
            for e in self.succ_list
            if e.state == JOINED and e.address not in (self.address, new_address)
        ]
        self.succ_lock.release_write()
        self._record_op("init_insert_succ_pepper", new_peer=new_address)

        if not other_members:
            # We are the only JOINED member: no other peer's pointers can become
            # inconsistent, so the new peer may transition immediately.
            if not ack_event.triggered:
                ack_event.succeed("alone")
        else:
            # Section 4.3.1's optimisation, "proactively contact the
            # predecessor": actively walk the predecessor chain handing out the
            # JOINING pointer instead of waiting for periodic stabilization.
            # The stabilization-piggybacked propagation below remains the
            # fallback if the walk hits a failed or stale predecessor.
            if self.config.proactive_nudge:
                self.node.spawn(
                    self._push_rider_backwards(
                        "ring_joining_notice",
                        new_address,
                        new_value,
                        self.config.successor_list_length - 1,
                        ack_event,
                    ),
                    name="push-joining",
                )
            self._nudge_predecessor()

        # Wait for a join-ack from the farthest predecessor that needs to know
        # (Algorithm 1 line 6), re-nudging periodically so that lost nudges or
        # failed predecessors only delay, never wedge, the protocol.
        attempts = 0
        while not ack_event.triggered:
            attempts += 1
            wait = self.sim.timeout(self.config.join_ack_timeout)
            yield self.sim.any_of([ack_event, wait])
            if ack_event.triggered:
                break
            # The set of peers that must learn about the insert is the set of
            # current ring members pointing at us; peers that merged away or
            # failed since the protocol started (their zombie entries are
            # pruned by stabilization) shrink it -- possibly to nobody, in
            # which case the new peer may transition immediately.  Without
            # this re-check an insert whose only witnesses left the ring
            # wedges the inserter in INSERTING for the full retry budget.
            # Both views must agree that nobody else needs to learn: the
            # successor list (no other JOINED member) *and* the predecessor
            # pointer (cleared by the predecessor check once its peer is
            # confirmed gone) -- an empty successor list alone can be a
            # transient artifact of pruning on RPC timeouts while live
            # predecessors still await the pointer.
            remaining = [
                e
                for e in self.succ_list
                if e.state == JOINED and e.address not in (self.address, new_address)
            ]
            alone = self.pred_address in (None, self.address, new_address)
            if not remaining and alone:
                if not ack_event.triggered:
                    ack_event.succeed("witnesses-left")
                break
            self._nudge_predecessor()
            self.stabilize_now()
            if attempts > 200:  # safety net: never wedge the simulation
                # The transition below then goes ahead without the ack; record it.
                self._record_op("insert_succ_unacked", new_peer=new_address)
                break

        # Transition the new peer to JOINED (Algorithm 1 lines 7-12).
        yield self.succ_lock.acquire_write()
        try:
            # The new peer's initial successor list is our own view *including*
            # pointers to peers that are themselves still JOINING (a concurrent
            # insert a few positions further along): the new peer is one of
            # their relevant predecessors and must know about them, otherwise
            # Theorem 1 would be violated the moment both transitions complete.
            successor_view = [e.copy() for e in without(self.succ_list, (new_address,))]
        finally:
            self.succ_lock.release_write()
        try:
            yield self._hand_over(new_address, successor_view)
        except RpcError:
            # The new peer died before completing its insertion: roll back.
            yield self.succ_lock.acquire_write()
            self.succ_list = without(self.succ_list, (new_address,))
            self._set_state(JOINED)
            self._pending_insert = None
            self.succ_lock.release_write()
            self._record_op("insert_succ_aborted", new_peer=new_address)
            return

        yield self.succ_lock.acquire_write()
        try:
            self._set_state(JOINED)
            self._pending_insert = None
            self.succ_list = self._trim(promoted(self.succ_list, new_address))
        finally:
            self.succ_lock.release_write()

        duration = self.sim.now - started
        self._record("insert_succ", duration)
        self._record_op("insert_succ", new_peer=new_address, duration=duration)
        self._fire_successor_changed(new_address)

    def _nudge_predecessor(self) -> None:
        """Proactively ask the predecessor to stabilize (Section 4.3.1 optimisation)."""
        if not self.config.proactive_nudge:
            return
        if self.pred_address and self.pred_address != self.address:
            # Fire-and-forget: the reply (if any) is ignored.
            self.node.call(self.pred_address, "ring_nudge", {})

    # ------------------------------------------------------------------ proactive propagation
    def _push_rider_backwards(self, method, address, value, hops_needed, event, successor=None):
        """Walk the predecessor chain handing out a JOINING/LEAVING pointer.

        Each contacted predecessor records the pointer immediately (the same
        state the stabilization-piggybacked propagation would eventually give
        it) and replies with *its* predecessor, so the walk follows the real
        ring even when individual pointers are slightly stale.  Once every peer
        that could end up with an inconsistent pointer has been informed --
        ``hops_needed`` predecessors, or the walk wrapped around a small ring --
        the waiting protocol is acknowledged.  Any failure simply ends the walk
        and leaves the acknowledgement to the stabilization path.  A leaver
        also hands out ``successor``, its first JOINED successor, so every
        predecessor it informs holds a JOINED pointer past it before it goes.
        """
        payload = {"address": address, "value": value, "origin": self.address}
        if successor is not None:
            payload["successor"] = successor
        current = self.pred_address
        visited = {self.address, address}
        informed = 0
        while current and current not in visited and informed < hops_needed:
            visited.add(current)
            try:
                response = yield self.node.call(current, method, payload)
            except RpcError:
                return
            if not response.get("ok"):
                return
            informed += 1
            current = response.get("pred")
        wrapped = current in visited and informed > 0
        if (informed >= hops_needed or wrapped) and event is not None:
            if not event.triggered:
                event.succeed("pushed")

    def _insert_sorted(self, entry: SuccessorEntry) -> None:
        """Add (or upgrade) a pointer learned through a proactive notice (:func:`insert_sorted`)."""
        self.succ_list = self._trim(insert_sorted(self.succ_list, entry, self.value,
                                                  self.config.key_space))

    def _handle_joining_notice(self, payload, request):
        """RPC: a successor proactively tells us about a peer being inserted."""
        if not self.is_joined:
            return {"ok": False}
        self._insert_sorted(SuccessorEntry(payload["address"], payload["value"], JOINING))
        self._rider_seen.setdefault(payload["address"], self.sim.now)
        return {"ok": True, "pred": self.pred_address}

    def _handle_leaving_notice(self, payload, request):
        """RPC: a successor proactively tells us it is about to leave the ring.

        The notice names the JOINED peer after the leaver.  A list that lacks
        it (short, or stale) gains it now: the leaver may be gone before our
        next stabilization round could have taught it to us.
        """
        if not self.is_joined:
            return {"ok": False}
        self._insert_sorted(SuccessorEntry(payload["address"], payload["value"], LEAVING))
        self._rider_seen.setdefault(payload["address"], self.sim.now)
        successor = payload.get("successor")
        if successor is not None and successor["address"] != self.address and all(
            entry.address != successor["address"] for entry in self.succ_list
        ):
            self._insert_sorted(SuccessorEntry(successor["address"], successor["value"], JOINED))
        return {"ok": True, "pred": self.pred_address}

    def _handle_join_ack(self, payload, request):
        """RPC: a predecessor reports that the pending JOINING peer is known widely enough."""
        pending = self._pending_insert
        if pending is not None and pending["address"] == payload.get("joining"):
            if not pending["event"].triggered:
                pending["event"].succeed(payload.get("sender"))
        return {"ok": True}

    # ------------------------------------------------------------------ leave
    def leave(self):
        """Availability-preserving leave (Section 5.1).

        Enters the LEAVING state, waits until predecessors pointing at this
        peer have lengthened their successor lists (signalled by a leave-ack
        piggybacked on stabilization), then departs.  Returns the elapsed time.
        """
        started = self.sim.now
        if not self.config.safe_leave or self.state != JOINED:
            duration = yield from super().leave()
            return duration

        self._set_state(LEAVING)
        self._leave_ack_event = self.sim.event()
        self._record_op("ring_init_leave", safe=True)

        joined_others = [
            e for e in self.succ_list if e.state == JOINED and e.address != self.address
        ]
        if not joined_others or self.pred_address in (None, self.address):
            # Nobody else points at us; leaving cannot reduce availability.
            if not self._leave_ack_event.triggered:
                self._leave_ack_event.succeed("alone")
        else:
            # Actively walk the predecessor chain so every peer that points at
            # us lengthens its list now, instead of a stabilization round later.
            if self.config.proactive_nudge:
                self.node.spawn(
                    self._push_rider_backwards(
                        "ring_leaving_notice",
                        self.address,
                        self.value,
                        self.config.successor_list_length,
                        self._leave_ack_event,
                        successor={
                            "address": joined_others[0].address,
                            "value": joined_others[0].value,
                        },
                    ),
                    name="push-leaving",
                )
            self._nudge_predecessor()

        deadline = self.sim.now + self.config.leave_ack_timeout
        renudge_interval = min(1.0, self.config.join_ack_timeout)
        while not self._leave_ack_event.triggered and self.sim.now < deadline:
            wait = self.sim.timeout(renudge_interval)
            yield self.sim.any_of([self._leave_ack_event, wait])
            if not self._leave_ack_event.triggered:
                # Re-nudge aggressively: our predecessor pointer may have been
                # stale (common when several adjacent peers merge away in a
                # cascade) and the information must still propagate.
                self._nudge_predecessor()
                self.stabilize_now()

        self._set_state(FREE)
        duration = self.sim.now - started
        self._record("leave", duration)
        self._record_op(
            "ring_leave",
            safe=True,
            acked=self._leave_ack_event.triggered,
            duration=duration,
        )
        return duration

    def _handle_leave_ack(self, payload, request):
        """RPC: a far-enough predecessor confirms it lengthened its successor list."""
        event = self._leave_ack_event
        if event is not None and not event.triggered:
            event.succeed(payload.get("sender"))
        return {"ok": True}

    # ------------------------------------------------------------------ list maintenance
    def _trim(self, entries):
        """``entries`` bounded (:func:`trim_riding`); LEAVING entries and our insert ride free."""
        pending = self._pending_insert["address"] if self._pending_insert is not None else None
        return trim_riding(entries, self.config.successor_list_length, pending)

    def _quiet_eligible(self, entries) -> bool:
        """No rider, and no insert of ours pending (it moves the trim and the self-ack)."""
        return self._pending_insert is None and super()._quiet_eligible(entries)

    def _post_adopt(self, entries, reported):
        """JOINING/LEAVING bookkeeping after adopting a successor list (Algorithm 2):
        ``entries`` less the riders that are pruned."""
        limit = self.config.successor_list_length
        joined_count = sum(1 for e in entries if e.state == JOINED)
        now = self.sim.now
        pending = self._pending_insert["address"] if self._pending_insert is not None else None

        # Self-ack for small rings: the pending JOINING pointer has travelled
        # all the way around the ring and comes back to us in the list reported
        # by our own successor -- every existing member has seen it.
        if pending is not None and pending in reported:
            event = self._pending_insert["event"]
            if not event.triggered:
                event.succeed("wrapped")

        keep = []
        for index, e in enumerate(entries):
            if e.state == JOINED:
                # Not (or no longer) a rider: forget any first-seen timestamp a
                # previous JOINING/LEAVING episode left behind, otherwise a
                # later LEAVING announcement by the same peer would be pruned
                # as "stale" the moment it is first seen.
                self._rider_seen.pop(e.address, None)
                keep.append(e)
                continue
            joining = e.state == JOINING
            ours = joining and index == 0 and e.address == pending
            if ours or not (joining or e.state == LEAVING):
                keep.append(e)
                continue
            newly_seen = e.address not in self._rider_seen
            first_seen = self._rider_seen.setdefault(e.address, now)
            # A peer far enough from the insertion point does not need a
            # JOINING pointer (Algorithm 2 lines 10-11); a LEAVING one rides
            # along uncounted, so only a peer further than L holds no pointer
            # at the leaver.
            if index >= (limit if joining else limit + 1):
                self._rider_seen.pop(e.address, None)
                continue
            if joining:
                # The ack must come from the farthest predecessor that needs
                # the pointer (distance L-1).  Rings smaller than that are
                # covered by the inserter's wrap-around self-ack above, so the
                # threshold is *not* relaxed by the local list length -- doing
                # so would let a peer with a transiently short list ack before
                # all relevant predecessors know (breaking Theorem 1).  The
                # ack goes to the inserter, the entry immediately before the
                # JOINING pointer (Algorithm 2 lines 12-13).
                acked = index >= limit - 1 and index > 0
                if acked and keep:
                    self.node.call(
                        keep[-1].address,
                        "ring_join_ack",
                        {"joining": e.address, "sender": self.address},
                    )
            else:
                # Every predecessor that points at the leaver has now
                # lengthened its list: tell the leaver it is safe to go
                # (Section 5.1).
                acked = index >= min(limit - 1, joined_count)
                if acked:
                    self.node.call(e.address, "ring_leave_ack", {"sender": self.address})
            if not acked and self.config.proactive_nudge and newly_seen:
                # Keep the cascade moving: ask our own predecessor to
                # stabilize so the pointer continues to propagate.  Only on
                # first sight -- nudging on every adoption would let stale
                # riders generate an endless nudge cycle around the ring.
                self._nudge_predecessor()
            if now - first_seen > 3 * self.config.stabilization_period:
                # The peer is long joined or gone; drop the stale rider.
                self._rider_seen.pop(e.address, None)
                continue
            keep.append(e)
        return keep
