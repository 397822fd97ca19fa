"""Chord-style Fault Tolerant Ring with the *naive* insert/leave baselines.

This module provides the ring substrate the paper builds on (Section 2.3):
successor lists of configurable length, periodic stabilization with the first
live successor, ping-based failure detection of the predecessor and the other
successor-list entries (skipped while stabilize traffic relays a recent
first-hand time for the peer), and the naive ``insertSucc`` / ``leave`` used
as baselines in Section 6.2.

The consistency-preserving PEPPER variants (Algorithms 1-2 and Section 5.1)
live in :mod:`repro.core.pepper_ring` and subclass :class:`ChordRing`.

A :class:`ChordRing` is a *component* attached to a :class:`~repro.transport.endpoint.Endpoint`;
it registers its message handlers on the node and exposes ring events to higher
layers (the Data Store and Replication Manager) through :class:`RingListener`
callbacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import is_
from typing import Callable, List, Optional, Tuple

from repro.index.config import FAILURE_DETECTION_TIMEOUT, STABILIZATION_JITTER, IndexConfig
from repro.ring.entries import (
    FREE,
    INSERTING,
    JOINED,
    JOINING,
    LEAVING,
    NEVER,
    SuccessorEntry,
    entries_from_wire,
    entries_to_wire,
    flat_wire,
    merge,
    promoted,
    same_wire,
    trim,
    wire_from_flat,
    without,
)
from repro.sim.engine import Interrupt
from repro.sim.locks import RWLock
from repro.transport import Endpoint, RpcError

# How many stabilization periods a relayed first-hand time keeps an entry off
# successor validation's ping list: the staleness a one-hop report already
# allows, a peer heard within one period in a reply at most 1.5 periods old.
RELAYED_LIVENESS_PERIODS = 2.5


def in_open_interval(value: float, low: float, high: float) -> bool:
    """Whether ``value`` lies in the circular open interval ``(low, high)``.

    The peer-value domain wraps around (Section 2.2): if ``low >= high`` the
    interval crosses the wrap point.  A degenerate interval (``low == high``)
    is treated as the whole ring minus the endpoint, which is the correct
    behaviour for a single-peer ring adopting its first real predecessor.
    """
    if low == high:
        return value != low
    if low < high:
        return low < value < high
    return value > low or value < high


@dataclass(slots=True)
class LastReply:
    """What a peer keeps of its last stabilize reply from ``target`` (:meth:`ChordRing._adopt`).

    ``received`` is the reply's list at the target's ``version``, flat
    (:func:`~repro.ring.entries.flat_wire`).  ``adopted`` is the list the
    last adopt installed if that adopt was a fixed point -- its list out was
    its list in -- with no rider and no pending insert, else ``None``;
    ``merged_with`` is our value and the target's value and state it merged.
    """

    target: str
    version: Optional[int]
    received: Tuple
    adopted: Optional[List[SuccessorEntry]] = None
    merged_with: Optional[Tuple[float, float, str]] = None


def _answer_state(answer, call) -> None:
    """Settle :meth:`ChordRing._ping`'s ``answer`` from the ping ``call``."""
    answer._trigger_last(True, (call.value["state"], call.value["value"]) if call.ok
                         else (None, None))


class RingListener:
    """Callbacks through which higher layers observe ring events.

    The Data Store and the Replication Manager listen for predecessor
    changes (the store's range is ``(pred.value, own.value]``, and the manager
    revives replicas once it grew), the storage balancer for the maintenance
    tick (its periodic check), and the index facade for join completion.
    """

    def on_joined(self, ring: "ChordRing") -> None:
        """This peer completed its insertion into the ring."""

    def on_predecessor_changed(
        self,
        ring: "ChordRing",
        old_address: Optional[str],
        old_value: Optional[float],
        new_address: str,
        new_value: float,
    ) -> None:
        """The peer's predecessor (hence its range lower bound) changed."""

    def on_predecessor_failed(
        self, ring: "ChordRing", old_address: str, old_value: float
    ) -> None:
        """The peer's predecessor stopped responding to pings."""

    def on_successor_changed(self, ring: "ChordRing", new_address: str) -> None:
        """The peer's first live successor changed."""

    def on_tick(self, ring: "ChordRing") -> None:
        """The peer's maintenance round (:meth:`ChordRing._tick`) finished."""


class ChordRing:
    """The Fault Tolerant Ring component of one peer."""

    def __init__(
        self,
        node: Endpoint,
        value: float,
        config: IndexConfig,
        metrics=None,
        history=None,
    ):
        self.node = node
        # A plain copy: ``Endpoint.address`` is set once and never rewritten.
        self.address: str = node.address
        self.config = config
        self.metrics = metrics
        self.history = history

        # Optional membership observer (a
        # :class:`~repro.index.membership.MembershipIndex`).  ``state`` and
        # ``value`` are plain attributes because they are read on nearly every
        # protocol step; every *mutation* must go through :meth:`_set_state` /
        # :meth:`_set_value` so the observer sees each transition and
        # cluster-level membership queries never have to rescan the deployment
        # (``tests/test_membership_invariants.py`` enforces this).
        self.membership = None
        self.value = value
        self.state = FREE
        # The successor list is a value (``succ_list``'s setter): its version
        # moves whenever an assignment changes the list's wire content.
        self._succ_list: List[SuccessorEntry] = []
        self.succ_version = 0
        self._last_reply: Optional[LastReply] = None
        self.pred_address: Optional[str] = None
        self.pred_value: Optional[float] = None
        # When the current predecessor's own ``ring_stabilize`` last reached
        # us (reset whenever the pointer moves).
        self.pred_heard: float = NEVER
        # The stabilizer behind our predecessor that an in-flight immediate
        # predecessor check adopts if it clears the pointer.
        self._pred_probe: Optional[tuple] = None
        self.succ_lock = RWLock(node.sim, name=f"{node.address}.succList")

        self.listeners: List[RingListener] = []
        # What a ``ring_stabilize`` request carries for a higher layer: the
        # source maps the target's address to a dict of beacons (sent only if
        # non-empty), and the sink takes the dict a predecessor's request
        # carried.  The Replication Manager's replica leases ride here; the
        # ring never reads the dict.
        self.beacon_source: Optional[Callable[[str], dict]] = None
        self.beacon_sink: Optional[Callable[[dict], None]] = None
        self._joined_event = node.sim.event()
        self._maintenance_started = False
        self._stabilizing = False
        self._stabilize_pending = False

        node.register_handler("ring_stabilize", self._handle_stabilize)
        node.register_handler("ring_ping", self._handle_ping)
        node.register_handler("ring_insert_successor", self._handle_insert_successor)
        node.register_handler("ring_join", self._handle_join)
        node.register_handler("ring_nudge", self._handle_nudge)

    # ------------------------------------------------------------------ helpers
    def _set_state(self, new_state: str) -> None:
        """Transition the lifecycle state, notifying the membership observer."""
        old_state = self.state
        if new_state == old_state:
            return
        self.state = new_state
        if self.membership is not None:
            self.membership.ring_state_changed(self.node, old_state, new_state)

    def _set_value(self, new_value: float) -> None:
        """Change the ring value, notifying the membership observer."""
        old_value = self.value
        if new_value == old_value:
            return
        self.value = new_value
        if self.membership is not None:
            self.membership.ring_value_changed(self.node, old_value, new_value)

    @property
    def succ_list(self) -> List[SuccessorEntry]:
        """The successor list: a value, replaced by assignment and never changed in place."""
        return self._succ_list

    @succ_list.setter
    def succ_list(self, entries: List[SuccessorEntry]) -> None:
        if not same_wire(self._succ_list, entries):
            self.succ_version += 1
        self._succ_list = entries

    @property
    def sim(self):
        return self.node.sim

    @property
    def is_joined(self) -> bool:
        """Whether the peer is a full ring member (JOINED or mid-insert)."""
        return self.state in (JOINED, INSERTING, LEAVING)

    def add_listener(self, listener: RingListener) -> None:
        """Subscribe ``listener`` to ring events."""
        self.listeners.append(listener)

    def _record(self, metric: str, duration: float) -> None:
        if self.metrics is not None:
            self.metrics.record(metric, duration)

    def _tally(self, metric: str) -> None:
        if self.metrics is not None:
            self.metrics.tally(metric)

    def _record_op(self, kind: str, **attrs) -> None:
        if self.history is not None:
            self.history.record(kind, peer=self.address, **attrs)

    def adopt_inserted_predecessor(self, address: str, value: float) -> None:
        """First-hand predecessor adoption: ``address`` inserted right behind us.

        A Data Store split learns its partner joined the ring the instant the
        partner's confirmation RPC arrives -- waiting for stabilization to
        discover the same fact leaves a window in which a *stale*
        ``predecessor_changed`` (the previous predecessor announcing itself
        late) re-widens the store range below the split key, letting replica
        revival resurrect just-shed copies that the boundary then strands.
        Adoption goes through the normal closer-predecessor rule, so a stale
        later announcement from further back is simply rejected.
        """
        self._consider_predecessor(address, value)

    # ------------------------------------------------------------------ queries
    def successor_entries(self) -> List[SuccessorEntry]:
        """A snapshot copy of the successor list."""
        return [entry.copy() for entry in self.succ_list]

    def first_live_successor(self) -> Optional[str]:
        """Address of the first JOINED successor, or ``None`` if alone."""
        entry = self._first_joined_entry()
        if entry is None or entry.address == self.address:
            return None
        return entry.address

    def joined_successors(self, count: int) -> List[str]:
        """Addresses of up to ``count`` JOINED successors (excluding self)."""
        result: List[str] = []
        for entry in self.succ_list:
            if entry.state != JOINED or entry.address == self.address:
                continue
            if entry.address not in result:
                result.append(entry.address)
            if len(result) >= count:
                break
        return result

    def _first_joined_entry(self) -> Optional[SuccessorEntry]:
        for entry in self.succ_list:
            if entry.state == JOINED:
                return entry
        return None

    def _first_joined_address(self) -> Optional[str]:
        entry = self._first_joined_entry()
        return entry.address if entry is not None else None

    def _stabilization_target(self) -> Optional[SuccessorEntry]:
        """First successor to stabilize with (skip JOINING/LEAVING pointers)."""
        for entry in self.succ_list:
            if entry.state == JOINED and entry.address != self.address:
                return entry
        return None

    # ------------------------------------------------------------------ bootstrap
    def create(self) -> None:
        """Initialise this peer as the first (and only) member of the ring."""
        self._set_state(JOINED)
        self.succ_list = [SuccessorEntry(self.address, self.value, JOINED)]
        self.pred_address = self.address
        self.pred_value = self.value
        self._record_op("ring_create", value=self.value)
        self._start_maintenance()
        self._fire_joined()
        if not self._joined_event.triggered:
            self._joined_event.succeed(self.address)

    def join(self, predecessor_address: str):
        """Join the ring as the successor of ``predecessor_address``.

        Runs as a generator; completes once this peer is JOINED (i.e. once the
        predecessor's ``insertSucc`` finished and sent us our ring state).
        Returns the elapsed time.
        """
        started = self.sim.now
        self._set_state(JOINING)
        if self._joined_event.triggered:
            # Re-joining after a previous membership (a merged-away free peer
            # being reused for a later split): arm a fresh completion event.
            self._joined_event = self.sim.event()
        self._record_op("ring_init_join", predecessor=predecessor_address)
        attempts = 0
        previous_contact: Optional[str] = None  # redirect memory (breaks 2-cycles)
        while not self._joined_event.triggered:
            attempts += 1
            if attempts > 20:
                # Every iteration -- including pure redirects -- counts against
                # the cap, so a cyclic chain of stale pointers (the
                # ``ring_insert_successor`` redirect storm under flash crowds)
                # aborts instead of spinning forever.
                self._record_op("join_abandoned", attempts=attempts - 1,
                                contact=predecessor_address)
                self._set_state(FREE)
                raise RuntimeError(f"{self.address}: could not join the ring")
            try:
                response = yield self.node.call(
                    predecessor_address,
                    "ring_insert_successor",
                    {"address": self.address, "value": self.value},
                )
            except RpcError:
                response = None
            if response is not None and not response.get("accepted", False):
                redirect = response.get("redirect")
                if redirect and redirect != self.address:
                    # Our value does not fit right after the contacted peer
                    # (its predecessor pointer was stale when the split chose
                    # it); walk towards the correct insertion point.
                    if redirect == previous_contact:
                        # A -> B -> A: both pointers are stale.  Give the ring
                        # a stabilization breather before following the cycle
                        # again instead of ping-ponging at network speed.
                        yield self.sim.timeout(self.config.stabilization_period / 4)
                    previous_contact = predecessor_address
                    predecessor_address = redirect
                    continue
                if response.get("state") == FREE:
                    if previous_contact is not None:
                        # A redirect followed a stale predecessor pointer to
                        # a member that has since merged away: fall back to
                        # the redirecting peer after a breather instead of
                        # giving up.
                        predecessor_address, previous_contact = previous_contact, None
                        yield self.sim.timeout(self.config.stabilization_period / 4)
                        continue
                    # The original contact peer is no longer a ring member;
                    # there is no point retrying through it.
                    self._set_state(FREE)
                    raise RuntimeError(
                        f"{self.address}: join contact {predecessor_address} left the ring"
                    )
                # The predecessor is busy (mid-insert or leaving): back off.
                yield self.sim.timeout(self.config.stabilization_period / 4)
                continue
            # Wait for the predecessor to finish the insert protocol and call
            # ``ring_join`` on us; re-try if it takes implausibly long (the
            # predecessor may have failed mid-protocol).
            wait = self.sim.timeout(self.config.join_ack_timeout * 2)
            yield self.sim.any_of([self._joined_event, wait])
        duration = self.sim.now - started
        self._record_op("ring_joined", value=self.value, duration=duration)
        return duration

    # ------------------------------------------------------------------ insertSucc
    def _handle_insert_successor(self, payload, request):
        """RPC: a new peer asks to be inserted as this peer's successor.

        Replies immediately with acceptance; the insert protocol itself runs as
        a background process so its latency (what Figures 19/20/23 measure) is
        not bounded by the RPC timeout.

        The request is accepted only if the new peer's value actually falls
        between this peer and its current first successor; otherwise the caller
        is redirected towards the correct position.  This matters because the
        Data Store split addresses the insert through a possibly stale
        predecessor pointer.
        """
        if self.state != JOINED:
            return {"accepted": False, "state": self.state}
        new_address = payload["address"]
        new_value = payload["value"]
        successor = self._first_joined_entry()
        if (
            successor is not None
            and successor.address not in (self.address, new_address)
            and not in_open_interval(new_value, self.value, successor.value)
        ):
            if self.pred_address not in (None, self.address) and in_open_interval(
                new_value, self.pred_value, self.value
            ):
                redirect = self.pred_address
            else:
                redirect = successor.address
            self._record("join_redirect", 1.0)
            return {"accepted": False, "state": self.state, "redirect": redirect}
        self._record_op("init_insert_succ", new_peer=new_address, value=new_value)
        self.node.spawn(
            self._insert_protocol(new_address, new_value),
            name=f"insertSucc:{new_address}",
        )
        return {"accepted": True}

    def _insert_protocol(self, new_address: str, new_value: float):
        """Naive insertSucc: update the local list and hand off ring state.

        The joining peer becomes the first successor immediately; no other peer
        is told about it until normal stabilization propagates the information,
        which is exactly the window in which Section 4.2.1's anomaly occurs.
        """
        started = self.sim.now
        yield self.succ_lock.acquire_write()
        try:
            successor_view = [entry.copy() for entry in self.succ_list]
            entry = SuccessorEntry(new_address, new_value, JOINED)
            self.succ_list = self._trim([entry, *self.succ_list])
        finally:
            self.succ_lock.release_write()
        try:
            yield self._hand_over(new_address, successor_view)
        except RpcError:
            # The new peer failed before joining; drop it from our list.
            yield self.succ_lock.acquire_write()
            self.succ_list = without(self.succ_list, (new_address,))
            self.succ_lock.release_write()
            return
        duration = self.sim.now - started
        self._record("insert_succ", duration)
        self._record_op("insert_succ", new_peer=new_address, duration=duration)
        self._fire_successor_changed(new_address)

    def _hand_over(self, new_address: str, successors: List[SuccessorEntry]):
        """RPC ``ring_join``: hand the new peer its first L successors and us as predecessor."""
        return self.node.call(
            new_address,
            "ring_join",
            {
                "succ_list": entries_to_wire(successors[: self.config.successor_list_length]),
                "pred_address": self.address,
                "pred_value": self.value,
            },
        )

    def _handle_join(self, payload, request):
        """RPC: the predecessor hands us our initial ring state; we are JOINED."""
        if self.state == JOINED:
            return {"ok": True, "duplicate": True}
        entries = without(entries_from_wire(payload["succ_list"]), (self.address,))
        if not entries:
            entries = [SuccessorEntry(payload["pred_address"], payload["pred_value"], JOINED)]
        self.succ_list = entries[: self.config.successor_list_length]
        old_pred_addr, old_pred_val = self.pred_address, self.pred_value
        self.pred_address = payload["pred_address"]
        self.pred_value = payload["pred_value"]
        self.pred_heard = NEVER
        self._set_state(JOINED)
        self._record_op("ring_join", pred=self.pred_address, value=self.value)
        self._start_maintenance()
        self._fire_joined()
        self._fire_predecessor_changed(
            old_pred_addr, old_pred_val, self.pred_address, self.pred_value
        )
        if not self._joined_event.triggered:
            self._joined_event.succeed(self.address)
        return {"ok": True}

    # ------------------------------------------------------------------ leave
    def leave(self):
        """Naive leave (baseline): simply stop participating in the ring.

        No other peer is informed, so pointers to this peer dangle until the
        next stabilization round -- the availability reduction analysed in
        Section 5.1.  Returns the elapsed time (essentially zero).
        """
        started = self.sim.now
        self._set_state(FREE)
        self._record_op("ring_leave", naive=True)
        duration = self.sim.now - started
        self._record("leave", duration)
        return duration
        yield  # pragma: no cover - keeps this a generator like the PEPPER variant

    # ------------------------------------------------------------------ maintenance
    def _start_maintenance(self) -> None:
        if self._maintenance_started:
            return
        self._maintenance_started = True
        self.node.every(
            self.config.stabilization_period,
            self._tick,
            jitter=STABILIZATION_JITTER,
            name="ring-tick",
        )

    def _tick(self):
        """One maintenance round: the ring's three periodic protocols in order,
        then each listener's :meth:`RingListener.on_tick`.

        Validation runs right after stabilization's adopt, so it reads the
        ``vouched`` times the first successor has just relayed and pings only
        the entries they leave stale.
        """
        yield from self._stabilize_once()
        yield from self._check_predecessor_once()
        yield from self._validate_successors_once()
        for listener in self.listeners:
            listener.on_tick(self)

    def stabilize_now(self) -> None:
        """Trigger an immediate, one-off stabilization round.

        If a round is already in progress, one more round is queued to run
        right after it (nudges must not be silently dropped -- the PEPPER
        protocols' latency depends on them).
        """
        if not self.is_joined:
            return
        if self._stabilizing:
            self._stabilize_pending = True
            return
        self.node.spawn(self._stabilize_once(), name="ring-stabilize-now")

    def _handle_nudge(self, payload, request):
        """RPC: a successor asks us to stabilize immediately.

        Used by the PEPPER protocols' proactive-predecessor optimisation
        (Section 4.3.1); harmless for the naive ring.
        """
        self.stabilize_now()
        return {"ok": True}

    def _stabilize_once(self):
        """One stabilization round: contact the first live successor, adopt its list."""
        if not self.is_joined or self._stabilizing:
            return
        self._stabilizing = True
        try:
            yield from self._stabilize_round()
            while self._stabilize_pending and self.is_joined:
                self._stabilize_pending = False
                yield from self._stabilize_round()
        finally:
            self._stabilizing = False
            self._stabilize_pending = False

    def _stabilize_round(self):
        while True:
            target = self._stabilization_target()
            if target is None:
                return
            payload = {
                "pred_address": self.address,
                "pred_value": self.value,
                "pred_state": self.state,
            }
            last = self._last_reply
            if last is not None and last.target == target.address:
                payload["known"] = last.version
            if self.beacon_source is not None:
                beacons = self.beacon_source(target.address)
                if beacons:
                    payload["beacons"] = beacons
            try:
                response = yield self.node.call(
                    target.address,
                    "ring_stabilize",
                    payload,
                    timeout=FAILURE_DETECTION_TIMEOUT,
                )
            except RpcError:
                # The successor is unreachable: drop it and try the next one.
                yield self.succ_lock.acquire_write()
                try:
                    self.succ_list = without(self.succ_list, (target.address,))
                finally:
                    self.succ_lock.release_write()
                self._record_op("successor_failure_detected", failed=target.address)
                continue
            except Interrupt:
                raise
            yield from self._adopt(target, response)
            return

    def _handle_stabilize(self, payload, request):
        """RPC: a predecessor stabilizes with us; maybe adopt it, return our list.

        The list rides only if it moved: a request whose ``known`` names our
        current ``succ_version`` -- the version of the list the caller last
        received from us -- gets a reply without ``succ_list``, and the
        caller uses the copy it kept.  ``value``, ``state`` and ``heard``
        always ride.  The reply's ``heard`` maps each of our entries to the
        time of the freshest first-hand contact with it we know of: our own
        ``heard``, or the time our first successor relayed (``vouched``),
        passed on unchanged.  Times older than :data:`RELAYED_LIVENESS_PERIODS` periods
        are left out, since no peer may skip a ping on them.  A relayed time
        moves only when some peer hears from the entry itself, so no loop of
        reports can keep a dead peer fresh.
        """
        if not self.is_joined:
            # A free (merged-away) or still-joining peer must not hand out ring
            # state; the caller treats the error as a failed successor and
            # drops the stale pointer.
            raise RuntimeError(f"{self.address} is not a ring member ({self.state})")
        caller = payload["pred_address"]
        now = self.sim.now
        beacons = payload.get("beacons")
        if beacons is not None and self.beacon_sink is not None:
            self.beacon_sink(beacons)
        joining = False
        for entry in self.succ_list:
            if entry.address == caller:
                entry.heard = now
                joining = entry.state == JOINING
        if joining and payload.get("pred_state") == JOINED:
            # First-hand: the peer says it has joined.  In a ring small enough
            # that our predecessor is also in our successor list, its inserter
            # may have left before a JOINED report reached us, and a list
            # whose only entry is JOINING has no stabilization target to
            # learn from.
            self.succ_list = promoted(self.succ_list, caller)
        value = payload["pred_value"]
        pred = self.pred_address
        if pred not in (None, self.address, caller) and not in_open_interval(
            value, self.pred_value, self.value
        ):
            # The caller is behind our predecessor, so it skipped it: check
            # the predecessor now rather than at the next round.
            pending = self._pred_probe is not None
            self._pred_probe = (caller, value, now)
            if not pending:
                probe = self._check_predecessor_once(probing=True)
                self.node.spawn(probe, name="ring-pred-probe")
        else:
            self._consider_predecessor(caller, value)
            if self.pred_address == caller:
                self.pred_heard = now
        reported_state = LEAVING if self.state == LEAVING else JOINED
        horizon = now - RELAYED_LIVENESS_PERIODS * self.config.stabilization_period
        heard = {}
        entries = self.succ_list
        for entry in entries:
            latest = max(entry.heard, entry.vouched)
            if latest >= horizon:
                heard[entry.address] = latest
        reply = {"value": self.value, "state": reported_state, "heard": heard}
        if payload.get("known") != self.succ_version:
            reply["succ_list"] = entries_to_wire(entries)
            reply["version"] = self.succ_version
            self._tally("ring_stabilize_list_sent")
        return reply

    def _handle_ping(self, payload, request):
        return {"value": self.value, "state": self.state}

    def _consider_predecessor(self, address: str, value: float) -> None:
        """Adopt ``address`` as predecessor if it is closer than the current one."""
        if address == self.address:
            return
        if self.pred_address == address:
            if value != self.pred_value:
                old_value = self.pred_value
                self.pred_value = value
                self._fire_predecessor_changed(address, old_value, address, value)
            return
        no_pred = self.pred_address is None or self.pred_address == self.address
        if no_pred or in_open_interval(value, self.pred_value, self.value):
            old_address, old_value = self.pred_address, self.pred_value
            self.pred_address = address
            self.pred_value = value
            self.pred_heard = NEVER
            self._record_op("predecessor_changed", pred=address, pred_value=value)
            self._fire_predecessor_changed(old_address, old_value, address, value)

    def _check_predecessor_once(self, probing: bool = False):
        """Ping the predecessor unless its own stabilize vouched for it.

        A ``ring_stabilize`` from the current predecessor within one of the
        predecessor's own stabilize rounds -- ``stabilization_period`` plus
        the round's jitter plus the call's timeout -- is first-hand liveness,
        so the periodic check skips the ping (and counts it as
        ``ring_ping_fresh_skip``).  The window follows the clock of the
        evidence: a live predecessor stabilizes with us once a round.  A
        dead predecessor stops stabilizing, and the peer behind it then
        stabilizes with us: :meth:`_handle_stabilize` spawns a *probing* check,
        which always pings, and then offers the pending ``_pred_probe``
        stabilizer to the closer-predecessor rule -- it replaces a cleared
        pointer at once, and leaves a live one alone.  A predecessor that
        stopped responding, or answers at a value other than ``pred_value``,
        is cleared.
        """
        pred_address, pred_value = self.pred_address, self.pred_value
        has_pred = self.is_joined and pred_address not in (None, self.address)
        window = self.config.stabilization_period + STABILIZATION_JITTER + FAILURE_DETECTION_TIMEOUT
        fresh = self.sim.now - self.pred_heard <= window
        if has_pred and fresh and not probing:
            self._tally("ring_ping_fresh_skip")
        elif has_pred:
            # A predecessor that merged away (FREE) or never finished joining
            # is no longer a ring member even though its process is alive;
            # one that answers at another value was recycled by a split
            # elsewhere in the ring, and no longer bounds our range.
            state, value = yield self._ping(pred_address)
            if ((state in (None, FREE, JOINING) or value != self.pred_value)
                    and self.pred_address == pred_address):
                self.pred_address = None
                # Keep ``pred_value`` so the Data Store range stays put until a
                # new predecessor announces itself (at which point the range
                # grows and the Replication Manager revives the lost peer's
                # items).
                self._record_op("predecessor_failure_detected", failed=pred_address)
                for listener in self.listeners:
                    listener.on_predecessor_failed(self, pred_address, pred_value)
        if probing:
            (address, value, heard), self._pred_probe = self._pred_probe, None
            if self.is_joined:
                self._consider_predecessor(address, value)
                if self.pred_address == address:
                    self.pred_heard = heard

    def _validate_successors_once(self):
        """Drop successor-list entries that point at peers no longer in the ring.

        Stabilization only exercises the *first* live successor, so in small
        rings a pointer to a peer that merged away (state FREE) can keep
        circulating through adopted lists indefinitely.  Such zombie entries
        inflate the apparent ring size, steer replicas at non-members and delay
        the leave protocol's acknowledgements, so they are periodically pinged
        and removed.  An entry is not pinged while the first-hand time the
        first successor's stabilize reply relayed for it (``vouched``) is at
        most :data:`RELAYED_LIVENESS_PERIODS` stabilization periods old; each
        skip counts as ``ring_ping_fresh_skip``.  Our own first-hand contacts
        refresh only ``heard``, which we relay onward but never skip on.
        """
        if not self.is_joined:
            return
        # Uncopied: past the first-target check only ``address`` is read,
        # and no entry's address ever changes.
        targets = [
            entry
            for entry in self.succ_list
            if entry.state in (JOINED, LEAVING) and entry.address != self.address
        ]
        if targets and targets[0].state == JOINED:
            # The first live successor is exercised by stabilization anyway.
            del targets[0]
        vouch_horizon = self.sim.now - RELAYED_LIVENESS_PERIODS * self.config.stabilization_period
        stale = []
        for entry in targets:
            if entry.vouched >= vouch_horizon:
                self._tally("ring_ping_fresh_skip")
                continue
            address = entry.address
            state, _value = yield self._ping(address)
            if state in (None, FREE, JOINING):
                stale.append(address)
            elif state in (JOINED, LEAVING):
                # The list may have been re-adopted meanwhile: mark the
                # current entry, not the one the loop started from.
                now = self.sim.now
                for current in self.succ_list:
                    if current.address == address:
                        current.heard = now
        if not stale:
            return
        yield self.succ_lock.acquire_write()
        try:
            self.succ_list = without(self.succ_list, stale)
        finally:
            self.succ_lock.release_write()
        self._record_op("successor_entries_pruned", pruned=stale)

    def _ping(self, address: str):
        """``ring_ping`` ``address``: an event that succeeds with the
        ``(state, value)`` it answers, or with ``(None, None)`` if the call
        fails.

        A failed call is a value, not an exception thrown into the waiting
        check, so :meth:`_tick` can ``yield from`` the checks and keep the
        profiler's call and return events paired (docs/ARCHITECTURE.md,
        "Profiler balance").
        """
        answer = self.sim.event()
        call = self.node.call(address, "ring_ping", {}, timeout=FAILURE_DETECTION_TIMEOUT)
        call._add_callback(partial(_answer_state, answer))
        return answer

    # ------------------------------------------------------------------ adoption
    def _adopt(self, contacted: SuccessorEntry, response) -> None:
        """Adopt the successor list returned by a stabilization round (:func:`merge`).

        A quiet adopt changes no pointer: it skips the merge, the trim and
        :meth:`_post_adopt` when the reply left its list out (the target's
        list has not moved), our list is still the one the last adopt from
        the target installed, that adopt was a fixed point with no rider and
        no pending insert (:class:`LastReply`), and our value and the
        target's value and state are unchanged.  The full path would then
        return our list as it is.  Otherwise the reply's list -- or, if it
        was left out, the copy kept of the last one -- is merged, trimmed,
        rider-pruned and installed once.
        """
        yield self.succ_lock.acquire_write()
        try:
            old_first = self._first_joined_address()
            value = response["value"]
            state = response.get("state", JOINED)
            before = self.succ_list
            wire = response.get("succ_list")
            last = self._last_reply
            merged_with = (self.value, value, state)
            if wire is not None or last.adopted is not before or last.merged_with != merged_with:
                if wire is None:
                    wire = wire_from_flat(last.received)
                else:
                    last = self._last_reply = LastReply(contacted.address,
                                                        response.get("version"), flat_wire(wire))
                head = SuccessorEntry(contacted.address, value, state)
                merged, reported = merge(before, head, wire, self.address, self.value,
                                         self.config.key_space)
                after = self._post_adopt(self._trim(merged), reported)
                self.succ_list = after
                fixed = len(after) == len(before) and all(map(is_, after, before))
                last.adopted = after if fixed and self._quiet_eligible(after) else None
                last.merged_with = merged_with
                self._tally("ring_stabilize_merged")
            # The reply is first-hand news of its sender; its ``heard`` map
            # relays the freshest first-hand time the sender knows of for
            # each of its entries.
            now = self.sim.now
            relayed = response.get("heard", {})
            for entry in self.succ_list:
                if entry.address == contacted.address:
                    entry.heard = now
                entry.vouched = relayed.get(entry.address, NEVER)
            new_first = self._first_joined_address()
        finally:
            self.succ_lock.release_write()
        if new_first is not None and new_first != old_first:
            self._fire_successor_changed(new_first)

    def _post_adopt(self, entries: List[SuccessorEntry], reported) -> List[SuccessorEntry]:
        """Hook for the PEPPER ring's JOINING/LEAVING bookkeeping: ``entries`` as they are here.

        ``entries`` is the merged, trimmed list; ``reported`` is the set of
        addresses the adopted reply named.
        """
        return entries

    def _quiet_eligible(self, entries: List[SuccessorEntry]) -> bool:
        """Whether an adopt that returned ``entries`` unchanged may be skipped next time:
        no entry is a JOINING or LEAVING rider, whose bookkeeping moves with time."""
        return all(entry.state == JOINED for entry in entries)

    def _trim(self, entries: List[SuccessorEntry]) -> List[SuccessorEntry]:
        """``entries`` bounded to the configured length."""
        return trim(entries, self.config.successor_list_length)

    # ------------------------------------------------------------------ value updates
    def update_value(self, new_value: float) -> None:
        """Change this peer's ring value (used by Data Store redistribution).

        The new value propagates to neighbours through subsequent stabilization
        rounds.
        """
        self._record_op("value_changed", old=self.value, new=new_value)
        self._set_value(new_value)

    # ------------------------------------------------------------------ event firing
    def _fire_joined(self) -> None:
        for listener in self.listeners:
            listener.on_joined(self)

    def _fire_predecessor_changed(self, old_addr, old_val, new_addr, new_val) -> None:
        for listener in self.listeners:
            listener.on_predecessor_changed(self, old_addr, old_val, new_addr, new_val)

    def _fire_successor_changed(self, new_address: str) -> None:
        for listener in self.listeners:
            listener.on_successor_changed(self, new_address)
