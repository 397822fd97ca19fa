"""Chord-style Fault Tolerant Ring with the *naive* insert/leave baselines.

This module provides the ring substrate the paper builds on (Section 2.3):
successor lists of configurable length, periodic stabilization with the first
live successor, ping-based predecessor failure detection, and the naive
``insertSucc`` / ``leave`` used as baselines in Section 6.2.

The consistency-preserving PEPPER variants (Algorithms 1-2 and Section 5.1)
live in :mod:`repro.core.pepper_ring` and subclass :class:`ChordRing`.

A :class:`ChordRing` is a *component* attached to a :class:`~repro.transport.endpoint.Endpoint`;
it registers its message handlers on the node and exposes ring events to higher
layers (the Data Store and Replication Manager) through :class:`RingListener`
callbacks.
"""

from __future__ import annotations

from typing import List, Optional

from repro.index.config import IndexConfig
from repro.maintenance.redirect_cache import backward_distance
from repro.ring.entries import (
    FREE,
    INSERTING,
    JOINED,
    JOINING,
    LEAVING,
    SuccessorEntry,
    entries_from_wire,
    entries_to_wire,
)
from repro.sim.engine import Interrupt
from repro.sim.locks import RWLock
from repro.transport import Endpoint, RpcError


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


class RingListener:
    """Callbacks through which higher layers observe ring events.

    The Data Store listens for predecessor changes (its range is
    ``(pred.value, own.value]``), the Replication Manager listens for
    predecessor failures (to revive replicas), and the index facade listens
    for join completion.
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
        self.succ_list: List[SuccessorEntry] = []
        self.pred_address: Optional[str] = None
        self.pred_value: Optional[float] = None
        self.succ_lock = RWLock(node.sim, name=f"{node.address}.succList")

        self.listeners: List[RingListener] = []
        self._joined_event = node.sim.event()
        self._maintenance_started = False
        self._stabilizing = False
        self._stabilize_pending = False

        # Maintenance adaptivity (``config.maintenance``; the default policy
        # reproduces the historical fixed timers).  The successor-validation
        # controller paces that ``ring_ping`` loop -- backing off while
        # validations succeed, tightening after a failure or membership
        # change -- and the redirect cache answers stale-pointer joins from
        # recently observed members instead of walking the ring one pointer
        # at a time.  The predecessor check deliberately keeps its fixed
        # cadence (its detection latency feeds replica revival); its traffic
        # is cut by the *passive* suppression below instead: a predecessor
        # that recently stabilized with us has proven itself alive, so the
        # next ping within the window is redundant and skipped.
        policy = config.maintenance_policy
        self._succ_cadence = policy.validation_controller(config.stabilization_period)
        self._redirect_cache = policy.build_redirect_cache()
        self._passive_window = (
            1.5 * config.predecessor_check_period if policy.validation == "adaptive" else None
        )
        # Last time each peer stabilized with us, newest last (adaptive
        # policy only; bounded -- see _note_heard_from).
        self._heard_from: dict = {}
        # Per-entry validation freshness: when each peer was last confirmed
        # alive first-hand (a ping reply, a stabilization round with it, or it
        # stabilizing with us).  Successor validation skips re-pinging entries
        # confirmed within the window instead of burning a ``ring_ping`` on a
        # peer that just proved itself.  0 disables the skip entirely (the
        # fixed policy's behaviour).
        self._freshness_window = (
            policy.validation_freshness(config.stabilization_period) or None
        )
        self._confirmed_at: dict = {}

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

    def _record_op(self, kind: str, **attrs) -> None:
        if self.history is not None:
            self.history.record(kind, peer=self.address, **attrs)

    # How many distinct recent stabilizers to remember for passive liveness;
    # in a healthy ring only the current predecessor stabilizes with us, so a
    # handful of slots covers churn transients without unbounded growth.
    _HEARD_FROM_LIMIT = 8

    def _note_heard_from(self, address: str) -> None:
        """Record that ``address`` just stabilized with us (adaptive policy only)."""
        self._note_confirmed(address)
        if self._passive_window is None:
            return
        heard = self._heard_from
        heard.pop(address, None)
        heard[address] = self.sim.now
        while len(heard) > self._HEARD_FROM_LIMIT:
            heard.pop(next(iter(heard)))

    # Confirmation records only matter for peers near us on the ring (the
    # successor list is a handful of entries); a few dozen slots absorb churn
    # transients without growing with deployment size.
    _CONFIRMED_LIMIT = 32

    def _note_confirmed(self, address: str) -> None:
        """Record a first-hand liveness confirmation of ``address``."""
        if self._freshness_window is None or address == self.address:
            return
        confirmed = self._confirmed_at
        confirmed.pop(address, None)
        confirmed[address] = self.sim.now
        while len(confirmed) > self._CONFIRMED_LIMIT:
            confirmed.pop(next(iter(confirmed)))

    def _confirmed_recently(self, address: str) -> bool:
        """Whether ``address`` proved itself alive within the freshness window."""
        if self._freshness_window is None:
            return False
        confirmed = self._confirmed_at.get(address)
        return confirmed is not None and self.sim.now - confirmed <= self._freshness_window

    # ------------------------------------------------------------------ redirect cache
    def _cache_record(self, address: Optional[str], value: Optional[float]) -> None:
        """Remember a first-hand observation of a ring member (for join redirects)."""
        cache = self._redirect_cache
        if cache is not None and address is not None and address != self.address:
            cache.record(address, value, self.sim.now)

    def _cache_forget(self, address: str) -> None:
        """Drop a cached member observed to be failed or merged away."""
        if self._redirect_cache is not None:
            self._redirect_cache.forget(address)

    def _best_known_predecessor(
        self, target_value: float, exclude: tuple
    ) -> Optional[tuple]:
        """The known member closest *before* ``target_value`` in ring order.

        Candidates are the JOINED entries of our successor list (first-hand,
        never stale by more than a stabilization round) plus the redirect
        cache (older observations from further around the ring).  Returns
        ``(address, value)`` or ``None``.  Only meaningful when the policy
        enables the redirect cache.
        """
        if self._redirect_cache is None:
            return None
        span = self.config.key_space
        best = self._redirect_cache.lookup(
            target_value, span, self.sim.now, exclude=exclude
        )
        best_distance = (
            backward_distance(target_value, best[1], span) if best is not None else span + 1.0
        )
        for entry in self.succ_list:
            if entry.state != JOINED or entry.address in exclude:
                continue
            distance = backward_distance(target_value, entry.value, span)
            if distance < best_distance:
                best_distance = distance
                best = (entry.address, entry.value)
        return best

    def _cached_redirect(
        self,
        new_address: str,
        new_value: float,
        default_address: str,
        default_value: float,
        bad_redirects: tuple = (),
    ) -> str:
        """The best redirect target for a rejected join.

        The default target (our predecessor or first successor) takes one step
        along the ring; if the successor list or the cache knows a member
        strictly closer *before* the joining value, redirect straight there --
        the walk strides over whole successor lists instead of single
        pointers, which is what keeps flash-crowd joins inside the attempt cap
        and turns repeat joins through the same stale pointer into O(1).
        """
        if self._redirect_cache is None:
            return default_address
        best = self._best_known_predecessor(
            new_value, exclude=(self.address, new_address, default_address, *bad_redirects)
        )
        if best is None:
            return default_address
        span = self.config.key_space
        if backward_distance(new_value, best[1], span) < backward_distance(
            new_value, default_value, span
        ):
            self._record("join_redirect_cached", 1.0)
            return best[0]
        return default_address

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

    def join_contact_for(self, value: float) -> str:
        """Best known contact through which a peer at ``value`` should join.

        Data Store splits address the ring insert through this: the
        predecessor pointer by default, upgraded to the closest known
        predecessor of ``value`` when the maintenance policy's redirect cache
        is enabled (the bootstrap peer's self-pointer otherwise sends early
        flash-crowd joiners on a walk around the entire ring).
        """
        default = self.pred_address or self.address
        best = self._best_known_predecessor(value, exclude=(self.address,))
        if best is None:
            return default
        span = self.config.key_space
        default_value = (
            self.pred_value
            if self.pred_address not in (None, self.address) and self.pred_value is not None
            else self.value
        )
        if backward_distance(value, best[1], span) < backward_distance(
            value, default_value, span
        ):
            return best[0]
        return default

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
        self.succ_list = [SuccessorEntry(self.address, self.value, JOINED, True)]
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
        dead_redirects: List[str] = []  # redirect targets observed FREE (reported back)
        while not self._joined_event.triggered:
            attempts += 1
            if attempts > 20:
                # Every iteration -- including pure redirects -- counts against
                # the cap, so a cyclic chain of stale pointers (the
                # ``ring_insert_successor`` redirect storm under flash crowds)
                # aborts instead of spinning forever.
                self._set_state(FREE)
                raise RuntimeError(f"{self.address}: could not join the ring")
            try:
                response = yield self.node.call(
                    predecessor_address,
                    "ring_insert_successor",
                    {
                        "address": self.address,
                        "value": self.value,
                        "bad_redirects": dead_redirects,
                    },
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
                        # A redirect (possibly served from a peer's stale
                        # redirect cache) pointed at a member that has since
                        # merged away.  Remember the dead target -- the next
                        # contact purges it from its cache and picks another
                        # route -- and fall back to the redirecting peer after
                        # a breather instead of giving up.
                        if predecessor_address not in dead_redirects:
                            dead_redirects.append(predecessor_address)
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
        # The joiner reports redirect targets it found FREE: purge them so a
        # stale cache entry cannot send the next (or the same) joiner back to
        # a merged-away peer.
        bad_redirects = tuple(payload.get("bad_redirects") or ())
        for address in bad_redirects:
            self._cache_forget(address)
        successor = self._first_joined_entry()
        if (
            successor is not None
            and successor.address not in (self.address, new_address)
            and not in_open_interval(new_value, self.value, successor.value)
        ):
            if self.pred_address not in (None, self.address) and in_open_interval(
                new_value, self.pred_value, self.value
            ):
                redirect, redirect_value = self.pred_address, self.pred_value
            else:
                redirect, redirect_value = successor.address, successor.value
            self._record("join_redirect", 1.0)
            redirect = self._cached_redirect(
                new_address, new_value, redirect, redirect_value, bad_redirects
            )
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
            entry = SuccessorEntry(new_address, new_value, JOINED, stabilized=True)
            self.succ_list.insert(0, entry)
            self._trim()
        finally:
            self.succ_lock.release_write()
        try:
            yield self.node.call(
                new_address,
                "ring_join",
                {
                    "succ_list": entries_to_wire(
                        successor_view[: self.config.successor_list_length]
                    ),
                    "pred_address": self.address,
                    "pred_value": self.value,
                },
            )
        except RpcError:
            # The new peer failed before joining; drop it from our list.
            yield self.succ_lock.acquire_write()
            self.succ_list = [e for e in self.succ_list if e.address != new_address]
            self.succ_lock.release_write()
            return
        duration = self.sim.now - started
        self._record("insert_succ", duration)
        self._record_op("insert_succ", new_peer=new_address, duration=duration)
        self._cache_record(new_address, new_value)
        self._fire_successor_changed(new_address)

    def _handle_join(self, payload, request):
        """RPC: the predecessor hands us our initial ring state; we are JOINED."""
        if self.state == JOINED:
            return {"ok": True, "duplicate": True}
        entries = entries_from_wire(payload["succ_list"])
        entries = [e for e in entries if e.address != self.address]
        if not entries:
            entries = [
                SuccessorEntry(payload["pred_address"], payload["pred_value"], JOINED, True)
            ]
        self.succ_list = entries[: self.config.successor_list_length]
        old_pred_addr, old_pred_val = self.pred_address, self.pred_value
        self.pred_address = payload["pred_address"]
        self.pred_value = payload["pred_value"]
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
        jitter = self.config.stabilization_jitter
        policy = self.config.maintenance_policy
        # Stabilization runs on the policy's maintenance cadence (a plain
        # period, or RTT-scaled under ``cadence="rtt_scaled"``); the two
        # ``ring_ping`` validation loops are paced by their controllers.
        self.node.every(
            policy.maintenance_interval(
                self.config.stabilization_period, self.node.network.observed_rtt
            ),
            self._stabilize_once,
            jitter=jitter,
            name="ring-stabilize",
        )
        self.node.every(
            self.config.predecessor_check_period,
            self._check_predecessor_once,
            jitter=jitter,
            name="ring-pred-check",
        )
        self.node.every(
            self._succ_cadence.interval,
            self._validate_successors_once,
            jitter=jitter,
            initial_delay=self.config.stabilization_period * 1.5,
            name="ring-succ-validate",
        )

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
            try:
                response = yield self.node.call(
                    target.address,
                    "ring_stabilize",
                    {
                        "pred_address": self.address,
                        "pred_value": self.value,
                        "pred_state": self.state,
                    },
                    timeout=self.config.failure_detection_timeout,
                )
            except RpcError:
                # The successor is unreachable: drop it and try the next one.
                yield self.succ_lock.acquire_write()
                try:
                    self.succ_list = [
                        e for e in self.succ_list if e.address != target.address
                    ]
                finally:
                    self.succ_lock.release_write()
                self._cache_forget(target.address)
                self._confirmed_at.pop(target.address, None)
                self._succ_cadence.note_failure()
                self._record_op("successor_failure_detected", failed=target.address)
                continue
            except Interrupt:
                raise
            self._note_confirmed(target.address)
            yield from self._adopt(target, response)
            return

    def _handle_stabilize(self, payload, request):
        """RPC: a predecessor stabilizes with us; maybe adopt it, return our list."""
        if not self.is_joined:
            # A free (merged-away) or still-joining peer must not hand out ring
            # state; the caller treats the error as a failed successor and
            # drops the stale pointer.
            raise RuntimeError(f"{self.address} is not a ring member ({self.state})")
        self._note_heard_from(payload["pred_address"])
        if payload.get("pred_state") == JOINED:
            self._cache_record(payload["pred_address"], payload["pred_value"])
            # First-hand: the peer says it has joined.  In a ring small enough
            # that our predecessor is also in our successor list, its inserter
            # may have left before a JOINED report reached us, and a list whose
            # only entry is JOINING has no stabilization target to learn from.
            for entry in self.succ_list:
                if entry.address == payload["pred_address"] and entry.state == JOINING:
                    entry.state = JOINED
        self._consider_predecessor(payload["pred_address"], payload["pred_value"])
        reported_state = LEAVING if self.state == LEAVING else JOINED
        return {
            "value": self.value,
            "state": reported_state,
            "succ_list": entries_to_wire(self.succ_list),
        }

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
            if old_address is not None and old_address != address:
                # The displaced predecessor's liveness record is no longer
                # load-bearing (only the current pred's ping can be skipped).
                self._heard_from.pop(old_address, None)
            self._record_op("predecessor_changed", pred=address, pred_value=value)
            self._fire_predecessor_changed(old_address, old_value, address, value)

    def _check_predecessor_once(self):
        """Ping the predecessor; clear it if it stopped responding."""
        if not self.is_joined:
            return
        if self.pred_address in (None, self.address):
            return
        pred_address, pred_value = self.pred_address, self.pred_value
        if self._passive_window is not None:
            heard = self._heard_from.get(pred_address)
            if heard is not None and self.sim.now - heard <= self._passive_window:
                # The predecessor stabilized with us within the window: it is
                # alive, no ping needed.
                return
        gone = False
        try:
            response = yield self.node.call(
                pred_address,
                "ring_ping",
                {},
                timeout=self.config.failure_detection_timeout,
            )
            # A predecessor that merged away (FREE) or never finished joining
            # is no longer a ring member even though its process is alive.
            gone = response.get("state") in (FREE, JOINING)
        except RpcError:
            gone = True
        if not gone:
            self._note_confirmed(pred_address)
        if gone:
            self._cache_forget(pred_address)
            self._heard_from.pop(pred_address, None)
            self._confirmed_at.pop(pred_address, None)
            if self.pred_address != pred_address:
                return
            self.pred_address = None
            # Keep ``pred_value`` so the Data Store range stays put until a new
            # predecessor announces itself (at which point the range grows and
            # the Replication Manager revives the lost peer's items).
            self._record_op("predecessor_failure_detected", failed=pred_address)
            for listener in self.listeners:
                listener.on_predecessor_failed(self, pred_address, pred_value)

    def _validate_successors_once(self):
        """Drop successor-list entries that point at peers no longer in the ring.

        Stabilization only exercises the *first* live successor, so in small
        rings a pointer to a peer that merged away (state FREE) can keep
        circulating through adopted lists indefinitely.  Such zombie entries
        inflate the apparent ring size, steer replicas at non-members and delay
        the leave protocol's acknowledgements, so they are periodically pinged
        and removed.
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
        stale = []
        for entry in targets:
            if self._confirmed_recently(entry.address):
                # The entry proved itself alive within the freshness window
                # (a ping, a stabilization round, or it stabilized with us):
                # re-pinging it now would be pure redundant traffic.
                self._record("ring_ping_fresh_skip", 1.0)
                continue
            try:
                response = yield self.node.call(
                    entry.address,
                    "ring_ping",
                    {},
                    timeout=self.config.failure_detection_timeout,
                )
            except RpcError:
                stale.append(entry.address)
                continue
            if response.get("state") in (FREE, JOINING):
                stale.append(entry.address)
            else:
                self._note_confirmed(entry.address)
        if not stale:
            # An all-clear round (or nothing to check): the controller may
            # back off the next validation.
            self._succ_cadence.note_success()
            return
        self._succ_cadence.note_failure()
        for address in stale:
            self._cache_forget(address)
            self._confirmed_at.pop(address, None)
        yield self.succ_lock.acquire_write()
        try:
            self.succ_list = [e for e in self.succ_list if e.address not in stale]
        finally:
            self.succ_lock.release_write()
        self._record_op("successor_entries_pruned", pruned=stale)

    # ------------------------------------------------------------------ adoption
    def _adopt(self, contacted: SuccessorEntry, response) -> None:
        """Adopt the successor list returned by a stabilization round."""
        yield self.succ_lock.acquire_write()
        try:
            old_first = self._first_joined_address()
            learned = self._adopt_matching_reply(contacted.address, response)
            if learned is None:
                head = SuccessorEntry(
                    contacted.address,
                    response["value"],
                    response.get("state", JOINED),
                    stabilized=True,
                )
                received = entries_from_wire(response["succ_list"])
                received = [e for e in received if e.address != self.address]
                received = [e for e in received if e.address != head.address]
                self._install_list(head, received)
                learned = [head, *received]
            self._post_adopt()
            new_first = self._first_joined_address()
        finally:
            self.succ_lock.release_write()
        if self._redirect_cache is not None:
            # Members learned during stabilization are exactly the pointers a
            # stale-chain join needs: remember them for redirect answers --
            # and forget peers announced as LEAVING, so the cache never steers
            # a join at a peer about to merge away.
            for entry in learned:
                if entry.state == JOINED:
                    self._cache_record(entry.address, entry.value)
                elif entry.state == LEAVING:
                    self._cache_forget(entry.address)
        if new_first is not None and new_first != old_first:
            self._fire_successor_changed(new_first)

    _STATE_RANK = {JOINING: 0, JOINED: 1, LEAVING: 2}

    def _adopt_matching_reply(
        self, head_address: str, response
    ) -> Optional[List[SuccessorEntry]]:
        """The quiet-round fast path of :meth:`_install_list`.

        In a quiet ring the stabilize reply, head first, starts with exactly
        our current list (same addresses, values and states in the same
        order) and runs one entry further.  When it also names no address
        twice and runs clockwise from our value, the full merge would keep
        the reply as it is: our copies add nothing, and the sort moves
        nothing.  So the reply's entries are installed directly -- ours for
        the matching prefix, with the ``stabilized`` flags the merge gives
        (the head's only), fresh ones for the rest -- then :meth:`_trim` runs.
        Returns the untrimmed entries, or ``None`` (nothing changed) if the
        reply does not match and the caller must merge.
        """
        current = self.succ_list
        if not current:
            return None
        head = current[0]
        if (
            head.address != head_address
            or head.value != response["value"]
            or head.state != response.get("state", JOINED)
        ):
            return None
        own = self.address
        reported = [
            item for item in response["succ_list"]
            if item["address"] != own and item["address"] != head_address
        ]
        if len(reported) < len(current) - 1:
            return None
        for entry, item in zip(current[1:], reported):
            if (
                entry.address != item["address"]
                or entry.value != item["value"]
                or entry.state != item.get("state", JOINED)
            ):
                return None
        learned = current + entries_from_wire(reported[len(current) - 1 :])
        addresses = {entry.address for entry in learned}
        if len(addresses) != len(learned):
            return None
        span = self.config.key_space
        base = self.value
        previous = 0.0
        for entry in learned:
            # :meth:`_clockwise_distance`, inline: the merge's sort key.
            distance = (entry.value - base) % span
            if distance <= 0:
                distance = span
            if distance < previous:
                return None
            previous = distance
        self._last_received_addresses = addresses
        for entry in current:
            entry.stabilized = False
        head.stabilized = True
        self.succ_list = learned[:]
        self._trim()
        return learned

    def _install_list(self, head: SuccessorEntry, received: List[SuccessorEntry]) -> None:
        """Merge the successor's reported list into our own.

        * Entries are merged per address, keeping the most *advanced* state a
          peer's lifecycle allows (JOINING -> JOINED -> LEAVING), so a stale
          report from further along the ring can never downgrade knowledge the
          inserter or a direct predecessor obtained first-hand.
        * The merged list is kept sorted by clockwise distance from this peer,
          which is the ring-order invariant the paper's successor lists have by
          construction; it makes "position in the list" equal to "distance
          along the ring", which the PEPPER acknowledgement rules rely on.
        * Entries only we remember (e.g. a peer that our successor has already
          trimmed away) are retained; the periodic successor validation prunes
          them once they actually leave the ring.
        """
        self._last_received_addresses = {e.address for e in received}
        self._last_received_addresses.add(head.address)
        candidates = [head] + list(received) + [e.copy() for e in self.succ_list]
        best: dict[str, SuccessorEntry] = {}
        for entry in candidates:
            if entry.address == self.address:
                continue
            current = best.get(entry.address)
            if current is None:
                best[entry.address] = entry
                continue
            if self._STATE_RANK.get(entry.state, 1) > self._STATE_RANK.get(current.state, 1):
                best[entry.address] = SuccessorEntry(
                    entry.address, current.value, entry.state, current.stabilized
                )
        merged = sorted(best.values(), key=lambda e: self._clockwise_distance(e.value))
        self.succ_list = merged
        self._trim()

    def _clockwise_distance(self, value: float) -> float:
        """Clockwise distance from this peer's value to ``value`` on the ring."""
        span = self.config.key_space
        distance = (value - self.value) % span
        return distance if distance > 0 else span

    def _post_adopt(self) -> None:
        """Hook for the PEPPER ring's JOINING/LEAVING bookkeeping (no-op here)."""

    def _trim(self) -> None:
        """Bound the successor list to the configured length."""
        del self.succ_list[self.config.successor_list_length :]

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
        # Membership moved right next to us: validate at the base cadence
        # again until the neighbourhood proves stable.
        self._succ_cadence.note_change()
        for listener in self.listeners:
            listener.on_successor_changed(self, new_address)
