"""Hierarchical (P-Ring style) content router.

The P-Ring Content Router indexes the ring itself with a hierarchy of rings so
that the peer responsible for any search key value is reached in a logarithmic
number of hops even under skewed key distributions.  We implement the same
capability with the classic pointer-doubling construction: every peer maintains
a table whose level-``i`` pointer is (approximately) ``2**i`` ring positions
away, refreshed periodically by a walk that is forwarded from peer to peer:
the level-``i-1`` peer adds *its* level-``i-1`` pointer and passes the walk on
(recursive upkeep, one message per hop).  Upkeep follows what moved: a walk
restarts above the levels nothing has been seen to move, and such a restart
ends at the first hop whose answer is what the origin already holds.

Routing is iterative and every hop is a table hop: a peer that does not own
the key answers ``ds_probe`` with its *own* next-hop candidates (its farthest
pointers that do not pass the key, then its successor list), and the caller --
which keeps control and the timeout -- takes the first usable one.  The last
step is the predecessor's word: a peer whose first JOINED successor follows it
on the way to the key names that successor as the owner, and the route ends
there without probing it -- the caller's next RPC to the owner checks
ownership anyway.  A dead or useless candidate is skipped for the last live
hop's next one; when they run out the route fails at once with ``None`` and
the caller decides how long to wait for the ring to repair (see
``docs/ARCHITECTURE.md``, "Contract: routing").

The construction differs from the paper's hierarchy-of-rings in mechanism but
matches it in the property the rest of the system relies on: O(log N) routing
over an order-preserving, skew-tolerant key assignment.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.index.config import FAILURE_DETECTION_TIMEOUT, STABILIZATION_JITTER, IndexConfig
from repro.ring.chord import RingListener
from repro.ring.entries import JOINED
from repro.transport import RpcError

# Pointers in a routing table, at doubling clockwise distances; a route gives
# up after four times as many probes.
ROUTER_TABLE_SIZE = 16

# How many table pointers a peer offers per probe, farthest first, before its
# successor list: enough to step around a dead pointer or two.
_TABLE_CANDIDATES = 4

# Table levels each walk hop adds, and how long the origin waits for a walk
# to come back before it counts the walk as lost at a dead hop.
_WALK_SPAN = 2
_WALK_TIMEOUT = ROUTER_TABLE_SIZE * FAILURE_DETECTION_TIMEOUT

# The refresh cadence: after this many consecutive clean walks the period
# doubles, up to this many base periods.  Tables go stale only when
# membership moves, and a stale pointer costs a route one skipped candidate.
_CLEAN_WALKS_TO_BACK_OFF = 2
_BACKOFF_GROWTH = 2.0
_BACKOFF_MAX = 6.0

# The floor: a walk restarts from its kept prefix only within this many base
# periods of the last full walk, two of the cadence's longest periods.
_FULL_WALK_FLOOR = 2 * _BACKOFF_MAX


def _lose_walk(done) -> None:
    """Timer: the pending walk did not come back in time."""
    if not done.triggered:
        done.succeed(None)


class AdaptiveCadence:
    """Back off while rounds succeed; tighten on failure or change.

    After ``success_threshold`` consecutive successful rounds the interval
    grows by ``growth`` (multiplicative), bounded by ``base * max_factor``.
    Any failure or change resets the interval to ``base``: the loop never
    runs *faster* than its configured period.  It reads no clock and no RNG,
    only the feedback fed to it.  ``interval`` is a bound method so that it
    can be handed to :meth:`repro.transport.endpoint.Endpoint.every` as a
    callable period.
    """

    def __init__(
        self,
        base: float,
        growth: float = _BACKOFF_GROWTH,
        max_factor: float = _BACKOFF_MAX,
        success_threshold: int = _CLEAN_WALKS_TO_BACK_OFF,
    ):
        self.base = base
        self.growth = growth
        self.max_factor = max_factor
        self.success_threshold = success_threshold
        self._interval = base
        self._successes = 0

    def interval(self) -> float:
        """The delay before the next round."""
        return self._interval

    def note_success(self) -> None:
        """The last round completed without detecting anything wrong."""
        self._successes += 1
        if self._successes >= self.success_threshold:
            self._successes = 0
            self._interval = min(self._interval * self.growth, self.base * self.max_factor)

    def note_failure(self) -> None:
        """The last round detected a failure (timeout, stale pointer, ...)."""
        self.note_change()

    def note_change(self) -> None:
        """Membership moved: back to the base period."""
        self._successes = 0
        self._interval = self.base


class HierarchicalRingRouter(RingListener):
    """Logarithmic-hop router built by pointer doubling.

    It listens to its ring: a changed successor or predecessor means
    membership moved right next to this peer -- exactly when a backed-off
    routing table is most likely to be stale -- so the refresh cadence goes
    back to its base period.
    """

    def __init__(self, node, ring, store, config: IndexConfig, metrics=None, history=None):
        self.node = node
        self.ring = ring
        self.store = store
        self.config = config
        self.metrics = metrics
        self.history = history
        # table[i] = (address, value) of the peer ~2**i positions clockwise;
        # clockwise distances strictly increase with the level.
        self.table: List[Tuple[str, float]] = []
        # Refresh cadence: the loop backs off while consecutive walks come back
        # clean, and tightens the moment a walk grows the table, needs a
        # past-the-end step or hits a dead pointer, or the ring reports a
        # neighbourhood change.
        self._cadence = AdaptiveCadence(config.router_refresh_period)
        # Where the next walk starts: the table index (even, where walk hops
        # sit) below which nothing has been seen to move.  Evidence against
        # the table sets it to 0, a full walk.  ``_full_due`` is when the
        # floor's next full walk is due.
        self._restart = 0
        self._full_due = 0.0
        # The JOINED successors as the last walk started (see _start_level).
        self._successors: List[Tuple[str, float]] = []
        ring.add_listener(self)
        # The last walk's id, and the event its result succeeds while it is
        # pending (``None`` otherwise).
        self._walks = 0
        self._walk_done = None
        node.register_handler("route_table_entry", self._handle_table_entry)
        node.register_handler("route_table_done", self._handle_table_done)
        # Replaces the Data Store's plain probe: same reply plus ``next``.
        node.register_handler("ds_probe", self._handle_probe)
        node.every(
            self._cadence.interval,
            self._refresh_table,
            jitter=STABILIZATION_JITTER,
            name="router-refresh",
            initial_delay=config.router_refresh_period,
        )

    # ------------------------------------------------------------------ helpers
    def _record_route(self, key: float, hops: int, found: Optional[str]) -> None:
        if self.history is not None:
            self.history.record(
                "route", peer=self.node.address, key=key, hops=hops, found=found
            )
        if self.metrics is not None:
            self.metrics.record("route_hops", hops)

    def _local_owner(self, key: float) -> bool:
        return self.store.owns_key(key)

    def _tally(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.tally(name)

    def _reset(self, cause: str) -> None:
        """Evidence against the table: the next walk is full.  Tallied by
        ``cause`` as ``router_reset_<cause>``; the callers tighten the cadence."""
        self._restart = 0
        self._tally("router_reset_" + cause)

    # ------------------------------------------------------------------ ring events
    def on_successor_changed(self, ring, new_address: str) -> None:
        self._reset("ring_event")
        self._cadence.note_change()

    def on_predecessor_changed(self, ring, old_address, old_value, new_address, new_value) -> None:
        self._reset("ring_event")
        self._cadence.note_change()

    def on_predecessor_failed(self, ring, old_address, old_value) -> None:
        self._reset("ring_event")
        self._cadence.note_failure()

    # ------------------------------------------------------------------ table maintenance
    def _joined_successors(self) -> List[Tuple[str, float]]:
        """The JOINED successor-list pointers, in ring order; the first is level 0."""
        return [
            (entry.address, entry.value)
            for entry in self.ring.succ_list
            if entry.state == JOINED and entry.address != self.node.address
        ]

    def _table_answer(self, level: int, until: float):
        """Our pointers for a walk hop at ``level``: ``(pointers, mark)``.

        ``_WALK_SPAN`` pointers from ``level`` on (two per hop halve the
        walk's hops).  Level 0 is answered from the successor list, so it is
        right even before our first refresh.

        A slice the walk could not use is replaced by our farthest pointer
        that stops short of the walk's origin (``until``, its ring value),
        marked:

        * ``past_end`` -- the level is past the end of our short table and
          our farthest pointer is that pointer: the walk goes on from it
          instead of ending at our table's end;
        * ``wrapped`` -- our pointers at ``level`` pass the origin (or, past
          the end, our farthest one does): the pointer covers what is left of
          the origin's ring, and once the walk's table reaches halfway round
          the key space it ends there.  A slice whose second pointer passes
          the origin is cut before it and marked ``wrapped`` too, so the walk
          goes on from its first pointer instead of ending as a plain answer.

        ``mark`` is ``None`` for a plain slice.
        """
        # Slices of ``_joined_successors()[:1] + table[1:]``; with no JOINED
        # successor that list is ``table[1:]``, every level one on.
        first = self.ring._stabilization_target()  # the first of _joined_successors
        pointers = self.table[1:]
        if first is not None:
            pointers.insert(0, (first.address, first.value))
        own_value = self.ring.value
        room = self._clockwise(own_value, until)
        answer = pointers[level : level + _WALK_SPAN]
        mark = None
        if not answer or self._clockwise(own_value, answer[0][1]) >= room:
            short = [
                pointer for pointer in pointers if self._clockwise(own_value, pointer[1]) < room
            ]
            if short:
                beyond = not answer and short[-1] == pointers[-1]
                mark = "past_end" if beyond else "wrapped"
            answer = short[-1:]
        elif self._clockwise(own_value, answer[-1][1]) >= room:
            answer, mark = answer[:1], "wrapped"  # the second pointer passes the origin
        return answer, mark

    def _handle_table_entry(self, payload, request):
        """Cast: one hop of a table walk, answered here and forwarded.

        The walk arrives as the table so far (``table``, ours the last
        pointer), the clockwise distance of that pointer from the origin
        (``last``), whether an earlier hop answered past the end of its
        table (``past_end``) and, on a restart walk that may stop early,
        the origin's own pointers from the next level on (``held``, else
        ``None``).  We answer the next two levels (:meth:`_table_answer`)
        and install them by the walk's rules, from the origin's point of
        view: a pointer not strictly farther than the one before it ends the
        walk, as do the ``ROUTER_TABLE_SIZE`` cap and a ``wrapped`` answer
        once the table reaches halfway round the key space.  A plain answer
        (no mark) that installs exactly the ``held`` pointers at those
        levels ends it too: nothing moved here, and the origin keeps the
        rest of its table, so the result is the walked table followed by
        what is left of ``held``.  Then the walk goes on as one cast to its
        new last pointer, or comes back to the origin as one
        ``route_table_done``.  Each hop sends a new payload: the simulated
        network passes payload objects by reference.
        """
        until = payload["until"]
        table = payload["table"]
        answer, mark = self._table_answer(len(table) - 1, until)
        table = list(table)  # the walk's new payload (see above)
        last, past_end, held = payload["last"], payload["past_end"], payload["held"]
        ended = not answer
        for address, value in answer:
            distance = self._clockwise(until, value)
            if len(table) >= ROUTER_TABLE_SIZE or distance <= last:
                ended = True  # refused: the walk ends here
                break
            table.append((address, value))
            last = distance
            past_end = past_end or mark == "past_end"
        if held is not None:
            # ``held[0]`` is the origin's pointer at the level ``answer`` starts at.
            if not ended and mark is None and answer == held[: len(answer)]:
                table += held[len(answer) :]  # nothing moved here: keep the rest
                ended = True
            held = held[len(answer) :]
        if (
            ended
            or len(table) >= ROUTER_TABLE_SIZE
            or (mark == "wrapped" and last >= self.config.key_space / 2.0)
        ):
            self.node.cast(
                payload["origin"],
                "route_table_done",
                {"walk": payload["walk"], "table": table, "past_end": past_end},
            )
            return
        self.node.cast(
            table[-1][0],
            "route_table_entry",
            dict(payload, table=table, last=last, past_end=past_end, held=held),
        )

    def _handle_table_done(self, payload, request):
        """Cast: a walk's result; one that is not the pending walk's is dropped."""
        done = self._walk_done
        if done is not None and payload["walk"] == self._walks and not done.triggered:
            done.succeed(payload)

    def _start_level(self, first, successors) -> int:
        """The table index the next walk starts at, even and kept below.

        ``_restart``, unless the kept prefix ``table[:start + 1]`` is gone
        (the table was emptied while we had no JOINED successor) or can no
        longer be trusted: the floor's full walk is due (tallied as the
        ``floor`` reset), or (the ``successors`` reset) ``table[0]`` is not
        our first JOINED successor ``first`` any more, or a peer joined or
        left our JOINED ``successors`` since the last walk started, no
        farther clockwise than ``table[start]``.
        """
        start = self._restart
        if not start:
            return 0
        if self.node.sim.now >= self._full_due:
            self._reset("floor")
            return 0
        table = self.table
        if start >= len(table) or table[0] != (first.address, first.value):
            self._reset("successors")
            return 0
        own_value = self.ring.value
        reach = self._clockwise(own_value, table[start][1])
        before, after = dict(self._successors), dict(successors)
        for address in before.keys() ^ after.keys():
            value = before[address] if address in before else after[address]
            if self._clockwise(own_value, value) <= reach:
                self._reset("successors")
                return 0
        return start

    def _held(self, start: int) -> Optional[List[Tuple[str, float]]]:
        """What a restart walk from ``start`` carries for its stop rule: our
        pointers past ``table[start]``.  ``None`` (the walk never stops
        early) while our table falls short of half the key space, so it is
        still converging -- a full table can too, its levels answered by
        hops whose own tables were short, and an early stop would keep them
        -- or while its pointers from ``table[start]`` on no longer strictly
        increase clockwise from our value, which moved since they were
        installed."""
        table = self.table
        own_value = self.ring.value
        distances = [self._clockwise(own_value, value) for _, value in table[start:]]
        if distances[-1] < self.config.key_space / 2.0:
            return None
        if any(near >= far for near, far in zip(distances, distances[1:])):
            return None
        return table[start + 1 :]

    def _refresh_table(self, start=None):
        """Rebuild the pointer table by one walk forwarded along the ring.

        A full walk starts at our first JOINED successor and travels from peer
        to peer as ``route_table_entry`` casts (:meth:`_handle_table_entry`):
        each hop adds two consecutive table entries of its own, so the
        pointer spread stays geometric (ratios alternate ~2x and ~1.5x), and
        casts the walk on to the farthest pointer so far.  The last hop casts
        the table back to us as one ``route_table_done``: a walk of *h* hops
        costs *h* + 1 messages.  A hop whose table is too short answers its
        farthest pointer instead (``past_end``), and the walk goes on from
        there: one walk reaches the full span even while the tables around it
        are still short.  A hop whose pointers at the asked level would pass
        us answers its farthest pointer short of us (``wrapped``); the walk
        ends there once the table reaches half the key space, and goes on
        otherwise, so a remote table left uneven by the ring's growth cannot
        cut ours short.  A pointer is installed only if it lies strictly
        farther clockwise than the one before it, so the table holds only
        usable pointers.

        **Restart.**  A walk re-asks only what moved: it may start at an even
        table index ``start`` (:meth:`_start_level`, or the argument), keep
        ``table[:start + 1]`` and send its first cast to ``table[start]``.
        It also carries our pointers past ``table[start]`` (:meth:`_held`),
        and ends at the first hop whose plain answer (no ``past_end`` or
        ``wrapped`` mark) installs exactly the pointers we hold at those
        levels: nothing moved there, and that hop's ``route_table_done``
        returns the walked table followed by the rest of ours.  On a
        settled ring a restart then costs two messages, one hop and the
        result.  A full walk never stops early, nor does a restart from a
        table short of half the key space, even a full one: such a table is
        still converging.  After a walk the
        next one starts two levels below the lowest level this one changed,
        rounded down to even (the hop that answered that level, or the one
        before it).  Evidence against the table makes the next walk full: a
        ring event (the listener callbacks), a lost walk, a dead pointer
        found by our own route, a walk that grew the table or went
        ``past_end``, a moved first successor or successor list, and the
        floor, a full walk at least every ``_FULL_WALK_FLOOR`` base periods.
        Each walk is tallied as ``router_walk_full`` or
        ``router_walk_restart``, and each piece of evidence as
        ``router_reset_<cause>`` (:meth:`_reset`).

        We wait for the result on one clock timer, ``ROUTER_TABLE_SIZE``
        failure-detection timeouts: a walk that does not come back by then
        was lost at a dead hop (or a dropped message), and the old table
        stays.  A result that comes back later, or from an earlier walk, is
        dropped (:meth:`_handle_table_done`).

        The walk feeds the cadence controller.  A lost walk is a failure.  A
        walk that grew the table, or that installed a past-the-end pointer, is
        a change: the table is still converging, and its interim pointers are
        replaced by doubling ones at the base period.  Any other walk is
        clean, and two clean walks in a row back the loop off.  Exact pointer
        equality is deliberately *not* required -- far pointers drift between
        rounds because every peer rebuilds its table asynchronously from
        everyone else's, and that drift is benign (the pointer spread stays
        geometric over live peers).  A failed table jump during routing and a
        ring neighbourhood change (the ring-event callbacks) tighten the
        cadence too.
        """
        if not self.ring.is_joined:
            return
        first = self.ring._stabilization_target()  # the first of _joined_successors
        if first is None:
            self.table = []
            self._cadence.note_success()
            return
        own_value = self.ring.value
        sim = self.node.sim
        successors = self._joined_successors()
        if start is None:
            start = self._start_level(first, successors)
        if start:
            table, held = self.table[: start + 1], self._held(start)
            self._tally("router_walk_restart")
        else:
            table, held = [(first.address, first.value)], None
            self._full_due = sim.now + _FULL_WALK_FLOOR * self._cadence.base
            self._tally("router_walk_full")
        # Evidence that arrives while the walk is out lowers this again.
        self._restart = ROUTER_TABLE_SIZE
        self._successors = successors
        self._walks += 1
        done = self._walk_done = sim.event()
        timer = sim.schedule_timer(_WALK_TIMEOUT, _lose_walk, done)
        self.node.cast(
            table[-1][0],
            "route_table_entry",
            {
                "walk": self._walks,
                "origin": self.node.address,
                "until": own_value,
                "table": table,
                "last": self._clockwise(own_value, table[-1][1]),
                "past_end": False,
                "held": held,
            },
        )
        try:
            result = yield done
        finally:
            self._walk_done = None
            sim.cancel_timer(timer)
        if result is None:
            self._reset("lost_walk")
            self._cadence.note_failure()  # lost at a dead hop: keep the table
            return
        table, old = result["table"], self.table
        grew = len(table) > len(old)
        changed = min(len(old), len(table))  # the lowest level this walk changed
        for level in range(changed):
            if table[level] != old[level]:
                changed = level
                break
        self.table = table
        if grew or result["past_end"]:
            self._reset("growth" if grew else "past_end")
            self._cadence.note_change()
        else:
            self._restart = min(self._restart, max(changed - 2, 0) // 2 * 2)
            self._cadence.note_success()

    # ------------------------------------------------------------------ routing
    def _next_hops(self, key: float) -> List[str]:
        """Our ordered next-hop candidates towards ``key``.

        The table pointers that do not pass the key, farthest first (a
        handful), then the JOINED successor-list entries in ring order: the
        closest-preceding-pointer rule, with the successor list as the
        fallback and as the last hop onto the owner.
        """
        if not self.ring.is_joined:
            return []
        own_value = self.ring.value
        target = self._clockwise(own_value, key)
        preceding = [
            address
            for address, value in self.table
            if self._clockwise(own_value, value) <= target
        ]
        hops = preceding[: -_TABLE_CANDIDATES - 1 : -1]
        hops += [address for address, _ in self._joined_successors() if address not in hops]
        return hops

    def _named_owner(self, key: float) -> Optional[str]:
        """Our first JOINED successor if ``key`` lies on the arc from our value
        (exclusive) to its value (inclusive): by our word, it owns the key.

        Only the first successor is named.  Deeper successor-list entries
        are left out: an adjacent pair of them says nothing of who joined
        between them since (docs/ARCHITECTURE.md, "Contract: routing").
        """
        if not self.ring.is_joined:
            return None
        first = self.ring._stabilization_target()  # the first of _joined_successors
        if first is None:
            return None
        own_value = self.ring.value
        distance = self._clockwise(own_value, key)
        if 0.0 < distance <= self._clockwise(own_value, first.value):
            return first.address
        return None

    def _handle_probe(self, payload, request):
        """RPC: the Data Store's ownership probe plus, from a peer that does
        not own the key, ``owner`` (:meth:`_named_owner`) or else ``next``:
        its own candidates for the caller's next hop."""
        reply = self.store._handle_probe(payload, request)
        if not reply["owns"]:
            key = payload["key"]
            owner = self._named_owner(key)
            if owner is not None:
                reply["owner"] = owner
            else:
                reply["next"] = self._next_hops(key)
        return reply

    def route_until(self, key: float, deadline: float):
        """Generator: :meth:`find_responsible`, retried while the clock is before ``deadline``.

        A ``None`` route means no live peer could be found for the key right
        now (a split is mid-flight, or the route saw the named owner dead);
        the ring repairs that on its own clock, so callers wait by time -- a
        query its ``timeout``, a write ``config.repair_horizon`` -- not by
        attempt count.  No wait runs past ``deadline``.
        """
        sim = self.node.sim
        while sim.now < deadline:
            address = yield from self.find_responsible(key)
            if address is not None:
                return address
            yield sim.capped_timeout(0.25, deadline)
        return None

    def find_responsible(self, key: float):
        """Generator: route to the responsible peer, every hop a table hop.

        Starting from our own candidates, probe the first; a peer that does
        not own the key but lies closer to it hands over *its* candidates.  A
        candidate that times out, or that is no closer to the key than the
        last live hop (a stale pointer, or a range nobody owns right now), is
        skipped for that hop's next candidate -- never for a restart from
        here.  A hop that names the owner (:meth:`_named_owner`; we apply
        the same rule before our first probe) ends the route at that name,
        unprobed: the caller's next RPC to it checks ownership under the
        owner's own lock, and a stale or dead name costs that RPC what
        probing it would have.  Out of candidates or hop budget, or named a
        peer this route found dead, the route returns ``None`` at once;
        waiting for the ring to repair is the caller's business
        (:meth:`route_until`).
        """
        if self._local_owner(key):
            self._record_route(key, 0, self.node.address)
            return self.node.address
        owner = self._named_owner(key)
        if owner is not None:
            self._record_route(key, 0, owner)
            return owner

        hops = 0
        candidates = self._next_hops(key)
        remaining = self._clockwise(self.ring.value, key)
        budget = 4 * ROUTER_TABLE_SIZE
        dead = set()  # pointers at one dead peer recur along a route: pay for it once
        while candidates and hops < budget:
            current = candidates.pop(0)
            if current in dead:
                continue
            hops += 1
            try:
                probe = yield self.node.call(current, "ds_probe", {"key": key})
            except RpcError:
                # A dead hop is first-hand staleness evidence: forget the
                # pointer and revalidate the table at the base cadence.
                dead.add(current)
                self._reset("dead_pointer")
                self._cadence.note_failure()
                self.table = [pointer for pointer in self.table if pointer[0] != current]
                continue
            if probe.get("owns"):
                self._record_route(key, hops, current)
                return current
            owner = probe.get("owner")
            if owner is not None:
                found = None if owner in dead else owner
                self._record_route(key, hops, found)
                return found
            distance = self._clockwise(probe["value"], key)
            if distance < remaining and probe.get("next"):
                remaining, candidates = distance, probe["next"]
        self._record_route(key, hops, None)
        return None

    def _clockwise(self, start: float, end: float) -> float:
        """Clockwise distance from ``start`` to ``end`` on the key space."""
        if end >= start:
            return end - start
        return self.config.key_space - start + end
