"""Hierarchical (P-Ring style) content router.

The P-Ring Content Router indexes the ring itself with a hierarchy of rings so
that the peer responsible for any search key value is reached in a logarithmic
number of hops even under skewed key distributions.  We implement the same
capability with the classic pointer-doubling construction: every peer maintains
a table whose level-``i`` pointer is (approximately) ``2**i`` ring positions
away, refreshed periodically by asking the level-``i-1`` peer for *its*
level-``i-1`` pointer.

Routing is iterative and every hop is a table hop: a peer that does not own
the key answers ``ds_probe`` with its *own* next-hop candidates (its farthest
pointers that do not pass the key, then its successor list), and the caller --
which keeps control and the timeout -- takes the first usable one.  A dead or
useless candidate is skipped for the last live hop's next one; when they run
out the route fails at once with ``None`` and the caller decides how long to
wait for the ring to repair (see ``docs/ARCHITECTURE.md``, "Contract:
routing").

The construction differs from the paper's hierarchy-of-rings in mechanism but
matches it in the property the rest of the system relies on: O(log N) routing
over an order-preserving, skew-tolerant key assignment.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.index.config import IndexConfig
from repro.ring.chord import RingListener
from repro.ring.entries import JOINED
from repro.transport import RpcError

# How many table pointers a peer offers per probe, farthest first, before its
# successor list: enough to step around a dead pointer or two.
_TABLE_CANDIDATES = 4


class _RefreshTightener(RingListener):
    """Feed ring neighbourhood changes back into the refresh cadence.

    A changed successor or predecessor means membership moved right next to
    this peer -- exactly when a backed-off routing table is most likely to be
    stale -- so the refresh controller is reset to its base period.
    """

    def __init__(self, cadence):
        self.cadence = cadence

    def on_successor_changed(self, ring, new_address: str) -> None:
        self.cadence.note_change()

    def on_predecessor_changed(self, ring, old_address, old_value, new_address, new_value) -> None:
        self.cadence.note_change()

    def on_predecessor_failed(self, ring, old_address, old_value) -> None:
        self.cadence.note_failure()


class HierarchicalRingRouter:
    """Logarithmic-hop router built by pointer doubling."""

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
        # Refresh cadence (``config.maintenance``; fixed by default).  Under
        # the adaptive policy the loop backs off while consecutive refreshes
        # validate clean -- same pointers, no RPC errors -- and tightens the
        # moment the table changes or the ring reports a neighbourhood change.
        self._cadence = config.maintenance_policy.router_controller(
            config.router_refresh_period
        )
        ring.add_listener(_RefreshTightener(self._cadence))
        node.register_handler("route_table_entry", self._handle_table_entry)
        # Replaces the Data Store's plain probe: same reply plus ``next``.
        node.register_handler("ds_probe", self._handle_probe)
        node.every(
            self._cadence.interval,
            self._refresh_table,
            jitter=config.stabilization_jitter,
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

    # ------------------------------------------------------------------ table maintenance
    def _joined_successors(self) -> List[Tuple[str, float]]:
        """The JOINED successor-list pointers, in ring order; the first is level 0."""
        return [
            (entry.address, entry.value)
            for entry in self.ring.succ_list
            if entry.state == JOINED and entry.address != self.node.address
        ]

    def _handle_table_entry(self, payload, request):
        """RPC: return a slice of our routing table starting at ``level``.

        ``span`` entries are returned per request (pointer doubling used to ask
        for one level per round trip; batching the reply halves the refresh
        traffic, the dominant RPC at 1000+ peers).  Level 0 is answered from
        the successor list, so it is right even before our first refresh; a
        request past the end of the table answers no entry, which ends the
        asker's walk.
        """
        level = payload.get("level", 0)
        span = max(1, payload.get("span", 1))
        # The answered slice of ``_joined_successors()[:1] + table[1:]``; with
        # no JOINED successor that list is ``table[1:]``, every level one on.
        first = self.ring._stabilization_target()  # the first of _joined_successors
        if first is None:
            pointers = self.table[level + 1 : level + span + 1]
        elif level == 0:
            pointers = [(first.address, first.value)] + self.table[1:span]
        else:
            pointers = self.table[level : level + span]
        return {
            "entries": [{"address": address, "value": value} for address, value in pointers]
        }

    def _refresh_table(self):
        """Rebuild the pointer table by (batched) doubling along the ring.

        Each contacted peer returns two consecutive table entries, so the
        pointer spread stays geometric (ratios alternate ~2x and ~1.5x) at half
        the round trips.  A pointer is installed only if it lies strictly
        farther clockwise than the one before it, so the walk stops by itself
        once the doubling has wrapped around the ring or the remote table has
        ended, and the table holds only usable pointers.

        The refresh outcome feeds the cadence controller: a walk that
        completes without hitting a dead pointer validated clean (the loop may
        back off).  Exact pointer equality is deliberately *not* required --
        far pointers drift between rounds because every peer rebuilds its
        table asynchronously from everyone else's, and that drift is benign
        (the pointer spread stays geometric over live peers).  Staleness
        proper is what tightens the cadence: a failed refresh hop here, a
        failed table jump during routing, or a ring neighbourhood change via
        :class:`_RefreshTightener`.
        """
        if not self.ring.is_joined:
            return
        own_value = self.ring.value
        size = self.config.router_table_size
        table: List[Tuple[str, float]] = []
        last = 0.0  # the clockwise distance of table[-1]

        first = self.ring._stabilization_target()  # the first of _joined_successors
        fresh = [] if first is None else [(first.address, first.value)]
        rpc_failed = False
        # Install what the last peer answered, then ask the farthest pointer
        # for the next two levels; the first refused pointer ends the walk.
        while fresh:
            for address, value in fresh:
                distance = self._clockwise(own_value, value)
                if len(table) >= size or (table and distance <= last):
                    fresh = None  # refused: the walk ends here
                    break
                table.append((address, value))
                last = distance
            if fresh is None or len(table) >= size:
                break
            try:
                response = yield self.node.call(
                    table[-1][0], "route_table_entry", {"level": len(table) - 1, "span": 2}
                )
            except RpcError:
                table.pop()  # dead: not a usable pointer
                rpc_failed = True
                break
            fresh = [(entry["address"], entry["value"]) for entry in response["entries"]]
        self.table = table
        if rpc_failed:
            self._cadence.note_failure()
        else:
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

    def _handle_probe(self, payload, request):
        """RPC: the Data Store's ownership probe plus, from a peer that does
        not own the key, ``next``: its own candidates for the caller's next hop."""
        reply = self.store._handle_probe(payload, request)
        if not reply["owns"]:
            reply["next"] = self._next_hops(payload["key"])
        return reply

    def route_until(self, key: float, deadline: float):
        """Generator: :meth:`find_responsible`, retried while the clock is before ``deadline``.

        A ``None`` route means nobody owns the key right now (its owner just
        failed, a split is mid-flight); the ring repairs that on its own
        clock, so callers wait by time -- a query its ``timeout``, a write
        ``config.repair_horizon`` -- not by attempt count.
        """
        while self.node.sim.now < deadline:
            address = yield from self.find_responsible(key)
            if address is not None:
                return address
            yield self.node.sim.timeout(0.25)
        return None

    def find_responsible(self, key: float):
        """Generator: route to the responsible peer, every hop a table hop.

        Starting from our own candidates, probe the first; a peer that does
        not own the key but lies closer to it hands over *its* candidates.  A
        candidate that times out, or that is no closer to the key than the
        last live hop (a stale pointer, or a range nobody owns right now), is
        skipped for that hop's next candidate -- never for a restart from
        here.  Out of candidates or hop budget the route returns ``None`` at
        once; waiting for the ring to repair is the caller's business
        (:meth:`route_until`).
        """
        if self._local_owner(key):
            self._record_route(key, 0, self.node.address)
            return self.node.address

        hops = 0
        candidates = self._next_hops(key)
        remaining = self._clockwise(self.ring.value, key)
        budget = 4 * self.config.router_table_size
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
                self._cadence.note_failure()
                self.table = [pointer for pointer in self.table if pointer[0] != current]
                continue
            if probe.get("owns"):
                self._record_route(key, hops, current)
                return current
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
