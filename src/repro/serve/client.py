"""The one client-facing query API: ``QueryClient``.

A :class:`QueryClient` is scoped to an entry peer and issues range queries
``(lb, ub]`` under a routing policy:

* ``primary`` -- the historical path: delegate to the peer's
  :class:`~repro.core.scan_range.RangeQueryEngine` (scanRange or the naive
  scan, per the deployment's ``use_scan_range`` flag).
* ``replica_lb`` -- a client-coordinated ring walk over ``serve_meta`` /
  ``serve_read``: each hop probes the owner, then reads the owner's window
  from whichever of {owner} ∪ {live replica holders} has the fewest RPCs in
  flight (per the transport-fed
  :class:`~repro.serve.tracker.InFlightTracker`).  A replica that cannot
  prove its copy current -- the owner's live ``ItemStore.version`` differs
  from its recorded push version, or a key is tombstoned/missing -- refuses,
  and the client falls back to the primary for that window, so the result
  set is always exactly the primary's.

The ``consistency`` knob: ``strong`` (default) performs the version
validation above, and picks only among the owner and the holders the owner
says have its current snapshot (``serve_meta``'s ``current``), so a read is
not sent to a replica the owner already knows will refuse it; ``eventual``
picks among all the replica holders and lets them serve their recorded push
snapshot without comparing it to the owner's live version (one probe fewer of
staleness, bounded by the replication round's period).

All methods returning query results are simulation generators (drive them
with ``sim.run_process`` or from another process); result dicts carry the
one shape, built by :func:`repro.core.scan_range.query_result` for every
path, with the ``routing`` that served the query.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.scan_range import query_result
from repro.datastore.items import Item, items_from_wire
from repro.datastore.ranges import CircularRange, segments_cover_interval
from repro.index.config import FAILURE_DETECTION_TIMEOUT
from repro.transport import RpcError

ROUTING_POLICIES = ("primary", "replica_lb")
CONSISTENCY_LEVELS = ("strong", "eventual")

# A client-coordinated walk gives up after this many hops (matches the naive
# scan's historical bound).
_MAX_HOPS = 256


class QueryClient:
    """Range queries from one entry peer under a routing/consistency policy."""

    def __init__(
        self,
        peer,
        routing: str = "primary",
        consistency: str = "strong",
        tracker=None,
        metrics=None,
    ):
        if routing not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing {routing!r}; known: {', '.join(ROUTING_POLICIES)}"
            )
        if consistency not in CONSISTENCY_LEVELS:
            raise ValueError(
                f"unknown consistency {consistency!r}; "
                f"known: {', '.join(CONSISTENCY_LEVELS)}"
            )
        self.peer = peer
        self.routing = routing
        self.consistency = consistency
        self.tracker = tracker
        self.metrics = metrics

    # ------------------------------------------------------------------ helpers
    def _record_metric(self, name: str, value: float) -> None:
        if self.metrics is not None:
            self.metrics.record(name, value)

    # ------------------------------------------------------------------ public API
    def query(self, lb: float, ub: float, timeout: float = 60.0):
        """Execute the range query ``(lb, ub]`` under this client's policy.

        Generator returning the standard result dict (items, keys, hops,
        ``complete``, timing) tagged with the routing policy used.
        """
        if self.routing == "primary":
            result = yield from self.peer.queries.query(lb, ub, timeout=timeout)
        else:
            result = yield from self._replica_query(lb, ub, timeout)
        return result

    # ------------------------------------------------------------------ replica_lb
    def _pick_target(self, owner: str, replicas: List[str]) -> str:
        """Least-loaded of the owner and its live replica holders."""
        if self.tracker is None or not replicas:
            return owner
        candidates = [owner] + [address for address in replicas if address != owner]
        return self.tracker.least_loaded(candidates)

    def _replica_query(self, lb: float, ub: float, timeout: float):
        """The ``replica_lb`` walk; no wait in it runs past ``started + timeout``."""
        sim = self.peer.sim
        query_id = self.peer.queries._new_query_id()
        started = sim.now
        deadline = started + timeout
        items: Dict[float, Item] = {}
        segments: List[Tuple[float, float]] = []
        watermark = lb
        hops = 0

        route_until = self.peer.router.route_until
        current = yield from route_until(lb, deadline)
        scan_started = sim.now
        while (
            current is not None
            and watermark < ub - 1e-12
            and hops < _MAX_HOPS
            and sim.now < deadline
        ):
            hops += 1
            try:
                meta = yield self.peer.call(current, "serve_meta", {})
            except RpcError:
                # The owner died under us: wait out failure detection so the
                # ring can repair (a successor revives the items), then route
                # again from the watermark.
                yield sim.capped_timeout(FAILURE_DETECTION_TIMEOUT, deadline)
                current = yield from route_until(watermark, deadline)
                continue
            if not meta.get("active") or meta.get("range") is None:
                yield sim.capped_timeout(0.25, deadline)
                current = yield from route_until(watermark, deadline)
                continue
            crange = CircularRange.from_tuple(tuple(meta["range"]))
            new_watermark = watermark
            for lo, hi in sorted(crange.intersect_interval(watermark, ub)):
                if lo > new_watermark + 1e-12:
                    # A gap belongs to peers further along the walk.
                    continue
                new_watermark = max(new_watermark, hi)
            if new_watermark == watermark and not crange.contains(watermark):
                # This range begins after the watermark: nobody owns the keys
                # in between right now (their owner just failed).  Stepping on
                # would only walk the ring; wait for the take-over instead.  (A
                # range that merely *ends at* the watermark steps to its
                # successor below: routing to its own upper bound would return
                # the same peer forever.)
                yield sim.capped_timeout(0.25, deadline)
                current = yield from route_until(watermark, deadline)
                continue
            if new_watermark > watermark:
                response = None
                strong = self.consistency == "strong"
                # Only a holder of the owner's current snapshot can serve a strong read.
                holders = meta.get("current" if strong else "replicas", ())
                target = self._pick_target(current, holders)
                version = meta["version"] if strong else None
                if target != current:
                    try:
                        response = yield self.peer.call(
                            target,
                            "serve_read",
                            {
                                "owner": current,
                                "lb": watermark,
                                "ub": new_watermark,
                                "version": version,
                            },
                        )
                    except RpcError:
                        response = None
                    if response is not None and not response.get("ok"):
                        self._record_metric("serve_replica_rejected", 1)
                        response = None
                if response is None:
                    # Replica unusable (stale, tombstoned, missing, dead) or
                    # load balancing picked the owner outright.
                    try:
                        response = yield self.peer.call(
                            current,
                            "serve_read",
                            {
                                "owner": current,
                                "lb": watermark,
                                "ub": new_watermark,
                                "version": None,
                            },
                        )
                    except RpcError:
                        yield sim.capped_timeout(FAILURE_DETECTION_TIMEOUT, deadline)
                        current = yield from route_until(watermark, deadline)
                        continue
                    if not response.get("ok"):
                        # The range moved between probe and read: re-route.
                        current = yield from route_until(watermark, deadline)
                        continue
                for item in items_from_wire(response["items"]):
                    items[item.skv] = item
                segments.append((watermark, new_watermark))
                watermark = new_watermark
                if watermark >= ub - 1e-12:
                    break
            successor = meta.get("successor")
            if successor is None or successor == current:
                current = yield from route_until(watermark, deadline)
            else:
                current = successor

        complete = segments_cover_interval(segments, lb, ub)
        return query_result(self.metrics, query_id, lb, ub, items, started, scan_started,
                            sim.now, hops, complete, "replica_lb", self.routing)
