"""Range queries: the ``scanRange`` primitive and the naive application-level scan.

``scanRange`` (Section 4.3.2, Algorithms 3-5) walks the ring peer by peer while
*lock-coupling* on the peers' Data Store ranges: a peer's range cannot change
while its portion of the scan is in progress, and the lock is released only
once the next peer along the ring has locked its own range.  Registered
handlers (here: the range-query handler of Algorithms 6-7, which ships the
matching items back to the initiating peer) therefore observe a consistent
sweep of the queried interval, which is what Theorems 2-3 formalise.

One presentational difference from the paper's pseudocode: each hop forwards a
*watermark* -- the upper end of the interval already covered -- and computes
its own sub-range starting from it.  In the paper the sub-range is recomputed
from the original bounds at every peer; the watermark form is equivalent when
ranges are stable and strictly stronger during splits/merges (it guarantees
Definition 6's disjointness even while two peers transiently claim overlapping
ranges), so all stated theorems continue to hold.

The *naive* baseline reproduces what an application scanning the ring by itself
would do (Section 6.2): fetch a peer's local items with one message, fetch its
successor with another, and move on -- with no locks, so the Section 4.2
anomalies (missed items during splits, merges, redistributions and ring
inconsistency) can and do occur.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.datastore.items import Item, Wire, items_from_wire
from repro.datastore.ranges import CircularRange, segments_cover_interval
from repro.index.config import FAILURE_DETECTION_TIMEOUT, IndexConfig
from repro.ring.entries import JOINED
from repro.transport import RpcError


def _holds(items_response: Optional[dict], key: float) -> bool:
    """Whether a ``ds_get_local_items`` reply comes from the active owner of ``key``."""
    if items_response is None or not items_response.get("active"):
        return False
    crange = items_response.get("range")
    return crange is not None and CircularRange.from_tuple(tuple(crange)).contains(key)


def query_result(metrics, query_id: str, lb: float, ub: float, items: Dict[float, Item],
                 started: float, scan_started: float, finished: float, hops: int,
                 complete: bool, strategy: str, routing: str = "primary") -> dict:
    """The result dict of one range query; records its ``range_query`` and ``scan_elapsed``.

    Every query path builds its result here: scanRange and the naive scan
    (:class:`RangeQueryEngine`, the ``primary`` routing) and the serve
    layer's replica walk (:class:`repro.serve.QueryClient`).
    """
    scan_elapsed = finished - scan_started
    if metrics is not None:
        metrics.record("range_query", finished - started)
        metrics.record("scan_elapsed", scan_elapsed)
    ordered = sorted(items.values(), key=lambda item: item.skv)
    return {
        "query_id": query_id,
        "lb": lb,
        "ub": ub,
        "items": ordered,
        "keys": [item.skv for item in ordered],
        "start_time": started,
        "end_time": finished,
        "scan_elapsed": scan_elapsed,
        "hops": hops,
        "complete": complete,
        "strategy": strategy,
        "routing": routing,
    }


class RangeQueryEngine:
    """Per-peer component executing range queries (initiator and scan sides)."""

    def __init__(
        self,
        node,
        ring,
        store,
        router,
        config: IndexConfig,
        metrics=None,
        history=None,
    ):
        self.node = node
        self.ring = ring
        self.store = store
        self.router = router
        self.config = config
        self.metrics = metrics
        self.history = history

        self._pending: Dict[str, Dict] = {}
        self._next_query = 0

        node.register_handler("scan_begin", self._handle_scan_begin)
        node.register_handler("scan_continue", self._handle_scan_continue)
        node.register_handler("query_deliver", self._handle_query_deliver)
        node.register_handler("ring_successor_info", self._handle_successor_info)

    # ------------------------------------------------------------------ helpers
    @property
    def address(self) -> str:
        return self.node.address

    def _record_op(self, kind: str, **attrs) -> None:
        if self.history is not None:
            self.history.record(kind, peer=self.address, **attrs)

    def _new_query_id(self) -> str:
        self._next_query += 1
        return f"{self.address}#{self._next_query}"

    # ------------------------------------------------------------------ public API
    def query(self, lb: float, ub: float, strategy: Optional[str] = None, timeout: float = 60.0):
        """Execute the range query ``(lb, ub]`` against the primary owners.

        ``strategy`` selects the mechanism: ``"scan"`` (the scanRange
        primitive), ``"naive"`` (the Section 6.2 baseline), or ``None`` to
        follow the deployment's ``use_scan_range`` flag.  Generator returning
        a result dict with the matching items, the query window, the number
        of ring hops and whether coverage completed.

        This is the serve layer's primary-routing backend; clients go through
        :class:`repro.serve.QueryClient` rather than calling it directly.
        """
        if strategy is None:
            strategy = "scan" if self.config.use_scan_range else "naive"
        if strategy == "scan":
            result = yield from self._query_scan(lb, ub, timeout=timeout)
        elif strategy == "naive":
            result = yield from self._query_naive(lb, ub, timeout=timeout)
        else:
            raise ValueError(f"unknown query strategy {strategy!r}")
        return result

    # ------------------------------------------------------------------ scanRange path
    def _query_scan(self, lb: float, ub: float, timeout: float = 60.0):
        """Range query via the scanRange primitive (Algorithms 3-7)."""
        query_id = self._new_query_id()
        started = self.node.sim.now
        self._record_op("query_start", query_id=query_id, lb=lb, ub=ub, strategy="scan")
        state = {
            "lb": lb,
            "ub": ub,
            "items": {},
            "segments": [],
            "hops": 0,
            "event": self.node.sim.event(),
        }
        self._pending[query_id] = state

        accepted = False
        scan_started = started
        deadline = started + timeout
        while not accepted:
            start_address = yield from self.router.route_until(lb, deadline)
            if start_address is None:
                break
            scan_started = self.node.sim.now
            try:
                response = yield self.node.call(
                    start_address,
                    "scan_begin",
                    {
                        "query_id": query_id,
                        "lb": lb,
                        "ub": ub,
                        "reply_to": self.address,
                    },
                )
                accepted = bool(response.get("accepted"))
            except RpcError:
                pass
            if not accepted:
                yield self.node.sim.capped_timeout(0.25, deadline)

        if accepted:
            wait = self.node.sim.timeout(max(0.0, deadline - self.node.sim.now))
            yield self.node.sim.any_of([state["event"], wait])

        finished = self.node.sim.now
        complete = state["event"].triggered
        self._pending.pop(query_id, None)
        self._record_op(
            "query_end", query_id=query_id, complete=complete, hops=state["hops"]
        )
        return query_result(self.metrics, query_id, lb, ub, state["items"], started,
                            scan_started, finished, state["hops"], complete, "scan")

    def _handle_scan_begin(self, payload, request):
        """RPC (Algorithm 3): start the scan at the first peer of the range."""
        yield self.store.range_lock.acquire_read()
        lb = payload["lb"]
        if (
            not self.store.active
            or self.store.range is None
            or not self.store.range.contains(lb)
        ):
            self.store.range_lock.release_read()
            return {"accepted": False}
        self._record_op(
            "scan_init", scan_id=payload["query_id"], lb=lb, ub=payload["ub"]
        )
        self.node.spawn(
            self._scan_step(payload, watermark=lb, hops=1), name="scanRange"
        )
        return {"accepted": True}

    def _handle_scan_continue(self, payload, request):
        """RPC (Algorithm 5): lock our range, then continue the scan asynchronously.

        Returning only after the read lock is acquired is the lock hand-off that
        lets the previous peer release its own lock (maximum concurrency while
        never exposing a torn range to the scan).
        """
        yield self.store.range_lock.acquire_read()
        self.node.spawn(
            self._scan_step(
                payload, watermark=payload["watermark"], hops=payload["hops"]
            ),
            name="scanRange",
        )
        return {"ok": True}

    def _scan_step(self, payload, watermark: float, hops: int):
        """Algorithm 4 at one peer.  The caller holds our range read lock."""
        lb, ub = payload["lb"], payload["ub"]
        query_id = payload["query_id"]
        reply_to = payload["reply_to"]
        try:
            segments = []
            if self.store.active and self.store.range is not None:
                segments = self.store.range.intersect_interval(watermark, ub)
            new_watermark = watermark
            covered: List[Tuple[float, float]] = []
            collected: List[Wire] = []
            for lo, hi in sorted(segments):
                if lo > new_watermark + 1e-12:
                    # A gap before this segment belongs to peers further along
                    # the ring; they will cover it when the scan reaches them.
                    continue
                collected += self.store.items.interval_wire(lo, hi)
                # Batch contiguous sub-ranges into one covered window per hop
                # (one delivery segment instead of one per store fragment).
                if covered and lo <= covered[-1][1] + 1e-12:
                    covered[-1] = (covered[-1][0], max(covered[-1][1], hi))
                else:
                    covered.append((lo, hi))
                self._record_op(
                    "scan_visit",
                    scan_id=query_id,
                    sub_low=lo,
                    sub_high=hi,
                    range=self.store.range.as_tuple(),
                )
                new_watermark = max(new_watermark, hi)

            if covered:
                try:
                    yield self.node.call(
                        reply_to,
                        "query_deliver",
                        {
                            "query_id": query_id,
                            "items": collected,
                            "segments": covered,
                            "hops": hops,
                        },
                    )
                except RpcError:
                    pass

            if new_watermark >= ub - 1e-12:
                self._record_op("scan_done", scan_id=query_id, lb=lb, ub=ub)
                return

            # Forward to the successor (Algorithm 4 lines 4-8): wait until it
            # has locked its own range before we release ours.
            forwarded = False
            for _retry in range(6):
                successor = self._forward_target(new_watermark)
                if successor is None:
                    break
                try:
                    yield self.node.call(
                        successor,
                        "scan_continue",
                        {
                            "query_id": query_id,
                            "lb": lb,
                            "ub": ub,
                            "watermark": new_watermark,
                            "reply_to": reply_to,
                            "hops": hops + 1,
                        },
                        timeout=2.0,
                    )
                    forwarded = True
                    break
                except RpcError:
                    # Successor failed mid-scan: wait for the ring to repair
                    # itself and retry with the new successor.
                    yield self.node.sim.timeout(FAILURE_DETECTION_TIMEOUT)
            if not forwarded:
                self._record_op("scan_stalled", scan_id=query_id, watermark=new_watermark)
        finally:
            self.store.range_lock.release_read()

    def _forward_target(self, watermark: float) -> Optional[str]:
        """First successor whose range can still contribute past ``watermark``.

        Window pruning on the forward path: walking the successor list in
        ring order, each JOINED entry's arc runs from the previous entry's
        value up to its own.  A non-wrapping arc ending at or below the
        watermark covers only already-scanned keys, so the scan skips the
        entry instead of paying a hop (or, for a stale entry of a
        merged-away peer, a 2 s call timeout) to learn nothing.  Pruning is
        conservative: the walk stops at the first non-JOINED entry, where
        arc attribution is uncertain, and falls back to the plain first live
        successor.
        """
        pruned = 0
        previous = self.ring.value
        for entry in self.ring.successor_entries():
            if entry.address == self.address:
                continue
            if entry.state != JOINED:
                break
            if previous < entry.value <= watermark + 1e-12:
                pruned += 1
                previous = entry.value
                continue
            if pruned and self.metrics is not None:
                self.metrics.record("scan_window_pruned", pruned)
            return entry.address
        if pruned and self.metrics is not None:
            self.metrics.record("scan_window_pruned", pruned)
        return self.ring.first_live_successor()

    def _handle_query_deliver(self, payload, request):
        """RPC (Algorithm 7's delivery): collect one peer's contribution."""
        state = self._pending.get(payload["query_id"])
        if state is None:
            return {"ok": False}
        for item in items_from_wire(payload["items"]):
            state["items"][item.skv] = item
        state["segments"].extend(tuple(seg) for seg in payload["segments"])
        state["hops"] = max(state["hops"], payload.get("hops", 0))
        if segments_cover_interval(state["segments"], state["lb"], state["ub"]):
            if not state["event"].triggered:
                state["event"].succeed(True)
        return {"ok": True}

    # ------------------------------------------------------------------ naive path
    def _handle_successor_info(self, payload, request):
        """RPC: the naive scan's second message ("who is your successor?")."""
        return {
            "successor": self.ring.first_live_successor(),
            "value": self.ring.value,
            "range": self.store.range.as_tuple() if self.store.range is not None else None,
        }

    def _query_naive(self, lb: float, ub: float, timeout: float = 60.0):
        """The naive application-level scan (Section 6.2 baseline).

        Two unsynchronised messages per peer (items, then successor) and no
        locks, so ranges can change between the two -- reproducing the missed
        results of Sections 4.2.1 and 4.2.2.  The scan starts only at a peer
        whose range, as its first items reply reports it, holds ``lb``: a
        route's named owner is not probed, so a stale or dead name is routed
        again (within the deadline) rather than scanned from.
        """
        query_id = self._new_query_id()
        started = self.node.sim.now
        self._record_op("query_start", query_id=query_id, lb=lb, ub=ub, strategy="naive")

        deadline = started + timeout
        current: Optional[str] = yield from self.router.route_until(lb, deadline)

        scan_started = self.node.sim.now
        collected: Dict[float, Item] = {}
        hops = 0
        while current is not None and hops < 256 and self.node.sim.now < deadline:
            # Message 1: fetch the peer's local items in the query range.
            try:
                items_response = yield self.node.call(
                    current, "ds_get_local_items", {"lb": lb, "ub": ub}
                )
            except RpcError:
                if hops:
                    break
                items_response = None
            if not hops and not _holds(items_response, lb):
                yield self.node.sim.capped_timeout(0.25, deadline)
                current = yield from self.router.route_until(lb, deadline)
                scan_started = self.node.sim.now
                continue
            hops += 1
            for item in items_from_wire(items_response["items"]):
                collected[item.skv] = item
            # Message 2: ask for the successor (the ring may have changed, and
            # the peer's range may change between the two messages -- this is
            # exactly the naive baseline's weakness).
            try:
                successor_response = yield self.node.call(
                    current, "ring_successor_info", {}
                )
            except RpcError:
                break
            peer_range = successor_response.get("range")
            if peer_range is not None:
                crange = CircularRange.from_tuple(tuple(peer_range))
                if crange.full or crange.contains(ub):
                    break
            next_peer = successor_response.get("successor")
            if next_peer is None or next_peer == current:
                break
            current = next_peer

        finished = self.node.sim.now
        self._record_op("query_end", query_id=query_id, complete=True, hops=hops)
        return query_result(self.metrics, query_id, lb, ub, collected, started,
                            scan_started, finished, hops, True, "naive")
