"""Linear (successor-walking) content router.

The naive baseline router: probe peers one ring hop at a time until the peer
whose Data Store range contains the key is found.  O(N) messages; kept for the
figures' baseline cells.  It also carries what every router shares: route
recording and :meth:`LinearRouter.route_until`, the callers' one retry loop.
"""

from __future__ import annotations

from typing import Optional

from repro.index.config import IndexConfig
from repro.transport import RpcError


class LinearRouter:
    """Find the peer responsible for a key by walking the ring."""

    def __init__(self, node, ring, store, config: IndexConfig, metrics=None, history=None):
        self.node = node
        self.ring = ring
        self.store = store
        self.config = config
        self.metrics = metrics
        self.history = history

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

    # ------------------------------------------------------------------ routing
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

    def find_responsible(self, key: float, max_hops: int = 512):
        """Generator: the address of the peer responsible for ``key``, or ``None``."""
        if self._local_owner(key):
            self._record_route(key, 0, self.node.address)
            return self.node.address
        current = self.ring.first_live_successor()
        if current is None:
            self._record_route(key, 0, None)
            return None
        hops = 0
        visited = set()
        while current is not None and hops < max_hops:
            hops += 1
            if current in visited:
                break
            visited.add(current)
            try:
                probe = yield self.node.call(current, "ds_probe", {"key": key})
            except RpcError:
                # The peer died mid-route; restart from our own successor.
                current = self.ring.first_live_successor()
                visited.clear()
                continue
            if probe.get("owns"):
                self._record_route(key, hops, current)
                return current
            next_hop = probe.get("successor")
            if next_hop is None or next_hop == current:
                break
            current = next_hop
        self._record_route(key, hops, None)
        return None
