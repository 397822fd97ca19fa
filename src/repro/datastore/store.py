"""The per-peer Data Store component.

Responsibilities (Section 2.2):

* hold the peer's assigned range ``(pred.value, own.value]`` and the items
  mapped into it (the map ``M`` is the identity: order-preserving);
* expose item storage/removal to the index layer and replication manager;
* detect overflow/underflow and hand off to the
  :class:`~repro.datastore.maintenance.StorageBalancer`;
* expose the range read/write lock that the scanRange protocol and the
  balancing operations coordinate through (Section 4.3.2).

A Data Store starts *inactive* (a P-Ring "free peer"); it becomes active when
the balancer activates it during a split, or when it is bootstrapped as the
first peer of the system.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.datastore.items import Item, ItemStore, items_to_wire
from repro.datastore.ranges import CircularRange
from repro.index.config import IndexConfig
from repro.ring.chord import ChordRing, RingListener
from repro.sim.locks import RWLock
from repro.transport import Endpoint


class DataStore(RingListener):
    """Order-preserving item storage for one peer."""

    def __init__(
        self,
        node: Endpoint,
        ring: ChordRing,
        config: IndexConfig,
        metrics=None,
        history=None,
    ):
        self.node = node
        self.ring = ring
        self.config = config
        self.metrics = metrics
        self.history = history

        self.items = ItemStore()
        self.range: Optional[CircularRange] = None
        self.active = False
        self.range_lock = RWLock(node.sim, name=f"{node.address}.range")

        # Callbacks installed by the StorageBalancer.
        self.on_overflow: Optional[Callable[[], None]] = None
        self.on_underflow: Optional[Callable[[], None]] = None
        # Fired whenever a range boundary moves: a shrink can strand held
        # copies outside the new range, and the shed must not wait for the
        # next periodic round to notice (the move may land near run end).
        self.on_range_changed: Optional[Callable[[], None]] = None

        ring.add_listener(self)
        node.register_handler("ds_store_item", self._handle_store_item)
        node.register_handler("ds_remove_item", self._handle_remove_item)
        node.register_handler("ds_get_local_items", self._handle_get_local_items)
        node.register_handler("ds_probe", self._handle_probe)

    # ------------------------------------------------------------------ helpers
    @property
    def address(self) -> str:
        return self.node.address

    def _record_op(self, kind: str, **attrs) -> None:
        if self.history is not None:
            self.history.record(kind, peer=self.address, **attrs)

    def snapshot_range(self) -> Optional[CircularRange]:
        """The current range (or ``None`` for an inactive/free peer)."""
        return self.range

    def item_count(self) -> int:
        return len(self.items)

    def owns_key(self, key: float) -> bool:
        """Whether this peer is currently responsible for ``key``."""
        return self.active and self.range is not None and self.range.contains(key)

    # ------------------------------------------------------------------ activation
    def activate_first(self, value: float) -> None:
        """Bootstrap this peer as the first (and only) peer of the system."""
        self.range = CircularRange(value, value, full=True)
        self.active = True
        self._record_op("range_changed", range=self.range.as_tuple(), reason="bootstrap")

    def activate(self, crange: CircularRange, items: List[Item]) -> None:
        """Turn a free peer into a live peer owning ``crange`` and ``items``."""
        self.range = crange
        self.active = True
        for item in items:
            if self.items.add(item):
                self._record_op("item_stored", skv=item.skv, reason="split_transfer")
        self._record_op("range_changed", range=crange.as_tuple(), reason="activate")

    def deactivate(self) -> List[Item]:
        """Return to the free-peer state; returns (and drops) the held items."""
        remaining = self.items.all_items()
        for item in remaining:
            self._record_op("item_removed", skv=item.skv, reason="deactivate")
        self.items.clear()
        self.active = False
        self.range = None
        self._record_op("range_changed", range=None, reason="deactivate")
        return remaining

    # ------------------------------------------------------------------ local operations
    def store_local(self, item: Item, reason: str = "insert") -> bool:
        """Add ``item`` to the local store; trigger the balancer on overflow."""
        added = self.items.add(item)
        if added:
            self._record_op("item_stored", skv=item.skv, reason=reason)
        if len(self.items) > self.config.overflow_threshold and self.on_overflow:
            self.on_overflow()
        return added

    def remove_local(self, skv: float, reason: str = "delete") -> Optional[Item]:
        """Remove the item with key ``skv``; trigger the balancer on underflow."""
        item = self.items.remove(skv)
        if item is not None:
            self._record_op("item_removed", skv=skv, reason=reason)
        if (
            self.active
            and len(self.items) < self.config.underflow_threshold
            and self.on_underflow
        ):
            self.on_underflow()
        return item

    def local_items_in(self, lb: float, ub: float) -> List[Item]:
        """Items with ``lb < skv <= ub`` currently stored here."""
        return self.items.items_in_interval(lb, ub)

    # ------------------------------------------------------------------ range updates
    def set_range_low(self, new_low: float, reason: str) -> None:
        """Move the lower bound of the range (split completion, merge absorb).

        If the new lower bound coincides with the upper bound the peer has
        become responsible for the whole ring again (it absorbed the last other
        member), which is represented by the ``full`` range.
        """
        high = self.range.high if self.range is not None and not self.range.full else self.ring.value
        self.range = CircularRange(new_low, high, full=(new_low == high))
        self._record_op("range_changed", range=self.range.as_tuple(), reason=reason)
        if self.on_range_changed:
            self.on_range_changed()

    def set_range_high(self, new_high: float, reason: str) -> None:
        """Move the upper bound of the range (redistribution boundary shift)."""
        low = self.range.low if self.range is not None else new_high
        self.range = CircularRange(low, new_high)
        self._record_op("range_changed", range=self.range.as_tuple(), reason=reason)
        if self.on_range_changed:
            self.on_range_changed()

    # ------------------------------------------------------------------ ring events
    def on_predecessor_changed(self, ring, old_address, old_value, new_address, new_value):
        """The ring predecessor changed: our range's lower bound follows its value."""
        if not self.active:
            return
        self.node.spawn(self._apply_new_low(new_value), name="ds-range-update")

    def _apply_new_low(self, new_low: float):
        yield self.range_lock.acquire_write()
        try:
            if not self.active:
                return
            if self.range is not None and not self.range.full and self.range.low == new_low:
                return
            self.set_range_low(new_low, reason="predecessor_changed")
        finally:
            self.range_lock.release_write()

    # ------------------------------------------------------------------ RPC handlers
    def _handle_store_item(self, payload, request):
        """RPC: store an item if this peer is responsible for its key.

        The ack carries the store's mutation ``version`` so callers that
        delete their local copy afterwards (the stranded-item shed) can
        distinguish a confirmed store from a lost or refused one.

        A newly stored user insert is cast to the first JOINED successor
        before the ack leaves, so it is on two peers from the moment it is
        acknowledged rather than from the next replication refresh.  The
        one-item push is not a snapshot of this store: it leaves the
        receiver's record of our last full push, which replica reads check
        versions against, untouched.
        """
        item = Item.from_wire(payload["item"])
        if not self.owns_key(item.skv):
            return {"stored": False, "reason": "not_responsible"}
        reason = payload.get("reason", "insert")
        stored = self.store_local(item, reason=reason)
        if stored and reason == "insert" and self.config.replication_factor > 0:
            for successor in self.ring.joined_successors(1):
                self.node.cast(
                    successor,
                    "rep_store_replicas",
                    {"items": [item.to_wire()], "owner": self.address, "snapshot": False},
                )
        return {"stored": True, "duplicate": not stored, "version": self.items.version}

    def _handle_remove_item(self, payload, request):
        """RPC: delete an item if this peer is responsible for its key."""
        skv = payload["skv"]
        if not self.owns_key(skv):
            return {"removed": False, "reason": "not_responsible"}
        item = self.remove_local(skv, reason=payload.get("reason", "delete"))
        return {"removed": item is not None}

    def _handle_get_local_items(self, payload, request):
        """RPC: the *naive* application-level scan's item fetch (no locking)."""
        lb = payload.get("lb")
        ub = payload.get("ub")
        if lb is None or ub is None:
            selected = self.items.all_items()
        else:
            selected = self.local_items_in(lb, ub)
        return {
            "items": items_to_wire(selected),
            "range": self.range.as_tuple() if self.range is not None else None,
            "active": self.active,
        }

    def _handle_probe(self, payload, request):
        """RPC: routing probe -- does this peer own ``key``, and who follows it?"""
        key = payload["key"]
        return {
            "owns": self.owns_key(key),
            "active": self.active,
            "value": self.ring.value,
            "successor": self.ring.first_live_successor(),
            "range": self.range.as_tuple() if self.range is not None else None,
        }
