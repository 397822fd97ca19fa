"""Items and the per-peer sorted item container.

Each data item exposes a search key value (``skv``) from a totally ordered
domain (Section 2.1); search key values are unique (the paper makes duplicates
unique by appending the originating peer's id, which our workload generators do
as well by drawing unique keys).

A store keeps its copies as two parallel sorted columns, keys and payloads
(docs/ARCHITECTURE.md, "Contract: the item store"): an :class:`Item` is built
only when a caller reads items, and the bulk paths that run every round move
columns straight to and from the ``{skv, payload}`` wire dicts.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.datastore.ranges import CircularRange

Wire = Dict[str, Any]


@dataclass(frozen=True, slots=True)
class Item:
    """A data item: a search key value plus an opaque payload."""

    skv: float
    payload: Any = field(default=None, compare=False, hash=False)

    def to_wire(self) -> Wire:
        """Serialise for RPC payloads."""
        return {"skv": self.skv, "payload": self.payload}

    @staticmethod
    def from_wire(data: Wire) -> "Item":
        """Inverse of :meth:`to_wire`."""
        return Item(skv=data["skv"], payload=data.get("payload"))


def items_to_wire(items: Iterable[Item]) -> List[Wire]:
    """Serialise a collection of items."""
    return [item.to_wire() for item in items]


def items_from_wire(data: Iterable[Wire]) -> List[Item]:
    """Deserialise a collection of items."""
    return [Item.from_wire(entry) for entry in data]


def columns_to_wire(keys: Iterable[float], payloads: Iterable[Any]) -> List[Wire]:
    """Serialise parallel key and payload columns, building no :class:`Item`."""
    return [{"skv": skv, "payload": payload} for skv, payload in zip(keys, payloads)]


class ItemStore:
    """A sorted collection of items keyed by search key value.

    A copy is a slot in two parallel columns: ``_keys`` (ascending) and
    ``_payloads``.  Membership tests and point reads bisect the key column.
    Supports the operations the Data Store needs: point insert/delete, count,
    and range extraction both by linear ``(lo, hi]`` interval and by
    :class:`~repro.datastore.ranges.CircularRange`.
    """

    __slots__ = ("_keys", "_payloads", "version")

    def __init__(self, items: Optional[Iterable[Item]] = None):
        self._keys: List[float] = []
        self._payloads: List[Any] = []
        # Bumped on every successful mutation; lets observers (the Replication
        # Manager's refresh) detect "nothing changed" without comparing items.
        self.version = 0
        if items:
            for item in items:
                self.add(item)

    # ------------------------------------------------------------------ basics
    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, skv: float) -> bool:
        keys = self._keys
        index = bisect.bisect_left(keys, skv)
        return index < len(keys) and keys[index] == skv

    def __iter__(self):
        return iter(self.all_items())

    def _slot(self, skv: float) -> int:
        """The slot holding ``skv``, or -1."""
        keys = self._keys
        index = bisect.bisect_left(keys, skv)
        return index if index < len(keys) and keys[index] == skv else -1

    def add(self, item: Item) -> bool:
        """Insert ``item``; returns False if an item with the same skv exists."""
        return self.put(item.skv, item.payload)

    def put(self, skv: float, payload: Any = None) -> bool:
        """Insert a copy of ``skv``; returns False if the key is already held."""
        keys = self._keys
        index = bisect.bisect_left(keys, skv)
        if index < len(keys) and keys[index] == skv:
            return False
        keys.insert(index, skv)
        self._payloads.insert(index, payload)
        self.version += 1
        return True

    def remove(self, skv: float) -> Optional[Item]:
        """Remove and return the item with key ``skv`` (None if absent)."""
        index = self._slot(skv)
        if index < 0:
            return None
        self.version += 1
        return Item(self._keys.pop(index), self._payloads.pop(index))

    def get(self, skv: float) -> Optional[Item]:
        """The item with key ``skv``, if present."""
        index = self._slot(skv)
        return None if index < 0 else Item(self._keys[index], self._payloads[index])

    def keys(self) -> List[float]:
        """All keys in ascending order (a copy)."""
        return list(self._keys)

    def all_items(self) -> List[Item]:
        """All items in ascending key order."""
        return list(map(Item, self._keys, self._payloads))

    def clear(self) -> None:
        """Remove everything."""
        self._keys.clear()
        self._payloads.clear()
        self.version += 1

    # ------------------------------------------------------------------ column slices
    # A bulk read is one or two spans (slices) of the columns, taken in order.
    @staticmethod
    def _take(column: list, spans: Iterable[slice]) -> list:
        taken: list = []
        for span in spans:
            taken += column[span]
        return taken

    def _items(self, spans: Iterable[slice]) -> List[Item]:
        return list(map(Item, self._take(self._keys, spans), self._take(self._payloads, spans)))

    def to_wire(self) -> List[Wire]:
        """Every copy as a wire dict, in ascending key order."""
        return columns_to_wire(self._keys, self._payloads)

    # ------------------------------------------------------------------ range queries
    def _interval(self, lo: float, hi: float) -> slice:
        if lo >= hi:
            return slice(0, 0)
        keys = self._keys
        return slice(bisect.bisect_right(keys, lo), bisect.bisect_right(keys, hi))

    def interval_wire(self, lo: float, hi: float) -> List[Wire]:
        """Copies with ``lo < skv <= hi`` (half-open, non-wrapping) as wire
        dicts, building no :class:`Item`."""
        span = self._interval(lo, hi)
        return columns_to_wire(self._keys[span], self._payloads[span])

    def _range_spans(self, crange: CircularRange) -> Tuple[slice, ...]:
        if crange.full:
            return (slice(None),)
        low, high = crange.low, crange.high
        if low == high:
            return ()  # the empty arc (x, x]
        start, stop = self._arc(low, high)
        if low < high:
            return (slice(start, stop),)
        return slice(None, stop), slice(start, None)

    def items_in_range(self, crange: CircularRange) -> List[Item]:
        """Items whose key falls inside the (possibly wrapping) ``crange``, in
        ascending key order: exactly ``CircularRange.contains``'s items."""
        return self._items(self._range_spans(crange))

    def range_keys(self, crange: CircularRange) -> List[float]:
        """The keys of :meth:`items_in_range`, in ascending order."""
        return self._take(self._keys, self._range_spans(crange))

    # ------------------------------------------------------------------ arcs
    # The clockwise arc ``(low, high]`` of the circular key space, answered
    # with two bisects of the sorted key column instead of a clockwise-distance
    # computation per stored item.  ``high <= low`` wraps past the top of the
    # key space, and ``high == low`` is the whole circle (a clockwise distance
    # of one full turn), not CircularRange's empty arc.
    def _arc(self, low: float, high: float) -> Tuple[int, int]:
        keys = self._keys
        return bisect.bisect_right(keys, low), bisect.bisect_right(keys, high)

    def _arc_spans(self, low: float, high: float) -> Tuple[slice, ...]:
        start, stop = self._arc(low, high)
        if low < high:
            return (slice(start, stop),)
        return slice(start, None), slice(None, stop)

    def arc_keys(self, low: float, high: float) -> List[float]:
        """Keys on the arc ``(low, high]``, in clockwise order from ``low``."""
        return self._take(self._keys, self._arc_spans(low, high))

    def arc_columns(self, low: float, high: float) -> Tuple[List[float], List[Any]]:
        """Keys and payloads on the arc ``(low, high]``, in clockwise order."""
        spans = self._arc_spans(low, high)
        return self._take(self._keys, spans), self._take(self._payloads, spans)

    def off_arc_items(self, low: float, high: float) -> List[Item]:
        """Items *not* on the arc ``(low, high]``, in ascending key order."""
        start, stop = self._arc(low, high)
        if low < high:
            return self._items((slice(None, start), slice(stop, None)))
        return self._items((slice(stop, start),))

    def any_off_arc(self, low: float, high: float) -> bool:
        """Whether :meth:`off_arc_items` would return anything."""
        start, stop = self._arc(low, high)
        if low < high:
            return start > 0 or stop < len(self._keys)
        return stop < start
