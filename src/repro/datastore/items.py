"""Items and the per-peer sorted item container.

Each data item exposes a search key value (``skv``) from a totally ordered
domain (Section 2.1); search key values are unique (the paper makes duplicates
unique by appending the originating peer's id, which our workload generators do
as well by drawing unique keys).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.datastore.ranges import CircularRange


@dataclass(frozen=True, slots=True)
class Item:
    """A data item: a search key value plus an opaque payload."""

    skv: float
    payload: Any = field(default=None, compare=False, hash=False)

    def to_wire(self) -> Dict[str, Any]:
        """Serialise for RPC payloads."""
        return {"skv": self.skv, "payload": self.payload}

    @staticmethod
    def from_wire(data: Dict[str, Any]) -> "Item":
        """Inverse of :meth:`to_wire`."""
        return Item(skv=data["skv"], payload=data.get("payload"))


def items_to_wire(items: Iterable[Item]) -> List[Dict[str, Any]]:
    """Serialise a collection of items."""
    return [item.to_wire() for item in items]


def items_from_wire(data: Iterable[Dict[str, Any]]) -> List[Item]:
    """Deserialise a collection of items."""
    return [Item.from_wire(entry) for entry in data]


class ItemStore:
    """A sorted collection of items keyed by search key value.

    Supports the operations the Data Store needs: point insert/delete, count,
    median (for splits), and range extraction both by linear ``(lo, hi]``
    interval and by :class:`~repro.datastore.ranges.CircularRange`.
    """

    def __init__(self, items: Optional[Iterable[Item]] = None):
        self._by_key: Dict[float, Item] = {}
        self._keys: List[float] = []
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
        return skv in self._by_key

    def __iter__(self):
        return (self._by_key[key] for key in self._keys)

    def add(self, item: Item) -> bool:
        """Insert ``item``; returns False if an item with the same skv exists."""
        if item.skv in self._by_key:
            return False
        self._by_key[item.skv] = item
        bisect.insort(self._keys, item.skv)
        self.version += 1
        return True

    def remove(self, skv: float) -> Optional[Item]:
        """Remove and return the item with key ``skv`` (None if absent)."""
        item = self._by_key.pop(skv, None)
        if item is not None:
            index = bisect.bisect_left(self._keys, skv)
            del self._keys[index]
            self.version += 1
        return item

    def get(self, skv: float) -> Optional[Item]:
        """The item with key ``skv``, if present."""
        return self._by_key.get(skv)

    def keys(self) -> List[float]:
        """All keys in ascending order (a copy)."""
        return list(self._keys)

    def all_items(self) -> List[Item]:
        """All items in ascending key order."""
        return [self._by_key[key] for key in self._keys]

    def clear(self) -> None:
        """Remove everything."""
        self._by_key.clear()
        self._keys.clear()
        self.version += 1

    # ------------------------------------------------------------------ range queries
    def items_in_interval(self, lo: float, hi: float) -> List[Item]:
        """Items with ``lo < skv <= hi`` (half-open, non-wrapping)."""
        if lo >= hi:
            return []
        left = bisect.bisect_right(self._keys, lo)
        right = bisect.bisect_right(self._keys, hi)
        return [self._by_key[key] for key in self._keys[left:right]]

    def items_in_range(self, crange: CircularRange) -> List[Item]:
        """Items whose key falls inside the (possibly wrapping) ``crange``, in
        ascending key order: exactly ``CircularRange.contains``'s items."""
        if crange.full:
            return self.all_items()
        low, high = crange.low, crange.high
        if low == high:
            return []  # the empty arc (x, x]
        start, stop = self._arc(low, high)
        keys = self._keys
        inside = keys[start:stop] if low < high else keys[:stop] + keys[start:]
        return [self._by_key[key] for key in inside]

    # ------------------------------------------------------------------ arcs
    # The clockwise arc ``(low, high]`` of the circular key space, answered
    # with two bisects of the sorted key list instead of a clockwise-distance
    # computation per stored item.  ``high <= low`` wraps past the top of the
    # key space, and ``high == low`` is the whole circle (a clockwise distance
    # of one full turn), not CircularRange's empty arc.
    def _arc(self, low: float, high: float) -> tuple[int, int]:
        keys = self._keys
        return bisect.bisect_right(keys, low), bisect.bisect_right(keys, high)

    def arc_keys(self, low: float, high: float) -> List[float]:
        """Keys on the arc ``(low, high]``, in clockwise order from ``low``."""
        start, stop = self._arc(low, high)
        keys = self._keys
        return keys[start:stop] if low < high else keys[start:] + keys[:stop]

    def arc_items(self, low: float, high: float) -> List[Item]:
        """Items on the arc ``(low, high]``, in clockwise order from ``low``."""
        return self.items_at(self.arc_keys(low, high))

    def items_at(self, keys: Iterable[float]) -> List[Item]:
        """The stored items with these keys, in the order given."""
        by_key = self._by_key
        return [by_key[key] for key in keys]

    def off_arc_items(self, low: float, high: float) -> List[Item]:
        """Items *not* on the arc ``(low, high]``, in ascending key order."""
        start, stop = self._arc(low, high)
        keys = self._keys
        off_arc = keys[:start] + keys[stop:] if low < high else keys[stop:start]
        return [self._by_key[key] for key in off_arc]

    def any_off_arc(self, low: float, high: float) -> bool:
        """Whether :meth:`off_arc_items` would return anything."""
        start, stop = self._arc(low, high)
        if low < high:
            return start > 0 or stop < len(self._keys)
        return stop < start

    def split_lower_half(self) -> tuple[float, List[Item]]:
        """Return ``(split_key, lower_items)`` for a Data Store split.

        The split key is the median key; the returned items are those with
        ``skv <= split_key`` (the portion handed to the free peer, which takes
        the lower range ``(old_low, split_key]``).
        """
        if len(self._keys) < 2:
            raise ValueError("cannot split a store with fewer than two items")
        middle = (len(self._keys) - 1) // 2
        split_key = self._keys[middle]
        lower = [self._by_key[key] for key in self._keys[: middle + 1]]
        return split_key, lower

    def take_lowest(self, count: int) -> List[Item]:
        """Remove and return the ``count`` items with the smallest keys."""
        taken_keys = self._keys[:count]
        taken = [self._by_key.pop(key) for key in taken_keys]
        del self._keys[:count]
        if taken:
            self.version += 1
        return taken

    def remove_interval(self, lo: float, hi: float) -> List[Item]:
        """Remove and return all items with ``lo < skv <= hi``."""
        victims = self.items_in_interval(lo, hi)
        for item in victims:
            self.remove(item.skv)
        return victims

    def remove_outside_range(self, crange: CircularRange) -> List[Item]:
        """Remove and return all items whose key is *not* in ``crange``."""
        victims = [item for item in self.all_items() if not crange.contains(item.skv)]
        for item in victims:
            self.remove(item.skv)
        return victims
