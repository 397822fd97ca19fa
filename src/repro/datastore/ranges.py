"""Circular range arithmetic on the peer-value / search-key domain.

The Data Store assigns each peer the range ``(pred.value, own.value]`` of an
order-preserving, circular key space (Section 2.2).  :class:`CircularRange`
models such half-open arcs, including the wrap-around case and the degenerate
"whole ring" case of a single-peer system.

Range queries in this library are canonically half-open ``(lb, ub]`` intervals
on the *linear* key space (one of the four forms the paper supports); the
intersection helpers therefore return plain, non-wrapping ``(lo, hi]``
segments, which is what the scanRange correctness conditions (Definition 6)
are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True, slots=True)
class CircularRange:
    """The half-open arc ``(low, high]`` of a circular key space.

    If ``full`` is true the range covers the entire key space (the situation of
    the first peer in the system, whose predecessor is itself).
    """

    low: float
    high: float
    full: bool = False

    # ------------------------------------------------------------------ queries
    def contains(self, key: float) -> bool:
        """Whether ``key`` falls inside this range."""
        if self.full:
            return True
        if self.low < self.high:
            return self.low < key <= self.high
        if self.low > self.high:
            return key > self.low or key <= self.high
        # low == high without ``full``: the empty arc (x, x].
        return False

    def wraps(self) -> bool:
        """Whether the arc crosses the wrap point of the key space."""
        return not self.full and self.low >= self.high

    def span(self, key_space: float) -> float:
        """Length of the arc given the total ``key_space`` size."""
        if self.full:
            return key_space
        if self.low < self.high:
            return self.high - self.low
        return key_space - self.low + self.high

    # ------------------------------------------------------------------ set operations
    def intersect_interval(self, lb: float, ub: float) -> List[Tuple[float, float]]:
        """Intersection with the half-open query interval ``(lb, ub]``.

        Returns a list of non-empty, non-wrapping ``(lo, hi]`` segments.  The
        query interval never wraps (``lb <= ub``); the peer range may.
        """
        if lb > ub:
            raise ValueError(f"query interval must not wrap: ({lb}, {ub}]")
        if lb == ub:
            return []
        if self.full:
            return [(lb, ub)]
        if self.low == self.high:
            return []  # the empty arc (x, x]
        if not self.wraps():
            lo = max(lb, self.low)
            hi = min(ub, self.high)
            return [(lo, hi)] if lo < hi else []
        # Wrapping peer range (low, key_space) ∪ (wrap, high]: intersect both arms.
        segments: List[Tuple[float, float]] = []
        lo = max(lb, self.low)
        if lo < ub:
            segments.append((lo, ub))
        hi = min(ub, self.high)
        if lb < hi:
            segments.append((lb, hi))
        # The two arms can only overlap if the peer range is (almost) the whole
        # ring; merge in that unusual case.
        return _merge_segments(segments)

    def split_at(self, key: float) -> Tuple["CircularRange", "CircularRange"]:
        """Split into ``(low, key]`` and ``(key, high]``.

        ``key`` must lie strictly inside the range (it becomes the new boundary
        between the splitting peer and the free peer it splits with).
        """
        if not self.contains(key) or key == self.high:
            raise ValueError(f"split key {key} is not strictly inside {self}")
        lower = CircularRange(self.low, key)
        upper = CircularRange(key, self.high)
        return lower, upper

    # ------------------------------------------------------------------ misc
    def as_tuple(self) -> Tuple[float, float, bool]:
        """``(low, high, full)`` -- convenient for RPC payloads and history ops."""
        return (self.low, self.high, self.full)

    @staticmethod
    def from_tuple(data: Tuple[float, float, bool]) -> "CircularRange":
        """Inverse of :meth:`as_tuple`."""
        low, high, full = data
        return CircularRange(low, high, full)

    def __str__(self) -> str:
        if self.full:
            return "(*whole ring*]"
        return f"({self.low:g}, {self.high:g}]"


def _merge_segments(segments: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Merge overlapping or touching ``(lo, hi]`` segments."""
    if len(segments) <= 1:
        return [seg for seg in segments if seg[0] < seg[1]]
    ordered = sorted(seg for seg in segments if seg[0] < seg[1])
    merged: List[Tuple[float, float]] = []
    for lo, hi in ordered:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def segments_cover_interval(
    segments: List[Tuple[float, float]], lb: float, ub: float, tolerance: float = 1e-9
) -> bool:
    """Whether the union of ``(lo, hi]`` segments covers the interval ``(lb, ub]``."""
    if lb >= ub:
        return True
    merged = _merge_segments(list(segments))
    position = lb
    for lo, hi in merged:
        if lo > position + tolerance:
            return False
        position = max(position, hi)
        if position >= ub - tolerance:
            return True
    return position >= ub - tolerance


def segments_overlap(first: Tuple[float, float], second: Tuple[float, float]) -> bool:
    """Whether two ``(lo, hi]`` segments share any point."""
    return max(first[0], second[0]) < min(first[1], second[1])
