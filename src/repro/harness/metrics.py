"""Lightweight metric collection used by every component and the benchmarks."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence


def nearest_rank(ordered: Sequence[float], fraction: float) -> float:
    """The ``fraction`` percentile (0..1) of a sorted, non-empty sample.

    The single nearest-rank convention shared by metric summaries and the
    runner's cross-seed BENCH aggregates, so the two never disagree.
    """
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


@dataclass
class MetricSummary:
    """Summary statistics of one named series."""

    name: str
    count: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    p95: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.p50,
            "p95": self.p95,
        }


class Metrics:
    """Named series of numeric observations (durations, counts, sizes)."""

    def __init__(self) -> None:
        self._series: Dict[str, List[float]] = {}

    def record(self, name: str, value: float) -> None:
        """Append one observation to the named series."""
        self._series.setdefault(name, []).append(float(value))

    def values(self, name: str) -> List[float]:
        """All observations of the named series (empty list if none)."""
        return list(self._series.get(name, ()))

    def count(self, name: str) -> int:
        """Number of observations in the named series."""
        return len(self._series.get(name, ()))

    def mean(self, name: str) -> Optional[float]:
        """Mean of the named series, or ``None`` if empty."""
        values = self._series.get(name)
        if not values:
            return None
        return sum(values) / len(values)

    def summary(self, name: str) -> Optional[MetricSummary]:
        """Summary statistics for the named series, or ``None`` if empty."""
        values = sorted(self._series.get(name, ()))
        if not values:
            return None
        return MetricSummary(
            name=name,
            count=len(values),
            mean=sum(values) / len(values),
            minimum=values[0],
            maximum=values[-1],
            p50=values[len(values) // 2],
            p95=nearest_rank(values, 0.95),
        )

    def histogram(self, name: str, bounds: Sequence[float]) -> Dict[str, int]:
        """Bucketed counts of the named series (empty dict if no observations).

        ``bounds`` are inclusive upper bucket edges; one overflow bucket
        catches everything beyond the last edge.  Bucket labels are ordered
        ``<=edge`` strings plus a final ``>edge``, so the dict renders as a
        readable histogram in BENCH JSON.
        """
        values = self._series.get(name)
        if not values:
            return {}
        edges = sorted(bounds)
        counts = [0] * (len(edges) + 1)
        for value in values:
            counts[bisect_left(edges, value)] += 1
        labels = [f"<={edge:g}" for edge in edges] + [f">{edges[-1]:g}"]
        return dict(zip(labels, counts))

    def names(self) -> List[str]:
        """All series names with at least one observation."""
        return sorted(self._series)

    def merge(self, other: "Metrics") -> None:
        """Fold another collector's observations into this one."""
        for name, values in other._series.items():
            self._series.setdefault(name, []).extend(values)

