"""Lightweight metric collection used by every component and the scenario results."""

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
        # Count-only series (:meth:`tally`): a name maps to how many 1.0
        # observations it holds, not to a list of them.
        self._tallies: Dict[str, int] = {}

    def record(self, name: str, value: float) -> None:
        """Append one observation to the named series."""
        self._series.setdefault(name, []).append(float(value))

    def tally(self, name: str) -> None:
        """Add one observation of 1.0 to the count-only series ``name``.

        The series is kept as a count; every reader sees it as that many
        samples of 1.0, as if each had been recorded.  A name is either
        recorded or tallied, never both.
        """
        self._tallies[name] = self._tallies.get(name, 0) + 1

    def _samples(self, name: str) -> List[float]:
        """The named series' observations (not a copy for a recorded series)."""
        series = self._series.get(name)
        if series is not None:
            return series
        return [1.0] * self._tallies.get(name, 0)

    def values(self, name: str) -> List[float]:
        """All observations of the named series (empty list if none)."""
        return list(self._samples(name))

    def count(self, name: str) -> int:
        """Number of observations in the named series."""
        series = self._series.get(name)
        if series is not None:
            return len(series)
        return self._tallies.get(name, 0)

    def mean(self, name: str) -> Optional[float]:
        """Mean of the named series, or ``None`` if empty."""
        values = self._samples(name)
        if not values:
            return None
        return sum(values) / len(values)

    def summary(self, name: str) -> Optional[MetricSummary]:
        """Summary statistics for the named series, or ``None`` if empty."""
        values = sorted(self._samples(name))
        if not values:
            return None
        return MetricSummary(
            name=name,
            count=len(values),
            mean=sum(values) / len(values),
            minimum=values[0],
            maximum=values[-1],
            p50=nearest_rank(values, 0.5),
            p95=nearest_rank(values, 0.95),
        )

    def histogram(self, name: str, bounds: Sequence[float]) -> Dict[str, int]:
        """Bucketed counts of the named series (empty dict if no observations).

        ``bounds`` are inclusive upper bucket edges; one overflow bucket
        catches everything beyond the last edge.  Bucket labels are ordered
        ``<=edge`` strings plus a final ``>edge``, so the dict renders as a
        readable histogram in BENCH JSON.
        """
        values = self._samples(name)
        if not values:
            return {}
        edges = sorted(bounds)
        counts = [0] * (len(edges) + 1)
        for value in values:
            counts[bisect_left(edges, value)] += 1
        labels = [f"<={edge:g}" for edge in edges] + [f">{edges[-1]:g}"]
        return dict(zip(labels, counts))
