"""Churn schedules: peer arrivals, graceful departures and failures.

The paper's evaluation (Section 6.1) adds one peer every three seconds in the
fail-free mode and additionally kills peers at a configurable rate in the
failure mode (Figure 23 sweeps up to 12 failures per 100 seconds).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List

JOIN = "join"
FAIL = "fail"


@dataclass(frozen=True)
class ChurnEvent:
    """One scheduled membership change."""

    time: float
    kind: str  # JOIN or FAIL

    def __post_init__(self):
        if self.kind not in (JOIN, FAIL):
            raise ValueError(f"unknown churn event kind {self.kind!r}")


@dataclass
class ChurnSchedule:
    """A time-ordered list of churn events.

    ``events`` is sorted once at construction (stably, so equal-time events
    keep their given order) rather than on every iteration -- the membership
    driver iterates schedules with thousands of events at scale.  The list is
    owned by the schedule after construction; build a new schedule instead of
    mutating it.
    """

    events: List[ChurnEvent]

    def __post_init__(self):
        self.events = sorted(self.events, key=lambda event: event.time)

    def __iter__(self) -> Iterator[ChurnEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    @property
    def duration(self) -> float:
        """Time of the last scheduled event."""
        return self.events[-1].time if self.events else 0.0

    def merged_with(self, other: "ChurnSchedule") -> "ChurnSchedule":
        """Combine two schedules, keeping the merged events time-ordered.

        Both inputs are already sorted, so the constructor's stable sort is a
        linear merge pass; at equal times ``self``'s events come first.
        """
        return ChurnSchedule(self.events + other.events)


def join_schedule(count: int, period: float = 3.0, start: float = 0.0) -> ChurnSchedule:
    """``count`` peer arrivals, one every ``period`` seconds (paper default 3 s)."""
    return ChurnSchedule(
        [ChurnEvent(start + index * period, JOIN) for index in range(count)]
    )


def flash_crowd_schedule(
    count: int, at: float, spacing: float = 0.05
) -> ChurnSchedule:
    """``count`` peers arriving in a tight burst starting at ``at``.

    Models a flash crowd: instead of the paper's leisurely one-peer-per-3s
    arrival, the whole cohort shows up within ``count * spacing`` seconds and
    the ring must absorb the join storm.  ``spacing`` stays configurable so
    the burst can be made arbitrarily brutal (0 = all at one instant).
    """
    if spacing < 0:
        raise ValueError("spacing must be >= 0")
    return ChurnSchedule(
        [ChurnEvent(at + index * spacing, JOIN) for index in range(count)]
    )


def failure_schedule(
    rate_per_100s: float,
    duration: float,
    rng: random.Random,
    start: float = 0.0,
) -> ChurnSchedule:
    """Peer failures at ``rate_per_100s`` failures per 100 seconds over ``duration``.

    Failure instants are spread uniformly at random over the window, matching
    the paper's "failure mode" (Figure 23's x-axis is failures per 100 s).
    """
    if rate_per_100s <= 0 or duration <= 0:
        return ChurnSchedule([])
    count = max(0, int(round(rate_per_100s * duration / 100.0)))
    times = sorted(rng.uniform(start, start + duration) for _ in range(count))
    return ChurnSchedule([ChurnEvent(time, FAIL) for time in times])
