"""Item workload generation.

The paper's range indices exist precisely because item keys are *not*
hash-distributed: applications insert skewed, ordered keys (dates, coordinates,
identifiers) and still expect balanced storage.  The generators here produce
unique search key values either uniformly over the key space or concentrated in
a hot region (a simple parameterisable skew), plus timed insert/delete streams
at the paper's default rate of two items per second.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Sequence


def uniform_keys(count: int, key_space: float, rng: random.Random) -> List[float]:
    """``count`` unique keys drawn uniformly from ``(0, key_space)``."""
    keys: set = set()
    while len(keys) < count:
        key = round(rng.uniform(1.0, key_space - 1.0), 6)
        keys.add(key)
    return sorted(keys)


def skewed_keys(
    count: int,
    key_space: float,
    rng: random.Random,
    hot_fraction: float = 0.8,
    hot_region: float = 0.1,
) -> List[float]:
    """Keys where ``hot_fraction`` of them fall into the first ``hot_region`` of the space.

    This is the kind of distribution that forces repeated splits in one part of
    the ring (the situation hashing would avoid but order-preserving placement
    must balance via splits/merges).
    """
    if not 0.0 < hot_region <= 1.0:
        raise ValueError("hot_region must be in (0, 1]")
    keys: set = set()
    hot_limit = key_space * hot_region
    while len(keys) < count:
        if rng.random() < hot_fraction:
            key = round(rng.uniform(1.0, hot_limit), 6)
        else:
            key = round(rng.uniform(hot_limit, key_space - 1.0), 6)
        keys.add(key)
    return sorted(keys)


def zipf_keys(
    count: int,
    key_space: float,
    rng: random.Random,
    alpha: float = 1.1,
    bins: int = 1024,
) -> List[float]:
    """Zipf-skewed unique keys: bin ``k`` of the key space has weight ``1/k^alpha``.

    The key space is split into ``bins`` equal slices ordered by popularity;
    a key first draws its slice from the Zipf distribution and then a uniform
    offset inside it.  With ``alpha`` around 1 this reproduces the classic
    web/file-sharing popularity skew and concentrates inserts on a few slices,
    stressing the split/redistribute machinery far harder than the simple
    hot-region skew of :func:`skewed_keys`.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    weights = [1.0 / (rank ** alpha) for rank in range(1, bins + 1)]
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for weight in weights:
        acc += weight / total
        cumulative.append(acc)
    slice_width = key_space / bins
    keys: set = set()
    while len(keys) < count:
        point = rng.random()
        # Binary search the cumulative popularity table for the chosen bin.
        lo, hi = 0, bins - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cumulative[mid] < point:
                lo = mid + 1
            else:
                hi = mid
        base = lo * slice_width
        key = round(base + rng.uniform(0.0, slice_width), 6)
        if 0.0 < key < key_space:
            keys.add(key)
    return sorted(keys)


KEY_DISTRIBUTIONS = {
    "uniform": uniform_keys,
    "skewed": skewed_keys,
    "zipf": zipf_keys,
}


def generate_keys(
    distribution: str,
    count: int,
    key_space: float,
    rng: random.Random,
    **params,
) -> List[float]:
    """Dispatch to a named key generator (used by the scenario registry)."""
    try:
        generator = KEY_DISTRIBUTIONS[distribution]
    except KeyError:
        raise ValueError(
            f"unknown key distribution {distribution!r}; "
            f"choose from {sorted(KEY_DISTRIBUTIONS)}"
        ) from None
    return generator(count, key_space, rng, **params)


@dataclass
class ItemWorkload:
    """A timed stream of item insertions.

    ``insert_rate`` follows the paper's Section 6.1 default of two items per
    second unless overridden.
    """

    keys: Sequence[float]
    insert_rate: float = 2.0
    start_time: float = 0.0
    payload_prefix: str = "item"

    def insert_events(self) -> Iterator[tuple[float, float, str]]:
        """Yield ``(time, key, payload)`` for every insertion."""
        interval = 1.0 / self.insert_rate if self.insert_rate > 0 else 0.0
        for index, key in enumerate(self.keys):
            yield (self.start_time + index * interval, key, f"{self.payload_prefix}-{key}")

    @property
    def duration(self) -> float:
        """Time needed to play the insert stream."""
        if not self.keys or self.insert_rate <= 0:
            return 0.0
        return len(self.keys) / self.insert_rate
