"""Range-query workload generation."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple


@dataclass
class QueryWorkload:
    """A batch of range queries with a given selectivity over the key space.

    Randomness comes from the supplied ``rng`` (normally a named stream from
    :class:`~repro.sim.randomness.RngStreams`); the ``seed`` field is only the
    fallback when no stream is passed, so standalone use stays reproducible.
    """

    count: int
    selectivity: float
    key_space: float
    seed: int = 0
    rng: Optional[random.Random] = None

    def queries(self) -> Iterator[Tuple[float, float]]:
        """Yield ``(lb, ub]`` pairs covering ``selectivity`` of the key space each."""
        rng = self.rng if self.rng is not None else random.Random(self.seed)
        width = self.key_space * self.selectivity
        for _ in range(self.count):
            lb = rng.uniform(0.0, self.key_space - width)
            yield (lb, lb + width)

    def as_list(self) -> List[Tuple[float, float]]:
        """All queries as a list."""
        return list(self.queries())
