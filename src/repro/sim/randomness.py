"""Seeded random-number streams.

Every source of randomness in the simulator and the workload generators draws
from a named stream derived deterministically from a single experiment seed.
This keeps experiments reproducible while letting independent components (the
network latency model, the churn schedule, the item generator, ...) consume
randomness without perturbing each other.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict


class RngStreams:
    """A factory of named, independently seeded ``random.Random`` instances."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        The stream's seed mixes the experiment seed with a CRC of the name so
        that streams are stable across runs and independent of creation order.
        """
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        mixed = (self.seed * 0x9E3779B1 + zlib.crc32(name.encode("utf-8"))) & 0xFFFFFFFF
        stream = random.Random(mixed)
        self._streams[name] = stream
        return stream

    def fork(self, offset: int) -> "RngStreams":
        """Return a new factory whose streams are independent of this one.

        A parameter sweep that gives each configuration ``base.fork(i)`` keeps
        one sweep point's change from moving the randomness of the others.
        """
        return RngStreams(self.seed * 1_000_003 + offset)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RngStreams seed={self.seed} streams={sorted(self._streams)}>"
