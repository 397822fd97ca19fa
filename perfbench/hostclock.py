"""A host clock that reads in reference-box seconds.

The same work takes this box 6.3 s or 12.5 s of wall time depending on what
else the physical host is doing, for minutes at a stretch, none of it
reported as steal time.  That spread is wider than the changes the benchmark
exists to see.

So every host-clock duration the benchmark reports is corrected for the speed
the host ran at while it was measured.  A ``SIGALRM`` interval timer samples a
fixed pure-Python loop every :data:`SAMPLE_PERIOD_S` of wall time (plus once
at each end of a measured region); a region's reading is::

    (raw seconds - seconds spent sampling) * REFERENCE_LOOP_S / mean(loop seconds sampled)

that is, the seconds the region would have taken had the host run the loop in
:data:`REFERENCE_LOOP_S` throughout -- its time on the box the benchmark was
sized on.  The loop is part of the benchmark, so no change under ``src/`` can
move it.  The raw reading is kept beside the corrected one
(``harness.raw_wall_s``, ``harness.host_speed``).  Sampling touches nothing in
the simulation: no event is scheduled and no counter moves.

The correction is partial: the simulator slows more than a cache-resident loop
does (1.7x against 1.5x in the worst stretch measured), which left a quartile
spread of 21% where the raw one was 66%.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List

LOOP_ITERATIONS = 20_000
REFERENCE_LOOP_S = 0.0025  # the loop's usual time on the reference box (2 cores, py3.11)
SAMPLE_PERIOD_S = 0.1


def calibration_loop() -> float:
    """Seconds one pass of the fixed loop takes right now.

    Integer arithmetic and list subscripts only: the loop makes no call, so a
    running profiler (which hooks calls and returns) does not slow it and the
    traced run reads the same host speed as the untraced one.
    """
    started = time.perf_counter()
    table, acc = [0] * 1024, 0
    for i in range(LOOP_ITERATIONS):
        acc = (acc * 31 + i) & 0xFFFFFF
        table[acc & 1023] = acc ^ table[i & 1023]
    return time.perf_counter() - started


@dataclass
class Reading:
    """One measured region: corrected seconds, raw seconds, and the host's speed."""

    s: float = 0.0  # reference-box seconds
    cpu_s: float = 0.0  # process CPU time, corrected the same way
    raw_s: float = 0.0  # seconds as the wall clock counted them, sampling excluded
    speed: float = 1.0  # REFERENCE_LOOP_S / mean sampled loop time; < 1 on a slow host


class HostClock:
    """Context manager owning the sampling timer; :meth:`measure` times regions.

    Must be entered on the main thread (Python delivers signals there).
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.overhead_s = 0.0
        self._sampling = False
        self._previous = None

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, *_signal_args) -> None:
        if self._sampling:  # a tick landed inside a sample: skip it
            return
        self._sampling = True
        started = time.perf_counter()
        self.samples.append(calibration_loop())
        self.overhead_s += time.perf_counter() - started
        self._sampling = False

    @contextmanager
    def measure(self) -> Iterator[Reading]:
        """Time the block; the yielded :class:`Reading` is filled in when it ends."""
        reading = Reading()
        self._sample()
        first, overhead = len(self.samples) - 1, self.overhead_s
        cpu_started, started = time.process_time(), time.perf_counter()
        try:
            yield reading
        finally:
            raw = time.perf_counter() - started
            cpu = time.process_time() - cpu_started
            self._sample()
            # Both end samples bracket the block; only the ticks inside it cost it time.
            sampling = self.overhead_s - overhead - self.samples[-1]
            taken = self.samples[first:]
            reading.speed = REFERENCE_LOOP_S / (sum(taken) / len(taken))
            reading.raw_s = raw - sampling
            reading.s = reading.raw_s * reading.speed
            reading.cpu_s = (cpu - sampling) * reading.speed
