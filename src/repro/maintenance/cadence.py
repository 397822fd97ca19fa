"""A back-off cadence: how often a self-pacing periodic loop runs.

The ring runs its periodic protocols -- stabilization, the predecessor check,
successor validation, replica refresh -- on fixed timers taken straight from
:class:`~repro.index.config.IndexConfig`, as in the paper.  Their pings are not
paced at all: a round skips the ping of a peer for which stabilize traffic
relays a first-hand time at most 2.5 periods old (:mod:`repro.ring.chord`).
Two loops pace themselves instead, through :class:`AdaptiveCadence`: the
content router's table refresh (:mod:`repro.router.hierarchical`) and the Data
Store's split-deferral retry (:mod:`repro.datastore.maintenance`).

The controller is deterministic and side-effect free: it never reads a clock
or an RNG, only the feedback fed to it (``note_success`` / ``note_failure`` /
``note_change``), which keeps simulations reproducible and the transitions
unit-testable.
"""

from __future__ import annotations


class AdaptiveCadence:
    """Back off while rounds succeed; tighten on failure or change.

    After ``success_threshold`` consecutive successful rounds the interval
    grows by ``growth`` (multiplicative), bounded by ``base * max_factor``.
    Any failure or membership change resets the interval to ``base`` -- the
    controller never runs *faster* than the configured period.
    ``interval`` is a bound method (not a property) so it can be handed to
    :meth:`repro.transport.endpoint.Endpoint.every` as a callable period.
    """

    def __init__(
        self,
        base: float,
        growth: float = 2.0,
        max_factor: float = 4.0,
        success_threshold: int = 2,
    ):
        if base <= 0:
            raise ValueError("cadence base period must be positive")
        if growth <= 1.0:
            raise ValueError("back-off growth must be > 1")
        if max_factor < 1.0:
            raise ValueError("back-off max_factor must be >= 1")
        if success_threshold < 1:
            raise ValueError("success_threshold must be >= 1")
        self.base = base
        self.growth = growth
        self.max_factor = max_factor
        self.success_threshold = success_threshold
        self._interval = base
        self._successes = 0

    def interval(self) -> float:
        """The delay before the next round."""
        return self._interval

    def note_success(self) -> None:
        """The last round completed without detecting anything wrong."""
        self._successes += 1
        if self._successes >= self.success_threshold:
            self._successes = 0
            self._interval = min(self._interval * self.growth, self.base * self.max_factor)

    def note_failure(self) -> None:
        """The last round detected a failure (timeout, stale pointer, ...)."""
        self._tighten()

    def note_change(self) -> None:
        """The local membership view changed (new predecessor/successor)."""
        self._tighten()

    def _tighten(self) -> None:
        self._successes = 0
        self._interval = self.base
