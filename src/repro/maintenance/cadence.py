"""Cadence controllers: how often a peer runs its periodic maintenance.

The ring runs its periodic protocols -- stabilization, predecessor pings,
successor validation, replica refresh -- on timers taken straight from
:class:`~repro.index.config.IndexConfig`.  Past ~3000 peers the per-method RPC
profiles show that the *validation* timers (``ring_ping`` traffic) dominate
maintenance cost, so those loops are paced by a controller:

* :class:`FixedCadence` -- the legacy behaviour, wrapped in the controller
  interface so fixed and adaptive cells run through one code path.
* :class:`AdaptiveCadence` -- multiplicative back-off while recent rounds all
  succeed, immediate reset to the base period after a failure or an observed
  membership change.  Used for the ``ring_ping`` validation loops.

Stabilization and replica refresh are not paced here: they run on the plain
periods of :class:`~repro.index.config.IndexConfig`, as in the paper.

Controllers are deterministic and side-effect free: they never read a clock or
an RNG, only the feedback fed to them (``note_success`` / ``note_failure`` /
``note_change``), which keeps simulations reproducible and the transitions
unit-testable.
"""

from __future__ import annotations


class CadenceController:
    """Interface every cadence source implements.

    ``interval()`` returns the delay before the *next* round; the ``note_*``
    feedback hooks let the owning protocol report what the last round saw.
    ``interval`` is deliberately a bound method (not a property) so it can be
    handed to :meth:`repro.transport.endpoint.Endpoint.every` as a callable period.
    """

    def interval(self) -> float:
        raise NotImplementedError

    def note_success(self) -> None:
        """The last round completed without detecting anything wrong."""

    def note_failure(self) -> None:
        """The last round detected a failure (timeout, stale pointer, ...)."""

    def note_change(self) -> None:
        """The local membership view changed (new predecessor/successor)."""


class FixedCadence(CadenceController):
    """The legacy fixed timer: every round is ``base`` seconds apart."""

    def __init__(self, base: float):
        if base <= 0:
            raise ValueError("cadence base period must be positive")
        self.base = base

    def interval(self) -> float:
        return self.base


# The validation loops' back-off under the adaptive policy: after this many
# consecutive clean rounds the period doubles, up to this many base periods.
VALIDATION_CLEAN_ROUNDS_TO_BACK_OFF = 2
VALIDATION_BACKOFF_GROWTH = 2.0
VALIDATION_BACKOFF_MAX = 4.0


class AdaptiveCadence(CadenceController):
    """Back off while validations succeed; tighten on failure or change.

    After ``success_threshold`` consecutive successful rounds the interval
    grows by ``growth`` (multiplicative), bounded by ``base * max_factor``.
    Any failure or membership change resets the interval to ``base`` -- the
    controller never probes *faster* than the configured period, so a fixed
    and an adaptive deployment are identical until the first back-off.
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
        return self._interval

    def note_success(self) -> None:
        self._successes += 1
        if self._successes >= self.success_threshold:
            self._successes = 0
            self._interval = min(self._interval * self.growth, self.base * self.max_factor)

    def note_failure(self) -> None:
        self._tighten()

    def note_change(self) -> None:
        self._tighten()

    def _tighten(self) -> None:
        self._successes = 0
        self._interval = self.base

