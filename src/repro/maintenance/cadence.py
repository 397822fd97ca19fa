"""Cadence controllers: how often a peer runs its periodic maintenance.

The ring and replication layers historically ran every periodic protocol --
stabilization, predecessor pings, successor validation, replica refresh -- on
fixed timers taken straight from :class:`~repro.index.config.IndexConfig`.
Past ~3000 peers the per-method RPC profiles show that the *validation* timers
(``ring_ping`` traffic) dominate maintenance cost, and under WAN latency the
fixed LAN-tuned periods let protocol propagation lag behind the workload.

This module provides the controllers that replace those constants:

* :class:`FixedCadence` -- the legacy behaviour, wrapped in the controller
  interface so fixed and adaptive cells run through one code path.
* :class:`AdaptiveCadence` -- multiplicative back-off while recent rounds all
  succeed, immediate reset to the base period after a failure or an observed
  membership change.  Used for the ``ring_ping`` validation loops.
* :class:`RttScaledCadence` -- a period scaled from the network's observed
  round trip (see :func:`rtt_scaled_period`).  Used for stabilization and
  replica refresh so WAN cells run them on round-trip-scaled periods instead
  of LAN constants.

Controllers are deterministic and side-effect free: they never read a clock or
an RNG, only the feedback fed to them (``note_success`` / ``note_failure`` /
``note_change``), which keeps simulations reproducible and the transitions
unit-testable.
"""

from __future__ import annotations

from typing import Callable, Optional


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


def rtt_scaled_period(
    base: float,
    rtt: Optional[float],
    reference_rtt: float,
    floor: float,
) -> float:
    """Scale a LAN-tuned period for the observed network round trip.

    The maintenance constants were tuned for a LAN whose round trip is
    ``reference_rtt``.  When the observed round trip is *longer* (a WAN
    deployment), every protocol step -- join-ack propagation, successor
    repair, replica refresh -- advances once per maintenance round but each
    round's progress costs the same wall period, so deployments fall behind
    the workload (WAN scale cells finish with fewer members and items).  The
    remedy is to run maintenance proportionally more often, bounded by
    ``floor`` so the extra traffic stays within a known factor:

    ``period = base * clamp(reference_rtt / rtt, floor, 1.0)``

    On a LAN (``rtt <= reference_rtt``) the period is exactly ``base``; an
    unknown round trip (``rtt`` is ``None``) also keeps ``base``.
    """
    if rtt is None or rtt <= 0:
        return base
    return base * min(1.0, max(floor, reference_rtt / rtt))


class RttScaledCadence(CadenceController):
    """Stabilization/replication cadence seeded from the observed round trip.

    ``rtt_source`` is re-read before every round (e.g.
    :meth:`repro.sim.network.Network.observed_rtt`), so the cadence follows
    the network actually measured -- a deployment that starts before traffic
    flows is seeded from the latency model's nominal round trip and converges
    onto the observed one.
    """

    def __init__(
        self,
        base: float,
        rtt_source: Callable[[], Optional[float]],
        reference_rtt: float = 0.004,
        floor: float = 0.5,
    ):
        if base <= 0:
            raise ValueError("cadence base period must be positive")
        if reference_rtt <= 0:
            raise ValueError("reference_rtt must be positive")
        if not 0.0 < floor <= 1.0:
            raise ValueError("cadence floor must be in (0, 1]")
        self.base = base
        self.rtt_source = rtt_source
        self.reference_rtt = reference_rtt
        self.floor = floor

    def interval(self) -> float:
        return rtt_scaled_period(self.base, self.rtt_source(), self.reference_rtt, self.floor)
