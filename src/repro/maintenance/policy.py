"""Declarative maintenance policy: which controllers a deployment runs.

A :class:`MaintenancePolicy` is the resolved, validated object carried on
:class:`~repro.index.config.IndexConfig` (field ``maintenance``), exactly as a
resolved latency model is carried on the network config.  Scenario specs
describe the policy as a name plus flat JSON-able parameters
(:class:`~repro.harness.scenarios.MaintenanceSpec`) and resolve it through
:func:`maintenance_policy_from_params`, mirroring
:func:`repro.sim.network.latency_model_from_params`.

Four independent knobs:

* ``validation`` (``fixed`` | ``adaptive``) -- the cadence of the
  ``ring_ping`` validation loops (predecessor check, successor validation).
  ``adaptive`` backs off while validations succeed and tightens after a
  failure or membership change (:class:`~repro.maintenance.cadence.AdaptiveCadence`),
  and additionally enables per-entry validation *freshness*: a successor
  entry confirmed alive within ``freshness_factor`` stabilization periods
  (by a ping, a stabilization round, or the peer stabilizing with us) is
  skipped instead of re-pinged.
* ``router`` (``fixed`` | ``adaptive``) -- the content-router table refresh
  cadence.  ``adaptive`` backs off while consecutive refreshes reproduce the
  same pointer table without errors and tightens as soon as the table
  changes, a refresh RPC fails, or the ring observes a neighbourhood change.
* ``cadence`` (``fixed`` | ``rtt_scaled``) -- the stabilization and replica
  refresh periods.  ``rtt_scaled`` seeds them from the network's observed
  round trip (:class:`~repro.maintenance.cadence.RttScaledCadence`).
* ``redirect_cache_size`` -- entries in the server-side join-redirect cache
  (:class:`~repro.maintenance.redirect_cache.RedirectCache`); ``0`` disables
  it.

The default-constructed policy (:data:`FIXED_MAINTENANCE`) reproduces the
historical fixed-timer behaviour bit for bit, which is what makes
fixed-vs-adaptive a clean ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.maintenance.cadence import (
    AdaptiveCadence,
    CadenceController,
    FixedCadence,
    RttScaledCadence,
)
from repro.maintenance.redirect_cache import RedirectCache

VALIDATION_MODES = ("fixed", "adaptive")
ROUTER_MODES = ("fixed", "adaptive")
CADENCE_MODES = ("fixed", "rtt_scaled")


@dataclass(frozen=True)
class MaintenancePolicy:
    """All maintenance-adaptivity tunables of one deployment."""

    validation: str = "fixed"
    router: str = "fixed"
    cadence: str = "fixed"
    redirect_cache_size: int = 0

    # -- adaptive validation tuning (see AdaptiveCadence) -------------------
    backoff_growth: float = 2.0
    backoff_max: float = 4.0
    success_threshold: int = 2
    # Per-entry validation freshness: a successor confirmed alive within
    # ``freshness_factor * stabilization_period`` is not re-pinged.  0
    # disables the skip (every validation round pings every entry).
    freshness_factor: float = 0.0

    # -- adaptive router-refresh tuning --------------------------------------
    # Router tables go stale only when membership moves, so the refresh loop
    # may back off further than the liveness validations before staleness
    # shows up in route lengths (stale pointers already fall back gracefully).
    router_backoff_max: float = 6.0

    # -- rtt_scaled cadence tuning (see RttScaledCadence) -------------------
    reference_rtt: float = 0.004
    cadence_floor: float = 0.5

    # -- redirect cache tuning ----------------------------------------------
    redirect_cache_ttl: float = 30.0

    def validate(self) -> None:
        """Raise ``ValueError`` for meaningless settings."""
        if self.validation not in VALIDATION_MODES:
            raise ValueError(
                f"unknown validation mode {self.validation!r}; "
                f"known: {', '.join(VALIDATION_MODES)}"
            )
        if self.router not in ROUTER_MODES:
            raise ValueError(
                f"unknown router mode {self.router!r}; known: {', '.join(ROUTER_MODES)}"
            )
        if self.freshness_factor < 0:
            raise ValueError("freshness_factor must be >= 0")
        if self.router_backoff_max < 1.0:
            raise ValueError("router_backoff_max must be >= 1")
        if self.cadence not in CADENCE_MODES:
            raise ValueError(
                f"unknown cadence mode {self.cadence!r}; known: {', '.join(CADENCE_MODES)}"
            )
        if self.redirect_cache_size < 0:
            raise ValueError("redirect_cache_size must be >= 0")
        if self.backoff_growth <= 1.0:
            raise ValueError("backoff_growth must be > 1")
        if self.backoff_max < 1.0:
            raise ValueError("backoff_max must be >= 1")
        if self.success_threshold < 1:
            raise ValueError("success_threshold must be >= 1")
        if self.reference_rtt <= 0:
            raise ValueError("reference_rtt must be positive")
        if not 0.0 < self.cadence_floor <= 1.0:
            raise ValueError("cadence_floor must be in (0, 1]")
        if self.redirect_cache_ttl <= 0:
            raise ValueError("redirect_cache_ttl must be positive")

    # ------------------------------------------------------------------ factories
    def validation_controller(self, base: float) -> CadenceController:
        """The controller driving a ``ring_ping`` validation loop."""
        if self.validation == "adaptive":
            return AdaptiveCadence(
                base,
                growth=self.backoff_growth,
                max_factor=self.backoff_max,
                success_threshold=self.success_threshold,
            )
        return FixedCadence(base)

    def router_controller(self, base: float) -> CadenceController:
        """The controller driving the content router's table refresh loop."""
        if self.router == "adaptive":
            return AdaptiveCadence(
                base,
                growth=self.backoff_growth,
                max_factor=self.router_backoff_max,
                success_threshold=self.success_threshold,
            )
        return FixedCadence(base)

    def validation_freshness(self, stabilization_period: float) -> float:
        """The per-entry confirmation window, in seconds (0 = no skipping)."""
        return self.freshness_factor * stabilization_period

    def maintenance_interval(
        self, base: float, rtt_source: Callable[[], Optional[float]]
    ) -> Union[float, Callable[[], float]]:
        """The period source for a stabilization/replication loop.

        Returns the plain ``base`` float under the fixed cadence (zero
        overhead, byte-identical to the legacy timers) or a callable interval
        under ``rtt_scaled`` -- both shapes are accepted by
        :meth:`repro.transport.endpoint.Endpoint.every`.
        """
        if self.cadence == "rtt_scaled":
            return RttScaledCadence(
                base, rtt_source, reference_rtt=self.reference_rtt, floor=self.cadence_floor
            ).interval
        return base

    def build_redirect_cache(self) -> Optional[RedirectCache]:
        """The per-peer join-redirect cache, or ``None`` when disabled."""
        if self.redirect_cache_size <= 0:
            return None
        return RedirectCache(self.redirect_cache_size, ttl=self.redirect_cache_ttl)


#: The legacy behaviour: fixed timers, no redirect cache.
FIXED_MAINTENANCE = MaintenancePolicy()

# Named presets resolvable from scenario specs.  ``adaptive`` turns on every
# mechanism; individual parameters can still be overridden, e.g.
# ``maintenance_policy_from_params("adaptive", redirect_cache_size=0)``.
MAINTENANCE_POLICIES = {
    "fixed": {},
    "adaptive": {
        "validation": "adaptive",
        "router": "adaptive",
        "cadence": "rtt_scaled",
        "redirect_cache_size": 16,
        "freshness_factor": 1.5,
    },
}


def maintenance_policy_from_params(name: str, **params) -> MaintenancePolicy:
    """Instantiate a named maintenance policy from flat keyword parameters.

    Scenario specs describe the policy as JSON-able mappings; this factory
    merges the named preset with the overrides and validates the result,
    mirroring :func:`repro.sim.network.latency_model_from_params`.
    """
    if name not in MAINTENANCE_POLICIES:
        raise ValueError(
            f"unknown maintenance policy {name!r}; "
            f"known: {', '.join(sorted(MAINTENANCE_POLICIES))}"
        )
    merged = {**MAINTENANCE_POLICIES[name], **params}
    try:
        policy = MaintenancePolicy(**merged)
    except TypeError:
        fields = set(MaintenancePolicy.__dataclass_fields__)
        unknown = sorted(set(merged) - fields)
        raise ValueError(f"unknown maintenance parameters: {', '.join(unknown)}") from None
    policy.validate()
    return policy
