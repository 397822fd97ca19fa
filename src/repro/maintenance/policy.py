"""Declarative maintenance policy: which controllers a deployment runs.

A :class:`MaintenancePolicy` is the resolved, validated object carried on
:class:`~repro.index.config.IndexConfig` (field ``maintenance``), exactly as a
resolved latency model is carried on the network config.  Scenario specs
describe the policy as a name plus flat JSON-able parameters
(:class:`~repro.harness.scenarios.MaintenanceSpec`) and resolve it through
:func:`maintenance_policy_from_params`, mirroring
:func:`repro.sim.network.latency_model_from_params`.

One mechanism, two knobs:

* ``validation`` (``fixed`` | ``adaptive``) -- the cadence of the
  ``ring_ping`` validation loops (predecessor check, successor validation).
  ``adaptive`` backs off while validations succeed and tightens after a
  failure or membership change (:class:`~repro.maintenance.cadence.AdaptiveCadence`,
  paced by the ``VALIDATION_*`` constants beside it).
* ``freshness_factor`` -- per-entry validation *freshness*: a successor
  entry confirmed alive within ``freshness_factor`` stabilization periods
  (by a ping, a stabilization round, or the peer stabilizing with us) is
  skipped instead of re-pinged.  ``0`` disables the skip.

The default-constructed policy (:data:`FIXED_MAINTENANCE`) runs every loop
on a fixed timer, which is what makes fixed-vs-adaptive a clean ablation.
Stabilization and replica refresh always run on their plain configured
periods, and the content router's table refresh always backs off while its
walks come back clean (:mod:`repro.router.hierarchical`); neither is a knob.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.maintenance.cadence import (
    VALIDATION_BACKOFF_GROWTH,
    VALIDATION_BACKOFF_MAX,
    VALIDATION_CLEAN_ROUNDS_TO_BACK_OFF,
    AdaptiveCadence,
    CadenceController,
    FixedCadence,
)

VALIDATION_MODES = ("fixed", "adaptive")


@dataclass(frozen=True)
class MaintenancePolicy:
    """All maintenance-adaptivity tunables of one deployment."""

    validation: str = "fixed"
    # Per-entry validation freshness: a successor confirmed alive within
    # ``freshness_factor * stabilization_period`` is not re-pinged.  0
    # disables the skip (every validation round pings every entry).
    freshness_factor: float = 0.0

    def validate(self) -> None:
        """Raise ``ValueError`` for meaningless settings."""
        if self.validation not in VALIDATION_MODES:
            raise ValueError(
                f"unknown validation mode {self.validation!r}; "
                f"known: {', '.join(VALIDATION_MODES)}"
            )
        if self.freshness_factor < 0:
            raise ValueError("freshness_factor must be >= 0")

    # ------------------------------------------------------------------ factories
    def validation_controller(self, base: float) -> CadenceController:
        """The controller driving a ``ring_ping`` validation loop."""
        if self.validation == "adaptive":
            return AdaptiveCadence(
                base,
                growth=VALIDATION_BACKOFF_GROWTH,
                max_factor=VALIDATION_BACKOFF_MAX,
                success_threshold=VALIDATION_CLEAN_ROUNDS_TO_BACK_OFF,
            )
        return FixedCadence(base)

    def validation_freshness(self, stabilization_period: float) -> float:
        """The per-entry confirmation window, in seconds (0 = no skipping)."""
        return self.freshness_factor * stabilization_period


#: The legacy behaviour: fixed validation timers, no freshness skip.
FIXED_MAINTENANCE = MaintenancePolicy()

# Named presets resolvable from scenario specs.  ``adaptive`` turns on both
# knobs; either can still be overridden, e.g.
# ``maintenance_policy_from_params("adaptive", freshness_factor=0)``.
MAINTENANCE_POLICIES = {
    "fixed": {},
    "adaptive": {
        "validation": "adaptive",
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
