"""Adaptive ring-maintenance subsystem: validation cadence controllers.

Layer contract
--------------
This package sits *below* the protocol layers: it depends only on the standard
library, so :mod:`repro.index.config` can carry a resolved
:class:`MaintenancePolicy` and :mod:`repro.ring` / :mod:`repro.replication`
can drive their periodic loops through the controllers without import cycles.
Neighbors may import everything exported here; nothing in this package may
import from any other ``repro`` package.

What lives here:

* :mod:`~repro.maintenance.cadence` -- :class:`FixedCadence` and
  :class:`AdaptiveCadence` (back-off/tighten cadence), plus the validation
  loops' back-off constants.
* :mod:`~repro.maintenance.policy` -- :class:`MaintenancePolicy` (validation
  cadence and freshness), the named presets, and
  :func:`maintenance_policy_from_params` (the scenario-facing factory,
  mirroring the latency-model factory).
"""

from repro.maintenance.cadence import (
    AdaptiveCadence,
    CadenceController,
    FixedCadence,
)
from repro.maintenance.policy import (
    FIXED_MAINTENANCE,
    MAINTENANCE_POLICIES,
    MaintenancePolicy,
    maintenance_policy_from_params,
)

__all__ = [
    "AdaptiveCadence",
    "CadenceController",
    "FIXED_MAINTENANCE",
    "FixedCadence",
    "MAINTENANCE_POLICIES",
    "MaintenancePolicy",
    "maintenance_policy_from_params",
]
