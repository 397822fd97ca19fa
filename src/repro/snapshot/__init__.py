"""Snapshot/warm-start: capture a deployment's world at a phase boundary.

Scenario iteration keeps re-running an expensive, *identical* prefix: the
build (and settle) phases of a cell are deterministic for a given
``(spec, seed)``, yet every tweak to a stress phase or query mix pays
for them again.  This package captures the complete post-phase world state --
ring and peer state, store contents, membership, pending maintenance timers,
every named RNG stream -- into a versioned on-disk snapshot, and rebuilds a
live world from it whose subsequent execution is *bit-identical* to the
straight-through run (the resume-parity matrix in
``tests/test_snapshot_parity.py`` pins every end-state field, including
``events_processed`` and the per-method RPC profile).

The moving parts:

* :mod:`~repro.snapshot.barrier` -- step the simulation to a *parked* instant
  where the world's only pending obligations are sleeping periodic loops;
* :mod:`~repro.snapshot.capture` / :mod:`~repro.snapshot.codec` -- serialise
  the parked world into a JSON-safe state dict;
* :mod:`~repro.snapshot.restore` -- rebuild a live experiment from that dict
  (construction + overwrite, never replay);
* :mod:`~repro.snapshot.store` -- the on-disk format, keyed by
  ``(spec-build-hash, seed)`` so edited specs silently miss and
  rebuild instead of resuming a stale world.

Only the simulated transport snapshots (the asyncio transport's world is
wall-clock real time); :func:`repro.harness.scenarios.run_spec` gates on that.
"""

from repro.snapshot.barrier import PARK_HORIZON, reach_parked_state, world_parked
from repro.snapshot.capture import capture_world
from repro.snapshot.restore import SnapshotRestoreError, harness_results, restore_world
from repro.snapshot.store import (
    FORMAT_VERSION,
    SNAPSHOT_SUFFIX,
    build_hash,
    load_snapshot,
    save_snapshot,
    snapshot_path,
)

__all__ = [
    "FORMAT_VERSION",
    "PARK_HORIZON",
    "SNAPSHOT_SUFFIX",
    "SnapshotRestoreError",
    "build_hash",
    "capture_world",
    "harness_results",
    "load_snapshot",
    "reach_parked_state",
    "restore_world",
    "save_snapshot",
    "snapshot_path",
    "world_parked",
]
