"""Resume-vs-full-run parity: a warm start is the *exact* straight-through run.

The snapshot machinery promises bit-identical end states two ways:

* a **cold-with-capture** run (first run against an empty snapshot cache) is
  deterministic per ``(spec, seed)``: the parked-instant barrier
  executes events exactly as a straight-through run would, though when the
  boundary instant itself is not parked it may advance the world slightly
  before capturing -- so a snapshot run's trace can differ marginally from a
  cache-less run's (it happens on scale_300 seed 1, nowhere else in this
  matrix);
* a **warm** run (second run against the populated cache) restores the
  pre-boundary world from disk and replays only the post-boundary phases,
  finishing in the *exact* end state of the cold-with-capture run -- down to
  ``events_processed`` and the per-method RPC profile.

Both are pinned here against end states frozen from cold-with-capture runs
(``tests/data/snapshot_parity_baseline_*.json``).  A plain run (no snapshot
directory) is untouched by the capture machinery --
``test_plain_run_unchanged_by_capture`` pins that, and the transport-parity
baselines (frozen from plain runs) double as the regression net.  The smoke
matrix (seeds 0, 1) runs in tier-1; the scale_300 fixed + adaptive matrix
(seeds 0..2) runs under ``REPRO_PARITY_FULL=1`` like the transport-parity
split.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.harness.scenarios import get_scenario, run_spec
from repro.snapshot import SNAPSHOT_SUFFIX

DATA = Path(__file__).parent / "data"

# sim_time_s was frozen rounded to 6 decimals; every other pinned field is an
# exact integer (or an integer-valued dict) and must match bit-for-bit.
_ROUNDED_FIELDS = {"sim_time_s": 6}


def _frozen_cells(name: str):
    """``(scenario, seed, frozen_state)`` triples from a baseline file."""
    for key, state in sorted(json.loads((DATA / name).read_text()).items()):
        scenario, _, seed = key.rpartition("@")
        yield scenario, int(seed), state


def _end_state(result: dict, frozen: dict) -> dict:
    return {
        field: round(result[field], digits)
        if (digits := _ROUNDED_FIELDS.get(field))
        else result[field]
        for field in frozen
    }


def _assert_resume_parity(scenario, seed, frozen, tmp_path, monkeypatch):
    """Cold-with-capture then warm resume; both must equal the frozen plain run."""
    monkeypatch.delenv("REPRO_TRANSPORT", raising=False)
    spec = get_scenario(scenario)
    snapshot_dir = tmp_path / "snapshots"

    cold = run_spec(spec, seed=seed, snapshot_dir=str(snapshot_dir))
    assert not cold.warm_start
    written = list(snapshot_dir.glob(f"*{SNAPSHOT_SUFFIX}"))
    assert len(written) == 1, "the cold run must capture exactly one snapshot"
    assert written[0].name.endswith(f"-s{seed}{SNAPSHOT_SUFFIX}")

    warm = run_spec(spec, seed=seed, snapshot_dir=str(snapshot_dir))
    assert warm.warm_start, "the second run must resume from the snapshot"

    for label, result in (("cold-with-capture", cold), ("warm resume", warm)):
        live = _end_state(result.as_dict(), frozen)
        assert live == frozen, (
            f"{scenario}[seed={seed}]: {label} diverged from "
            f"the frozen straight-through run\n  frozen: {frozen}\n  live:   {live}"
        )


@pytest.mark.parametrize("heap_id", ["heap"])  # direct, so it stays last in the id
@pytest.mark.parametrize(
    "scenario,seed,frozen",
    list(_frozen_cells("snapshot_parity_baseline_smoke.json")),
    ids=lambda value: value if isinstance(value, str) else None,
)
def test_smoke_resume_parity(scenario, seed, frozen, heap_id, tmp_path, monkeypatch):
    _assert_resume_parity(scenario, seed, frozen, tmp_path, monkeypatch)


FULL_MATRIX = bool(os.environ.get("REPRO_PARITY_FULL"))


@pytest.mark.skipif(
    not FULL_MATRIX, reason="set REPRO_PARITY_FULL=1 for the scale_300 matrix"
)
@pytest.mark.parametrize(
    "scenario,seed,frozen",
    list(_frozen_cells("snapshot_parity_baseline_scale300.json")),
    ids=lambda value: value if isinstance(value, str) else None,
)
def test_scale_300_resume_parity(scenario, seed, frozen, tmp_path, monkeypatch):
    _assert_resume_parity(scenario, seed, frozen, tmp_path, monkeypatch)


def test_plain_run_unchanged_by_capture(tmp_path):
    """On smoke the boundary instant is already parked, so enabling the cache
    does not even shift the trace: plain == cold-with-capture, bit for bit."""
    spec = get_scenario("smoke")
    plain = run_spec(spec, seed=0)
    cold = run_spec(spec, seed=0, snapshot_dir=str(tmp_path))
    assert plain.events_processed == cold.events_processed
    assert plain.sim_time_s == cold.sim_time_s
    assert plain.rpc_per_method == cold.rpc_per_method


def test_warm_result_is_flagged(tmp_path):
    """``warm_start`` in the result dict distinguishes resumed cells in BENCH
    envelopes (and is the only field a warm run may differ on)."""
    spec = get_scenario("smoke")
    cold = run_spec(spec, seed=0, snapshot_dir=str(tmp_path))
    warm = run_spec(spec, seed=0, snapshot_dir=str(tmp_path))
    cold_dict, warm_dict = cold.as_dict(), warm.as_dict()
    assert (cold_dict.pop("warm_start"), warm_dict.pop("warm_start")) == (False, True)
    # Everything else -- including wall-clock-independent per-phase deltas for
    # the *post-boundary* phases -- is identical; drop the wall-clock fields
    # and the pre-boundary phase records the warm run replays from the capture.
    for record in (cold_dict, warm_dict):
        record.pop("wall_clock_s")
        record.pop("events_per_wall_s")
        for phase in record["phases"]:
            phase.pop("wait_s")
            phase.pop("wall_clock_s", None)
    assert warm_dict == cold_dict
