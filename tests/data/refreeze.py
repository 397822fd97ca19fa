"""Re-freeze the four parity baselines in this directory from the current tree.

    PYTHONPATH=src python tests/data/refreeze.py

A behaviour PR (one that changes what the protocols do, not just how the code
is arranged) moves the frozen end states; this command rewrites them, keeping
each file's cells and fields, so the re-freeze is explicit and reproducible:

* ``transport_refactor_baseline_*.json`` -- a plain straight-through run of
  every ``scenario@seed`` cell (what ``test_transport_parity`` compares with);
* ``snapshot_parity_baseline_*.json`` -- a cold-with-capture run of the same
  cell, after checking that the warm resume from that capture ends in exactly
  the same state (what ``test_snapshot_parity`` compares with).

Say why in CHANGES.md, then run the two parity modules under
``REPRO_PARITY_FULL=1``.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from repro.harness.runner import run_cell
from repro.harness.scenarios import get_scenario, run_spec

DATA = Path(__file__).parent


def _pinned(result: dict, frozen: dict) -> dict:
    """The fields ``frozen`` pins, read off ``result`` (``sim_time_s`` to 6 places)."""
    return {
        field: round(result[field], 6) if field == "sim_time_s" else result[field]
        for field in frozen
    }


def _plain(scenario: str, seed: int, frozen: dict) -> dict:
    return _pinned(run_cell((scenario, seed)), frozen)


def _cold_with_capture(scenario: str, seed: int, frozen: dict) -> dict:
    spec = get_scenario(scenario)
    with tempfile.TemporaryDirectory() as snapshot_dir:
        cold = run_spec(spec, seed=seed, snapshot_dir=snapshot_dir)
        warm = run_spec(spec, seed=seed, snapshot_dir=snapshot_dir)
    assert not cold.warm_start and warm.warm_start
    state = _pinned(cold.as_dict(), frozen)
    resumed = _pinned(warm.as_dict(), frozen)
    if resumed != state:
        raise SystemExit(f"{scenario}@{seed}: warm resume {resumed} != cold-with-capture {state}")
    return state


def refreeze(name: str, run) -> None:
    path = DATA / name
    cells = json.loads(path.read_text())
    for key, frozen in sorted(cells.items()):
        scenario, _, seed = key.rpartition("@")
        cells[key] = run(scenario, int(seed), frozen)
        print(f"{name}: {key} events_processed={cells[key]['events_processed']}")
    path.write_text(json.dumps(cells, indent=1, sort_keys=True) + "\n")


def main() -> None:
    # Baselines are frozen from each cell's own transport.
    os.environ.pop("REPRO_TRANSPORT", None)
    for size in ("smoke", "scale300"):
        refreeze(f"transport_refactor_baseline_{size}.json", _plain)
        refreeze(f"snapshot_parity_baseline_{size}.json", _cold_with_capture)


if __name__ == "__main__":
    main()
