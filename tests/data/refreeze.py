"""Re-freeze the two parity baselines in this directory from the current tree.

    PYTHONPATH=src python tests/data/refreeze.py

A behaviour PR (one that changes what the protocols do, not just how the code
is arranged) moves the frozen end states; this command rewrites them, keeping
each file's cells and fields, so the re-freeze is explicit and reproducible:
``transport_refactor_baseline_*.json`` hold the end state of a plain run of
every ``scenario@seed`` cell (what ``test_transport_parity`` compares with,
through the same :func:`pinned` projection).

Say why in CHANGES.md, then run ``tests/test_transport_parity.py`` under
``REPRO_PARITY_FULL=1``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.harness.runner import run_cell

DATA = Path(__file__).parent


def pinned(result: dict, frozen: dict) -> dict:
    """The fields ``frozen`` pins, read off ``result``.

    ``sim_time_s`` is frozen rounded to 6 places; every other pinned field is
    an exact integer (or an integer-valued dict) and must match bit-for-bit.
    """
    return {
        field: round(result[field], 6) if field == "sim_time_s" else result[field]
        for field in frozen
    }


def refreeze(name: str) -> None:
    path = DATA / name
    cells = json.loads(path.read_text())
    for key, frozen in sorted(cells.items()):
        scenario, _, seed = key.rpartition("@")
        cells[key] = pinned(run_cell((scenario, int(seed))), frozen)
        print(f"{name}: {key} events_processed={cells[key]['events_processed']}")
    path.write_text(json.dumps(cells, indent=1, sort_keys=True) + "\n")


def main() -> None:
    # Baselines are frozen from each cell's own transport.
    os.environ.pop("REPRO_TRANSPORT", None)
    for size in ("smoke", "scale300"):
        refreeze(f"transport_refactor_baseline_{size}.json")


if __name__ == "__main__":
    main()
