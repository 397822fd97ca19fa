"""Re-freeze the two parity baselines in this directory from the current tree.

    PYTHONPATH=src python tests/data/refreeze.py

A behaviour PR (one that changes what the protocols do, not just how the code
is arranged) moves the frozen end states; this command rewrites them, keeping
each file's cells and fields, so the re-freeze is explicit and reproducible:
``transport_refactor_baseline_*.json`` hold the end state of a plain run of
every ``scenario@seed`` cell (what ``test_transport_parity`` compares with,
through the same :func:`pinned` projection).

It prints every field it rewrites (``file: cell field: old -> new``) and
then the names of the fields that moved, so the re-freeze's reach is on the
record.  Say why in CHANGES.md, then run ``tests/test_transport_parity.py``
under ``REPRO_PARITY_FULL=1``.
"""

from __future__ import annotations

import json
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


def refreeze(name: str) -> set:
    """Rewrite the baseline ``name``; print and return the fields that moved."""
    path = DATA / name
    cells = json.loads(path.read_text())
    moved = set()
    for key, frozen in sorted(cells.items()):
        scenario, _, seed = key.rpartition("@")
        cells[key] = pinned(run_cell((scenario, int(seed))), frozen)
        for field in sorted(frozen):
            if cells[key][field] != frozen[field]:
                moved.add(field)
                print(f"{name}: {key} {field}: {frozen[field]} -> {cells[key][field]}")
    path.write_text(json.dumps(cells, indent=1, sort_keys=True) + "\n")
    return moved


def main() -> None:
    moved = set()
    for size in ("smoke", "scale300"):
        moved |= refreeze(f"transport_refactor_baseline_{size}.json")
    print(f"fields moved: {', '.join(sorted(moved)) or 'none'}")


if __name__ == "__main__":
    main()
