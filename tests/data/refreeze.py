"""Re-freeze the parity baselines in this directory and the figure files from the current tree.

    PYTHONPATH=src python tests/data/refreeze.py

A behaviour PR (one that changes what the protocols do, not just how the code
is arranged) moves the frozen end states; this command rewrites them, so the
re-freeze is explicit and reproducible:

* ``transport_refactor_baseline_*.json`` hold the end state of a plain run of
  every ``scenario@seed`` cell (what ``test_transport_parity`` compares with,
  through the same :func:`pinned` projection); each file keeps its cells and
  fields;
* the ``BENCH_<figure>.json`` files at the repository root hold what
  ``repro-run <figure> --seeds 0`` writes for every figure in
  ``ALL_FIGURES`` (what ``tests/test_figures.py`` compares with, through the
  same :func:`figure_rows` projection).

It prints every field and figure row it rewrites (``file: cell field: old ->
new``, ``file: first column: old row -> new row``) and then the names of the
fields and figures that moved, so the re-freeze's reach is on the record.  Say why in
CHANGES.md, then run ``tests/test_transport_parity.py`` under
``REPRO_PARITY_FULL=1``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.harness.figures import ALL_FIGURES
from repro.harness.runner import run_cell, run_named

DATA = Path(__file__).parent
ROOT = DATA.parents[1]


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


def figure_rows(rows: list) -> list:
    """A figure's rows as frozen: floats rounded to 6 places, like ``sim_time_s``."""
    return [[round(cell, 6) if isinstance(cell, float) else cell for cell in row] for row in rows]


def refreeze_figure(name: str) -> bool:
    """Rewrite ``BENCH_<name>.json`` at the root; print its moved rows, return whether any did."""
    path = ROOT / f"BENCH_{name}.json"
    old = figure_rows(json.loads(path.read_text())["results"][0]["rows"]) if path.exists() else []
    new = figure_rows(run_named(name, seeds=[0], processes=1, out_dir=str(ROOT))["results"][0]["rows"])
    old_by_key = {row[0]: row for row in old}
    new_by_key = {row[0]: row for row in new}
    for key in dict.fromkeys([*old_by_key, *new_by_key]):
        if old_by_key.get(key) != new_by_key.get(key):
            print(f"{path.name}: {key}: {old_by_key.get(key)} -> {new_by_key.get(key)}")
    return old != new


def main() -> None:
    moved = set()
    for size in ("smoke", "scale300"):
        moved |= refreeze(f"transport_refactor_baseline_{size}.json")
    print(f"fields moved: {', '.join(sorted(moved)) or 'none'}")
    figures = [name for name in ALL_FIGURES if refreeze_figure(name)]
    print(f"figures moved: {', '.join(figures) or 'none'}")


if __name__ == "__main__":
    main()
