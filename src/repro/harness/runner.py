"""Parallel scenario execution and benchmark JSON emission.

Scenario cells -- one ``(scenario, seed)`` pair each -- are completely
independent simulations, so the runner fans them out across CPU cores with a
process pool.  Each worker resolves the scenario name through the registry
(specs travel as names, not pickled objects, so the pool works under both fork
and spawn start methods) and returns a plain dict.

Every run is summarised into ``BENCH_<name>.json`` so the performance
trajectory of the repository is tracked from this PR onward: wall-clock,
simulated seconds, events per wall second, ring size, RPC volume.

Multi-seed runs are first-class: the runner executes the scenario x seed
cross product and the BENCH envelope carries, next to the raw per-cell
results, per-scenario mean/p95/min/max aggregates over the seeds (see
:func:`aggregate_cells`) -- every number becomes a distribution instead of a
single seed-0 point.  Figures honour multi-seed too: each requested seed is
run as the figure's default seed plus that offset (so ``--seeds 0`` remains
byte-identical to the historical single run) and matching rows are averaged.
"""

from __future__ import annotations

import inspect
import json
import os
import platform
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.harness.metrics import nearest_rank
from repro.harness.scenarios import (
    get_scenario,
    get_suite,
    run_spec,
    scenario_names,
    suite_names,
)


def run_cell(cell: Tuple[str, int] | Tuple[str, int, Optional[str]]) -> Dict[str, Any]:
    """Execute one ``(scenario_name, seed[, transport])`` cell.

    Top-level for picklability.  The optional third element overrides the
    spec's transport ("sim" or "asyncio"); ``None`` keeps the spec's own
    selection.
    """
    name, seed, transport = cell if len(cell) == 3 else (*cell, None)
    spec = get_scenario(name)
    if transport is not None:
        spec = spec.with_(config={**spec.config, "transport": transport})
    return run_spec(spec, seed=seed).as_dict()


def run_cells(
    names: Sequence[str],
    seeds: Sequence[int] = (0,),
    processes: Optional[int] = None,
    transport: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Run the cross product of ``names`` x ``seeds``, fanned across cores.

    ``processes=None`` sizes the pool to ``min(cells, cores)``; ``processes<=1``
    runs serially in-process (no pool overhead, simpler tracebacks).
    ``transport`` overrides every cell's transport.
    """
    cells = [(name, seed, transport) for name in names for seed in seeds]
    for cell in cells:
        get_scenario(cell[0])  # fail fast on unknown names, before forking
    if processes is None:
        processes = min(len(cells), os.cpu_count() or 1)
    if processes <= 1 or len(cells) <= 1:
        return [run_cell(cell) for cell in cells]
    with ProcessPoolExecutor(max_workers=processes) as pool:
        return list(pool.map(run_cell, cells))


# --------------------------------------------------------------------------- BENCH emission
def _environment() -> Dict[str, Any]:
    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }


def write_bench(name: str, payload: Dict[str, Any], out_dir: str = ".") -> Path:
    """Write ``BENCH_<name>.json`` with the standard envelope; returns the path."""
    path = Path(out_dir) / f"BENCH_{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {"bench": name, "environment": _environment(), **payload}
    path.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")
    return path


def _cells_summary(
    cells: List[Dict[str, Any]], elapsed_s: Optional[float] = None
) -> Dict[str, Any]:
    """Totals over a batch of cells.

    ``total_wall_clock_s`` sums the per-cell clocks, which overlap when cells
    ran in a process pool -- dividing by it *understates* real throughput, so
    the summary reports both views: ``events_per_cell_wall_s`` (per-cell
    aggregate, comparable across pool sizes) and ``events_per_wall_s`` over
    the actual elapsed pool wall time when the caller measured it.
    """
    total_wall = sum(cell["wall_clock_s"] for cell in cells)
    total_events = sum(cell["events_processed"] for cell in cells)
    summary = {
        "cells": len(cells),
        # Which substrates executed the batch (normally one; mixed when a
        # suite pairs sim and asyncio cells, e.g. localhost_fidelity).
        "transports": sorted({cell["transport"] for cell in cells if "transport" in cell}),
        "total_wall_clock_s": round(total_wall, 3),
        "total_events_processed": total_events,
        "events_per_cell_wall_s": round(total_events / total_wall) if total_wall else 0,
    }
    if elapsed_s is not None:
        summary["elapsed_wall_clock_s"] = round(elapsed_s, 3)
        summary["events_per_wall_s"] = round(total_events / elapsed_s) if elapsed_s else 0
    return summary


# Per-cell measurements aggregated across seeds into the BENCH envelope.
# ``ring_members`` / ``items_stored`` feed the CI bench gate: the gate asserts
# the end-state membership of a scenario stays inside a ±8% band across seeds,
# which the phased lifecycle makes a meaningful (non-flaky) invariant.
_AGGREGATED_FIELDS = (
    "wall_clock_s",
    "events_processed",
    "events_per_wall_s",
    "ring_members",
    "free_peers",
    "items_stored",
    "items_reachable",
    "rpc_calls",
    "rpc_timeouts",
    "messages_sent",
    "query_mean_hops",
    "serve_load_variance",
)

# Sub-fields of the nested ``query_latency`` summary block aggregated across
# seeds (each gets its own mean/p95/min/max, like the flat fields above).
_LATENCY_SUBFIELDS = ("count", "mean", "p50", "p95", "p99")


def _latency_aggregate(group: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Seed aggregates of the ``query_latency`` block (empty if any cell lacks it)."""
    blocks = [cell.get("query_latency") or {} for cell in group]
    return {
        subfield: _stats([block[subfield] for block in blocks])
        for subfield in _LATENCY_SUBFIELDS
        if all(subfield in block for block in blocks)
    }


def _stats(values: Sequence[float]) -> Dict[str, float]:
    """mean/p95/min/max of a non-empty sample (nearest-rank p95)."""
    ordered = sorted(values)
    return {
        "mean": round(sum(ordered) / len(ordered), 6),
        "p95": round(nearest_rank(ordered, 0.95), 6),
        "min": round(ordered[0], 6),
        "max": round(ordered[-1], 6),
    }


def _per_method_means(group: List[Dict[str, Any]]) -> Dict[str, float]:
    """Mean RPC count per method across a scenario's seed runs.

    The per-method profile says which protocol a cell's messages went to
    (``ring_ping`` validation, ``route_table_entry`` table walks, ...), so the
    envelope carries it next to the raw per-cell profiles.
    """
    methods = sorted({method for cell in group for method in cell.get("rpc_per_method", {})})
    return {
        method: round(
            sum(cell.get("rpc_per_method", {}).get(method, 0) for cell in group) / len(group),
            1,
        )
        for method in methods
    }


def aggregate_cells(cells: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Per-scenario mean/p95/min/max over seeds for the standard measurements.

    Fields absent from a cell group (e.g. synthetic test cells) are simply
    omitted from its aggregate rather than raising.
    """
    by_scenario: Dict[str, List[Dict[str, Any]]] = {}
    for cell in cells:
        by_scenario.setdefault(cell["scenario"], []).append(cell)
    aggregates = {}
    for scenario, group in by_scenario.items():
        entry: Dict[str, Any] = {
            "seeds": [cell["seed"] for cell in group],
            **{
                field: _stats([cell[field] for cell in group])
                for field in _AGGREGATED_FIELDS
                if all(field in cell for cell in group)
            },
            "rpc_per_method_mean": _per_method_means(group),
        }
        latency = _latency_aggregate(group)
        if latency:
            entry["query_latency"] = latency
        aggregates[scenario] = entry
    return aggregates


# --------------------------------------------------------------------------- figures
def _figure_seed(name: str, offset: int) -> int:
    """The effective seed of a figure run: the figure's default plus ``offset``.

    Figures historically pin their own seed (figure_19 runs at seed 19, ...);
    offsetting keeps ``seeds=[0]`` byte-identical to those single runs while
    giving multi-seed sweeps distinct, reproducible deployments.
    """
    from repro.harness.figures import ALL_FIGURES

    default = inspect.signature(ALL_FIGURES[name]).parameters["seed"].default
    return default + offset


def run_figure_cell(cell: Tuple[str, int]) -> Dict[str, Any]:
    """Execute one ``(figure_name, seed_offset)`` cell.  Top-level for picklability."""
    from repro.harness.figures import ALL_FIGURES

    name, offset = cell
    seed = _figure_seed(name, offset)
    started = time.perf_counter()
    figure = ALL_FIGURES[name](seed=seed)
    result = figure.as_dict()
    result["seed"] = seed
    result["seed_offset"] = offset
    result["wall_clock_s"] = round(time.perf_counter() - started, 3)
    return result


def _aggregate_figure_rows(results: List[Dict[str, Any]]) -> List[List[Any]]:
    """Average matching rows (same first column) elementwise across seed runs."""
    grouped: Dict[Any, List[Sequence[Any]]] = {}
    order: List[Any] = []
    for result in results:
        for row in result["rows"]:
            key = row[0]
            if key not in grouped:
                grouped[key] = []
                order.append(key)
            grouped[key].append(row)
    rows = []
    for key in order:
        group = grouped[key]
        width = max(len(row) for row in group)
        averaged: List[Any] = [key]
        for column in range(1, width):
            values = [
                row[column]
                for row in group
                if len(row) > column and isinstance(row[column], (int, float))
            ]
            averaged.append(round(sum(values) / len(values), 6) if values else None)
        rows.append(averaged)
    return rows


def _run_figure(
    name: str, seeds: Sequence[int], processes: Optional[int]
) -> Dict[str, Any]:
    """Run a figure once per seed offset, optionally fanned across a pool."""
    cells = [(name, offset) for offset in seeds]
    started = time.perf_counter()
    if processes is None:
        processes = min(len(cells), os.cpu_count() or 1)
    if processes <= 1 or len(cells) <= 1:
        results = [run_figure_cell(cell) for cell in cells]
    else:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            results = list(pool.map(run_figure_cell, cells))
    payload: Dict[str, Any] = {
        "summary": {
            "wall_clock_s": round(time.perf_counter() - started, 3),
            "figure_runs": len(results),
        },
        "seeds": [result["seed"] for result in results],
        "results": results,
    }
    if len(results) > 1:
        payload["aggregates"] = {
            "headers": list(results[0]["headers"]),
            "rows": _aggregate_figure_rows(results),
        }
    return payload


def run_named(
    name: str,
    seeds: Sequence[int] = (0,),
    processes: Optional[int] = None,
    out_dir: Optional[str] = ".",
    transport: Optional[str] = None,
) -> Dict[str, Any]:
    """Run a registered scenario, suite or figure by name; emit its BENCH json.

    Scenario and suite runs execute the full ``scenarios x seeds`` cross
    product and carry per-scenario aggregates; figure runs execute once per
    seed offset (see :func:`_figure_seed`).  ``transport`` overrides every
    cell's transport and does not apply to figures.  Returns the emitted
    document (also written to ``BENCH_<name>.json`` unless ``out_dir`` is
    ``None``).
    """
    from repro.harness.figures import ALL_FIGURES  # deferred: figures import the harness

    seeds = list(seeds)
    if name in ALL_FIGURES:
        if transport is not None:
            raise ValueError("--transport applies to scenarios and suites, not figures")
        payload = _run_figure(name, seeds, processes)
        bench_name = name
    else:
        if name in suite_names():
            suite = get_suite(name)
            names, bench_name = suite.scenarios, suite.bench_name or suite.name
        else:
            names, bench_name = (name,), name
        started = time.perf_counter()
        cells = run_cells(
            names,
            seeds=seeds,
            processes=processes,
            transport=transport,
        )
        elapsed = time.perf_counter() - started
        payload = {
            "summary": _cells_summary(cells, elapsed),
            "seeds": seeds,
            "aggregates": aggregate_cells(cells),
            "results": cells,
        }
    if transport is not None:
        payload["transport_override"] = transport
    if out_dir is not None:
        write_bench(bench_name, payload, out_dir=out_dir)
    return payload


def known_names() -> List[str]:
    """Every runnable name: suites first, then scenarios, then figures."""
    from repro.harness.figures import ALL_FIGURES

    return suite_names() + scenario_names() + sorted(ALL_FIGURES)
