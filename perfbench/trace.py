"""The traced run: self-time per layer and one span per phase and operation.

Everything here is taken from the benchmark's own side of the calls; nothing
inside ``src/`` is instrumented.

* ``cProfile`` runs around the run's first timed window only (Python 3.11's
  profiler loses track of a frame an exception is thrown into, as RPC timeouts
  and failed peers do; the fold still accounts for 96% to 100% of the window).
  Each function's own time
  (``tottime``) is folded by source file into the layer names of the metric
  catalogue; a C function has no file, so its time goes to the layers of the
  Python functions that called it (``heappush`` called from the engine is
  engine time).  The folded times sum to the profiled window.
* Spans are kept in memory and written when the run ends: host-clock spans for
  every set-up, window and audit, and simulated-clock spans for every user
  operation -- a parent from the due instant to the result, with ``route`` and
  ``scan`` children for a query -- all carrying the operation's id.  Inserts
  and deletes start and end at the instants of their ``index_*_item`` /
  ``index_*_done`` history pair.

Tracing must not perturb the trajectory: the traced run's simulated numbers
and counts are compared with the untraced run's and any difference is
reported as a defect of the benchmark.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List

import repro

import perfbench
from perfbench import hostclock
from perfbench.loadgen import QUERY, Op

_REPRO_ROOT = str(Path(repro.__file__).resolve().parent)
_BENCH_ROOT = str(Path(perfbench.__file__).resolve().parent)
_OWN_LAYER = ("ring", "datastore", "replication", "router", "serve", "index", "maintenance")
OTHER = "python.other"


def layer_of(filename: str) -> str:
    """The catalogue layer a source file belongs to."""
    if filename.startswith(_BENCH_ROOT):
        return "harness"
    if not filename.startswith(_REPRO_ROOT):
        return OTHER
    package, _, module = filename[len(_REPRO_ROOT) + 1:].partition("/")
    module = module.rsplit(".", 1)[0]
    if package == "sim":
        return "sim.network" if module == "network" else "sim.engine"
    if package == "transport":
        return "transport.endpoint"
    if package == "core":
        return f"core.{module}"
    if package in ("harness", "workloads"):
        return "harness"
    return package if package in _OWN_LAYER else OTHER


def fold(profile) -> Dict[str, float]:
    """Self-seconds per layer from a finished ``cProfile.Profile``.

    A C function has no file.  Its whole self-time is shared out over the
    layers of the Python functions seen calling it, in proportion to the time
    the profiler recorded under each (the per-caller records are incomplete
    -- ``heappop`` under ``Simulator.run`` is missing from them -- so they give
    the proportions, not the amount).  The host clock's samples are dropped:
    they are excluded from the window they interrupt.
    """
    dropped = "host clock"
    totals: Dict[str, float] = defaultdict(float)
    callers: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    c_functions: Dict[str, float] = {}
    for entry in profile.getstats():
        if isinstance(entry.code, str):
            c_functions[entry.code] = entry.inlinetime
            continue
        sampling = entry.code.co_filename == hostclock.__file__
        layer = dropped if sampling else layer_of(entry.code.co_filename)
        totals[layer] += entry.inlinetime
        for callee in entry.calls or ():
            if isinstance(callee.code, str):
                callers[callee.code][layer] += callee.inlinetime
    for code, self_s in c_functions.items():
        seen = callers.get(code) or {OTHER: 1.0}
        known = sum(seen.values()) or 1.0
        for layer, share in seen.items():
            totals[layer] += self_s * share / known
    totals.pop(dropped, None)
    return dict(totals)


def op_spans(ops: Iterable[Op]) -> List[dict]:
    """Simulated-clock spans of the user operations, children sharing the parent's id."""
    spans: List[dict] = []
    for op in ops:
        ident = {"clock": "sim", "ring": op.ring, "window": op.window, "op": op.op_id}
        spans.append({**ident, "name": op.kind, "layer": "harness", "due": op.due,
                      "start": op.start, "end": op.end, "entry": op.entry,
                      "verdict": op.verdict or None, "error": op.error})
        if op.kind == QUERY and op.end is not None:
            route_end = op.end - op.scan_elapsed
            spans.append({**ident, "name": "route", "layer": "router", "parent": op.kind,
                          "start": op.start, "end": route_end})
            spans.append({**ident, "name": "scan", "layer": "serve", "parent": op.kind,
                          "start": route_end, "end": op.end, "scan_hops": op.hops})
    return spans


def write_trace(path: Path, header: dict, host_spans: List[dict], ops: Iterable[Op],
                layers: Dict[str, float]) -> None:
    """Write one run's trace file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    body = {**header, "self_s_by_layer": layers, "spans": host_spans + op_spans(ops)}
    path.write_text(json.dumps(body, indent=1) + "\n")
