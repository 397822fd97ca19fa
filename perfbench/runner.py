"""One workload run, in the process that calls it, as a plain result dict.

The command line always calls this in a fresh child process, one at a time,
so ``peak_rss_mb`` and heap state belong to one workload and one mode.
"""

from __future__ import annotations

import cProfile
import os
import resource
import statistics
from pathlib import Path
from typing import Dict, Optional

from repro.sim.engine import ENGINE_ENV_VAR

from perfbench import trace
from perfbench.catalogue import BY_NAME, METRICS
from perfbench.hostclock import HostClock
from perfbench.workloads import RUNNERS, Recorder, sizing


def run_once(workload: str, seed: int, seconds: float, quick: bool, traced: bool,
             out_dir: Optional[Path], clock: HostClock, import_s: float) -> dict:
    """Run ``workload`` once and return every declared metric (``None`` where undefined).

    ``clock`` must be running (entered); ``import_s`` is what importing ``repro``
    cost this process, which ``setup_s`` includes.
    """
    size = sizing(workload, seconds, quick)
    recorder = Recorder(clock, cProfile.Profile() if traced else None)
    outcome = RUNNERS[workload](seed, size, recorder)
    window = outcome.window

    values: Dict[str, Optional[float]] = {
        "setup_s": import_s + statistics.median(recorder.setup_times),
        "wall_s": outcome.wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim.engine.events": window.events,
        "sim.engine.events_per_s": window.events / window.wall_s,
        "sim.network.rpc_calls": window.rpc_calls,
        "sim.network.messages": window.messages,
        "sim.network.rpc_timeouts": window.rpc_timeouts,
        "sim.network.timeout_ratio": window.rpc_timeouts / window.rpc_calls,
        "harness.cpu_s": outcome.cpu_s,
        "harness.raw_wall_s": outcome.raw_wall_s,
        "harness.host_speed": window.wall_s / window.raw_wall_s,
        **outcome.metrics,
    }
    problems = list(outcome.problems)
    layers: Dict[str, float] = {}
    if traced:
        # The profiler ran in the first window and counts raw seconds; put its
        # self-times on that window's corrected clock.
        profiled = recorder.windows[0]
        speed = profiled.wall_s / profiled.raw_wall_s
        layers = {layer: self_s * speed for layer, self_s in trace.fold(recorder.profile).items()}
        for metric in METRICS:
            if metric.traced and metric.name != "harness.trace_overhead":
                values[metric.name] = 0.0
        for layer, self_s in layers.items():
            name = f"{layer}.self_s"
            values[name if name in BY_NAME else "python.other_self_s"] += self_s
        folded = sum(layers.values())
        if abs(folded - profiled.wall_s) > 0.05 * profiled.wall_s:
            problems.append(f"folded self-times sum to {folded:.3f} s, not the traced "
                            f"window's {profiled.wall_s:.3f} s within 5%")
        if out_dir is not None:
            header = {"workload": workload, "seed": seed, "seconds": seconds, "quick": quick,
                      "profiled_window_s": profiled.wall_s}
            trace.write_trace(out_dir / f"trace_{workload}.json", header,
                              recorder.spans, outcome.ops, layers)

    metrics = {
        metric.name: values.get(metric.name) if workload in metric.workloads else None
        for metric in METRICS
    }
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
        "traced": traced,
        "engine": os.environ.get(ENGINE_ENV_VAR) or "heap",
        "sizing": outcome.sizing,
        "setup_times_s": recorder.setup_times,
        "window_raw_s": [w.raw_wall_s for w in recorder.windows],
        "ops_attempted": sum(outcome.attempted.values()),
        "ops_failed": sum(outcome.failed.values()),
        "ops_by_kind": {kind: {"attempted": count, "failed": outcome.failed.get(kind, 0)}
                        for kind, count in sorted(outcome.attempted.items())},
        "rpc_per_method": dict(sorted(window.per_method.items())),
        "problems": problems,
        "metrics": metrics,
    }
