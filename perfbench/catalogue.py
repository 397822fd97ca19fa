"""The benchmark's declarations: workloads, metrics, units, bounds.

This module is the single source of truth.  ``BENCHMARK.json`` at the
repository root is generated from it (``python -m perfbench --update``; the
smoke test fails when the two drift), the report prints metrics in this order,
and ``python -m perfbench compare`` reads its bounds from here.

Every number is labelled with the clock it was read from:

``host``
    What the simulator costs to run: megabytes, and seconds read from the
    corrected host clock (:mod:`perfbench.hostclock`).  Noisy; compared
    within a bound.
``sim``
    What the modelled P-Ring would cost: simulated milliseconds, messages,
    and every count.  Bit-identical for a fixed commit and seed, so on
    identical code and seed the bound that applies is zero.

Tiers: ``end_to_end`` metrics are defined on every workload and are what the
pipeline gates (``BENCHMARK.json``'s ``end_to_end``).  ``user`` metrics are
end-to-end too -- what a user of the modelled index sees -- but exist only on
the workloads that serve user operations, so they travel with the ``layer``
metrics in ``BENCHMARK.json``'s ``per_layer`` list (which admits no bound) and
keep their bounds here, where ``compare`` applies them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

ENGINE_RPC, CHURN, SERVE, MIXED = "engine_rpc", "churn_1000", "serve_zipf_1000", "mixed_300"

#: Seconds of work one pipeline run measures (``--seconds``; see workloads.sizing).
RUN_SECONDS = 8

WORKLOADS: Dict[str, str] = {
    ENGINE_RPC: (
        "no protocol code: echo RPCs between bare endpoints load only sim.engine, sim.network "
        "and transport.endpoint; claim workload for the RPC hot path, bypass for protocol changes"
    ),
    CHURN: (
        "scale_1000's stress phase, failure window stretched: periodic maintenance does the work "
        "and almost no user operation runs; its set-up is the join/insert/split path"
    ),
    SERVE: (
        "open-loop zipf reads through random entry peers on the settled 1000-peer ring, read-only "
        "and churn-free: router, serve and scanRange do the work; claim workload for the read path"
    ),
    MIXED: (
        "reads beside inserts, deletes, failures and arrivals on five pooled 300-peer rings: the "
        "same code under moving versions and stale routes; carries Definition 4 and availability"
    ),
}

ALL = tuple(WORKLOADS)
PROTOCOL = (CHURN, SERVE, MIXED)
READS = (SERVE, MIXED)


@dataclass(frozen=True)
class Metric:
    """One declared metric."""

    name: str
    unit: str
    clock: str  # "host" or "sim"
    better: str  # "lower" or "higher"
    tier: str = "layer"  # "end_to_end", "user" or "layer"
    bound: Optional[float] = None  # share of the base it may worsen by; None = not gated
    workloads: Tuple[str, ...] = ALL  # where it is defined (null elsewhere)
    traced: bool = False  # comes from the traced run only
    about: str = ""


def _self_s(layer: str, about: str) -> Metric:
    name = "python.other_self_s" if layer == "python.other" else f"{layer}.self_s"
    return Metric(name, "s", "host", "lower", traced=True, about=about)


METRICS: List[Metric] = [
    # ---- end to end, every workload (what the pipeline gates) -----------------
    Metric("setup_s", "s", "host", "lower", "end_to_end", 0.25,
           about="imports plus the median of the run's set-ups, each built from nothing"),
    Metric("wall_s", "s", "host", "lower", "end_to_end", 0.25,
           about="the run's timed windows: their number x the median window"),
    Metric("peak_rss_mb", "MB", "host", "lower", "end_to_end", 0.10,
           about="ru_maxrss of the workload's own process"),
    Metric("msgs_per_peer_s", "1/s", "sim", "lower", "end_to_end", 0.25,
           about="messages sent in a window / (mean ring members x simulated seconds), "
                 "the median window's"),
    # ---- end to end, where user operations run (gated by `compare`) -----------
    # Bounds frozen from data (README, "Freezing the sim-side bounds"): max(10%, twice
    # the widest gap between three runs on disjoint rings).
    Metric("query_p50_ms", "ms", "sim", "lower", "user", 0.38, READS,
           about="due -> result over completed open-loop queries"),
    Metric("query_p99_ms", "ms", "sim", "lower", "user", 0.82, READS),
    Metric("insert_p50_ms", "ms", "sim", "lower", "user", 0.10, (MIXED,),
           about="due -> acknowledged over stored inserts"),
    Metric("insert_p99_ms", "ms", "sim", "lower", "user", 1.21, (MIXED,)),
    Metric("msgs_per_op", "count", "sim", "lower", "user", 0.44, READS,
           about="messages sent in the windows / user operations attempted"),
    # ---- sim.engine / sim.network / transport ---------------------------------
    Metric("sim.engine.events", "count", "sim", "lower", about="events processed in the window"),
    Metric("sim.engine.events_per_s", "1/s", "host", "higher", about="events / wall_s"),
    _self_s("sim.engine", "sim/ except network.py (engine, wheel, locks)"),
    Metric("sim.network.rpc_calls", "count", "sim", "lower"),
    Metric("sim.network.messages", "count", "sim", "lower"),
    Metric("sim.network.rpc_timeouts", "count", "sim", "lower"),
    Metric("sim.network.timeout_ratio", "ratio", "sim", "lower", about="rpc_timeouts / rpc_calls"),
    _self_s("sim.network", "sim/network.py"),
    _self_s("transport.endpoint", "transport/"),
    # ---- ring ------------------------------------------------------------------
    Metric("ring.rpcs", "count", "sim", "lower", workloads=PROTOCOL, about="ring_* RPCs"),
    Metric("ring.ping_rpcs", "count", "sim", "lower", workloads=PROTOCOL),
    Metric("ring.stabilize_rpcs", "count", "sim", "lower", workloads=PROTOCOL),
    _self_s("ring", "ring/"),
    Metric("ring.insert_succ_count", "count", "sim", "lower", workloads=PROTOCOL,
           about="insertSucc completions in the window (splits are counted here)"),
    Metric("ring.insert_succ_p50_ms", "ms", "sim", "lower", workloads=PROTOCOL),
    Metric("ring.leave_count", "count", "sim", "lower", workloads=PROTOCOL),
    Metric("ring.leave_p50_ms", "ms", "sim", "lower", workloads=PROTOCOL),
    _self_s("core.pepper_ring", "core/pepper_ring.py"),
    Metric("ring.pointers_consistent", "0/1", "sim", "higher", workloads=PROTOCOL,
           about="Definition 5 at window end (all pooled rings)"),
    Metric("ring.connected", "0/1", "sim", "higher", workloads=PROTOCOL),
    # ---- datastore / replication ----------------------------------------------
    Metric("datastore.rpcs", "count", "sim", "lower", workloads=PROTOCOL,
           about="ds_* and pool_* RPCs except ds_probe"),
    Metric("datastore.store_rpcs", "count", "sim", "lower", workloads=PROTOCOL),
    Metric("datastore.merge_count", "count", "sim", "lower", workloads=PROTOCOL),
    Metric("datastore.merge_p50_ms", "ms", "sim", "lower", workloads=PROTOCOL),
    Metric("datastore.items_stranded", "count", "sim", "lower", workloads=PROTOCOL),
    _self_s("datastore", "datastore/"),
    Metric("replication.rpcs", "count", "sim", "lower", workloads=PROTOCOL, about="rep_* RPCs"),
    Metric("replication.items_lost", "count", "sim", "lower", workloads=PROTOCOL,
           about="count_lost_items at the end"),
    _self_s("replication", "replication/"),
    # ---- router ----------------------------------------------------------------
    Metric("router.probe_rpcs", "count", "sim", "lower", workloads=PROTOCOL, about="ds_probe"),
    Metric("router.table_rpcs", "count", "sim", "lower", workloads=PROTOCOL,
           about="route_table_entry"),
    Metric("router.route_hops_p50", "hops", "sim", "lower", workloads=PROTOCOL),
    Metric("router.route_hops_p95", "hops", "sim", "lower", workloads=PROTOCOL),
    Metric("router.hop_cap_hits", "count", "sim", "lower", workloads=PROTOCOL,
           about="routes that reached find_responsible's 512-hop cap"),
    Metric("router.route_p50_ms", "ms", "sim", "lower", workloads=PROTOCOL,
           about="query start -> scan start over completed queries"),
    _self_s("router", "router/"),
    # ---- serve -----------------------------------------------------------------
    Metric("serve.meta_rpcs", "count", "sim", "lower", workloads=PROTOCOL),
    Metric("serve.read_rpcs", "count", "sim", "lower", workloads=PROTOCOL),
    Metric("serve.replica_read_share", "ratio", "sim", "higher", workloads=READS),
    Metric("serve.replica_rejected", "count", "sim", "lower", workloads=PROTOCOL),
    Metric("serve.load_variance", "count", "sim", "lower", workloads=PROTOCOL,
           about="variance of per-member read load taken in the window"),
    Metric("serve.scan_p50_ms", "ms", "sim", "lower", workloads=PROTOCOL),
    _self_s("serve", "serve/"),
    _self_s("core.scan_range", "core/scan_range.py"),
    # ---- correctness -----------------------------------------------------------
    Metric("core.queries_checked", "count", "sim", "higher", workloads=PROTOCOL,
           about="complete results judged against Definition 4"),
    Metric("core.queries_violating", "count", "sim", "lower", workloads=PROTOCOL),
    Metric("core.queries_incomplete", "count", "sim", "lower", workloads=PROTOCOL,
           about="incomplete results plus queries unfinished at drain end"),
    _self_s("core.histories", "core/histories.py: the always-on recording cost"),
    _self_s("core.correctness", "core/correctness.py inside the window (the audit runs outside)"),
    # ---- index / maintenance ---------------------------------------------------
    _self_s("index", "index/"),
    _self_s("maintenance", "maintenance/"),
    Metric("maintenance.ping_fresh_skips", "count", "sim", "higher", workloads=PROTOCOL),
    # ---- harness ---------------------------------------------------------------
    Metric("harness.build_s", "s", "host", "lower", about="median build phase of the set-ups"),
    Metric("harness.settle_s", "s", "host", "lower", workloads=PROTOCOL),
    Metric("harness.cpu_s", "s", "host", "lower", about="process CPU time of the timed window"),
    Metric("harness.raw_wall_s", "s", "host", "lower",
           about="wall_s as the wall clock counted it, before the host-speed correction"),
    Metric("harness.host_speed", "ratio", "host", "higher",
           about="corrected / raw seconds of the window; 1 = the reference box's usual speed"),
    Metric("harness.audit_s", "s", "host", "lower", workloads=PROTOCOL,
           about="the audit's own cost, outside both windows"),
    Metric("harness.gen_lateness_ms", "ms", "sim", "lower", workloads=READS,
           about="latest issue instant minus due instant; zero by construction"),
    Metric("harness.trace_overhead", "ratio", "host", "lower", traced=True,
           about="traced wall_s / untraced wall_s"),
    _self_s("harness", "harness/, workloads/ and perfbench/"),
    _self_s("python.other", "everything else: stdlib frames and unclaimed packages"),
]

BY_NAME: Dict[str, Metric] = {metric.name: metric for metric in METRICS}
END_TO_END = [metric for metric in METRICS if metric.tier == "end_to_end"]
PER_LAYER = [metric for metric in METRICS if metric.tier != "end_to_end"]


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "perfbench"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }
