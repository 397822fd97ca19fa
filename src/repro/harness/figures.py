"""Per-figure reproduction of the paper's evaluation (Section 6).

Every figure deployment is an ordinary phased
:class:`~repro.harness.scenarios.ScenarioSpec` (one build phase) run by
:func:`_build`; the parameter sweeps of Figures 19/20/22
are declared as :class:`FigureSweep` tables executed by one generic
:func:`run_sweep` engine.  The ``figure_*`` functions are the entry points
(the tier-1 tests and the benchmark suite call them directly) and are also
exposed through ``ALL_FIGURES`` so ``repro-run figure_19`` resolves them by
name.

Absolute numbers differ from the paper (their testbed is a real LAN cluster;
ours is a simulator with a configurable latency model), but the comparisons
the paper draws -- which protocol is more expensive, how costs scale with
successor-list length, stabilization period, hop count and failure rate -- are
reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.correctness import ItemTimeline, check_query_result, count_lost_items
from repro.harness.experiment import ClusterExperiment
from repro.harness.reporting import format_table
from repro.harness.scenarios import (
    WAN_LATENCY,
    LatencySpec,
    PhaseSpec,
    ScenarioSpec,
    WorkloadSpec,
    build_experiment,
)


@dataclass
class FigureResult:
    """One reproduced figure: identifying metadata plus the plotted rows."""

    figure: str
    description: str
    headers: List[str]
    rows: List[Tuple] = field(default_factory=list)
    notes: str = ""

    def as_table(self) -> str:
        """The rows as an aligned text table (printed by the benchmarks)."""
        return f"{self.figure}: {self.description}\n" + format_table(self.headers, self.rows)

    def series(self, x_index: int = 0, y_index: int = 1) -> Dict:
        """A convenience ``x -> y`` mapping over the rows."""
        return {row[x_index]: row[y_index] for row in self.rows}

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (used by the BENCH emission)."""
        return {
            "figure": self.figure,
            "description": self.description,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "notes": self.notes,
        }


#: The latency every non-WAN figure runs under: the paper's LAN bounds.
PAPER_LAN = LatencySpec()


def _build(peers: int, items: int, seed: int, protocols: str = "pepper",
           config: Optional[Mapping] = None,
           latency: LatencySpec = PAPER_LAN) -> ClusterExperiment:
    """Build the deployment every figure uses: paper arrival shape, 20 s settle."""
    build = PhaseSpec(name="build", arrivals=peers - 1, workload=WorkloadSpec(items=items),
                      settle=20.0)
    spec = ScenarioSpec(name="figure_cell", phases=(build,), peers=peers, protocols=protocols,
                        seed=seed, config=config or {}, latency=latency)
    experiment = build_experiment(spec)
    experiment.run_phases(spec.phases, total_peers=peers)
    return experiment


# --------------------------------------------------------------------------- sweep engine
@dataclass(frozen=True)
class FigureSweep:
    """A declarative parameter sweep: one row per value, one build per variant."""

    figure: str
    description: str
    headers: Tuple[str, ...]
    notes: str
    values: Tuple
    # value -> (seed offset, IndexConfig overrides); each variant names the
    # protocol selection the overrides apply on top of.
    config_for: Callable[[Any], Tuple[int, Mapping]]
    # (value, {variant: built experiment}) -> one result row
    row: Callable[[Any, Dict[str, ClusterExperiment]], Tuple]
    variants: Tuple[str, ...] = ("naive", "pepper")
    # Optional post-build phase applied to every variant (e.g. forcing merges).
    prepare: Optional[Callable[[ClusterExperiment], None]] = None


def run_sweep(
    sweep: FigureSweep,
    values: Optional[Sequence] = None,
    peers: int = 18,
    items: int = 110,
    seed: int = 0,
    latency: LatencySpec = PAPER_LAN,
) -> FigureResult:
    """Execute a :class:`FigureSweep` and collect its rows.

    ``latency`` sets every cell's network model (the WAN variants pass
    :data:`~repro.harness.scenarios.WAN_LATENCY`); the default keeps the
    paper's LAN bounds.
    """
    rows = []
    for value in values if values is not None else sweep.values:
        built: Dict[str, ClusterExperiment] = {}
        offset, overrides = sweep.config_for(value)
        for variant in sweep.variants:
            experiment = _build(peers, items, seed + offset, variant, overrides, latency)
            if sweep.prepare is not None:
                sweep.prepare(experiment)
            built[variant] = experiment
        rows.append(sweep.row(value, built))
    return FigureResult(
        figure=sweep.figure,
        description=sweep.description,
        headers=list(sweep.headers),
        rows=rows,
        notes=sweep.notes,
    )


def _force_merges(experiment: ClusterExperiment) -> None:
    """Delete most items so Data Stores underflow and peers merge away."""
    keys = list(experiment.inserted_keys)
    victims = keys[: int(len(keys) * 0.8)]
    experiment.delete_items(victims, rate=4.0)
    experiment.settle(30.0)


def _insert_succ_row(value, built) -> Tuple:
    return (
        value,
        built["naive"].mean_metric("insert_succ") or 0.0,
        built["pepper"].mean_metric("insert_succ") or 0.0,
    )


SWEEPS: Dict[str, FigureSweep] = {
    "figure_19": FigureSweep(
        figure="Figure 19",
        description="insertSucc completion time vs. successor list length",
        headers=("succ_list_length", "naive_insertSucc_s", "pepper_insertSucc_s"),
        notes="PEPPER should sit above naive and grow slowly with the list length.",
        values=(2, 3, 4, 5, 6, 7, 8),
        config_for=lambda length: (length, {"successor_list_length": length}),
        row=_insert_succ_row,
    ),
    "figure_20": FigureSweep(
        figure="Figure 20",
        description="insertSucc completion time vs. ring stabilization period",
        headers=("stabilization_period_s", "naive_insertSucc_s", "pepper_insertSucc_s"),
        notes="PEPPER stays close to naive as the period grows (proactive nudging).",
        values=(2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0),
        config_for=lambda period: (int(period), {"stabilization_period": period}),
        row=_insert_succ_row,
    ),
    "figure_22": FigureSweep(
        figure="Figure 22",
        description="leave / merge overhead vs. successor list length",
        headers=(
            "succ_list_length",
            "merge_with_extra_hop_s",
            "safe_leave_s",
            "naive_leave_s",
        ),
        notes="Safe leave and merge are orders of magnitude above naive leave.",
        values=(2, 3, 4, 5, 6, 7, 8),
        config_for=lambda length: (length, {"successor_list_length": length}),
        prepare=_force_merges,
        row=lambda length, built: (
            length,
            built["pepper"].mean_metric("merge") or 0.0,
            built["pepper"].mean_metric("leave") or 0.0,
            built["naive"].mean_metric("leave") or 0.0,
        ),
    ),
}


# --------------------------------------------------------------------------- Figure 19
def figure_19(
    succ_lengths: Optional[Sequence[int]] = None,  # default: SWEEPS["figure_19"].values
    peers: int = 18,
    items: int = 110,
    seed: int = 19,
) -> FigureResult:
    """Figure 19: insertSucc time vs. successor-list length, PEPPER vs. naive.

    Paper: naive stays flat (~0.06 s); PEPPER is higher (~0.2-0.25 s) and grows
    slowly and linearly with the list length thanks to the proactive-predecessor
    optimisation.
    """
    return run_sweep(SWEEPS["figure_19"], values=succ_lengths, peers=peers, items=items, seed=seed)


# --------------------------------------------------------------------------- Figure 20
def figure_20(
    stabilization_periods: Optional[Sequence[float]] = None,  # default: SWEEPS["figure_20"].values
    peers: int = 18,
    items: int = 110,
    seed: int = 20,
) -> FigureResult:
    """Figure 20: insertSucc time vs. ring stabilization period.

    Paper: naive is flat; PEPPER grows only mildly with the stabilization period
    because the proactive nudges decouple it from the periodic rounds.
    """
    return run_sweep(
        SWEEPS["figure_20"], values=stabilization_periods, peers=peers, items=items, seed=seed
    )


# --------------------------------------------------------------------------- Figure 21
def figure_21(
    hop_targets: Sequence[int] = (1, 2, 4, 6, 8, 10),
    peers: int = 18,
    items: int = 110,
    queries_per_target: int = 4,
    seed: int = 21,
) -> FigureResult:
    """Figure 21: range-scan elapsed time vs. ring hops, scanRange vs. naive scan.

    Paper: the two curves lie on top of each other (scanRange adds essentially
    no overhead) and grow only slightly with the hop count on a LAN.
    """
    experiment = _build(peers, items, seed)
    index = experiment.index
    rng = index.rngs.stream("figure21")

    per_hops: Dict[int, Dict[str, List[float]]] = {}
    members = index.ring_members()
    if len(members) < 2:
        raise RuntimeError("figure_21 needs at least two ring members")
    for target in hop_targets:
        for _ in range(queries_per_target):
            members = index.ring_members()
            values = [peer.ring.value for peer in members]
            if len(values) < 3:
                continue
            start = rng.randrange(len(values) - 1)
            end = min(start + target, len(values) - 1)
            if end <= start:
                continue
            lb, ub = values[start], values[end]
            via = members[rng.randrange(len(members))]
            scan = index.run_process(via.queries.query(lb, ub, strategy="scan"))
            naive = index.run_process(via.queries.query(lb, ub, strategy="naive"))
            bucket = per_hops.setdefault(scan["hops"], {"scan": [], "naive": []})
            bucket["scan"].append(scan["scan_elapsed"])
            bucket["naive"].append(naive["scan_elapsed"])
            index.run(0.5)

    rows = []
    for hops in sorted(per_hops):
        bucket = per_hops[hops]
        if not bucket["scan"] or not bucket["naive"]:
            continue
        rows.append(
            (
                hops,
                sum(bucket["scan"]) / len(bucket["scan"]),
                sum(bucket["naive"]) / len(bucket["naive"]),
            )
        )
    return FigureResult(
        figure="Figure 21",
        description="range scan elapsed time vs. number of hops along the ring",
        headers=["hops", "scanRange_s", "naive_application_scan_s"],
        rows=rows,
        notes="The two strategies should track each other closely (no overhead).",
    )


# --------------------------------------------------------------------------- Figure 22
def figure_22(
    succ_lengths: Optional[Sequence[int]] = None,  # default: SWEEPS["figure_22"].values
    peers: int = 14,
    items: int = 90,
    seed: int = 22,
) -> FigureResult:
    """Figure 22: cost of leave / leave+merge vs. naive leave (log scale in the paper).

    Paper: the availability-preserving leave and the Data Store merge (which
    includes the extra-hop replication) cost on the order of 100 ms, roughly
    flat in the successor-list length, while the naive leave costs ~1 ms.
    """
    return run_sweep(SWEEPS["figure_22"], values=succ_lengths, peers=peers, items=items, seed=seed)


# --------------------------------------------------------------------------- Figure 23
def figure_23(
    failure_rates: Sequence[float] = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0),
    peers: int = 14,
    items: int = 90,
    extra_peers: int = 8,
    seed: int = 23,
    latency: LatencySpec = PAPER_LAN,
) -> FigureResult:
    """Figure 23: insertSucc time under peer failures (failure mode).

    Paper: the PEPPER insertSucc degrades gracefully, from ~0.2 s with no
    failures to ~1.2 s at one failure every 10 seconds (rate 10 per 100 s).
    """
    rows = []
    for rate in failure_rates:
        experiment = _build(peers, items, seed + int(rate), latency=latency)
        index = experiment.index

        before = len(index.metrics.values("insert_succ"))
        # Failure phase: keep adding peers and items (so splits keep invoking
        # insertSucc) while killing ring members at the requested rate.
        if rate > 0:
            index.sim.process(
                experiment._membership_driver(
                    _failure_events(experiment, rate, duration=100.0)
                ),
                name="driver:failures",
            )
        new_keys = [
            key + 0.37
            for key in experiment.inserted_keys[: items // 2]
        ]
        experiment.grow(extra_peers, period=3.0, settle=20.0)
        experiment.insert_items(new_keys, rate=2.0)
        experiment.settle(20.0)

        values = index.metrics.values("insert_succ")[before:]
        mean = sum(values) / len(values) if values else 0.0
        rows.append((rate, mean, len(values)))
    return FigureResult(
        figure="Figure 23",
        description="insertSucc completion time vs. peer failure rate",
        headers=["failures_per_100s", "pepper_insertSucc_s", "samples"],
        rows=rows,
        notes="insertSucc slows down with the failure rate but stays bounded.",
    )


def _failure_events(experiment: ClusterExperiment, rate: float, duration: float):
    from repro.workloads.churn import failure_schedule

    rng = experiment.index.rngs.stream("figure23-failures")
    return failure_schedule(rate, duration, rng, start=experiment.index.sim.now + 1.0)


# --------------------------------------------------------------------------- WAN variants
# The same sweeps with peers spread over 4 sites and 20-80 ms cross-site
# round-trips: the paper's cost *orderings* (PEPPER above naive, growth with
# list length / stabilization period / failure rate) must survive WAN
# conditions even though every absolute number scales with the round-trip.
def _wan_result(result: FigureResult) -> FigureResult:
    result.figure += " (WAN)"
    result.description += " under 4-site LAN/WAN latency"
    return result


def figure_19_wan(
    succ_lengths: Optional[Sequence[int]] = None,
    peers: int = 18,
    items: int = 110,
    seed: int = 19,
) -> FigureResult:
    """Figure 19 rerun under the two-tier LAN/WAN latency model (4 sites)."""
    return _wan_result(
        run_sweep(
            SWEEPS["figure_19"],
            values=succ_lengths,
            peers=peers,
            items=items,
            seed=seed,
            latency=WAN_LATENCY,
        )
    )


def figure_20_wan(
    stabilization_periods: Optional[Sequence[float]] = None,
    peers: int = 18,
    items: int = 110,
    seed: int = 20,
) -> FigureResult:
    """Figure 20 rerun under the two-tier LAN/WAN latency model (4 sites)."""
    return _wan_result(
        run_sweep(
            SWEEPS["figure_20"],
            values=stabilization_periods,
            peers=peers,
            items=items,
            seed=seed,
            latency=WAN_LATENCY,
        )
    )


def figure_23_wan(
    failure_rates: Sequence[float] = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0),
    peers: int = 14,
    items: int = 90,
    extra_peers: int = 8,
    seed: int = 23,
) -> FigureResult:
    """Figure 23 rerun under the two-tier LAN/WAN latency model (4 sites)."""
    return _wan_result(
        figure_23(
            failure_rates,
            peers=peers,
            items=items,
            extra_peers=extra_peers,
            seed=seed,
            latency=WAN_LATENCY,
        )
    )


# --------------------------------------------------------------------------- Ablation A1
def ablation_query_correctness(
    peers: int = 14,
    items: int = 90,
    queries: int = 20,
    seed: int = 41,
) -> FigureResult:
    """Ablation A1 (Section 4.2): query-correctness violations under churn.

    Runs the same churny workload twice -- once answering queries with
    scanRange, once with the naive application-level scan -- and counts queries
    that miss items which were live throughout their execution (Definition 4).
    scanRange should report zero violations.
    """
    rows = []
    for strategy in ("scan", "naive"):
        config = {"use_scan_range": False} if strategy == "naive" else {}
        experiment = _build(peers, items, seed, config=config)
        index = experiment.index
        rng = index.rngs.stream("ablation-a1")

        # Background churn: keep deleting and re-inserting items so splits,
        # merges and redistributions overlap with the queries.
        churn_keys = list(experiment.inserted_keys)
        index.sim.process(
            _item_churn_driver(experiment, churn_keys, rng), name="driver:item-churn"
        )

        violations = 0
        executed = 0
        for _ in range(queries):
            members = index.ring_members()
            if len(members) < 3:
                break
            values = [peer.ring.value for peer in members]
            start = rng.randrange(len(values) - 2)
            end = min(start + rng.randrange(2, 6), len(values) - 1)
            lb, ub = values[start], values[end]
            if ub <= lb:
                continue
            outcome = experiment.run_query(lb, ub)
            executed += 1
            index.run(1.0)
            timeline = ItemTimeline(index.history.history())
            check = check_query_result(timeline, outcome.record)
            if not check.ok:
                violations += 1
        rows.append((strategy, executed, violations))
    return FigureResult(
        figure="Ablation A1",
        description="range queries missing live items under churn (Definition 4)",
        headers=["strategy", "queries", "violating_queries"],
        rows=rows,
        notes="scanRange must report zero violations; the naive scan may miss items.",
    )


def _item_churn_driver(experiment: ClusterExperiment, keys: List[float], rng):
    """Continuously delete and re-insert items to force Data Store maintenance."""
    index = experiment.index
    while True:
        yield index.sim.timeout(0.4)
        if not keys:
            return
        key = rng.choice(keys)
        yield from index.delete_item(key)
        yield index.sim.timeout(0.4)
        yield from index.insert_item(key, payload="churned")


# --------------------------------------------------------------------------- Ablation A2
def ablation_availability(
    peers: int = 12,
    items: int = 80,
    seed: int = 42,
) -> FigureResult:
    """Ablation A2 (Section 5): item loss and ring health after merges + a failure.

    Forces Data Store merges (peers leaving the ring) and then fails a peer.
    With the extra-hop replication and the availability-preserving leave no
    items should be lost; with the naive baselines, items can disappear (the
    Figure 17 scenario).
    """
    rows = []
    for label in ("pepper", "naive"):
        config = {"replication_factor": 1}
        if label == "naive":
            config.update(extra_hop_replication=False, safe_leave=False)
        experiment = _build(peers, items, seed, config=config)
        index = experiment.index

        merges_before = index.metrics.count("merge")
        keys = list(experiment.inserted_keys)
        experiment.delete_items(keys[: int(len(keys) * 0.7)], rate=4.0)
        merges = index.metrics.count("merge") - merges_before

        # Fail one surviving ring member immediately after the merges.
        members = index.ring_members()
        if len(members) > 2:
            index.fail_peer(members[len(members) // 2].address)
        experiment.settle(40.0)

        lost = count_lost_items(index.history.history(), index.live_peers())
        rows.append((label, merges, len(lost)))
    return FigureResult(
        figure="Ablation A2",
        description="items lost after merges followed by a single failure",
        headers=["protocols", "merges", "lost_items"],
        rows=rows,
        notes="The paper's protocols must lose nothing; the naive baseline may.",
    )


# --------------------------------------------------------------------------- registry
ALL_FIGURES = {
    "figure_19": figure_19,
    "figure_19_wan": figure_19_wan,
    "figure_20": figure_20,
    "figure_20_wan": figure_20_wan,
    "figure_21": figure_21,
    "figure_22": figure_22,
    "figure_23": figure_23,
    "figure_23_wan": figure_23_wan,
    "ablation_query_correctness": ablation_query_correctness,
    "ablation_availability": ablation_availability,
}
