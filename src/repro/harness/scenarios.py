"""Declarative scenario registry: one spec = one reproducible deployment cell.

The paper's evaluation runs a single 30-peer LAN deployment; everything the
harness measured was hard-wired to that shape.  A :class:`ScenarioSpec`
instead *describes* a deployment -- its size, a lifecycle of phases (each
binding arrivals, churn, an item workload, a query mix or open-loop serve
traffic), protocol selection, network conditions
(:class:`LatencySpec`, resolved through
:func:`repro.sim.network.latency_model_from_params`) and index configuration
-- and the driver executes any spec through the same code path.

Scenarios are registered by name in a process-global registry, so experiments
become one-liners::

    from repro.harness.scenarios import get_scenario, run_spec
    result = run_spec(get_scenario("churn_heavy"), seed=3)

``repro-run <name>`` (see :mod:`repro.cli`) and the multiprocessing cell
runner (:mod:`repro.harness.runner`) resolve names through the same registry.

Adding a scenario is one :func:`register` call; see the built-in definitions
at the bottom of this module for templates.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.census import state_census
from repro.harness.experiment import ClusterExperiment
from repro.harness.metrics import nearest_rank
from repro.harness.phases import (
    ChurnSpec,
    PhaseResult,
    PhaseSpec,
    QueryMixSpec,
    ServeSpec,
    WorkloadSpec,
    validate_phases,
)
from repro.index.config import IndexConfig
from repro.sim.network import (
    CROSS_SITE_LATENCY_METRIC,
    INTRA_SITE_LATENCY_METRIC,
    LatencyModel,
    latency_model_from_params,
)

__all__ = [
    "ChurnSpec",
    "LatencySpec",
    "PhaseResult",
    "PhaseSpec",
    "QueryMixSpec",
    "ScenarioResult",
    "ScenarioSpec",
    "ScenarioSuite",
    "ServeSpec",
    "WorkloadSpec",
    "build_experiment",
    "get_scenario",
    "get_suite",
    "register",
    "register_suite",
    "run_spec",
    "scenario_names",
    "suite_names",
]


# --------------------------------------------------------------------------- spec dataclasses
# WorkloadSpec / ChurnSpec / QueryMixSpec / PhaseSpec live in
# :mod:`repro.harness.phases` (the executor needs them too) and are
# re-exported here, their historical home.
@dataclass(frozen=True)
class LatencySpec:
    """The network conditions of a scenario.

    ``model`` names a registered latency model (``constant`` / ``uniform`` /
    ``lan_wan``); ``None`` keeps whatever the resolved :class:`IndexConfig`
    already carries (the paper's LAN bounds by default).  ``params`` are flat
    keyword arguments for the model -- ``lan_wan`` takes ``sites`` plus the
    flattened ``lan_low``/``lan_high``/``wan_low``/``wan_high`` bounds (see
    :func:`repro.sim.network.latency_model_from_params`).
    """

    model: Optional[str] = None
    params: Mapping = field(default_factory=dict)

    def build_model(self) -> Optional[LatencyModel]:
        """Instantiate (and validate) the configured model, or ``None``."""
        if self.model is None:
            return None
        return latency_model_from_params(self.model, **dict(self.params))


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, named description of one experiment cell.

    The lifecycle is the ``phases`` tuple of
    :class:`~repro.harness.phases.PhaseSpec`, executed in order by
    :meth:`ClusterExperiment.run_phases`; everything else selects the index
    configuration the phases run on.
    """

    name: str
    phases: Tuple[PhaseSpec, ...]
    description: str = ""
    peers: int = 30  # deployment size
    protocols: str = "pepper"  # pepper | naive
    seed: int = 0
    # IndexConfig field overrides, applied after ``protocols``, so one
    # protocol flag can be turned off: {"safe_leave": False}.
    config: Mapping = field(default_factory=dict)
    latency: LatencySpec = LatencySpec()

    # -- derived -----------------------------------------------------------
    def index_config(self, seed: Optional[int] = None) -> IndexConfig:
        """Resolve the spec into a validated :class:`IndexConfig`."""
        config = IndexConfig(seed=self.seed if seed is None else seed)
        latency_model = self.latency.build_model()
        if latency_model is not None:
            config = config.copy(
                network=replace(config.network, latency_model=latency_model)
            )
        if self.protocols == "pepper":
            config = config.with_pepper_protocols()
        elif self.protocols == "naive":
            config = config.with_naive_protocols()
        else:
            raise ValueError(f"unknown protocol selection {self.protocols!r}")
        config = config.copy(**dict(self.config))
        config.validate()
        return config

    def with_(self, **overrides) -> "ScenarioSpec":
        """A copy with the given top-level fields replaced."""
        return replace(self, **overrides)

    def total_items(self) -> int:
        """Items the phases insert (the ``items_requested`` figure)."""
        return sum(
            phase.workload.items for phase in self.phases if phase.workload is not None
        )


@dataclass
class ScenarioResult:
    """Everything a scenario run measured, JSON-serialisable via :meth:`as_dict`."""

    scenario: str
    seed: int
    wall_clock_s: float
    sim_time_s: float
    events_processed: int
    events_per_wall_s: float
    peers_requested: int
    ring_members: int
    free_peers: int
    items_requested: int
    items_stored: int
    rpc_calls: int
    rpc_timeouts: int
    messages_sent: int
    # RPC count per method name (e.g. ``ring_ping`` is the validation loops'
    # traffic, ``route_table_entry`` the hops of the router's table walks and
    # ``route_table_done`` one per walk that came back).
    rpc_per_method: Dict[str, int] = field(default_factory=dict)
    # Which transport carried the cell's messages ("sim" or "asyncio").
    transport: str = "sim"
    # Scan-vs-store audit (see PRingIndex.reachability): copies a full scan
    # would return vs. copies stranded outside their holder's range.  The CI
    # bench gate asserts items_reachable == items_stored.
    items_reachable: int = 0
    items_stranded: int = 0
    queries_run: int = 0
    queries_complete: int = 0
    # Query latency summary over every executed query (count/mean/p50/p95/p99,
    # seconds); empty when the cell ran no queries.
    query_latency: Dict[str, float] = field(default_factory=dict)
    # Mean ring hops a query's scan took across its range (0.0 with no queries).
    query_mean_hops: float = 0.0
    # Serve-phase observables (zero/absent when the cell had no serve phase):
    # open-loop queries recorded, how many returned exactly the reachable key
    # set of their window, and the population variance of per-peer read load
    # over the final ring membership (the replica_lb balancing observable).
    serve_queries: int = 0
    serve_correct: int = 0
    serve_load_variance: float = 0.0
    correlated_failures_injected: int = 0
    metrics: Dict[str, Dict[str, float]] = field(default_factory=dict)
    # Site-aware network diagnostics (populated only under a lan_wan model).
    per_site_rpcs: Dict[str, int] = field(default_factory=dict)
    latency_histograms: Dict[str, Dict[str, int]] = field(default_factory=dict)
    # Per-phase measurements (serialised PhaseResult dicts, execution order);
    # the event/RPC deltas sum to the scenario totals above.
    phases: List[Dict[str, Any]] = field(default_factory=list)
    # The end-state census (:func:`repro.core.census.state_census`), taken
    # once after the last phase.
    state: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)


# --------------------------------------------------------------------------- execution
# Metric series summarised into every result (when observed during the run).
_REPORTED_METRICS = (
    "insert_succ",
    "merge",
    "leave",
    "route_hops",
    "join_redirect",
    "serve_read_primary",
    "serve_read_replica",
    "scan_window_pruned",
    INTRA_SITE_LATENCY_METRIC,
    CROSS_SITE_LATENCY_METRIC,
)

# Histogram bucket edges (seconds) for the per-message latency series: the
# first three cover the paper's LAN band, the rest the WAN round-trip band.
LATENCY_HISTOGRAM_EDGES = (0.001, 0.003, 0.01, 0.03, 0.06, 0.1)


def build_experiment(spec: ScenarioSpec, seed: Optional[int] = None) -> ClusterExperiment:
    """Materialise the spec into an (unbuilt) :class:`ClusterExperiment`."""
    return ClusterExperiment(spec.index_config(seed))


def run_spec(spec: ScenarioSpec, seed: Optional[int] = None) -> ScenarioResult:
    """Execute one scenario cell and collect its measurements.

    The spec's phases are validated and run through
    :meth:`ClusterExperiment.run_phases`; the result carries both the
    scenario totals and the per-phase breakdown.
    """
    validate_phases(spec.phases)
    seed = spec.seed if seed is None else seed
    started = time.perf_counter()
    experiment = build_experiment(spec, seed)
    try:
        phase_results, outcomes, correlated = experiment.run_phases(
            spec.phases, total_peers=spec.peers
        )
        return _finalize_result(
            experiment, spec, seed, started, phase_results, outcomes, correlated
        )
    finally:
        # Release transport resources (asyncio sockets and loops; a no-op
        # for the simulated transport) even when a phase raises.
        experiment.index.shutdown()


def _finalize_result(
    experiment: ClusterExperiment,
    spec: ScenarioSpec,
    seed: int,
    started: float,
    phase_results: List[PhaseResult],
    outcomes: List,
    correlated: List[str],
) -> ScenarioResult:
    index = experiment.index
    wall = time.perf_counter() - started
    audit = index.reachability()
    elapsed = sorted(outcome.elapsed for outcome in outcomes)
    query_latency: Dict[str, float] = {}
    if elapsed:
        query_latency = {
            "count": float(len(elapsed)),
            "mean": sum(elapsed) / len(elapsed),
            "p50": nearest_rank(elapsed, 0.50),
            "p95": nearest_rank(elapsed, 0.95),
            "p99": nearest_rank(elapsed, 0.99),
        }
    serve_outcomes = [outcome for outcome in outcomes if outcome.correct is not None]
    metrics = {}
    for name in _REPORTED_METRICS:
        summary = index.metrics.summary(name)
        if summary is not None:
            metrics[name] = summary.as_dict()
    latency_histograms = {}
    for name in (INTRA_SITE_LATENCY_METRIC, CROSS_SITE_LATENCY_METRIC):
        histogram = index.metrics.histogram(name, LATENCY_HISTOGRAM_EDGES)
        if histogram:
            latency_histograms[name] = histogram

    return ScenarioResult(
        scenario=spec.name,
        seed=seed,
        wall_clock_s=wall,
        sim_time_s=index.sim.now,
        events_processed=index.sim.events_processed,
        events_per_wall_s=index.sim.events_processed / wall if wall > 0 else 0.0,
        peers_requested=spec.peers,
        ring_members=len(index.ring_members()),
        free_peers=len(index.free_peers()),
        items_requested=spec.total_items(),
        items_stored=index.total_stored_items(),
        rpc_calls=index.network.stats.rpc_calls,
        rpc_timeouts=index.network.stats.rpc_timeouts,
        messages_sent=index.network.stats.messages_sent,
        rpc_per_method=dict(index.network.stats.per_method),
        transport=index.transport.name,
        items_reachable=audit.items_reachable,
        items_stranded=audit.items_stranded,
        queries_run=len(outcomes),
        queries_complete=sum(1 for outcome in outcomes if outcome.complete),
        query_latency=query_latency,
        query_mean_hops=(
            sum(outcome.hops for outcome in outcomes) / len(outcomes) if outcomes else 0.0
        ),
        serve_queries=len(serve_outcomes),
        serve_correct=sum(1 for outcome in serve_outcomes if outcome.correct),
        serve_load_variance=index.serve_tracker.read_load_variance(
            [peer.address for peer in index.ring_members()]
        ),
        correlated_failures_injected=len(correlated),
        metrics=metrics,
        per_site_rpcs=dict(index.network.stats.per_site_rpcs),
        latency_histograms=latency_histograms,
        phases=[phase.as_dict() for phase in phase_results],
        state=state_census(index),
    )


# --------------------------------------------------------------------------- registry
@dataclass(frozen=True)
class ScenarioSuite:
    """A named group of scenarios run as one batch (e.g. a scaling sweep)."""

    name: str
    scenarios: Tuple[str, ...]
    description: str = ""
    bench_name: Optional[str] = None  # BENCH_<bench_name>.json override


_SCENARIOS: Dict[str, ScenarioSpec] = {}
_SUITES: Dict[str, ScenarioSuite] = {}


def register(spec: ScenarioSpec, replace_existing: bool = False) -> ScenarioSpec:
    """Add ``spec`` to the registry (idempotent only with ``replace_existing``)."""
    if spec.name in _SCENARIOS and not replace_existing:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    _SCENARIOS[spec.name] = spec
    return spec


def register_suite(suite: ScenarioSuite, replace_existing: bool = False) -> ScenarioSuite:
    if suite.name in _SUITES and not replace_existing:
        raise ValueError(f"suite {suite.name!r} is already registered")
    for name in suite.scenarios:
        if name not in _SCENARIOS:
            raise ValueError(f"suite {suite.name!r} references unknown scenario {name!r}")
    _SUITES[suite.name] = suite
    return suite


def get_scenario(name: str) -> ScenarioSpec:
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {', '.join(sorted(_SCENARIOS))}"
        ) from None


def get_suite(name: str) -> ScenarioSuite:
    try:
        return _SUITES[name]
    except KeyError:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(sorted(_SUITES))}") from None


def scenario_names() -> List[str]:
    return sorted(_SCENARIOS)


def suite_names() -> List[str]:
    return sorted(_SUITES)


# --------------------------------------------------------------------------- built-in scenarios
# The paper's Section 6.1 deployment, exactly.
register(
    ScenarioSpec(
        name="paper_default",
        description="the paper's 30-peer LAN deployment (Section 6.1)",
        peers=30,
        phases=(
            PhaseSpec(name="build", arrivals=29, workload=WorkloadSpec(items=180), settle=30.0),
            PhaseSpec(name="queries", queries=QueryMixSpec(count=10)),
        ),
    )
)

# A seconds-scale cell for CI smoke runs.
register(
    ScenarioSpec(
        name="smoke",
        description="tiny deployment used by CI to smoke-test the registry pipeline",
        peers=8,
        phases=(
            PhaseSpec(name="build", arrivals=7, arrival_period=1.0,
                      workload=WorkloadSpec(items=50, insert_rate=4.0), settle=15.0),
            PhaseSpec(name="queries", queries=QueryMixSpec(count=5)),
        ),
    )
)

# Zipf-skewed inserts: repeated splits concentrate in a few hot slices.
register(
    ScenarioSpec(
        name="zipf_hotspot",
        description="Zipf(1.1) keys hammer one region of the ring (split storm)",
        peers=30,
        phases=(
            PhaseSpec(name="build", arrivals=29, settle=30.0,
                      workload=WorkloadSpec(items=220, distribution="zipf", params={"alpha": 1.1})),
            PhaseSpec(name="queries", queries=QueryMixSpec(count=10, selectivity=0.01)),
        ),
    )
)

# A flash crowd: most of the cohort arrives in a two-second burst.
register(
    ScenarioSpec(
        name="flash_crowd",
        description="25-peer flash crowd joins an established 6-peer ring",
        peers=6,
        phases=(
            PhaseSpec(name="build", arrivals=5, arrival_period=1.0,
                      churn=ChurnSpec(flash_crowd_peers=25, flash_crowd_at=20.0),
                      workload=WorkloadSpec(items=200, insert_rate=4.0), settle=30.0),
            PhaseSpec(name="queries", queries=QueryMixSpec(count=10)),
        ),
    )
)

# Steady churn at the top of Figure 23's failure-rate axis.
register(
    ScenarioSpec(
        name="churn_heavy",
        description="12 failures per 100 s while items keep arriving (Figure 23 regime)",
        peers=30,
        phases=(
            PhaseSpec(name="build", arrivals=29, workload=WorkloadSpec(items=180), settle=30.0),
            PhaseSpec(name="failures",
                      churn=ChurnSpec(failure_rate_per_100s=12.0, failure_window=100.0)),
            PhaseSpec(name="queries", queries=QueryMixSpec(count=10)),
        ),
    )
)

# A correlated rack outage after the ring settles.
register(
    ScenarioSpec(
        name="correlated_failures",
        description="five ring members fail simultaneously after the build phase",
        peers=24,
        phases=(
            PhaseSpec(name="build", arrivals=23, workload=WorkloadSpec(items=150), settle=30.0),
            PhaseSpec(name="outage", churn=ChurnSpec(correlated_failures=5), settle=30.0),
            PhaseSpec(name="queries", queries=QueryMixSpec(count=10)),
        ),
    )
)

# ---- scaling sweep ---------------------------------------------------------
# Production-style tuning: joins arrive as a flash crowd (free peers enter the
# ring on demand anyway), items stream in fast, and the periodic protocols run
# at a relaxed cadence so maintenance traffic scales with peer count rather
# than dominating it.  Every cell keeps churn enabled, per the acceptance bar.
#
# The lifecycle is build -> settle -> stress: the build phase plays the join
# crowd and the item stream with *no* failures, the settle phase starts only
# once the split cascade has been quiescent for a full window, and only then
# does the stress phase open the failure window and run the query mix.  With
# an ungated build -> failures shape the failure window raced the split
# cascade, which made end-state membership swing ~±15% across seeds; gating
# stress on quiescence pins the pre-failure state and shrinks the spread to a
# few %.
def _scale_spec(name: str, peers: int, description: str) -> ScenarioSpec:
    items = peers * 8  # ~storage factor x 1.6 so splits pull most peers into the ring
    workload = WorkloadSpec(items=items, insert_rate=max(8.0, peers / 8.0))
    return ScenarioSpec(
        name=name,
        description=description,
        peers=peers,
        phases=(
            PhaseSpec(
                name="build",
                description="join crowd + item stream, failure-free",
                arrivals=1,  # one staggered arrival; the crowd below brings the rest
                arrival_period=1.0,
                churn=ChurnSpec(
                    flash_crowd_peers=peers - 2,
                    flash_crowd_at=1.0,
                    flash_crowd_spacing=0.02,
                ),
                workload=workload,
                settle=5.0,
            ),
            PhaseSpec(
                name="settle",
                description="wait out the split cascade (quiescence-gated)",
                start_quiescence=10.0,
                start_timeout=600.0,
                settle=2.0,
            ),
            PhaseSpec(
                name="stress",
                description="steady failure window + query mix",
                churn=ChurnSpec(
                    failure_rate_per_100s=min(12.0, peers / 25.0),
                    failure_window=60.0,
                ),
                queries=QueryMixSpec(count=10, selectivity=0.005),
                settle=10.0,
            ),
        ),
        config={
            "stabilization_period": 8.0,
            "router_refresh_period": 16.0,
        },
    )


register(_scale_spec("scale_100", 100, "100-peer deployment with churn"))
register(_scale_spec("scale_300", 300, "300-peer deployment with churn"))
register(_scale_spec("scale_1000", 1000, "1000-peer deployment with churn"))
register(_scale_spec("scale_3000", 3000, "3000-peer deployment with churn"))
register(_scale_spec("scale_5000", 5000, "5000-peer deployment with churn"))

register_suite(
    ScenarioSuite(
        name="scale_sweep",
        scenarios=("scale_100", "scale_300", "scale_1000"),
        description="wall-clock and event-throughput across 100..1000 peers",
        bench_name="scale",
    )
)
register_suite(
    ScenarioSuite(
        name="scale_sweep_deep",
        scenarios=("scale_3000", "scale_5000"),
        description="the 3000/5000-peer cells (hours-scale; the weekly deep bench)",
        bench_name="scale_deep",
    )
)

# ---- WAN conditions --------------------------------------------------------
# The same scale cells under the two-tier LAN/WAN latency model: peers hash
# into 4 sites, cross-site messages pay a 20-80 ms round trip instead of the
# paper's sub-3 ms LAN.  Hop-count and maintenance-cost claims only matter if
# they survive this regime (cf. Chord's WAN evaluation); the cells also feed
# the per-site RPC counts and intra/cross-site latency histograms.
WAN_LATENCY = LatencySpec(model="lan_wan", params={"sites": 4})


def _wan_variant(base_name: str) -> ScenarioSpec:
    base = get_scenario(base_name)
    return base.with_(
        name=f"{base_name}_wan",
        description=f"{base.description}, 4-site LAN/WAN latency",
        latency=WAN_LATENCY,
    )


register(_wan_variant("scale_100"))
register(_wan_variant("scale_300"))
register(_wan_variant("scale_1000"))
register_suite(
    ScenarioSuite(
        name="scale_sweep_wan",
        scenarios=("scale_100_wan", "scale_300_wan", "scale_1000_wan"),
        description="the scaling sweep under 4-site LAN/WAN cross-site latency",
        bench_name="scale_wan",
    )
)

# ---- localhost transport cells ----------------------------------------------
# Real-network deployments: the same protocol code over asyncio UDP sockets on
# 127.0.0.1, one wall-clock second per scenario second.  Each asyncio cell has
# an in-sim twin differing in exactly the transport setting, so the pair is the
# sim-fidelity referee: run both, compare end states.
#
# The cells are *saturating* by design -- the item count (12 per peer) exceeds
# the deployment's overflow capacity (10 per peer), so the split cascade must
# recruit every free peer before the pressure can stop.  The converged end
# state is therefore exact on both substrates regardless of message-timing
# jitter: all peers in the ring, zero free.  Both phases use fixed settles
# (never a quiescence gate), so the two transports run the same total
# duration and the periodic-loop RPC volumes stay directly comparable (the
# documented fidelity band is ±15% per method; see docs/SCENARIOS.md).
def _localhost_spec(
    name: str,
    peers: int,
    transport_name: str,
    insert_rate: float,
    grow_settle: float,
    description: str,
) -> ScenarioSpec:
    items = peers * 12  # > overflow capacity (2 x storage factor = 10 per peer)
    return ScenarioSpec(
        name=name,
        description=description,
        peers=peers,
        config={"transport": transport_name},
        phases=(
            PhaseSpec(
                name="build",
                description="join crowd + saturating item stream, failure-free",
                arrivals=1,  # one staggered arrival; the crowd below brings the rest
                arrival_period=1.0,
                churn=ChurnSpec(
                    flash_crowd_peers=peers - 2,
                    flash_crowd_at=1.0,
                    flash_crowd_spacing=0.05,
                ),
                workload=WorkloadSpec(items=items, insert_rate=insert_rate),
                settle=5.0,
            ),
            PhaseSpec(
                name="grow",
                description="fixed settle window for the split cascade (no quiescence gate)",
                settle=grow_settle,
            ),
        ),
    )


register(
    _localhost_spec(
        "localhost_20",
        20,
        "asyncio",
        24.0,
        30.0,
        "20-peer cell over real asyncio UDP sockets (CI transport smoke, ~50 wall s)",
    )
)
register(
    _localhost_spec(
        "localhost_20_sim",
        20,
        "sim",
        24.0,
        30.0,
        "in-sim twin of localhost_20 (transport-fidelity reference)",
    )
)
register(
    _localhost_spec(
        "localhost_100",
        100,
        "asyncio",
        40.0,
        45.0,
        "100-peer cell over real asyncio UDP sockets on localhost (~80 wall s)",
    )
)
register(
    _localhost_spec(
        "localhost_100_sim",
        100,
        "sim",
        40.0,
        45.0,
        "in-sim twin of localhost_100 (transport-fidelity reference)",
    )
)
register_suite(
    ScenarioSuite(
        name="localhost_fidelity",
        scenarios=("localhost_100_sim", "localhost_100"),
        description="the 100-peer sim/asyncio twin pair: the sim-fidelity referee (real wall-clock run)",
        bench_name="localhost",
    )
)

# ---- serve cells ------------------------------------------------------------
# Open-loop zipf serving on a settled deployment: the build and quiescence
# phases of the scale cells, then a serve phase with Poisson arrivals over 8
# zipf-ranked hotspot windows and *no* churn (so every query has one correct
# answer and routing policies are comparable at equal correctness).  Each size
# is a pair differing only in the routing policy -- ``replica_lb`` (the
# default cell) vs ``primary`` -- which makes the suite the
# read-routing ablation: same arrivals, same hotspots, same deployment,
# different read paths.  The observables are the ``query_latency`` block
# (open-loop p50/p99) and ``serve_load_variance`` (per-peer read-load
# spread; replica_lb's whole point is shrinking it on hot windows).
def _serve_spec(name: str, peers: int, routing: str, description: str) -> ScenarioSpec:
    base = _scale_spec(name, peers, description)
    build, settle, _stress = base.phases
    return base.with_(
        phases=(
            build,
            settle,
            PhaseSpec(
                name="serve",
                description=f"open-loop zipf serve window, routing={routing}",
                serve=ServeSpec(
                    arrival_rate=20.0,
                    duration=10.0,
                    routing=routing,
                    # Narrow windows: each hotspot lands on one-or-two owners,
                    # the regime where primary routing melts a single peer
                    # while its replicas idle (wide windows already spread
                    # over many owners and dilute the ablation).  Scaled with
                    # the deployment so the owner count per window stays put
                    # as per-peer range shares shrink.
                    selectivity=1.5 / peers,
                ),
                settle=2.0,
            ),
        )
    )


def _serve_pair(peers: int) -> None:
    for routing, suffix in (("replica_lb", ""), ("primary", "_primary")):
        register(
            _serve_spec(
                f"serve_{peers}_zipf{suffix}",
                peers,
                routing,
                f"{peers}-peer settled ring serving open-loop zipf reads ({routing} routing)",
            )
        )


_serve_pair(300)
_serve_pair(1000)

register_suite(
    ScenarioSuite(
        name="serve_sweep",
        scenarios=("serve_1000_zipf", "serve_1000_zipf_primary"),
        description="the 1000-peer read-routing ablation: replica_lb vs primary at equal correctness",
        bench_name="serve",
    )
)
