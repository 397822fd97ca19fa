"""The four workloads: what each sets up, what it times, what it counts.

A workload run sets up one or more *rings* (deployments built from nothing,
seeds ``100 * seed``, ``100 * seed + 1``, ...) and times one or more *windows*
on each.
Set-ups and windows are timed; the audit after each window is outside both.
The host is noisy in episodes of seconds to minutes, and under churn so is the
trajectory (of sixty mixed_300 rings the costliest cost 1.8 times the
cheapest), so what a run reports as its cost is the *median window's*, scaled to
the whole run: ``wall_s`` is the number of windows times the median window,
``msgs_per_peer_s`` the median window's, ``setup_s`` the median set-up's.
Operation samples (latencies, hops) and every count are pooled over all
windows.  Host durations are read from the corrected host clock
(:mod:`perfbench.hostclock`).

A window is fixed work -- a function of the workload, the seed and
``--seconds`` only -- so every simulated-clock number is bit-identical for a
fixed commit and seed, whatever the host does.  ``--seconds`` sizes that work
(:func:`sizing`); it is not a wall-clock cut-off, which would make the
simulated numbers depend on host speed.
"""

from __future__ import annotations

import gc
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.harness.metrics import nearest_rank
from repro.harness.scenarios import ScenarioSpec, build_experiment, get_scenario, scenario_names
from repro.sim.engine import make_simulator
from repro.sim.network import ConstantLatency, Network, NetworkConfig
from repro.transport import Endpoint, RpcError

from perfbench import loadgen
from perfbench.audit import Audit, audit_deployment
from perfbench.catalogue import CHURN, ENGINE_RPC, MIXED, SERVE
from perfbench.hostclock import HostClock
from perfbench.loadgen import DELETE, INSERT, QUERY, Op, OpenLoopDriver

# Metric series of the deployment's collector read as deltas around a window.
_SERIES = (
    "insert_succ",
    "leave",
    "merge",
    "route_hops",
    "ring_ping_fresh_skip",
    "serve_read_primary",
    "serve_read_replica",
    "serve_replica_rejected",
)
_HOP_CAP = 512  # find_responsible's max_hops: a route that reaches it gave up

# Open-loop arrivals per simulated second: (reads, inserts, deletes).  mixed_300
# runs at half the rates of the issue's sketch so that a run can afford five
# rings of 60 s: what its cost depends on is how many failures it has seen.
RATES = {SERVE: (20.0, 0.0, 0.0), MIXED: (10.0, 5.0, 2.5)}
FAILURES_PER_100S = 12.0
DRAIN_S = 10.0
# On the static serve ring a route that runs into the hop cap runs into it
# again on every retry (the failed share is the same at 3.5, 10 and 30 s), so
# a longer timeout only adds probes.  3 s is one full routing attempt at 1000
# peers: it bounds what a stuck query can cost, which makes a run's cost
# linear in its arrivals.  Under churn retries do rescue queries, so
# mixed_300 keeps the long timeout.
QUERY_TIMEOUT_S = {SERVE: 3.0, MIXED: 30.0}


# --------------------------------------------------------------------------- sizing
@dataclass(frozen=True)
class Size:
    """How much one run sets up and measures."""

    peers: int
    rings: int  # deployments set up from nothing
    windows: int  # timed windows on each
    window: float  # per window: RPCs per caller (engine_rpc), else simulated seconds
    drain: float = DRAIN_S


# Work per second of ``--seconds``, summed over a run's windows, sized on the
# reference box (2 cores, py3.11) so the windows together last about that long
# (mixed_300: twice that; it is the simulated time its trajectory needs).
_PER_SECOND = {ENGINE_RPC: 20.0, CHURN: 18.0, SERVE: 3.6, MIXED: 37.5}
_PEERS = {ENGINE_RPC: 2000, CHURN: 1000, SERVE: 1000, MIXED: 300}
# (rings, windows on each).  A 1000-peer set-up costs as much as its windows
# together, so those workloads cut their window in five on one ring.  Where a
# set-up is cheap every window gets its own; mixed_300 needs that anyway,
# because what varies there is the ring's trajectory: the median of five rings
# moves by a tenth between seeds (resampled from a census of sixty rings), of
# three by a seventh.  Many short windows rather than few long ones because
# the median is only as robust as the share of windows a slow episode of the
# host can cover.
_SHAPE = {ENGINE_RPC: (8, 1), CHURN: (1, 5), SERVE: (1, 5), MIXED: (5, 1)}
# Rings of different run seeds never coincide, so runs are independent samples.
RING_SEED_STRIDE = 100
# The scale cells end their stress phase with ten closed-loop queries; a run
# spreads about that many over its windows.  Each takes 0.1 to 2 simulated
# seconds during which the whole ring keeps maintaining itself, so ten per
# window would make a 60 s window's work swing by a tenth with the keys drawn.
CHURN_QUERIES = 10
_QUICK = {
    ENGINE_RPC: Size(peers=200, rings=2, windows=1, window=10),
    CHURN: Size(peers=30, rings=1, windows=2, window=5.0),
    SERVE: Size(peers=30, rings=1, windows=2, window=3.0, drain=2.0),
    MIXED: Size(peers=30, rings=2, windows=1, window=4.0, drain=2.0),
}


def sizing(workload: str, seconds: float, quick: bool = False) -> Size:
    """The size ``--seconds`` (or ``--quick``) selects for ``workload``."""
    if quick:
        return _QUICK[workload]
    rings, windows = _SHAPE[workload]
    window = _PER_SECOND[workload] * seconds / (rings * windows)
    return Size(_PEERS[workload], rings, windows,
                round(window) if workload == ENGINE_RPC else window)


# --------------------------------------------------------------------------- measurement
@dataclass
class Window:
    """Deltas of the public counters around one timed window (or several, summed)."""

    wall_s: float = 0.0  # corrected host seconds (see hostclock)
    cpu_s: float = 0.0
    raw_wall_s: float = 0.0
    sim_s: float = 0.0
    peer_seconds: float = 0.0  # mean ring members x simulated seconds
    events: int = 0
    rpc_calls: int = 0
    rpc_timeouts: int = 0
    messages: int = 0
    per_method: Dict[str, int] = field(default_factory=dict)

    def plus(self, other: "Window") -> "Window":
        total = Window(per_method=dict(self.per_method))
        for name in ("wall_s", "cpu_s", "raw_wall_s", "sim_s", "peer_seconds", "events",
                     "rpc_calls", "rpc_timeouts", "messages"):
            setattr(total, name, getattr(self, name) + getattr(other, name))
        for method, count in other.per_method.items():
            total.per_method[method] = total.per_method.get(method, 0) + count
        return total


class Recorder:
    """Host-clock bookkeeping of one run: spans, set-up times, the profiler.

    ``profile`` is a ``cProfile.Profile`` in the traced run and ``None``
    otherwise.  It is switched on only inside the run's first window (the
    traced run still makes every window, so its simulated numbers can be
    compared with the untraced run's), and stays on through the host clock's
    samples: switching it off there would orphan the frames already on the
    stack, whose self-time would then be lost.
    """

    def __init__(self, clock: HostClock, profile=None):
        self.clock = clock
        self.profile = profile
        self.origin = time.perf_counter()
        self.spans: List[dict] = []
        self.setup_times: List[float] = []
        self.windows: List[Window] = []

    @contextmanager
    def timed(self, name: str, **attrs):
        """Measure the block on the host clock and keep it as a span; yields the Reading."""
        started = time.perf_counter()
        with self.clock.measure() as reading:
            yield reading
        self.spans.append({"name": name, "clock": "host", "start": started - self.origin,
                           "end": time.perf_counter() - self.origin, "s": reading.s,
                           "host_speed": reading.speed, **attrs})

    def total(self) -> Window:
        """The run's windows summed."""
        total = self.windows[0]
        for window in self.windows[1:]:
            total = total.plus(window)
        return total

    def set_up(self, build: Callable[[], object], ring: int):
        """Run one ring's ``build`` from a collected heap and keep its duration."""
        gc.collect()
        with self.timed("setup", ring=ring) as reading:
            result = build()
        self.setup_times.append(reading.s)
        return result

    @contextmanager
    def window(self, ring: int, sim, stats, members: Callable[[], int]):
        """Time the block and take counter deltas around it; yields the Window."""
        gc.collect()
        window = Window()
        events, calls, timeouts, messages = (
            sim.events_processed, stats.rpc_calls, stats.rpc_timeouts, stats.messages_sent)
        per_method = dict(stats.per_method)
        sim_started, members_started = sim.now, members()
        profile = self.profile if not self.windows else None
        self.windows.append(window)
        try:
            with self.timed("window", ring=ring, window=len(self.windows) - 1) as reading:
                if profile is not None:
                    profile.enable()
                try:
                    yield window
                finally:
                    if profile is not None:
                        profile.disable()
        finally:
            window.wall_s, window.cpu_s, window.raw_wall_s = reading.s, reading.cpu_s, reading.raw_s
            window.sim_s = sim.now - sim_started
            window.peer_seconds = (members_started + members()) / 2.0 * window.sim_s
            window.events = sim.events_processed - events
            window.rpc_calls = stats.rpc_calls - calls
            window.rpc_timeouts = stats.rpc_timeouts - timeouts
            window.messages = stats.messages_sent - messages
            window.per_method = {
                method: count - per_method.get(method, 0)
                for method, count in stats.per_method.items()
                if count > per_method.get(method, 0)
            }


@dataclass
class Outcome:
    """What a workload run hands to the report."""

    window: Window  # counters and seconds summed over the run's windows
    wall_s: float  # windows x the median window: what wall_s reports
    cpu_s: float
    raw_wall_s: float
    metrics: Dict[str, Optional[float]]
    attempted: Dict[str, int]
    failed: Dict[str, int]
    ops: List[Op] = field(default_factory=list)  # user operations, for the trace's spans
    problems: List[str] = field(default_factory=list)  # harness-level inconsistencies
    sizing: Dict[str, float] = field(default_factory=dict)


def _outcome(recorder: Recorder, size: Size, metrics: Dict[str, Optional[float]],
             sizing_note: Dict[str, float], **rest) -> Outcome:
    """Sum the run's windows and report the median window's cost."""
    windows = recorder.windows

    def typical(name: str) -> float:
        return len(windows) * statistics.median(getattr(window, name) for window in windows)

    metrics = {
        "msgs_per_peer_s": statistics.median(w.messages / w.peer_seconds for w in windows),
        **metrics,
    }
    return Outcome(
        recorder.total(), typical("wall_s"), typical("cpu_s"), typical("raw_wall_s"), metrics,
        sizing={"peers": size.peers, "rings": size.rings, "windows_per_ring": size.windows,
                **sizing_note},
        **rest)


def _p(values: Sequence[float], fraction: float, scale: float = 1.0) -> Optional[float]:
    return nearest_rank(sorted(values), fraction) * scale if values else None


# --------------------------------------------------------------------------- engine_rpc
RPC_LATENCY_S = 0.002
RPC_TIMEOUT_S = 0.5
THINK_S = 0.01
SERVICE_S = 0.001  # the one timeout a generator handler yields
WATCHDOG_S = 30.0  # never fires: re-armed after every reply
TICK_S = 1.0
DEAD_SHARE = 20  # one call in this many targets a failed peer


class _EchoPeer(Endpoint):
    """An endpoint with a plain and a generator echo handler and one periodic loop."""

    def __init__(self, sim, network, address, rng):
        super().__init__(sim, network, address, rng=rng)
        self.ticks = 0
        self.every(TICK_S, self._tick, jitter=TICK_S / 2, name="tick")

    def _tick(self):
        self.ticks += 1

    def rpc_echo(self, payload, request):
        return payload

    def rpc_echo_gen(self, payload, request):
        yield self.sim.timeout(SERVICE_S)
        return payload


@dataclass
class _RpcTally:
    attempted: int = 0
    wrong_payload: int = 0
    live_timeouts: int = 0
    dead_answered: int = 0
    planned_dead: int = 0


def _watchdog_fired(_arg) -> None:
    pass


def _rpc_ring(seed: int, ring: int, size: Size, recorder: Recorder, tally: _RpcTally) -> None:
    """Set up one network of echo peers and time its callers' plans."""
    rpcs = int(size.window)
    dead_count = max(1, size.peers // DEAD_SHARE)

    def build():
        sim = make_simulator("heap")  # REPRO_ENGINE overrides, as everywhere
        config = NetworkConfig(rpc_timeout=RPC_TIMEOUT_S,
                               latency_model=ConstantLatency(RPC_LATENCY_S))
        network = Network(sim, rng=None, config=config)  # constant latency draws nothing
        jitter = loadgen.stream(ENGINE_RPC, seed, "jitter")
        live = [_EchoPeer(sim, network, f"peer{i:04d}", jitter) for i in range(size.peers)]
        dead = [_EchoPeer(sim, network, f"dead{i:04d}", jitter) for i in range(dead_count)]
        for peer in dead:
            peer.fail()
        draw = loadgen.stream(ENGINE_RPC, seed, "plans")
        live_names = [peer.address for peer in live]
        dead_names = [peer.address for peer in dead]
        plans = []
        for _ in live:
            # Exactly one call in DEAD_SHARE rides the timeout, at drawn positions, so
            # every caller spans the same simulated time and the window ends when they do.
            destinations = [live_names[draw.randrange(size.peers)] for _ in range(rpcs)]
            for position in draw.sample(range(rpcs), rpcs // DEAD_SHARE):
                destinations[position] = dead_names[draw.randrange(dead_count)]
            methods = ["echo_gen" if draw.random() < 0.5 else "echo" for _ in range(rpcs)]
            plans.append((destinations, methods))
        return sim, network, live, plans

    sim, network, live, plans = recorder.set_up(build, ring)

    def caller(peer, index, destinations, methods):
        dog = sim.schedule_timer(WATCHDOG_S, _watchdog_fired, None)
        for round_number in range(rpcs):
            destination = destinations[round_number]
            nonce = index * rpcs + round_number
            planned_dead = destination.startswith("dead")
            tally.attempted += 1
            tally.planned_dead += planned_dead
            try:
                reply = yield peer.call(destination, methods[round_number], nonce)
            except RpcError:
                tally.live_timeouts += not planned_dead
            else:
                tally.dead_answered += planned_dead
                tally.wrong_payload += reply != nonce
            sim.cancel_timer(dog)
            dog = sim.schedule_timer(WATCHDOG_S, _watchdog_fired, None)
            yield sim.timeout(THINK_S)
        sim.cancel_timer(dog)

    with recorder.window(ring, sim, network.stats, lambda: len(live)):
        callers = [peer.spawn(caller(peer, index, *plans[index]), name="caller")
                   for index, peer in enumerate(live)]
        sim.run_until(sim.all_of(callers))


def run_engine_rpc(seed: int, size: Size, recorder: Recorder) -> Outcome:
    """Echo RPCs between bare endpoints: engine, network and endpoint, no protocol."""
    tally = _RpcTally()
    for ring in range(size.rings):
        _rpc_ring(seed * RING_SEED_STRIDE + ring, ring, size, recorder, tally)
    planned = size.rings * size.peers * int(size.window)
    problems = []
    if tally.attempted != planned:
        problems.append(f"callers issued {tally.attempted} of {planned} planned RPCs")
    timeouts = sum(window.rpc_timeouts for window in recorder.windows)
    if timeouts != tally.planned_dead + tally.live_timeouts - tally.dead_answered:
        problems.append("network timeout count disagrees with the callers' tally")
    return _outcome(
        recorder, size,
        {"harness.build_s": statistics.median(recorder.setup_times)},
        {"rpcs_per_caller": int(size.window)},
        attempted={"rpc": tally.attempted},
        failed={"rpc": tally.wrong_payload + tally.live_timeouts + tally.dead_answered},
        problems=problems,
    )


# --------------------------------------------------------------------------- protocol workloads
def settled_cell(peers: int) -> ScenarioSpec:
    """The registry's build -> settle -> stress scale cell for ``peers`` peers.

    Registered sizes are used as they are; any other size (the ``--quick``
    sizing) is ``scale_100`` with its peer-dependent fields recomputed the way
    the registry computes them.
    """
    name = f"scale_{peers}"
    if name in scenario_names():
        return get_scenario(name)
    base = get_scenario("scale_100")
    build, settle, stress = base.phases
    build = replace(
        build,
        churn=replace(build.churn, flash_crowd_peers=peers - 2),
        workload=replace(build.workload, items=peers * 8),
    )
    return base.with_(name=name, peers=peers, phases=(build, settle, stress))


@dataclass
class _RingRun:
    """What is read off a ring after its windows."""

    series: Dict[str, List[float]]  # the collector's series, values recorded in the windows
    ops: List[Op]
    audit: Audit
    load_variance: float
    phase_s: Dict[str, float]  # set-up seconds by phase


def _measure_ring(cell: ScenarioSpec, seed: int, ring: int, size: Size, recorder: Recorder,
                  prepare: Callable[[object, int], Callable[[], List[Op]]]) -> _RingRun:
    """Build and settle the cell's ring, time ``size.windows`` windows on it, then audit it.

    ``prepare(experiment, k)`` runs outside the timed window and returns window
    ``k``'s body, which returns the operations it played.  The audit runs once,
    after the last window: the recorded history judges every window's queries.
    """
    phase_s: Dict[str, float] = {}

    def build():
        experiment = build_experiment(cell, seed)
        for phase in cell.phases[:2]:
            with recorder.timed(phase.name, ring=ring) as reading:
                experiment.run_phases((phase,), total_peers=cell.peers)
            phase_s[phase.name] = reading.s
        return experiment

    experiment = recorder.set_up(build, ring)
    index = experiment.index
    marks = {name: index.metrics.count(name) for name in _SERIES}
    read_load = dict(index.serve_tracker.read_load)
    ops: List[Op] = []
    for k in range(size.windows):
        body = prepare(experiment, k)
        with recorder.window(ring, index.sim, index.network.stats,
                             lambda: len(index.ring_members())):
            ops.extend(body())
    with recorder.timed("audit", ring=ring) as reading:
        audit = audit_deployment(index, ops)
    audit.audit_s = reading.s
    series = {name: index.metrics.values(name)[marks[name]:] for name in _SERIES}
    # Population variance of the read load each member took during the windows.
    loads = [index.serve_tracker.read_load.get(peer.address, 0) - read_load.get(peer.address, 0)
             for peer in index.ring_members()]
    return _RingRun(series, ops, audit, statistics.pvariance(loads), phase_s)


def _count(per_method: Dict[str, int], *prefixes: str, exclude: Sequence[str] = ()) -> int:
    return sum(count for method, count in per_method.items()
               if method.startswith(prefixes) and method not in exclude)


def _protocol_outcome(runs: List[_RingRun], size: Size, recorder: Recorder,
                      sizing_note: Dict[str, float]) -> Outcome:
    """Pool the rings of one protocol workload run and derive every sim-side metric."""
    audit = runs[0].audit
    for run in runs[1:]:
        audit = audit.pooled_with(run.audit)
    total = recorder.total()
    per_method, messages = total.per_method, total.messages
    series = {name: [v for run in runs for v in run.series[name]] for name in _SERIES}
    ops = [op for run in runs for op in run.ops]
    user_ops = [op for op in ops if op.kind in (QUERY, INSERT, DELETE)]
    done_queries = [op for op in user_ops if op.kind == QUERY and op.end is not None and op.ok]
    acked_inserts = [op for op in user_ops if op.kind == INSERT and op.end is not None and op.ok]
    query_ms = [(op.end - op.due) * 1000.0 for op in done_queries]
    insert_ms = [(op.end - op.due) * 1000.0 for op in acked_inserts]
    route_ms = [(op.end - op.scan_elapsed - op.start) * 1000.0 for op in done_queries]
    scan_ms = [op.scan_elapsed * 1000.0 for op in done_queries]
    lateness = [(op.start - op.due) * 1000.0 for op in user_ops if op.start is not None]
    replica_reads, primary_reads = len(series["serve_read_replica"]), len(series["serve_read_primary"])
    open_loop = any(op.at > 0 for op in user_ops)

    metrics: Dict[str, Optional[float]] = {
        "query_p50_ms": _p(query_ms, 0.50) if open_loop else None,
        "query_p99_ms": _p(query_ms, 0.99) if open_loop else None,
        "insert_p50_ms": _p(insert_ms, 0.50),
        "insert_p99_ms": _p(insert_ms, 0.99),
        "msgs_per_op": messages / len(user_ops) if open_loop else None,
        "ring.rpcs": _count(per_method, "ring_"),
        "ring.ping_rpcs": per_method.get("ring_ping", 0),
        "ring.stabilize_rpcs": per_method.get("ring_stabilize", 0),
        "ring.insert_succ_count": len(series["insert_succ"]),
        "ring.insert_succ_p50_ms": _p(series["insert_succ"], 0.50, 1000.0),
        "ring.leave_count": len(series["leave"]),
        "ring.leave_p50_ms": _p(series["leave"], 0.50, 1000.0),
        "ring.pointers_consistent": audit.pointers_consistent,
        "ring.connected": audit.connected,
        "datastore.rpcs": _count(per_method, "ds_", "pool_", exclude=("ds_probe",)),
        "datastore.store_rpcs": per_method.get("ds_store_item", 0),
        "datastore.merge_count": len(series["merge"]),
        "datastore.merge_p50_ms": _p(series["merge"], 0.50, 1000.0),
        "datastore.items_stranded": audit.items_stranded,
        "replication.rpcs": _count(per_method, "rep_"),
        "replication.items_lost": audit.items_lost,
        "router.probe_rpcs": per_method.get("ds_probe", 0),
        "router.table_rpcs": per_method.get("route_table_entry", 0),
        "router.route_hops_p50": _p(series["route_hops"], 0.50),
        "router.route_hops_p95": _p(series["route_hops"], 0.95),
        "router.hop_cap_hits": sum(1 for hops in series["route_hops"] if hops >= _HOP_CAP),
        "router.route_p50_ms": _p(route_ms, 0.50),
        "serve.meta_rpcs": per_method.get("serve_meta", 0),
        "serve.read_rpcs": per_method.get("serve_read", 0),
        "serve.replica_read_share": (
            replica_reads / (replica_reads + primary_reads) if replica_reads + primary_reads else None),
        "serve.replica_rejected": len(series["serve_replica_rejected"]),
        "serve.load_variance": statistics.mean(run.load_variance for run in runs),
        "serve.scan_p50_ms": _p(scan_ms, 0.50),
        "core.queries_checked": audit.queries_checked,
        "core.queries_violating": audit.queries_violating,
        "core.queries_incomplete": audit.queries_incomplete,
        "maintenance.ping_fresh_skips": len(series["ring_ping_fresh_skip"]),
        "harness.build_s": statistics.median(run.phase_s["build"] for run in runs),
        "harness.settle_s": statistics.median(run.phase_s["settle"] for run in runs),
        "harness.audit_s": audit.audit_s,
        "harness.gen_lateness_ms": max(lateness) if open_loop and lateness else None,
    }
    problems = []
    if sum(audit.attempted.values()) != len(user_ops):
        problems.append(f"audit judged {sum(audit.attempted.values())} of {len(user_ops)} operations")
    if any(not op.verdict for op in user_ops):
        problems.append("an operation was left without a verdict")
    return _outcome(recorder, size, metrics, sizing_note, attempted=dict(audit.attempted),
                    failed=dict(audit.failed), ops=ops, problems=problems)


def run_churn(seed: int, size: Size, recorder: Recorder) -> Outcome:
    """The scale cell's stress phase, its failure window set to ``size.window`` seconds."""
    cell = settled_cell(size.peers)
    stress = cell.phases[2]
    stress = replace(
        stress,
        churn=replace(stress.churn, failure_window=size.window),
        queries=replace(stress.queries, count=-(-CHURN_QUERIES // (size.rings * size.windows))),
    )
    runs = []
    for ring in range(size.rings):
        ring_seed = seed * RING_SEED_STRIDE + ring

        def prepare(experiment, k, ring_seed=ring_seed):
            def body() -> List[Op]:
                _, outcomes, _ = experiment.run_phases((stress,), total_peers=cell.peers)
                # The harness's closed-loop query outcomes, in the audit's shape.
                return [
                    Op(QUERY, at=0.0, pick=0.0, lb=outcome.lb, ub=outcome.ub,
                       op_id=number, ring=ring_seed, window=k,
                       due=outcome.record.start_time, start=outcome.record.start_time,
                       end=outcome.record.end_time, ok=bool(outcome.complete), hops=outcome.hops,
                       scan_elapsed=outcome.scan_elapsed, keys=list(outcome.keys))
                    for number, outcome in enumerate(outcomes)
                ]
            return body

        runs.append(_measure_ring(cell, ring_seed, ring, size, recorder, prepare))
    return _protocol_outcome(runs, size, recorder, {"failure_window_sim_s": size.window})


def _run_open_loop(workload: str, seed: int, size: Size, recorder: Recorder) -> Outcome:
    cell = settled_cell(size.peers)
    reads, inserts, deletes = RATES[workload]
    runs = []
    for ring in range(size.rings):
        ring_seed = seed * RING_SEED_STRIDE + ring

        def prepare(experiment, k, ring_seed=ring_seed):
            index = experiment.index
            key_space = index.config.key_space
            inputs = f"{ring_seed}.{k}"  # window k on this ring draws its own streams
            plans = [loadgen.read_plan(workload, inputs, reads, size.window, key_space, size.peers)]
            if inserts:
                plans.append(loadgen.write_plan(
                    workload, inputs, size.window, key_space, experiment.inserted_keys,
                    inserts, deletes, FAILURES_PER_100S))
            driver = OpenLoopDriver(index, loadgen.merged(ring_seed, k, *plans),
                                    QUERY_TIMEOUT_S[workload])

            def body() -> List[Op]:
                driver.start()
                index.run(size.window + size.drain)
                return driver.plan
            return body

        runs.append(_measure_ring(cell, ring_seed, ring, size, recorder, prepare))
    return _protocol_outcome(
        runs, size, recorder, {"arrival_window_sim_s": size.window, "drain_sim_s": size.drain})


def run_serve(seed: int, size: Size, recorder: Recorder) -> Outcome:
    """Open-loop zipf reads on a settled ring: read-only and churn-free."""
    return _run_open_loop(SERVE, seed, size, recorder)


def run_mixed(seed: int, size: Size, recorder: Recorder) -> Outcome:
    """Reads beside inserts, deletes, failures and arrivals."""
    return _run_open_loop(MIXED, seed, size, recorder)


RUNNERS: Dict[str, Callable[[int, Size, Recorder], Outcome]] = {
    ENGINE_RPC: run_engine_rpc,
    CHURN: run_churn,
    SERVE: run_serve,
    MIXED: run_mixed,
}
