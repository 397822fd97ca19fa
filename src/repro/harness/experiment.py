"""Deployment driver: builds and drives one simulated cluster.

The *shape* of a deployment (size, phases, protocol selection) is described
declaratively by a :class:`~repro.harness.scenarios.ScenarioSpec`; the spec
resolves into an :class:`IndexConfig` plus a tuple of
:class:`~repro.harness.phases.PhaseSpec`, and :class:`ClusterExperiment` only
knows how to execute those.  The paper's Section 6.1 deployment (30 peers
arriving one every 3 seconds, items inserted at 2 per second, storage factor
5, replication factor 6) is one registry cell, but any other -- churn-heavy,
Zipf-skewed, 1000 peers -- runs through this same class.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.correctness import QueryRecord
from repro.harness.phases import PhaseResult, PhaseSpec, ServeSpec
from repro.index.config import IndexConfig
from repro.index.pring import PRingIndex
from repro.serve.workload import OpenLoopQuery, open_loop_queries
from repro.workloads.churn import (
    FAIL,
    JOIN,
    ChurnSchedule,
    failure_schedule,
    flash_crowd_schedule,
    join_schedule,
)
from repro.workloads.items import ItemWorkload, generate_keys
from repro.workloads.queries import QueryWorkload


@dataclass
class QueryOutcome:
    """One executed range query plus the information needed to check/plot it."""

    lb: float
    ub: float
    hops: int
    elapsed: float
    scan_elapsed: float
    complete: bool
    keys: List[float] = field(default_factory=list)
    record: Optional[QueryRecord] = None
    strategy: str = "scan"
    # Serve-phase queries only: whether the result set matched the reachable
    # keys snapshotted at serve start (None for closed-loop queries).
    correct: Optional[bool] = None


class ClusterExperiment:
    """Builds and drives one simulated deployment.

    :meth:`run_phases` is the one lifecycle entry point: a scenario's phases
    (or any prefix of them) bootstrap the index on first use and then play in
    order.  The remaining methods drive ad-hoc activity on the same
    deployment (the figure reproductions use them between phases).
    """

    def __init__(self, config: IndexConfig):
        self.config = config
        self.index = PRingIndex(config)
        self.inserted_keys: List[float] = []
        self.deleted_keys: List[float] = []

    # ------------------------------------------------------------------ phased lifecycle
    def run_phases(
        self, phases: Sequence[PhaseSpec], total_peers: int
    ) -> Tuple[List[PhaseResult], List["QueryOutcome"], List[str]]:
        """Execute a declarative phase sequence (see :mod:`repro.harness.phases`).

        Phases run strictly one after another; each phase first waits for its
        start condition (offset, then membership fraction of ``total_peers``,
        then quiescence -- all bounded by ``start_timeout``), then plays its
        bound schedules and settles.  Returns the per-phase measurements, the
        query outcomes of every query-bearing phase (in execution order) and
        the addresses of all correlated-failure victims.
        """
        if not self.index.bootstrapped:
            self.index.bootstrap()
        results: List[PhaseResult] = []
        outcomes: List[QueryOutcome] = []
        victims: List[str] = []
        for phase in phases:
            record, phase_outcomes, phase_victims = self._execute_phase(phase, total_peers)
            results.append(record)
            outcomes.extend(phase_outcomes)
            victims.extend(phase_victims)
        return results, outcomes, victims

    def _execute_phase(
        self, phase: PhaseSpec, total_peers: int
    ) -> Tuple[PhaseResult, List["QueryOutcome"], List[str]]:
        """Wait for the phase's start condition, then play its bound activity."""
        index = self.index
        sim = index.sim
        wall_started = time.perf_counter()
        events_before = sim.events_processed
        rpc_before = index.network.stats.rpc_calls
        per_method_before = dict(index.network.stats.per_method)
        phase_started = sim.now

        timed_out = self._wait_for_start(phase, total_peers)
        activity_started = sim.now
        members_at_start = len(index.ring_members())

        # A correlated shot fires at the instant the phase starts (rack outage).
        victims: List[str] = []
        if phase.churn.correlated_failures > 0:
            victims = self.fail_correlated(phase.churn.correlated_failures)

        joins: Optional[ChurnSchedule] = None
        if phase.arrivals > 0:
            joins = join_schedule(
                phase.arrivals, period=phase.arrival_period, start=sim.now + phase.arrival_start
            )
        if phase.churn.flash_crowd_peers > 0:
            crowd = flash_crowd_schedule(
                phase.churn.flash_crowd_peers,
                at=sim.now + phase.churn.flash_crowd_at,
                spacing=phase.churn.flash_crowd_spacing,
            )
            joins = crowd if joins is None else joins.merged_with(crowd)

        workload: Optional[ItemWorkload] = None
        if phase.workload is not None:
            spec = phase.workload
            keys = generate_keys(
                spec.distribution,
                spec.items,
                self.config.key_space,
                index.rngs.stream("workload"),
                **dict(spec.params),
            )
            self.inserted_keys.extend(keys)
            workload = ItemWorkload(
                keys, insert_rate=spec.insert_rate, start_time=sim.now + phase.workload_start
            )

        if joins is not None and len(joins) > 0:
            sim.process(self._membership_driver(joins), name=f"driver:{phase.name}-joins")
        if workload is not None:
            sim.process(self._item_driver(workload), name=f"driver:{phase.name}-items")
        if phase.churn.failure_rate_per_100s > 0:
            schedule = failure_schedule(
                phase.churn.failure_rate_per_100s,
                phase.churn.failure_window,
                index.rngs.stream("failures"),
                start=sim.now,
            )
            sim.process(self._membership_driver(schedule), name=f"driver:{phase.name}-failures")

        active = phase.duration
        if active is None:
            # Derived active time: long enough to play every bound schedule.
            candidates = [0.0]
            if joins is not None and len(joins) > 0:
                candidates.append(joins.duration - sim.now)
            if workload is not None:
                candidates.append(workload.duration + phase.workload_start)
            if phase.churn.failure_rate_per_100s > 0:
                candidates.append(phase.churn.failure_window)
            active = max(candidates)
        if active > 0:
            index.run(active)

        outcomes: List[QueryOutcome] = []
        if phase.queries is not None and phase.queries.count > 0:
            mix = phase.queries
            query_workload = QueryWorkload(
                count=mix.count,
                selectivity=mix.selectivity,
                key_space=self.config.key_space,
                rng=index.rngs.stream("query-mix"),
            )
            for lb, ub in query_workload.queries():
                outcomes.append(self.run_query(lb, ub))
                if mix.spacing > 0:
                    self.settle(mix.spacing)

        if phase.serve is not None:
            outcomes.extend(self._run_serve(phase))

        if phase.settle > 0:
            index.run(phase.settle)

        per_method_after = index.network.stats.per_method
        rpc_per_method = {
            method: count - per_method_before.get(method, 0)
            for method, count in per_method_after.items()
            if count - per_method_before.get(method, 0) > 0
        }
        record = PhaseResult(
            phase=phase.name,
            start_condition=phase.start_condition,
            started_at_s=phase_started,
            activity_at_s=activity_started,
            wait_s=activity_started - phase_started,
            start_timed_out=timed_out,
            sim_seconds=sim.now - phase_started,
            wall_clock_s=time.perf_counter() - wall_started,
            events_processed=sim.events_processed - events_before,
            rpc_calls=index.network.stats.rpc_calls - rpc_before,
            rpc_per_method=rpc_per_method,
            ring_members_start=members_at_start,
            ring_members=len(index.ring_members()),
            free_peers=len(index.free_peers()),
            items_stored=index.total_stored_items(),
            queries_run=len(outcomes),
            queries_complete=sum(1 for outcome in outcomes if outcome.complete),
            correlated_failures_injected=len(victims),
        )
        return record, outcomes, victims

    def _wait_for_start(self, phase: PhaseSpec, total_peers: int) -> bool:
        """Block (in simulated time) until the phase's start condition holds.

        Conditions compose: the offset elapses first, then membership
        fraction, then quiescence.  Returns whether any bounded condition gave
        up waiting (``start_timeout``) -- the phase still runs, so a wedged
        deployment degrades to the legacy wall-clock behaviour instead of
        hanging.
        """
        index = self.index
        sim = index.sim
        if phase.start_offset > 0:
            index.run(phase.start_offset)
        # One shared budget for the bounded conditions: time spent waiting for
        # the membership fraction is deducted from the quiescence wait.
        deadline = sim.now + phase.start_timeout
        timed_out = False
        if phase.start_fraction is not None:
            target = max(1, math.ceil(phase.start_fraction * total_peers))
            while len(index.ring_members()) < target:
                if sim.now >= deadline:
                    timed_out = True
                    break
                index.run(min(phase.start_poll, deadline - sim.now))
        if phase.start_quiescence is not None:
            remaining = deadline - sim.now
            if remaining <= 0:
                timed_out = True
            else:
                quiesced = self._wait_for_quiescence(
                    phase.start_quiescence, phase.start_poll, remaining
                )
                timed_out = timed_out or not quiesced
        return timed_out

    def _wait_for_quiescence(self, hold: float, poll: float, timeout: float) -> bool:
        """Wait until no joins/splits were in flight for ``hold`` seconds.

        Three signals make a poll non-quiescent: a peer mid-way into the ring
        (JOINING/INSERTING), a membership transition since the previous poll,
        or :meth:`~repro.index.pring.PRingIndex.split_pressure` (an overflowed
        store with a free peer available -- the cascade is between protocol
        rounds, not finished).  The quiet window is measured from the start of
        the wait at the earliest; any non-quiescent poll restarts it.  Returns
        ``True`` once the deployment has been quiescent for a full window,
        ``False`` on timeout.
        """
        index = self.index
        sim = index.sim
        membership = index.membership

        def quiescent_now() -> bool:
            return membership.in_flight_count() == 0 and not index.split_pressure()

        deadline = sim.now + timeout
        stamp = membership.transition_count
        quiet_since = sim.now if quiescent_now() else None
        while True:
            if quiet_since is not None and sim.now - quiet_since >= hold:
                return True
            if sim.now >= deadline:
                return False
            index.run(min(poll, deadline - sim.now))
            current = membership.transition_count
            if not quiescent_now():
                quiet_since = None
            elif current != stamp or quiet_since is None:
                quiet_since = sim.now
            stamp = current

    # ------------------------------------------------------------------ churn extras
    def fail_correlated(self, count: int) -> List[str]:
        """Kill ``count`` random ring members at the current instant (rack outage)."""
        rng = self.index.rngs.stream("correlated-failures")
        # One snapshot for the whole burst: every victim is drawn from the
        # membership as it was when the outage started, so a peer that already
        # failed earlier in the burst can never be selected again.
        pool = self.index.ring_members()
        victims: List[str] = []
        for _ in range(count):
            victim = self._draw_victim(pool, rng, floor=3)
            if victim is None:
                break
            victims.append(victim.address)
            self.index.fail_peer(victim.address)
        return victims

    @staticmethod
    def _draw_victim(pool: List, rng, floor: int):
        """Pick and remove one failure victim from a burst's snapshot pool.

        All of a burst's victims come from one membership snapshot with chosen
        peers removed (never re-picking a peer that already failed), and the
        pool is never drained below ``floor`` members.
        """
        if len(pool) <= floor:
            return None
        return pool.pop(rng.randrange(len(pool)))

    def _membership_driver(self, schedule: ChurnSchedule):
        rng = self.index.rngs.stream("churn")
        burst_time = None
        burst_pool: List = []
        for event in schedule:
            delay = event.time - self.index.sim.now
            if delay > 0:
                yield self.index.sim.timeout(delay)
            if event.kind == JOIN:
                self.index.add_peer()
            elif event.kind == FAIL:
                # FAIL events landing at one instant form a burst; victims come
                # from the snapshot taken at the burst's start (_draw_victim).
                if burst_time != self.index.sim.now:
                    burst_time = self.index.sim.now
                    burst_pool = self.index.ring_members()
                victim = self._draw_victim(burst_pool, rng, floor=2)
                if victim is not None:
                    self.index.fail_peer(victim.address)

    def _item_driver(self, workload: ItemWorkload):
        for time, key, payload in workload.insert_events():
            delay = time - self.index.sim.now
            if delay > 0:
                yield self.index.sim.timeout(delay)
            # Fire and forget so the insert rate stays steady regardless of
            # routing latency (the facade records the outcome in the history).
            self.index.sim.process(self.index.insert_item(key, payload))

    # ------------------------------------------------------------------ serve (open loop)
    def _run_serve(self, phase: PhaseSpec) -> List["QueryOutcome"]:
        """Play the phase's open-loop serve traffic and collect its outcomes.

        The whole arrival schedule is drawn up front from the ``serve`` rng
        stream (arrivals are independent of service times by definition of
        open loop), the reachable key set of every hotspot window is
        snapshotted at serve start as the correctness reference, and the
        phase then runs for the arrival window plus the drain grace.  Queries
        still in flight when the drain ends are simply not recorded -- an
        open-loop driver never waits for stragglers.
        """
        spec = phase.serve
        index = self.index
        schedule = open_loop_queries(
            spec.arrival_rate,
            spec.duration,
            self.config.key_space,
            index.rngs.stream("serve"),
            hotspots=spec.hotspots,
            alpha=spec.alpha,
            selectivity=spec.selectivity,
        )
        expected: Dict[Tuple[float, float], frozenset] = {}
        for query in schedule:
            window = (query.lb, query.ub)
            if window not in expected:
                expected[window] = frozenset(self._reachable_keys(*window))
        outcomes: List[QueryOutcome] = []
        index.sim.process(
            self._serve_arrivals(spec, schedule, expected, outcomes),
            name=f"driver:{phase.name}-serve",
        )
        index.run(spec.duration + spec.drain)
        return outcomes

    def _reachable_keys(self, lb: float, ub: float) -> set:
        """Keys in ``(lb, ub]`` a full primary scan would return right now."""
        keys = set()
        for peer in self.index.ring_members():
            for entry in peer.store.items.interval_wire(lb, ub):
                if peer.store.owns_key(entry["skv"]):
                    keys.add(entry["skv"])
        return keys

    def _serve_arrivals(self, spec: ServeSpec, schedule, expected, outcomes):
        sim = self.index.sim
        start = sim.now
        for query in schedule:
            delay = start + query.at - sim.now
            if delay > 0:
                yield sim.timeout(delay)
            # Fire and forget: the next arrival never waits for this query.
            sim.process(self._serve_one(spec, query, expected, outcomes))

    def _serve_one(self, spec: ServeSpec, query: OpenLoopQuery, expected, outcomes):
        client = self.index.query_client(
            routing=spec.routing, consistency=spec.consistency
        )
        result = yield from client.query(query.lb, query.ub, timeout=spec.timeout)
        keys = result["keys"]
        outcomes.append(
            QueryOutcome(
                lb=query.lb,
                ub=query.ub,
                hops=result["hops"],
                elapsed=result["end_time"] - result["start_time"],
                scan_elapsed=result["scan_elapsed"],
                complete=result["complete"],
                keys=keys,
                strategy=result["strategy"],
                correct=set(keys) == expected[(query.lb, query.ub)],
            )
        )

    # ------------------------------------------------------------------ phases
    def settle(self, duration: float) -> None:
        """Let the system run with no external activity."""
        self.index.run(duration)

    def grow(self, peers: int, period: float, settle: float) -> None:
        """Add ``peers`` more peers, one every ``period`` s, then settle."""
        schedule = join_schedule(peers, period=period, start=self.index.sim.now + 0.1)
        self.index.sim.process(self._membership_driver(schedule), name="driver:grow")
        self.index.run(peers * period + settle)

    def insert_items(self, keys: List[float], rate: float) -> None:
        """Insert additional items at ``rate`` per second and wait for them."""
        workload = ItemWorkload(keys, insert_rate=rate, start_time=self.index.sim.now + 0.1)
        self.inserted_keys.extend(keys)
        self.index.sim.process(self._item_driver(workload), name="driver:more-items")
        self.index.run(workload.duration + 5.0)

    def delete_items(self, keys: List[float], rate: float = 2.0) -> None:
        """Delete items at the given rate (forces underflows, merges, leaves)."""
        for key in keys:
            self.index.run_process(self.index.delete_item(key))
            self.deleted_keys.append(key)
            if rate > 0:
                self.index.run(1.0 / rate)

    # ------------------------------------------------------------------ queries
    def run_query(
        self,
        lb: float,
        ub: float,
        via: Optional[str] = None,
        routing: str = "primary",
        consistency: str = "strong",
    ) -> QueryOutcome:
        """Execute one range query and wrap its outcome."""
        result = self.index.range_query_now(
            lb, ub, via=via, routing=routing, consistency=consistency
        )
        record = self.index.query_records[-1] if self.index.query_records else None
        return QueryOutcome(
            lb=lb,
            ub=ub,
            hops=result["hops"],
            elapsed=result["end_time"] - result["start_time"],
            scan_elapsed=result["scan_elapsed"],
            complete=result["complete"],
            keys=result["keys"],
            record=record,
            strategy=result["strategy"],
        )

    # ------------------------------------------------------------------ metric helpers
    def mean_metric(self, name: str) -> Optional[float]:
        """Mean of a named metric collected so far."""
        return self.index.metrics.mean(name)

    def expected_keys(self, lb: float, ub: float) -> List[float]:
        """Keys inserted (and not deleted) that fall in ``(lb, ub]``."""
        alive = set(self.inserted_keys) - set(self.deleted_keys)
        return sorted(k for k in alive if lb < k <= ub)
