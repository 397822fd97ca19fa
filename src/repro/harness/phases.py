"""Deployment lifecycle phases: the workload-binding spec layer.

The paper's evaluation interleaves everything -- peer arrivals, item inserts,
failures, queries -- in one implicit sequence hard-wired into the driver.
That is fine at 30 peers, but at scale it makes end states chaotic: ring
growth happens in a *split cascade* (items overflow stores, splits pull free
peers into the ring, their items overflow further stores, ...) and when the
failure window starts on a wall-clock schedule it races that cascade, so
end-state membership swings with tiny perturbations.

A :class:`PhaseSpec` decouples the lifecycle declaratively: each phase binds
its own churn schedule, item workload and query mix, and *starts on an
explicit condition* instead of whenever the previous wall-clock window
happened to end:

* ``start_offset`` -- a plain simulated-seconds delay (the legacy behaviour);
* ``start_fraction`` -- wait until that fraction of the deployment's peers
  are ring members (growth-gated);
* ``start_quiescence`` -- wait until no joins or splits have been in flight
  for the given number of simulated seconds (cascade-gated; this is what
  stops the failure window from racing the split cascade).

Conditions compose (offset first, then membership, then quiescence) and are
bounded by ``start_timeout`` so a wedged deployment still terminates.

This module also carries the scenario sub-specs a phase binds
(:class:`WorkloadSpec`, :class:`ChurnSpec`, :class:`QueryMixSpec`) so both
:mod:`repro.harness.experiment` (the executor) and
:mod:`repro.harness.scenarios` (the registry) can import them without a
cycle; the registry re-exports them under their historical names.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple


# --------------------------------------------------------------------------- bound sub-specs
@dataclass(frozen=True)
class WorkloadSpec:
    """The item stream of a scenario (or of one phase of it)."""

    items: int = 180
    insert_rate: float = 2.0
    distribution: str = "uniform"  # uniform | skewed | zipf
    params: Mapping = field(default_factory=dict)  # extra args of the key generator


@dataclass(frozen=True)
class ChurnSpec:
    """Membership dynamics beyond the steady one-peer-per-period arrivals."""

    failure_rate_per_100s: float = 0.0
    failure_window: float = 100.0
    flash_crowd_peers: int = 0
    flash_crowd_at: float = 0.0
    flash_crowd_spacing: float = 0.05
    correlated_failures: int = 0  # peers killed simultaneously at phase start


@dataclass(frozen=True)
class QueryMixSpec:
    """Range queries issued after the deployment settles (closed loop)."""

    count: int = 0
    selectivity: float = 0.02
    spacing: float = 0.5  # simulated seconds between queries


@dataclass(frozen=True)
class ServeSpec:
    """An open-loop serve phase: arrival-rate traffic at zipf hotspots.

    Declares serving the way :class:`LatencySpec`/:class:`MaintenanceSpec`
    declare their subsystems: queries arrive with exponential interarrivals
    at ``arrival_rate`` per simulated second for ``duration`` seconds, each
    aimed at one of ``hotspots`` fixed windows drawn zipf-skewed by rank
    (exponent ``alpha``), and are issued through a serve-layer
    :class:`~repro.serve.client.QueryClient` under ``routing`` /
    ``consistency``.  Because arrivals never wait for completions, the
    measured p50/p99 latency reflects the system, not the workload --
    unlike the closed-loop :class:`QueryMixSpec`.

    ``drain`` extends the phase past the last arrival so in-flight queries
    finish before the phase result is taken.
    """

    arrival_rate: float = 20.0  # queries per simulated second
    duration: float = 10.0  # arrival window (simulated seconds)
    routing: str = "replica_lb"  # primary | replica_lb | cached
    consistency: str = "strong"  # strong | eventual
    selectivity: float = 0.02  # window width as a fraction of the key space
    hotspots: int = 8  # distinct query windows
    alpha: float = 1.1  # zipf exponent over hotspot ranks
    timeout: float = 30.0  # per-query timeout (simulated seconds)
    drain: float = 5.0  # post-arrival grace for in-flight queries

    def validate(self) -> None:
        """Raise ``ValueError`` for meaningless settings."""
        from repro.serve.client import CONSISTENCY_LEVELS, ROUTING_POLICIES

        if self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.routing not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing {self.routing!r}; known: {', '.join(ROUTING_POLICIES)}"
            )
        if self.consistency not in CONSISTENCY_LEVELS:
            raise ValueError(
                f"unknown consistency {self.consistency!r}; "
                f"known: {', '.join(CONSISTENCY_LEVELS)}"
            )
        if not 0.0 < self.selectivity <= 1.0:
            raise ValueError("selectivity must be in (0, 1]")
        if self.hotspots < 1:
            raise ValueError("hotspots must be >= 1")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.drain < 0:
            raise ValueError("drain must be >= 0")


# --------------------------------------------------------------------------- phases
#: How phase start conditions report themselves in per-phase results.
START_IMMEDIATE = "immediate"
START_OFFSET = "offset"
START_FRACTION = "membership_fraction"
START_QUIESCENCE = "quiescence"


@dataclass(frozen=True)
class PhaseSpec:
    """One lifecycle phase: a start condition plus the activity bound to it.

    All times are relative to the end of the previous phase.  A phase with no
    bound activity and no explicit ``duration`` runs only its ``settle`` tail,
    which is how pure waiting phases (e.g. a quiescence-gated ``settle``
    between build and stress) are expressed.
    """

    name: str
    description: str = ""

    # -- start condition (offset, then membership fraction, then quiescence) --
    start_offset: float = 0.0
    start_fraction: Optional[float] = None  # of ScenarioSpec.peers in the ring
    start_quiescence: Optional[float] = None  # no joins/splits in flight for T s
    start_timeout: float = 600.0  # cap on condition waiting (simulated seconds)
    start_poll: float = 1.0  # condition re-check interval (simulated seconds)

    # -- bound activity -------------------------------------------------------
    arrivals: int = 0  # staggered free-peer arrivals during this phase
    arrival_period: float = 3.0
    arrival_start: float = 0.5  # first arrival, relative to phase start
    churn: ChurnSpec = ChurnSpec()
    workload: Optional[WorkloadSpec] = None
    workload_start: float = 1.0  # first insert, relative to phase start
    queries: Optional[QueryMixSpec] = None
    serve: Optional[ServeSpec] = None  # open-loop serve traffic (see ServeSpec)
    duration: Optional[float] = None  # active time; None = derived from schedules
    settle: float = 0.0  # quiet tail after the activity

    def validate(self) -> None:
        """Raise ``ValueError`` for meaningless settings."""
        if not self.name:
            raise ValueError("phase name must be non-empty")
        if self.start_offset < 0:
            raise ValueError("start_offset must be >= 0")
        if self.start_fraction is not None and not 0.0 < self.start_fraction <= 1.0:
            raise ValueError("start_fraction must be in (0, 1]")
        if self.start_quiescence is not None and self.start_quiescence <= 0:
            raise ValueError("start_quiescence must be positive")
        if self.start_timeout <= 0:
            raise ValueError("start_timeout must be positive")
        if self.start_poll <= 0:
            raise ValueError("start_poll must be positive")
        if self.arrivals < 0:
            raise ValueError("arrivals must be >= 0")
        if self.arrivals > 0 and self.arrival_period <= 0:
            raise ValueError("arrival_period must be positive")
        if self.duration is not None and self.duration < 0:
            raise ValueError("duration must be >= 0")
        if self.settle < 0:
            raise ValueError("settle must be >= 0")
        if self.serve is not None:
            self.serve.validate()

    @property
    def start_condition(self) -> str:
        """The strongest configured start condition (for reporting)."""
        if self.start_quiescence is not None:
            return START_QUIESCENCE
        if self.start_fraction is not None:
            return START_FRACTION
        if self.start_offset > 0:
            return START_OFFSET
        return START_IMMEDIATE


@dataclass
class PhaseResult:
    """What one executed phase measured (all deltas are phase-local).

    ``events_processed`` / ``rpc_calls`` / ``rpc_per_method`` are differences
    against the snapshot taken when the phase began (including its start-
    condition wait), so summing them across a scenario's phases reproduces the
    scenario totals exactly -- ``tests/test_phases.py`` pins that invariant.
    """

    phase: str
    start_condition: str
    started_at_s: float  # simulated time at which the phase began waiting
    activity_at_s: float  # simulated time at which the bound activity began
    wait_s: float  # simulated time spent waiting for the start condition
    start_timed_out: bool
    sim_seconds: float  # simulated span of the whole phase (wait + activity + settle)
    wall_clock_s: float
    events_processed: int
    rpc_calls: int
    rpc_per_method: Dict[str, int] = field(default_factory=dict)
    ring_members_start: int = 0  # membership when the activity began
    ring_members: int = 0  # membership at phase end
    free_peers: int = 0
    items_stored: int = 0
    queries_run: int = 0
    queries_complete: int = 0
    correlated_failures_injected: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)


def validate_phases(phases: Tuple[PhaseSpec, ...]) -> None:
    """Validate a phase list as a whole (names unique, each phase valid)."""
    seen = set()
    for phase in phases:
        phase.validate()
        if phase.name in seen:
            raise ValueError(f"duplicate phase name {phase.name!r}")
        seen.add(phase.name)
