"""Configuration of a simulated P-Ring deployment.

One :class:`IndexConfig` instance describes both the *system parameters* the
paper sweeps in its evaluation (successor-list length, ring stabilization
period, storage factor, replication factor) and the *protocol selection flags*
that switch between the paper's PEPPER protocols and the naive baselines of
Section 6.2.  Every experiment runs both configurations on the same substrate
by flipping the flags only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.sim.network import NetworkConfig
from repro.transport.api import TRANSPORT_NAMES

#: Seconds of uniform jitter added to each maintenance round's sleep, so
#: peers' rounds do not run in lockstep.
STABILIZATION_JITTER = 0.5
#: The timeout of a ring liveness probe, and how long a read waits after its
#: owner failed before it routes again (seconds).
FAILURE_DETECTION_TIMEOUT = 0.5


@dataclass
class IndexConfig:
    """All tunables of a simulated deployment.

    Defaults follow Section 6.1 of the paper: successor list length 4,
    stabilization period 4 s, storage factor 5 (peers hold 5--10 items),
    replication factor 6.
    """

    # --- Fault Tolerant Ring ------------------------------------------------
    successor_list_length: int = 4
    stabilization_period: float = 4.0

    # --- Data Store -----------------------------------------------------------
    storage_factor: int = 5
    key_space: float = 10_000.0

    # --- Replication Manager ---------------------------------------------------
    replication_factor: int = 6

    # --- Content Router ----------------------------------------------------------
    router_refresh_period: float = 4.0

    # --- Protocol selection (paper vs. naive baselines, Section 6.2) -------------
    consistent_insert: bool = True  # PEPPER insertSucc vs. naive insertSucc
    use_scan_range: bool = True  # scanRange vs. application-level naive scan
    safe_leave: bool = True  # availability-preserving leave vs. naive leave
    extra_hop_replication: bool = True  # replicate-to-additional-hop vs. nothing
    proactive_nudge: bool = True  # Section 4.3.1 optimization: poke predecessors

    # --- Simulation substrate ---------------------------------------------------
    network: NetworkConfig = field(default_factory=NetworkConfig)
    seed: int = 0
    # Transport selection: "sim" (the discrete-event substrate above, the
    # default) or "asyncio" (real UDP sockets on localhost with wall-clock
    # periods).  ``repro-run --transport`` overrides it for every cell.
    transport: str = "sim"

    # --- derived / helpers -------------------------------------------------------
    @property
    def overflow_threshold(self) -> int:
        """A Data Store overflows when it holds more than ``2 * sf`` items."""
        return 2 * self.storage_factor

    @property
    def underflow_threshold(self) -> int:
        """A Data Store underflows when it holds fewer than ``sf`` items."""
        return self.storage_factor

    @property
    def join_ack_timeout(self) -> float:
        """How long an inserting peer waits before re-nudging predecessors."""
        return max(2 * self.stabilization_period, 1.0)

    @property
    def repair_horizon(self) -> float:
        """How long a write waits for a failed owner's range to be taken over:
        the successor notices the dead predecessor within one maintenance tick
        and adopts the next live one within the next."""
        return 2 * self.stabilization_period

    @property
    def leave_ack_timeout(self) -> float:
        """Safety net for the availability-preserving leave in tiny rings."""
        return self.stabilization_period * (self.successor_list_length + 2)

    def validate(self) -> None:
        """Raise ``ValueError`` for nonsensical parameter combinations."""
        if self.successor_list_length < 1:
            raise ValueError("successor_list_length must be >= 1")
        for name in ("stabilization_period", "router_refresh_period"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.storage_factor < 1:
            raise ValueError("storage_factor must be >= 1")
        if self.replication_factor < 0:
            raise ValueError("replication_factor must be >= 0")
        if self.key_space <= 0:
            raise ValueError("key_space must be positive")
        if self.transport not in TRANSPORT_NAMES:
            raise ValueError(
                f"unknown transport {self.transport!r}; known: {', '.join(TRANSPORT_NAMES)}"
            )
        self.network.validate()

    def with_naive_protocols(self) -> "IndexConfig":
        """Return a copy using every naive baseline from Section 6.2."""
        return replace(
            self,
            consistent_insert=False,
            use_scan_range=False,
            safe_leave=False,
            extra_hop_replication=False,
            proactive_nudge=False,
        )

    def with_pepper_protocols(self) -> "IndexConfig":
        """Return a copy with all of the paper's protocols enabled."""
        return replace(
            self,
            consistent_insert=True,
            use_scan_range=True,
            safe_leave=True,
            extra_hop_replication=True,
            proactive_nudge=True,
        )

    def copy(self, **overrides) -> "IndexConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)


def default_config(seed: int = 0, **overrides) -> IndexConfig:
    """Convenience factory mirroring the paper's Section 6.1 defaults."""
    config = IndexConfig(seed=seed)
    if overrides:
        config = config.copy(**overrides)
    config.validate()
    return config
