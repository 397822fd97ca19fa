"""Workload generation: item streams, churn schedules and query mixes.

Layer contract: pure generators -- no simulation state, no network, no
protocol imports; every function takes an injected rng stream and returns
plain schedules/keys.  The harness (and examples/tests) are the consumers;
generators must stay deterministic for a given rng so scenario cells rerun
bit-identically.
"""

from repro.workloads.items import (
    ItemWorkload,
    KEY_DISTRIBUTIONS,
    generate_keys,
    skewed_keys,
    uniform_keys,
    zipf_keys,
)
from repro.workloads.churn import (
    ChurnEvent,
    ChurnSchedule,
    failure_schedule,
    flash_crowd_schedule,
    join_schedule,
)
from repro.workloads.queries import QueryWorkload

__all__ = [
    "ChurnEvent",
    "ChurnSchedule",
    "ItemWorkload",
    "KEY_DISTRIBUTIONS",
    "QueryWorkload",
    "failure_schedule",
    "flash_crowd_schedule",
    "generate_keys",
    "join_schedule",
    "skewed_keys",
    "uniform_keys",
    "zipf_keys",
]
