"""Routing equivalence: every policy returns the primary's result set.

The serve layer's contract (docs/ARCHITECTURE.md, "Contract: serve layer") is
that ``replica_lb`` is a pure *routing* choice: it may move reads off the
primary, but with no writes between two queries it must return exactly the
result set the ``primary`` policy returns.  These tests drive a churn
schedule (alternating deletes and re-inserts of workload keys) and compare
the two policies' result sets at checkpoints throughout -- over
the simulated transport, and over real asyncio sockets.

The checkpoint queries run back-to-back with churn quiescent, so exact
equality is required -- replication lag is not an excuse: a replica that
missed the latest push refuses the versioned read and the client falls back
to the primary.
"""

from __future__ import annotations

import pytest

from repro import PRingIndex, default_config
from tests.conftest import build_cluster


def _assert_equivalent(index, windows, context):
    """``replica_lb`` agrees with ``primary`` on every window."""
    for lb, ub in windows:
        primary = index.range_query_now(lb, ub, routing="primary")
        assert primary["complete"], (context, "primary")
        other = index.range_query_now(lb, ub, routing="replica_lb")
        assert other["complete"], context
        assert other["keys"] == primary["keys"], context


def _churn_step(index, rng, keys, live, step):
    """One schedule step: deletes drain the live set, inserts refill it."""
    dead = sorted(set(keys) - live)
    if dead and (step % 2 or len(live) <= len(keys) // 2):
        revived = rng.choice(dead)
        assert index.insert_item_now(revived)
        live.add(revived)
    else:
        victim = rng.choice(sorted(live))
        assert index.delete_item_now(victim)
        live.discard(victim)


@pytest.mark.usefixtures("heap_id")
def test_routing_equivalence_under_500_step_churn():
    index, keys = build_cluster(seed=91, peers=9)
    rng = index.rngs.stream("equivalence-churn")
    live = set(keys)
    windows = [
        (keys[3], keys[-4]),  # wide: crosses most peers
        (keys[20], keys[26]),  # narrow: one or two owners
        (keys[0], keys[-1]),  # full workload span
    ]
    for step in range(500):
        _churn_step(index, rng, keys, live, step)
        index.run(0.05)
        if step % 50 == 49:
            _assert_equivalent(index, windows, step)
    # The schedule really exercised both directions of churn.
    assert live != set(keys) or len(live) == len(keys)


def test_routing_equivalence_under_churn_asyncio():
    """The same contract holds over real sockets (smaller schedule: the
    asyncio substrate runs on the wall clock)."""
    config = default_config(seed=92, transport="asyncio")
    config.network.rpc_timeout = 2.0
    index = PRingIndex(config)
    try:
        index.bootstrap()
        for _ in range(3):
            index.add_peer()
        keys = [float(k) for k in range(100, 100 + 12 * 40, 40)]
        for key in keys:
            assert index.insert_item_now(key, payload=f"payload-{key}")
        index.run(1.5)
        rng = index.rngs.stream("equivalence-churn")
        live = set(keys)
        windows = [(keys[1], keys[-2]), (keys[0], keys[-1])]
        for step in range(12):
            _churn_step(index, rng, keys, live, step)
            if step % 4 == 3:
                _assert_equivalent(index, windows, step)
    finally:
        index.shutdown()
