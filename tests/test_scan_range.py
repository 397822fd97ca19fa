"""Tests for range queries: the scanRange primitive and the naive baseline."""

import pytest

from repro.core.correctness import (
    ItemTimeline,
    check_query_result,
    check_scan_range_correctness,
)
from tests.conftest import build_cluster


@pytest.fixture(scope="module")
def cluster():
    return build_cluster(seed=71, peers=9)


def expected_keys(keys, lb, ub):
    return sorted(k for k in keys if lb < k <= ub)


def test_scan_query_returns_exactly_matching_items(cluster):
    index, keys = cluster
    lb, ub = keys[5], keys[30]
    result = index.range_query_now(lb, ub)
    assert result["complete"]
    assert result["keys"] == expected_keys(keys, lb, ub)


def test_scan_query_lower_bound_is_exclusive_upper_inclusive(cluster):
    index, keys = cluster
    lb, ub = keys[2], keys[4]
    result = index.range_query_now(lb, ub)
    assert lb not in result["keys"]
    assert ub in result["keys"]


def test_scan_query_spanning_everything(cluster):
    index, keys = cluster
    result = index.range_query_now(0.0, index.config.key_space)
    assert set(result["keys"]) == set(keys)
    assert result["hops"] >= len(index.ring_members()) - 1


def test_scan_query_with_no_matches(cluster):
    index, keys = cluster
    result = index.range_query_now(keys[7] + 0.01, keys[8] - 0.01)
    assert result["keys"] == []
    assert result["complete"]


def test_scan_histories_satisfy_definition_6(cluster):
    index, keys = cluster
    for offset in range(0, 30, 10):
        index.range_query_now(keys[offset], keys[offset + 8])
        index.run(0.5)
    assert check_scan_range_correctness(index.history.history()).ok


def test_scan_queries_satisfy_definition_4(cluster):
    index, keys = cluster
    lb, ub = keys[3], keys[40]
    index.range_query_now(lb, ub)
    timeline = ItemTimeline(index.history.history())
    record = index.query_records[-1]
    assert check_query_result(timeline, record).ok


def test_naive_query_on_stable_system_is_also_correct(cluster):
    index, keys = cluster
    peer = index.ring_members()[0]
    lb, ub = keys[5], keys[25]
    result = index.run_process(peer.queries.query(lb, ub, strategy="naive"))
    assert sorted(result["keys"]) == expected_keys(keys, lb, ub)


def test_scan_and_naive_report_similar_hops(cluster):
    index, keys = cluster
    peer = index.ring_members()[0]
    lb, ub = keys[5], keys[35]
    scan = index.run_process(peer.queries.query(lb, ub, strategy="scan"))
    naive = index.run_process(peer.queries.query(lb, ub, strategy="naive"))
    assert abs(scan["hops"] - naive["hops"]) <= 2


def test_query_rejects_unknown_strategy(cluster):
    index, keys = cluster
    peer = index.ring_members()[0]
    with pytest.raises(ValueError):
        index.run_process(peer.queries.query(keys[5], keys[25], strategy="psychic"))


def test_forward_target_prunes_successors_inside_the_scanned_window(cluster):
    """Window pruning: successors whose whole arc lies at or below the
    watermark are skipped without paying a hop."""
    from repro.ring.entries import JOINED

    index, _keys = cluster
    # The lowest-value peer sees an ascending successor list (no wrap), which
    # makes arc attribution in the assertion straightforward.
    peer = min(index.ring_members(), key=lambda p: p.ring.value)
    entries = [
        entry
        for entry in peer.ring.successor_entries()
        if entry.address != peer.address and entry.state == JOINED
    ]
    assert len(entries) >= 3, "settled 9-peer ring must expose several successors"
    before = index.metrics.count("scan_window_pruned")
    # Watermark exactly at the second successor's upper bound: both leading
    # arcs are fully scanned, the third entry is the first useful hop.
    target = peer.queries._forward_target(entries[1].value)
    assert target == entries[2].address
    assert index.metrics.count("scan_window_pruned") > before
    # A watermark below every arc prunes nothing: first successor wins.
    assert peer.queries._forward_target(peer.ring.value) == entries[0].address


def test_scan_query_correct_during_concurrent_churn():
    index, keys = build_cluster(seed=72, peers=9)
    rng = index.rngs.stream("churn-test")

    def churn():
        while True:
            yield index.sim.timeout(0.3)
            victim = rng.choice(keys)
            yield from index.delete_item(victim)
            yield index.sim.timeout(0.3)
            yield from index.insert_item(victim)

    index.sim.process(churn())
    for _ in range(6):
        lb, ub = keys[4], keys[44]
        index.range_query_now(lb, ub)
        index.run(1.5)
    timeline = ItemTimeline(index.history.history())
    for record in index.query_records[-6:]:
        assert check_query_result(timeline, record).ok


def test_scan_query_survives_peer_failure_mid_stream():
    index, keys = build_cluster(seed=73, peers=9)
    # Fail a peer, then immediately query a range that crosses its keys.
    victim = sorted(index.ring_members(), key=lambda p: p.ring.value)[3]
    index.fail_peer(victim.address)
    index.run(30.0)  # allow failure detection and replica revival
    result = index.range_query_now(keys[0], keys[-1])
    assert result["complete"]
    assert set(result["keys"]) == set(expected_keys(keys, keys[0], keys[-1]))
