"""End-to-end integration tests of the full index (PEPPER protocols)."""

import pytest

from repro import (
    PRingIndex,
    check_consistent_successor_pointers,
    check_item_availability,
    check_ring_connectivity,
    check_scan_range_correctness,
    count_lost_items,
    default_config,
)
from tests.conftest import build_cluster


@pytest.fixture(scope="module")
def cluster():
    return build_cluster(seed=81, peers=10)


def test_cluster_grows_via_splits(cluster):
    index, keys = cluster
    assert len(index.ring_members()) > 3
    assert index.total_stored_items() == len(keys)


def test_all_invariants_hold_after_build(cluster):
    index, _keys = cluster
    assert check_consistent_successor_pointers(index.live_peers()).ok
    assert check_ring_connectivity(index.live_peers()).ok
    assert check_scan_range_correctness(index.history.history()).ok
    assert check_item_availability(index.history.history()).ok
    assert count_lost_items(index.history.history(), index.live_peers()) == []


def test_point_lookup_via_tiny_range(cluster):
    index, keys = cluster
    key = keys[17]
    result = index.range_query_now(key - 1e-6, key)
    assert result["keys"] == [key]


def test_insert_route_and_query_round_trip(cluster):
    index, keys = cluster
    new_key = 4321.125
    assert index.insert_item_now(new_key, payload="late")
    index.run(2.0)
    result = index.range_query_now(new_key - 1.0, new_key + 1.0)
    assert new_key in result["keys"]
    payloads = [item.payload for item in result["items"] if item.skv == new_key]
    assert payloads == ["late"]
    assert index.delete_item_now(new_key)


def test_delete_then_query_does_not_return_item(cluster):
    index, keys = cluster
    victim = keys[22]
    assert index.delete_item_now(victim)
    index.run(2.0)
    result = index.range_query_now(victim - 1.0, victim + 1.0)
    assert victim not in result["keys"]
    # Re-insert to keep the module-scoped cluster intact for other tests.
    assert index.insert_item_now(victim, payload="restored")
    index.run(2.0)


def test_queries_from_every_peer_agree(cluster):
    index, keys = cluster
    lb, ub = keys[10], keys[35]
    expected = sorted(k for k in keys if lb < k <= ub)
    for peer in index.ring_members()[:4]:
        result = index.range_query_now(lb, ub, via=peer.address)
        assert result["keys"] == expected


def test_growth_then_more_load_keeps_invariants():
    index, keys = build_cluster(seed=82, peers=6)
    for _ in range(4):
        index.add_peer()
    extra = [k + 3.0 for k in keys[:30]]
    for key in extra:
        index.insert_item_now(key)
        index.run(0.4)
    index.run(25.0)
    assert index.total_stored_items() == len(keys) + len(extra)
    assert check_consistent_successor_pointers(index.live_peers()).ok
    assert check_ring_connectivity(index.live_peers()).ok


def test_failures_during_queries_do_not_lose_committed_items():
    index, keys = build_cluster(seed=83, peers=10)
    index.run(2 * index.config.replication_refresh_period)
    victims = [p.address for p in index.ring_members()[2:4]]
    for victim in victims:
        index.fail_peer(victim)
    index.run(50.0)
    result = index.range_query_now(0.0, index.config.key_space)
    assert set(result["keys"]) == set(keys)
    assert count_lost_items(index.history.history(), index.live_peers()) == []


def test_double_bootstrap_rejected():
    index = PRingIndex(default_config(seed=84))
    index.bootstrap()
    with pytest.raises(Exception):
        index.bootstrap()


def test_entry_peer_requires_a_ring():
    index = PRingIndex(default_config(seed=85))
    with pytest.raises(Exception):
        index.range_query_now(0.0, 1.0)


def test_metrics_capture_protocol_operations(cluster):
    index, _keys = cluster
    assert index.metrics.count("insert_succ") >= len(index.ring_members()) - 1
    assert index.metrics.count("range_query") >= 1
    assert index.network.stats.rpc_calls > 0


def test_writes_issued_into_a_range_gap_are_acknowledged_after_the_take_over():
    """The owner of a key fails; an insert and a delete issued at once find no
    owner, wait out the ring's repair horizon on the clock (not on an attempt
    count) and are acknowledged once the successor has taken the range over."""
    index, keys = build_cluster(seed=86, peers=10)
    members = index.ring_members()
    owner, entry = members[4], members[0]
    lo, hi, full = owner.store.range.as_tuple()
    assert not full and lo < hi
    new_key = lo + (hi - lo) / 2.0 + 0.125
    victim = next(key for key in keys if lo < key <= hi)
    index.fail_peer(owner.address)
    assert index.run_process(entry.router.find_responsible(new_key)) is None  # the gap
    started = index.sim.now
    write = index.sim.process(index.insert_item(new_key, "into-the-gap", via=entry.address))
    erase = index.sim.process(index.delete_item(victim, via=entry.address))
    index.run(index.config.repair_horizon + 1.0)
    assert write.triggered and write.value is True
    assert erase.triggered and erase.value is True
    done = index.history.history().of_kind("index_insert_done", "index_delete_done")[-2:]
    assert all(0.5 < op.time - started <= index.config.repair_horizon for op in done)
    index.run(2.0)
    result = index.range_query_now(lo, hi, via=entry.address)
    assert new_key in result["keys"] and victim not in result["keys"]
