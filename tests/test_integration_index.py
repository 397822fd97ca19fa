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
from repro.ring.entries import SuccessorEntry
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
    index.run(2 * index.ring_members()[0].replication.table.period)
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
    """The owner of a key fails; an insert and a delete issued at once are
    routed to the failed owner (its live predecessor still names it), wait out
    the ring's repair horizon on the clock (not on an attempt count) and are
    acknowledged once the successor has taken the range over."""
    index, keys = build_cluster(seed=86, peers=10)
    members = index.ring_members()
    owner, entry = members[4], members[0]
    lo, hi, full = owner.store.range.as_tuple()
    assert not full and lo < hi
    new_key = lo + (hi - lo) / 2.0 + 0.125
    victim = next(key for key in keys if lo < key <= hi)
    index.fail_peer(owner.address)
    # The gap: the route names the failed owner.
    assert index.run_process(entry.router.find_responsible(new_key)) == owner.address
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


def _routed_calls(index, source, monkeypatch):
    """Record ``(method, destination)`` of every routing probe, insert and
    scan start ``source`` issues from now on (through the transport observer
    hook)."""
    calls = []
    tracker = index.serve_tracker
    issued = tracker.rpc_issued

    def record(caller, destination, method):
        if caller == source and method in ("ds_probe", "ds_store_item", "scan_begin"):
            calls.append((method, destination))
        issued(caller, destination, method)

    monkeypatch.setattr(tracker, "rpc_issued", record)
    return calls


def _hold_stale(peer, address, value):
    """Put ``value`` on ``peer``'s successor-list entry for ``address``: the
    boundary as ``peer`` last heard it, past the true one."""
    peer.ring.succ_list = [
        SuccessorEntry(e.address, value, e.state, e.heard, e.vouched)
        if e.address == address else e
        for e in peer.ring.succ_list
    ]


def test_a_stale_named_owner_refuses_and_the_write_is_routed_again(monkeypatch):
    """The predecessor's list is held stale: it places its successor's upper
    boundary past the true one, so it names that successor for a key its
    own successor owns.  The insert is refused there, routed again and stored
    exactly once at the true owner once the stale value is replaced; a scan's
    ``scan_begin`` is refused the same way."""
    index, _keys = build_cluster(seed=90, peers=10)
    members = index.ring_members()
    before, named, owner = members[3], members[4], members[5]
    lo, hi, full = owner.store.range.as_tuple()
    assert not full and lo < hi and lo == named.ring.value
    new_key = lo + (hi - lo) / 2.0 + 0.125
    stale_value = new_key + (hi - new_key) / 2.0
    calls = _routed_calls(index, before.address, monkeypatch)
    _hold_stale(before, named.address, stale_value)
    assert before.router._named_owner(new_key) == named.address
    started = index.sim.now
    assert index.insert_item_now(new_key, "stale-name", via=before.address)
    assert index.sim.now - started <= index.config.repair_horizon
    writes = [call for call in calls if call[0] == "ds_store_item"]
    assert writes[0] == ("ds_store_item", named.address)  # refused ...
    assert writes[-1] == ("ds_store_item", owner.address)  # ... then stored here
    assert ("ds_store_item", owner.address) not in writes[:-1]
    stored = [
        op.peer
        for op in index.history.history().of_kind("item_stored")
        if op.attrs["skv"] == new_key and op.attrs.get("reason") == "insert"
    ]
    assert stored == [owner.address]
    assert new_key not in named.store.items

    del calls[:]
    _hold_stale(before, named.address, stale_value)
    result = index.range_query_now(new_key - 1.0, new_key, via=before.address)
    assert result["complete"] and new_key in result["keys"]
    begins = [call for call in calls if call[0] == "scan_begin"]
    assert begins[0] == ("scan_begin", named.address)  # refused
    assert begins[-1] == ("scan_begin", owner.address)


def test_a_dead_named_owner_costs_one_rpc_timeout_before_the_clock_wait(monkeypatch):
    """The owner has just failed and its predecessor, the entry peer, still
    names it: the insert's one RPC to it times out, then the write waits on
    the clock -- no probe, no second timeout -- and is acknowledged after the
    take-over."""
    index, _keys = build_cluster(seed=91, peers=10)
    members = index.ring_members()
    before, owner = members[3], members[4]
    lo, hi, _full = owner.store.range.as_tuple()
    new_key = lo + (hi - lo) / 2.0 + 0.125
    calls = _routed_calls(index, before.address, monkeypatch)
    index.fail_peer(owner.address)
    timeouts = index.network.stats.rpc_timeouts
    started = index.sim.now
    write = index.sim.process(index.insert_item(new_key, "dead-name", via=before.address))
    # Just after the RPC timeout, inside the write's 0.1 s clock wait.
    index.run(index.config.network.rpc_timeout + 0.05)
    assert calls == [("ds_store_item", owner.address)]
    assert index.network.stats.rpc_timeouts - timeouts == 1
    index.run(index.config.repair_horizon)
    assert write.triggered and write.value is True
    done = index.history.history().of_kind("index_insert_done")[-1]
    assert done.time - started <= index.config.repair_horizon


def test_the_naive_scan_starts_only_at_a_peer_that_holds_lb():
    """The route names a peer past ``lb`` (the namer's list misses the true
    owner for a moment): the naive scan's first items reply shows a range
    without ``lb``, so it routes again instead of scanning from there."""
    index, keys = build_cluster(seed=92, peers=10)
    members = index.ring_members()
    before, owner, after = members[3], members[4], members[5]
    lb, ub = owner.store.range.low + 0.5, after.ring.value
    held = before.ring.succ_list
    before.ring.succ_list = [e for e in held if e.address != owner.address]
    assert before.router._named_owner(lb) == after.address
    index.sim.schedule(0.1, lambda _arg: setattr(before.ring, "succ_list", held))
    result = index.run_process(before.queries.query(lb, ub, strategy="naive"))
    assert result["keys"] == [key for key in keys if lb < key <= ub]
    assert any(key <= owner.ring.value for key in result["keys"])
