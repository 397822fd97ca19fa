"""Deterministic reproductions of the paper's anomaly scenarios (Sections 4.2 and 5).

These tests exercise the *naive* baselines in exactly the interleavings the
paper uses to motivate its protocols, and then show that the corresponding
PEPPER protocol closes the hole.
"""

import pytest

from repro.core.correctness import (
    ItemTimeline,
    check_consistent_successor_pointers,
    check_query_result,
    count_lost_items,
)
from repro.datastore.items import items_from_wire
from repro.replication import cfs
from tests.conftest import build_cluster


# --------------------------------------------------------------------------- §4.2.1
def test_section_4_2_1_naive_insert_creates_missing_pointers():
    """With the naive insertSucc, a freshly split-in peer is unknown to other
    predecessors until stabilization, violating Definition 5."""
    index, keys = build_cluster(
        seed=91, peers=12, consistent_insert=False, proactive_nudge=False
    )
    # Insert a burst of items into one region to force a split *now*.
    target = sorted(index.ring_members(), key=lambda p: p.ring.value)[1]
    low, high = target.store.range.low, target.store.range.high
    burst = [low + (high - low) * fraction for fraction in
             (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6)]
    for key in burst:
        index.insert_item_now(key)
    # Wait just until the split completes (the new peer reports JOINED) but
    # before a stabilization round can propagate it.
    splits_before = index.history.count("split_finished")
    for _ in range(200):
        index.run(0.05)
        if index.history.count("split_finished") > splits_before:
            break
    assert index.history.count("split_finished") > splits_before, "burst should force a split"
    result = check_consistent_successor_pointers(index.live_peers())
    assert not result.ok, "naive insertSucc should leave a window of inconsistency"


def test_section_4_2_1_pepper_insert_has_no_such_window():
    index, keys = build_cluster(seed=91, peers=12)  # same seed, PEPPER protocols
    target = sorted(index.ring_members(), key=lambda p: p.ring.value)[1]
    low, high = target.store.range.low, target.store.range.high
    burst = [low + (high - low) * fraction for fraction in
             (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6)]
    for key in burst:
        index.insert_item_now(key)
    for _ in range(200):
        index.run(0.05)
        result = check_consistent_successor_pointers(index.live_peers())
        assert result.ok, result.violations
        if index.history.count("split_finished") > 0:
            break


# --------------------------------------------------------------------------- §4.2.2
def _drive_naive_scan_with_concurrent_redistribution(index, keys):
    """Reproduce Figure 10's interleaving against the naive application scan.

    The application fetches a peer's items, then -- before it asks for the
    successor -- a redistribution moves the boundary so that an item the scan
    has not seen yet migrates *backwards* to the already-visited peer.  The
    naive scan misses it; scanRange cannot, because the redistribution blocks
    on the range lock until the scan has moved past the peer.
    """
    members = sorted(index.ring_members(), key=lambda p: p.ring.value)
    # Pick an adjacent pair (scan start, successor) where the successor has
    # enough spare items that a redistribution (rather than a merge) happens.
    spare_needed = index.config.storage_factor + 3
    start, successor = None, None
    for peer, nxt in zip(members, members[1:]):
        if peer.store.item_count() >= 2 and nxt.store.item_count() >= spare_needed:
            start, successor = peer, nxt
            break
    if start is None:
        # Create the imbalance explicitly: top up one successor's range.
        start, successor = members[1], members[2]
        low, high = successor.store.range.low, successor.store.range.high
        for fraction in (0.15, 0.3, 0.45, 0.6, 0.75, 0.9):
            index.insert_item_now(low + (high - low) * fraction)
        index.run(2.0)
    assert successor.store.item_count() >= spare_needed

    lb = start.store.range.low
    ub = successor.store.range.high
    query_start = index.sim.now

    def interleaved():
        # Step 1 of the naive scan: fetch the first peer's items.
        first = yield start.call(start.address, "ds_get_local_items", {"lb": lb, "ub": ub})
        collected = {item.skv for item in items_from_wire(first["items"])}
        # Concurrent Data Store maintenance: the successor redistributes its
        # lowest items down to ``start`` (boundary moves up).
        response = yield successor.call(
            successor.address,
            "ds_redistribute_request",
            {"need": 2, "requester": start.address},
            timeout=30.0,
        )
        moved = []
        if response.get("action") == "redistribute":
            moved = [item.skv for item in items_from_wire(response["items"])]
            for item in items_from_wire(response["items"]):
                start.store.store_local(item, reason="redistribute_in")
            start.store.set_range_high(response["new_boundary"], reason="redistribute")
            start.ring.update_value(response["new_boundary"])
        # Step 2 of the naive scan: now ask for the successor and fetch its items.
        second = yield start.call(successor.address, "ds_get_local_items", {"lb": lb, "ub": ub})
        collected |= {item.skv for item in items_from_wire(second["items"])}
        return collected, moved

    collected, moved = index.run_process(interleaved())
    query_end = index.sim.now
    return collected, moved, lb, ub, query_start, query_end


def test_section_4_2_2_naive_scan_misses_redistributed_items():
    index, keys = build_cluster(seed=92, peers=8, use_scan_range=False)
    collected, moved, lb, ub, start, end = _drive_naive_scan_with_concurrent_redistribution(
        index, keys
    )
    assert moved, "the redistribution should have moved at least one item"
    missed = [skv for skv in moved if skv not in collected and lb < skv <= ub]
    assert missed, "the naive two-step scan must miss the migrated item(s)"
    # The missed items are stored in the system the whole time (they only moved
    # from the successor to the already-visited peer), so a correct range query
    # over the same interval returns them -- which the scanRange test below
    # verifies.  The naive application-level scan lost them.
    still_stored = {
        skv
        for peer in index.ring_members()
        for skv in peer.store.items.keys()
    }
    assert set(missed) <= still_stored


def test_section_4_2_2_scan_range_returns_all_live_items_despite_churn():
    index, keys = build_cluster(seed=92, peers=8)
    # Run the same kind of concurrent redistribution pressure while issuing a
    # scanRange query over the same interval: the result must be correct.
    members = sorted(index.ring_members(), key=lambda p: p.ring.value)
    lb = members[1].store.range.low
    ub = members[3].store.range.high

    def churn():
        while True:
            yield index.sim.timeout(0.002)
            for peer in index.ring_members():
                if peer.store.item_count() < index.config.underflow_threshold:
                    peer.balancer.schedule_merge()

    index.sim.process(churn())
    result = index.range_query_now(lb, ub)
    timeline = ItemTimeline(index.history.history())
    record = index.query_records[-1]
    assert check_query_result(timeline, record).ok
    assert result["complete"]


# --------------------------------------------------------------------------- §5.2 / Figure 17
def _merge_then_fail(monkeypatch, config_overrides, seed=94):
    """Figure 17's scenario: a peer merges away, then a single peer failure.

    With replication factor 1, the merging peer holds the only replica of its
    predecessor's items.  If it leaves without the extra-hop push, a subsequent
    failure of that predecessor loses the items; with the extra hop the items
    survive.  Replication rounds are stretched to every tenth 4 s tick (40 s)
    so a round cannot repair the gap before the failure hits (the paper's
    scenario happens "between replica refreshes").
    """
    monkeypatch.setattr(cfs, "REPLICATION_TICKS", 10)
    index, keys = build_cluster(
        seed=seed,
        peers=8,
        replication_factor=1,
        **config_overrides,
    )
    index.run(45.0)  # make sure at least one replication round happened
    members = sorted(index.ring_members(), key=lambda p: p.ring.value)
    leaver = members[3]
    predecessor = members[2]
    at_risk = list(predecessor.store.items.keys())
    if not at_risk:
        pytest.skip("the chosen predecessor holds no items in this topology")
    # Force the leaver to merge away by deleting its items.
    for key in list(leaver.store.items.keys()):
        index.delete_item_now(key)
        index.run(0.2)
    for _ in range(400):
        index.run(0.1)
        if not leaver.in_ring:
            break
    if leaver.in_ring:
        pytest.skip("no merge occurred in this topology")
    # Single failure right after the merge: the predecessor whose only replica
    # lived at the departed peer.
    index.fail_peer(predecessor.address)
    index.run(60.0)
    lost = count_lost_items(index.history.history(), index.live_peers())
    return index, [skv for skv in lost if skv in at_risk]


@pytest.mark.xfail(
    strict=False,
    reason=(
        "whether the naive baseline actually loses items depends on which peer "
        "merges and when the failure lands relative to the replication refresh; "
        "the PEPPER counterpart below must (and does) never lose items"
    ),
)
def test_figure_17_naive_merge_can_lose_items(monkeypatch):
    _index, lost = _merge_then_fail(
        monkeypatch, {"extra_hop_replication": False, "safe_leave": False}
    )
    assert lost, "without the extra replication hop a single failure loses items"


def test_figure_17_extra_hop_preserves_item_availability(monkeypatch):
    _index, lost = _merge_then_fail(monkeypatch, {})
    assert lost == []
