"""Unit tests for the correctness checkers (Definitions 3-7)."""

from dataclasses import dataclass, field
from typing import List

from hypothesis import given, settings, strategies as st

from repro.core.correctness import (
    CheckResult,
    ItemTimeline,
    QueryRecord,
    check_consistent_successor_pointers,
    check_item_availability,
    check_query_result,
    check_ring_connectivity,
    check_scan_range_correctness,
)
from repro.core.histories import History, Operation
from repro.ring.entries import JOINED, LEAVING, SuccessorEntry


# --------------------------------------------------------------------------- fake peers
@dataclass
class FakeRing:
    state: str
    value: float
    succ_list: List[SuccessorEntry] = field(default_factory=list)


@dataclass
class FakePeer:
    address: str
    alive: bool
    ring: FakeRing


def make_ring_peers(values, lists, states=None):
    peers = []
    for index, (address, value) in enumerate(values):
        entries = [SuccessorEntry(a, v, JOINED, True) for a, v in lists[index]]
        state = states[index] if states else JOINED
        peers.append(FakePeer(address, True, FakeRing(state, value, entries)))
    return peers


# --------------------------------------------------------------------------- Definition 5
def test_consistent_pointers_accepts_perfect_ring():
    values = [("a", 10.0), ("b", 20.0), ("c", 30.0)]
    lists = [
        [("b", 20.0), ("c", 30.0)],
        [("c", 30.0), ("a", 10.0)],
        [("a", 10.0), ("b", 20.0)],
    ]
    result = check_consistent_successor_pointers(make_ring_peers(values, lists))
    assert result.ok, result.violations


def test_consistent_pointers_detects_missing_pointer():
    # "a" skips "b" (its true successor): pointer gap, Definition 5 violated.
    values = [("a", 10.0), ("b", 20.0), ("c", 30.0)]
    lists = [
        [("c", 30.0)],
        [("c", 30.0), ("a", 10.0)],
        [("a", 10.0), ("b", 20.0)],
    ]
    result = check_consistent_successor_pointers(make_ring_peers(values, lists))
    assert not result.ok


def test_consistent_pointers_detects_gap_between_entries():
    values = [("a", 10.0), ("b", 20.0), ("c", 30.0), ("d", 40.0)]
    lists = [
        [("b", 20.0), ("d", 40.0)],  # c missing between b and d
        [("c", 30.0), ("d", 40.0)],
        [("d", 40.0), ("a", 10.0)],
        [("a", 10.0), ("b", 20.0)],
    ]
    result = check_consistent_successor_pointers(make_ring_peers(values, lists))
    assert not result.ok
    assert any("gap" in violation for violation in result.violations)


def test_consistent_pointers_ignores_dead_and_non_joined_peers():
    values = [("a", 10.0), ("b", 20.0), ("c", 30.0)]
    lists = [
        [("c", 30.0)],  # fine: b is not JOINED so "c" is a's successor
        [("c", 30.0), ("a", 10.0)],
        [("a", 10.0)],
    ]
    peers = make_ring_peers(values, lists, states=[JOINED, LEAVING, JOINED])
    assert check_consistent_successor_pointers(peers).ok


def test_consistent_pointers_single_peer_trivially_ok():
    peers = make_ring_peers([("a", 10.0)], [[]])
    assert check_consistent_successor_pointers(peers).ok


# --------------------------------------------------------------------------- connectivity
def test_connectivity_accepts_connected_ring():
    values = [("a", 10.0), ("b", 20.0), ("c", 30.0)]
    lists = [
        [("b", 20.0)],
        [("c", 30.0)],
        [("a", 10.0)],
    ]
    assert check_ring_connectivity(make_ring_peers(values, lists)).ok


def test_connectivity_detects_disconnection():
    values = [("a", 10.0), ("b", 20.0), ("c", 30.0)]
    lists = [
        [("b", 20.0)],
        [("a", 10.0)],
        [("a", 10.0)],  # nobody points at c
    ]
    result = check_ring_connectivity(make_ring_peers(values, lists))
    assert not result.ok


def per_start_connectivity(peers):
    """The rule the checker's two searches replace: one search from every member."""
    members = [p for p in peers if p.alive and p.ring.state == JOINED]
    if len(members) <= 1:
        return CheckResult.success()
    alive_addresses = {peer.address for peer in members}
    adjacency = {
        peer.address: [
            entry.address
            for entry in peer.ring.succ_list
            if entry.address in alive_addresses and entry.address != peer.address
        ]
        for peer in members
    }
    violations = []
    for start in alive_addresses:
        reached = {start}
        frontier = [start]
        while frontier:
            for neighbour in adjacency.get(frontier.pop(), ()):
                if neighbour not in reached:
                    reached.add(neighbour)
                    frontier.append(neighbour)
        missing = alive_addresses - reached
        if missing:
            violations.append(
                f"{start} cannot reach {len(missing)} peer(s): {sorted(missing)[:5]}"
            )
    return CheckResult.failure(violations)


ADDRESSES = [f"p{i}" for i in range(7)]


@st.composite
def successor_graphs(draw):
    """Peers with random successor lists: dead, non-JOINED, unknown and self entries."""
    count = draw(st.integers(0, len(ADDRESSES)))
    targets = st.sampled_from(ADDRESSES + ["gone"])
    peers = []
    for index, address in enumerate(ADDRESSES[:count]):
        pointers = draw(st.lists(targets, max_size=4))
        entries = [SuccessorEntry(a, float(ADDRESSES.index(a)) if a in ADDRESSES else 99.0,
                                  JOINED, True) for a in pointers]
        state = draw(st.sampled_from([JOINED, JOINED, JOINED, LEAVING]))
        alive = draw(st.booleans()) or draw(st.booleans())
        peers.append(FakePeer(address, alive, FakeRing(state, float(index), entries)))
    return peers


@settings(max_examples=400, deadline=None)
@given(peers=successor_graphs())
def test_property_connectivity_matches_the_per_start_rule(peers):
    got = check_ring_connectivity(peers)
    expected = per_start_connectivity(peers)
    assert got.ok == expected.ok
    assert got.violations == expected.violations


# --------------------------------------------------------------------------- timelines
def make_history(ops):
    return History([Operation(i, kind, time, peer, attrs) for i, (time, kind, peer, attrs) in enumerate(ops)])


def test_timeline_basic_intervals():
    history = make_history(
        [
            (1.0, "item_stored", "p1", {"skv": 5.0}),
            (4.0, "item_removed", "p1", {"skv": 5.0}),
            (6.0, "item_stored", "p2", {"skv": 5.0}),
        ]
    )
    timeline = ItemTimeline(history)
    assert timeline.live_at(5.0, 2.0)
    assert not timeline.live_at(5.0, 5.0)
    assert timeline.live_at(5.0, 6.5)
    assert timeline.ever_live_between(5.0, 0.0, 2.0)
    assert not timeline.live_throughout(5.0, 1.0, 7.0)
    assert timeline.live_throughout(5.0, 1.5, 3.5)


def test_timeline_item_moving_between_peers_is_continuously_live():
    history = make_history(
        [
            (1.0, "item_stored", "p1", {"skv": 9.0}),
            (3.0, "item_stored", "p2", {"skv": 9.0}),
            (3.0, "item_removed", "p1", {"skv": 9.0}),
            (10.0, "noop", "p1", {}),
        ]
    )
    timeline = ItemTimeline(history)
    assert timeline.live_throughout(9.0, 1.5, 8.0)


def test_timeline_peer_failure_ends_presence():
    history = make_history(
        [
            (1.0, "item_stored", "p1", {"skv": 2.0}),
            (5.0, "peer_failed", "p1", {}),
            (9.0, "noop", "p2", {}),
        ]
    )
    timeline = ItemTimeline(history)
    assert timeline.live_at(2.0, 3.0)
    assert not timeline.live_at(2.0, 6.0)


def reference_intervals(history):
    """Presence intervals by the plain rule: a failure closes every open copy the peer held."""
    open_intervals, intervals = {}, {}

    def close(skv, start, end):
        if skv is not None and end > start:
            intervals.setdefault(skv, []).append((start, end))

    for op in history:
        if op.kind == "item_stored":
            open_intervals.setdefault((op.get("skv"), op.peer), op.time)
        elif op.kind == "item_removed":
            start = open_intervals.pop((op.get("skv"), op.peer), None)
            if start is not None:
                close(op.get("skv"), start, op.time)
        elif op.kind == "peer_failed":
            for (skv, peer), start in list(open_intervals.items()):
                if peer == op.peer:
                    del open_intervals[(skv, peer)]
                    close(skv, start, op.time)
    horizon = history[-1].time if len(history) else 0.0
    for (skv, _peer), start in open_intervals.items():
        close(skv, start, horizon + 1.0)
    return intervals


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([0.0, 1.0]),
            st.sampled_from(["item_stored", "item_stored", "item_removed", "peer_failed", "noop"]),
            st.sampled_from(["p1", "p2", "p3"]),
            st.sampled_from([1.0, 2.0, 3.0]),
        ),
        max_size=40,
    )
)
def test_property_timeline_matches_the_plain_presence_rule(steps):
    time, ops = 0.0, []
    for advance, kind, peer, skv in steps:
        time += advance
        ops.append((time, kind, peer, {} if kind == "peer_failed" else {"skv": skv}))
    history = make_history(ops)
    # Same intervals, in the same key and list order.
    expected = list(reference_intervals(history).items())
    assert list(ItemTimeline(history).intervals.items()) == expected


# --------------------------------------------------------------------------- Definition 4
def test_query_result_accepts_correct_result():
    history = make_history(
        [
            (0.0, "item_stored", "p1", {"skv": 10.0}),
            (0.0, "item_stored", "p1", {"skv": 20.0}),
            (50.0, "noop", "p1", {}),
        ]
    )
    timeline = ItemTimeline(history)
    query = QueryRecord(lb=5.0, ub=25.0, start_time=1.0, end_time=2.0, result_keys=[10.0, 20.0])
    assert check_query_result(timeline, query).ok


def test_query_result_detects_missing_live_item():
    history = make_history(
        [
            (0.0, "item_stored", "p1", {"skv": 10.0}),
            (0.0, "item_stored", "p1", {"skv": 20.0}),
            (50.0, "noop", "p1", {}),
        ]
    )
    timeline = ItemTimeline(history)
    query = QueryRecord(lb=5.0, ub=25.0, start_time=1.0, end_time=2.0, result_keys=[10.0])
    result = check_query_result(timeline, query)
    assert not result.ok
    assert any("missing" in violation for violation in result.violations)


def test_query_result_allows_missing_item_that_was_not_live_throughout():
    history = make_history(
        [
            (0.0, "item_stored", "p1", {"skv": 10.0}),
            (1.5, "item_removed", "p1", {"skv": 10.0}),  # deleted mid-query
            (50.0, "noop", "p1", {}),
        ]
    )
    timeline = ItemTimeline(history)
    query = QueryRecord(lb=5.0, ub=25.0, start_time=1.0, end_time=2.0, result_keys=[])
    assert check_query_result(timeline, query).ok


def test_query_result_rejects_out_of_range_and_never_live_keys():
    history = make_history([(0.0, "item_stored", "p1", {"skv": 10.0}), (9.0, "noop", "p1", {})])
    timeline = ItemTimeline(history)
    query = QueryRecord(lb=5.0, ub=25.0, start_time=1.0, end_time=2.0, result_keys=[10.0, 30.0])
    assert not check_query_result(timeline, query).ok
    query = QueryRecord(lb=5.0, ub=25.0, start_time=1.0, end_time=2.0, result_keys=[10.0, 12.0])
    assert not check_query_result(timeline, query).ok


# --------------------------------------------------------------------------- Definition 6
def test_scan_range_correctness_accepts_clean_scan():
    history = make_history(
        [
            (1.0, "scan_init", "p1", {"scan_id": 1, "lb": 0.0, "ub": 30.0}),
            (1.1, "scan_visit", "p1", {"scan_id": 1, "sub_low": 0.0, "sub_high": 10.0, "range": (0.0, 10.0, False)}),
            (1.2, "scan_visit", "p2", {"scan_id": 1, "sub_low": 10.0, "sub_high": 30.0, "range": (10.0, 40.0, False)}),
            (1.3, "scan_done", "p2", {"scan_id": 1, "lb": 0.0, "ub": 30.0}),
        ]
    )
    assert check_scan_range_correctness(history).ok


def test_scan_range_correctness_detects_uncovered_interval():
    history = make_history(
        [
            (1.0, "scan_init", "p1", {"scan_id": 1, "lb": 0.0, "ub": 30.0}),
            (1.1, "scan_visit", "p1", {"scan_id": 1, "sub_low": 0.0, "sub_high": 10.0, "range": (0.0, 10.0, False)}),
            (1.3, "scan_done", "p1", {"scan_id": 1, "lb": 0.0, "ub": 30.0}),
        ]
    )
    assert not check_scan_range_correctness(history).ok


def test_scan_range_correctness_detects_overlap():
    history = make_history(
        [
            (1.0, "scan_init", "p1", {"scan_id": 1, "lb": 0.0, "ub": 20.0}),
            (1.1, "scan_visit", "p1", {"scan_id": 1, "sub_low": 0.0, "sub_high": 15.0, "range": (0.0, 15.0, False)}),
            (1.2, "scan_visit", "p2", {"scan_id": 1, "sub_low": 10.0, "sub_high": 20.0, "range": (10.0, 20.0, False)}),
            (1.3, "scan_done", "p2", {"scan_id": 1, "lb": 0.0, "ub": 20.0}),
        ]
    )
    result = check_scan_range_correctness(history)
    assert not result.ok
    assert any("overlap" in violation for violation in result.violations)


def test_scan_range_correctness_detects_subrange_outside_peer_range():
    history = make_history(
        [
            (1.0, "scan_init", "p1", {"scan_id": 1, "lb": 0.0, "ub": 10.0}),
            (1.1, "scan_visit", "p1", {"scan_id": 1, "sub_low": 0.0, "sub_high": 10.0, "range": (0.0, 5.0, False)}),
            (1.3, "scan_done", "p1", {"scan_id": 1, "lb": 0.0, "ub": 10.0}),
        ]
    )
    assert not check_scan_range_correctness(history).ok


def test_scan_range_correctness_requires_matching_init():
    history = make_history(
        [(1.3, "scan_done", "p1", {"scan_id": 7, "lb": 0.0, "ub": 10.0})]
    )
    assert not check_scan_range_correctness(history).ok


# --------------------------------------------------------------------------- Definition 7
def test_item_availability_ok_when_everything_live():
    history = make_history(
        [
            (0.0, "index_insert_item", "client", {"skv": 1.0}),
            (0.1, "item_stored", "p1", {"skv": 1.0}),
            (10.0, "noop", "p1", {}),
        ]
    )
    assert check_item_availability(history).ok


def test_item_availability_detects_lost_item():
    history = make_history(
        [
            (0.0, "index_insert_item", "client", {"skv": 1.0}),
            (0.1, "item_stored", "p1", {"skv": 1.0}),
            (5.0, "peer_failed", "p1", {}),
            (30.0, "noop", "p2", {}),
        ]
    )
    assert not check_item_availability(history).ok


def test_item_availability_ignores_deleted_items():
    history = make_history(
        [
            (0.0, "index_insert_item", "client", {"skv": 1.0}),
            (0.1, "item_stored", "p1", {"skv": 1.0}),
            (2.0, "index_delete_item", "client", {"skv": 1.0}),
            (2.1, "item_removed", "p1", {"skv": 1.0}),
            (30.0, "noop", "p2", {}),
        ]
    )
    assert check_item_availability(history).ok


# --------------------------------------------------------------------------- CheckResult
def test_check_result_merge_and_bool():
    good = CheckResult.success()
    bad = CheckResult.failure(["problem"])
    merged = good.merge(bad)
    assert bool(good)
    assert not bool(bad)
    assert not merged.ok
    assert merged.violations == ["problem"]
