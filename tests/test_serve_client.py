"""Serve layer: QueryClient routing, in-flight tracking, replica-read safety."""

import pytest

from repro.replication import leases
from repro.replication.leases import LEASE_PERIODS
from repro.serve.tracker import READ_METHODS, InFlightTracker
from tests.conftest import build_cluster
from tests.test_maintenance import _overflowing_splitter


@pytest.fixture(scope="module")
def cluster():
    return build_cluster(seed=81, peers=9)


def expected_keys(keys, lb, ub):
    return sorted(k for k in keys if lb < k <= ub)


# ----------------------------------------------------------------- routing policies
def test_all_routing_policies_return_identical_results(cluster):
    index, keys = cluster
    for lb, ub in ((keys[4], keys[30]), (keys[0], keys[-1])):
        results = {
            routing: index.range_query_now(lb, ub, routing=routing)
            for routing in ("primary", "replica_lb")
        }
        for routing, result in results.items():
            assert result["complete"], routing
            assert result["keys"] == expected_keys(keys, lb, ub), routing
            assert result["routing"] == routing


def test_unknown_routing_policy_is_rejected(cluster):
    index, _keys = cluster
    with pytest.raises(ValueError):
        index.query_client(routing="telepathy")


# ----------------------------------------------------------------- tracker accounting
def test_tracker_settles_to_zero_in_flight(cluster):
    index, keys = cluster
    index.range_query_now(keys[2], keys[40], routing="replica_lb")
    index.run(5.0)  # let any expiry timers of dropped messages fire
    tracker = index.serve_tracker
    # Ring maintenance keeps issuing pings, so one may be in flight at any
    # given instant: step to the next instant with none.  A leaked call never
    # completes, so it still shows.
    for _ in range(100):
        if tracker.issued == tracker.completed:
            break
        index.run(0.01)
    assert tracker.issued == tracker.completed
    assert sum(tracker.in_flight.values()) == 0


def test_replica_lb_spreads_reads_over_the_replica_set(cluster):
    index, keys = cluster
    before = dict(index.serve_tracker.read_load)
    for _ in range(10):
        index.range_query_now(keys[10], keys[14], routing="replica_lb")
        index.run(0.2)
    deltas = {
        address: count - before.get(address, 0)
        for address, count in index.serve_tracker.read_load.items()
        if count - before.get(address, 0) > 0
    }
    # A 10x-repeated single-owner window lands on more than one peer.
    assert len(deltas) >= 2, deltas


def test_least_loaded_breaks_ties_by_cumulative_load_then_position():
    tracker = InFlightTracker()
    assert tracker.least_loaded(["a", "b", "c"]) == "a"
    tracker.rpc_issued("x", "a", "serve_read")
    tracker.rpc_completed("a")  # not in flight, but cumulatively served
    assert tracker.least_loaded(["a", "b", "c"]) == "b"
    tracker.rpc_issued("x", "b", "serve_read")  # b now in flight
    assert tracker.least_loaded(["a", "b", "c"]) == "c"


def test_tracker_ignores_non_read_methods_for_read_load():
    tracker = InFlightTracker()
    tracker.rpc_issued("x", "a", "ring_ping")
    assert tracker.read_load == {}
    assert tracker.outstanding("a") == 1
    tracker.rpc_completed("a")
    assert tracker.outstanding("a") == 0
    assert "serve_read" in READ_METHODS and "serve_meta" not in READ_METHODS


def test_read_load_variance_counts_idle_peers_as_zero():
    tracker = InFlightTracker()
    for _ in range(4):
        tracker.rpc_issued("x", "hot", "serve_read")
    # {4, 0}: mean 2, population variance 4.
    assert tracker.read_load_variance(["hot", "idle"]) == pytest.approx(4.0)
    assert tracker.read_load_variance([]) == 0.0


# ----------------------------------------------------------------- replica-read safety
def _replica_of(index, owner):
    """A live peer holding a pushed replica set for ``owner``."""
    for peer in index.ring_members():
        if peer.address == owner.address:
            continue
        if _recorded(index, peer, owner) is not None:
            return peer
    return None


def _recorded(index, holder, owner):
    """``owner``'s snapshot as ``holder`` recorded it: ``(version, keys, deleted keys)``."""
    return leases.snapshot(holder.replication.table, owner.address, index.sim.now)


def _serve_read(index, caller, target, payload):
    def proc():
        return (yield caller.call(target.address, "serve_read", payload))

    return index.run_process(proc())


def test_replica_refuses_reads_at_a_version_it_never_saw():
    index, keys = build_cluster(seed=83, peers=8)
    owner = index.ring_members()[2]
    replica = _replica_of(index, owner)
    assert replica is not None
    lo, hi, _full = owner.store.range.as_tuple()
    # Mutate the owner after its last push: the recorded push version is now
    # behind the primary's live version.  The 0.25 offset keeps the probe off
    # the 15-spaced workload key grid, so the insert is a genuinely new item.
    probe = ((lo + hi) / 2.0 if lo < hi else hi - 1.0) + 0.25
    assert index.insert_item_now(probe)
    assert owner.store.owns_key(probe)
    assert owner.store.items.version > _recorded(index, replica, owner)[0]
    response = _serve_read(
        index,
        index.ring_members()[0],
        replica,
        {
            "owner": owner.address,
            "lb": lo,
            "ub": hi,
            "version": owner.store.items.version,
        },
    )
    assert response["ok"] is False
    assert response["reason"] in ("stale", "missing")
    # The end-to-end strong read is nevertheless correct: the client falls
    # back to the primary on the refusal.
    result = index.range_query_now(lo, hi, routing="replica_lb", consistency="strong")
    assert result["complete"]
    assert probe in result["keys"]


def test_no_refused_replica_read_follows_an_insert():
    """Between an insert and the owner's next push only the owner holds its
    current snapshot, and its ``serve_meta`` says so: strong reads of its
    window go to the owner and no replica refuses one.  Once the push lands,
    strong reads spread over the replicas again."""
    index, keys = build_cluster(seed=86, peers=9)
    owner = index.ring_members()[2]
    lo, hi, full = owner.store.range.as_tuple()
    assert not full and lo < hi
    window = [key for key in keys if lo < key <= hi]
    assert len(owner.replication.current_holders()) >= 2
    probe = (lo + hi) / 2.0 + 0.25  # off the 15-spaced key grid: a new item
    assert index.insert_item_now(probe)
    assert owner.store.owns_key(probe)
    assert owner.replication.current_holders() == ()  # not pushed since
    count = index.metrics.count
    rejected, served = count("serve_replica_rejected"), count("serve_read_replica")
    for _ in range(8):
        result = index.range_query_now(lo, hi, routing="replica_lb", consistency="strong")
        assert result["complete"] and result["keys"] == sorted(window + [probe])
    assert owner.replication.current_holders() == ()
    assert count("serve_replica_rejected") == rejected
    assert count("serve_read_replica") == served
    # The next replication round pushes the new snapshot: replicas serve again.
    index.run(owner.replication.table.period + 1.0)
    assert owner.replication.current_holders()
    for _ in range(8):
        result = index.range_query_now(lo, hi, routing="replica_lb", consistency="strong")
        assert result["keys"] == sorted(window + [probe])
    assert count("serve_replica_rejected") == rejected
    assert count("serve_read_replica") > served


def test_replica_never_serves_a_tombstoned_copy():
    index, keys = build_cluster(seed=84, peers=8)
    owner = index.ring_members()[3]
    replica = _replica_of(index, owner)
    assert replica is not None
    _version, pushed, _deleted = _recorded(index, replica, owner)
    assert pushed, "settled cluster must have pushed replica keys"
    victim = min(pushed)
    assert index.delete_item_now(victim)
    index.run(1.0)  # let the tombstone cast land on the replica
    assert victim in _recorded(index, replica, owner)[2]
    # Eventual-consistency read (no version check): the tombstoned copy must
    # be refused, never returned as a live item.
    response = _serve_read(
        index,
        index.ring_members()[0],
        replica,
        {"owner": owner.address, "lb": victim - 1.0, "ub": victim + 1.0, "version": None},
    )
    assert response["ok"] is False
    assert response["reason"] == "tombstoned"
    # End to end, the deleted key is gone under every routing policy.
    for routing in ("primary", "replica_lb"):
        result = index.range_query_now(
            victim - 1.0, victim + 1.0, routing=routing, consistency="eventual"
        )
        assert victim not in result["keys"], routing


def test_an_ex_target_forgets_the_owners_snapshot_and_a_current_target_serves_it():
    """A split's new peer moves into its predecessors' successor lists, so an
    owner stops pushing to its last target.  Once the window plus one replication
    period has passed, the ex-target's ``eventual`` read (``version=None``)
    answers ``no_push`` instead of serving the snapshot it was last pushed;
    a current target's version-matched read still succeeds."""
    index, splitter = _overflowing_splitter(seed=61)
    members = [peer for peer in index.ring_members() if peer is not splitter]
    targets = {peer.address: set(peer.replication._last_push[1]) for peer in members}
    period = splitter.replication.table.period
    index.run((LEASE_PERIODS + 2) * period)
    dropped = [
        (owner, index.peers[address])
        for owner in members
        if owner.alive and len(owner.store.items)
        for address in targets[owner.address] - set(owner.replication._last_push[1])
        if index.peers[address].alive
    ]
    assert dropped
    caller = index.ring_members()[0]
    for owner, ex_target in dropped:
        lo, hi, _full = owner.store.range.as_tuple()
        read = {"owner": owner.address, "lb": lo, "ub": hi, "version": None}
        assert _serve_read(index, caller, ex_target, read) == {"ok": False, "reason": "no_push"}
        current = index.peers[owner.replication._last_push[1][0]]
        matched = {**read, "version": owner.store.items.version}
        response = _serve_read(index, caller, current, matched)
        assert response["ok"] and response["source"] == "replica"
        assert [entry["skv"] for entry in response["items"]] == [
            skv for skv in owner.store.items.keys() if lo < skv <= hi
        ]


def test_replica_failure_mid_query_falls_back_and_stays_correct():
    """Killing the chosen replica mid-read degrades to the primary, never to
    a wrong answer: every query over the owner's own window stays exact."""
    index, keys = build_cluster(seed=85, peers=9)
    owner = index.ring_members()[2]
    replica = _replica_of(index, owner)
    assert replica is not None
    lo, hi, full = owner.store.range.as_tuple()
    assert not full
    want = expected_keys(keys, lo, hi)
    assert want, "owner must hold workload keys"

    def fail_replica_mid_query():
        yield index.sim.timeout(0.003)  # inside the first hops of the query
        index.fail_peer(replica.address)

    index.sim.process(fail_replica_mid_query())
    # The owner's primary copy never moves, so replica_lb must return the
    # exact window contents on every attempt -- during the failure, and
    # through failure detection and replica revival afterwards.
    for attempt in range(8):
        result = index.range_query_now(lo, hi, routing="replica_lb", timeout=90.0)
        assert result["complete"], attempt
        assert sorted(result["keys"]) == want, attempt
        index.run(2.0)


# ----------------------------------------------------------------- waiting out a range gap
def _meta_rpcs(index):
    return index.network.stats.per_method.get("serve_meta", 0)


def _window_inside(peer):
    """A window strictly inside ``peer``'s (non-wrapping) range."""
    lo, hi, full = peer.store.range.as_tuple()
    assert not full and lo < hi
    return lo + (hi - lo) * 0.25, lo + (hi - lo) * 0.75


def test_replica_lb_waits_out_the_take_over_of_a_failed_owner():
    """Querying a window whose owner just failed completes once the successor
    has taken the range over -- by waiting on the router, not by walking the
    ring one ``serve_meta`` at a time."""
    index, keys = build_cluster(seed=86, peers=9)
    members = index.ring_members()
    owner, entry = members[4], members[0]
    lb, ub = _window_inside(owner)
    want = expected_keys(keys, lb, ub)
    assert want, "the window must hold workload keys"
    index.fail_peer(owner.address)
    metas, started = _meta_rpcs(index), index.sim.now
    result = index.range_query_now(lb, ub, via=entry.address, routing="replica_lb", timeout=60.0)
    assert result["complete"]
    assert index.sim.now - started <= 2 * index.config.repair_horizon
    assert _meta_rpcs(index) - metas < 10
    assert result["hops"] < 10
    # The new owner revives the items from its replicas within a replication round.
    assert set(result["keys"]) <= set(want)
    index.run(2 * entry.replication.table.period)
    again = index.range_query_now(lb, ub, via=entry.address, routing="replica_lb")
    assert again["complete"] and again["keys"] == want


def test_replica_lb_spanning_a_failed_owner_completes_without_a_ring_walk():
    """A window that begins in a live range and runs into a failed owner's:
    the scan covers the live part, waits at the gap, and finishes after the
    take-over.  Its successor's range begins *after* the watermark meanwhile."""
    index, keys = build_cluster(seed=87, peers=9)
    members = index.ring_members()
    before, owner, entry = members[3], members[4], members[0]
    lb = _window_inside(before)[1]
    ub = _window_inside(owner)[1]
    want = expected_keys(keys, lb, ub)
    index.fail_peer(owner.address)
    result = index.range_query_now(lb, ub, via=entry.address, routing="replica_lb", timeout=60.0)
    assert result["complete"]
    assert set(result["keys"]) <= set(want)
    assert [key for key in want if key <= before.ring.value] == [
        key for key in result["keys"] if key <= before.ring.value
    ]
    # Two probes per 0.25 s of gap at most -- never the 256-hop walk.
    assert result["hops"] < 8 * 2 * index.config.repair_horizon


def test_watermark_equal_to_an_upper_bound_steps_to_the_successor():
    """Routing to a key that *is* a peer's upper bound returns that peer; the
    scan must step to its successor instead of routing there forever."""
    index, keys = build_cluster(seed=88, peers=9)
    members = index.ring_members()
    first, second = members[3], members[4]
    lb = first.ring.value  # (lb, ub] begins exactly at first's upper bound
    ub = _window_inside(second)[1]
    assert index.run_process(members[0].router.find_responsible(lb)) == first.address
    metas = _meta_rpcs(index)
    result = index.range_query_now(lb, ub, via=members[0].address, routing="replica_lb")
    assert result["complete"]
    assert result["keys"] == expected_keys(keys, lb, ub)
    assert _meta_rpcs(index) - metas == 2  # first (nothing to add), then second


def test_query_timeout_inside_the_gap_degrades_on_time():
    index, _keys = build_cluster(seed=89, peers=9)
    members = index.ring_members()
    owner, entry = members[4], members[0]
    lb, ub = _window_inside(owner)
    index.fail_peer(owner.address)
    for routing in ("replica_lb", "primary"):
        started = index.sim.now
        result = index.range_query_now(lb, ub, via=entry.address, routing=routing, timeout=1.5)
        assert result["complete"] is False, routing
        assert 1.5 <= index.sim.now - started < 1.5 + 1.0, routing
