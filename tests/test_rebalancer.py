"""Tests for the global rebalancer and the move-then-delete bulk transfer.

The overflow trigger only recruits free peers when a store crosses
``2*sf``, so a ring whose members all sit *at* the threshold never uses its
spare capacity.  The :class:`~repro.datastore.rebalance.GlobalRebalancer`
closes that gap by moving coherent lower slices of loaded ranges onto FREE
peers -- copy first, delete only after the receiver has joined the ring and
confirmed.  These tests pin both the happy path and the crash atomicity the
move-then-delete ordering buys (the satellite-4 contract: a victim failing
mid-transfer loses nothing and leaves no duplicate serving copies).
"""

from repro import PRingIndex, default_config
from repro.datastore.items import Item
from repro.transport import Endpoint
from tests.conftest import build_cluster

_TRANSFER_KEYS = ("value", "range", "items", "join_via", "notify")


def _build_saturated_single_peer(seed, **overrides):
    """One ring member holding exactly ``2*sf`` items: loaded, but the
    overflow trigger (strictly greater than the threshold) never fires."""
    config = default_config(seed=seed, **overrides)
    index = PRingIndex(config)
    index.bootstrap()
    for key in range(100, 200, 10):  # exactly overflow_threshold items
        index.insert_item_now(float(key))
        index.run(0.2)
    assert len(index.ring_members()) == 1
    peer = index.ring_members()[0]
    assert peer.store.item_count() == index.config.overflow_threshold
    return index


def _top_up_to_threshold(index, victim):
    """Grow the victim's store to exactly the overflow threshold with keys it
    owns -- loaded enough for a bulk move, not enough to race a split."""
    high = victim.store.range.high
    filler = 0
    while victim.store.item_count() < index.config.overflow_threshold:
        filler += 1
        key = (high - 0.01 * filler) % index.config.key_space
        assert victim.store.owns_key(key)
        assert victim.store.items.add(Item(key, payload="filler"))
    return victim


def _serving_copies(index, key):
    """Live active peers that both own *and* hold ``key`` (split-brain probe)."""
    return [
        peer.address
        for peer in index.ring_members()
        if peer.store.owns_key(key) and key in peer.store.items.keys()
    ]


def test_rebalancer_moves_a_range_onto_a_free_peer():
    """The tentpole happy path: a FREE peer is harvested without any overflow."""
    index = _build_saturated_single_peer(
        seed=61, rebalance_enabled=True, rebalance_period=2.0
    )
    index.add_peer()  # FREE capacity the overflow trigger would never recruit
    index.run(60.0)
    members = index.ring_members()
    assert len(members) == 2
    counts = sorted(peer.store.item_count() for peer in members)
    assert counts == [5, 5]
    assert index.rebalancer.moves_started >= 1
    assert index.rebalancer.moves_completed >= 1
    assert index.history.count("rebalance_out") >= 1
    assert index.history.count("rebalance_finished") >= 1
    audit = index.reachability()
    assert audit.ok
    assert audit.items_stored == 10


def test_rebalancer_backs_off_when_quiescent():
    """Idle rounds grow the cadence to its cap; nothing moves on a lone ring."""
    config = default_config(seed=62, rebalance_enabled=True, rebalance_period=2.0)
    index = PRingIndex(config)
    index.bootstrap()
    index.run(60.0)
    assert index.rebalancer.moves_started == 0
    assert index.rebalancer.cadence.interval() == 2.0 * config.rebalance_backoff_max


def test_rebalancer_disabled_by_default():
    index = _build_saturated_single_peer(seed=65)
    assert index.rebalancer is None
    index.add_peer()
    index.run(60.0)
    # Without the rebalancer the free peer is never recruited.
    assert len(index.ring_members()) == 1
    assert len(index.free_peers()) == 1


def test_victim_failure_mid_transfer_loses_nothing_no_duplicates():
    """Satellite 4: crash the victim between ``ds_bulk_get`` and ``ds_bulk_put``.

    Move-then-delete means the receiver's copies are complete before the
    victim sheds anything, so a victim crash mid-transfer leaves the receiver
    as the sole serving owner of the moved slice: every moved key survives on
    exactly one live owning peer (no loss, no split-brain).
    """
    index, keys = build_cluster(seed=63, peers=8)
    index.add_peer()  # make sure the pool has a free peer to reserve
    index.run(5.0)
    members = sorted(index.ring_members(), key=lambda p: p.ring.value)
    victim = max(members[1:], key=lambda p: len(p.balancer._split_candidates()))
    _top_up_to_threshold(index, victim)
    coordinator = Endpoint(index.sim, index.network, "test-coordinator")

    def drive():
        acquired = yield coordinator.call(index.pool.address, "pool_acquire", {})
        free_address = acquired["address"]
        assert free_address is not None
        bulk = yield coordinator.call(
            victim.address,
            "ds_bulk_get",
            {"new_peer": free_address, "max_items": victim.store.item_count() // 2},
        )
        assert bulk.get("ok"), bulk
        index.fail_peer(victim.address)  # crash before the receiver absorbs
        put = yield coordinator.call(
            free_address, "ds_bulk_put", {key: bulk[key] for key in _TRANSFER_KEYS}
        )
        return bulk, put

    bulk, put = index.run_process(drive())
    assert put == {"accepted": True}
    moved = [item["skv"] for item in bulk["items"]]
    assert len(moved) >= 5
    # Let the receiver join (its confirmation to the dead victim fails, so it
    # keeps the range) and the ring stabilize around the crash.
    index.run(120.0)
    for key in moved:
        assert len(_serving_copies(index, key)) == 1, key


def test_receiver_failure_before_put_leaves_victim_intact():
    """The other half of atomicity: the receiver dies before ``ds_bulk_put``.

    Nothing was deleted at the victim, so the pending transfer must time out
    and the victim keeps serving every copy it held.
    """
    index, keys = build_cluster(seed=64, peers=8)
    index.add_peer()
    index.run(5.0)
    members = sorted(index.ring_members(), key=lambda p: p.ring.value)
    victim = max(members[1:], key=lambda p: len(p.balancer._split_candidates()))
    _top_up_to_threshold(index, victim)
    coordinator = Endpoint(index.sim, index.network, "test-coordinator")

    def drive():
        acquired = yield coordinator.call(index.pool.address, "pool_acquire", {})
        free_address = acquired["address"]
        assert free_address is not None
        bulk = yield coordinator.call(
            victim.address,
            "ds_bulk_get",
            {"new_peer": free_address, "max_items": victim.store.item_count() // 2},
        )
        assert bulk.get("ok"), bulk
        index.fail_peer(free_address)  # the receiver dies holding nothing
        return bulk

    bulk = index.run_process(drive())
    moved = {item["skv"] for item in bulk["items"]}
    assert victim.balancer._pending_split is not None
    # Past the waiter deadline (leave_ack_timeout + 30 s) the move is abandoned.
    index.run(index.config.leave_ack_timeout + 40.0)
    assert victim.balancer._pending_split is None
    assert not victim.balancer._balancing
    assert index.history.count("rebalance_timed_out") == 1
    assert moved <= set(victim.store.items.keys())
    for key in moved:
        assert _serving_copies(index, key) == [victim.address]
