"""Tests for storage balancing: splits, merges, redistributions and the free-peer pool."""

import pytest

from repro import PRingIndex, default_config
from repro.core.correctness import check_consistent_successor_pointers
from repro.datastore.items import Item
from tests.conftest import build_cluster


def test_free_peer_pool_acquire_release():
    from repro.datastore.maintenance import FreePeerPool
    from repro.sim.engine import Simulator
    from repro.sim.network import Network, NetworkConfig
    from repro.sim.randomness import RngStreams

    sim = Simulator()
    network = Network(sim, RngStreams(0).stream("net"), NetworkConfig())
    pool = FreePeerPool(sim, network, "pool")
    pool.add("peerA")
    pool.add("peerA")  # duplicates ignored
    assert pool.available() == 1
    assert pool.rpc_pool_acquire({}, None) == {"address": "peerA"}
    assert pool.rpc_pool_acquire({}, None) == {"address": None}
    pool.rpc_pool_release({"address": "peerA"}, None)
    assert pool.available() == 1


def test_splits_pull_free_peers_into_the_ring():
    index, keys = build_cluster(seed=41, peers=8)
    assert len(index.ring_members()) > 1
    assert index.history.count("split_finished") >= len(index.ring_members()) - 1


def test_split_preserves_all_items():
    index, keys = build_cluster(seed=42, peers=8)
    stored = set()
    for peer in index.ring_members():
        stored.update(peer.store.items.keys())
    assert stored == set(keys)


def test_no_splits_without_free_peers():
    config = default_config(seed=43)
    index = PRingIndex(config)
    index.bootstrap()  # no free peers at all
    for key in range(100, 400, 10):
        index.insert_item_now(float(key))
        index.run(0.2)
    index.run(10.0)
    # The single peer holds everything (overflowing, but nowhere to split to).
    assert len(index.ring_members()) == 1
    assert index.total_stored_items() == 30
    assert index.history.count("split_deferred") >= 1


def test_store_at_the_threshold_recruits_no_free_peer():
    """The paper's split rule: only a store holding *more* than ``2*sf`` items
    splits, so a peer at exactly ``2*sf`` leaves an available FREE peer idle."""
    index = PRingIndex(default_config(seed=65))
    index.bootstrap()
    for key in range(100, 200, 10):  # exactly overflow_threshold items
        index.insert_item_now(float(key))
        index.run(0.2)
    (peer,) = index.ring_members()
    assert peer.store.item_count() == index.config.overflow_threshold
    index.add_peer()
    index.run(60.0)
    assert len(index.ring_members()) == 1
    assert len(index.free_peers()) == 1
    assert index.history.count("split_started") == 0


def test_no_free_peer_deferral_backs_off():
    """A deferred split must not retry on every balancer round.

    Regression: ``split_deferred(reason="no_free_peer")`` used to be retried
    by every periodic check with no backoff, hot-spinning the balancer (and
    the free-peer pool RPC) at saturation.  Consecutive deferrals now back
    the periodic retry off multiplicatively, so a saturated deployment
    records a handful of deferrals per 120 s instead of one per round.
    """
    config = default_config(seed=47)
    index = PRingIndex(config)
    index.bootstrap()  # a single overflowing peer, never any free peers
    for key in range(100, 400, 10):
        index.insert_item_now(float(key))
        index.run(0.2)
    before = index.history.count("split_deferred")
    index.run(120.0)
    deferred = index.history.count("split_deferred") - before
    # The balancer round is ~4 s: without backoff this window would record
    # ~30 deferrals; with multiplicative backoff (capped at 8x the base
    # period) it stays in single digits, while still retrying eventually.
    assert 1 <= deferred <= 10


def test_overflow_event_still_retries_split_immediately_during_backoff():
    """New overflow pressure (an insert) bypasses the deferral backoff.

    The backoff only pauses the *periodic* retry; an overflow event carries
    new information (the store grew), so it must still trigger an immediate
    attempt -- otherwise a build-phase deferral could delay a needed split by
    the whole backoff interval.
    """
    config = default_config(seed=48)
    index = PRingIndex(config)
    index.bootstrap()
    for key in range(100, 400, 10):
        index.insert_item_now(float(key))
        index.run(0.2)
    peer = index.ring_members()[0]
    # Force a long backoff window, then overflow again: the event-triggered
    # attempt must run (and record its deferral) despite the backoff.
    peer.balancer._defer_until = index.sim.now + 100.0
    before = index.history.count("split_deferred")
    index.insert_item_now(401.0)  # overflow event during the backoff window
    index.run(2.0)
    assert index.history.count("split_deferred") > before


def test_ring_stranded_overflow_defers_split_instead_of_spinning():
    """An overflow made of items the ring can no longer accept must not split.

    Regression for the 5000-peer wedge: when a peer's effective ring boundary
    moves past items it still holds (a half-completed split or a lagging
    range), the old split logic kept picking a stranded item as the split key
    -- the new peer's join was redirected forever, it returned to the pool,
    and the periodic check retried the same doomed split indefinitely
    (permanently blocking lifecycle quiescence).  Such stores must report no
    split pressure and defer the split before touching the free-peer pool.
    """
    # Shed disabled: this test pins the *deferral* behaviour, so the stranded
    # copies must stay put instead of being healed to their responsible owner
    # (tests/test_stranded_shed.py covers the healing path).
    index, keys = build_cluster(seed=44, peers=6, shed_stranded=False)
    for _ in range(4):  # make sure the pool has free peers to (not) consume
        index.add_peer()
    index.run(60.0)  # let any genuine splits the new free peers enable finish
    assert not index.split_pressure()
    members = sorted(index.ring_members(), key=lambda p: p.ring.value)
    peer = members[2]
    low = peer.store.range.low
    # Strand items: overflow the store with keys at/below its lower boundary
    # (as if the boundary moved up after they arrived).
    for offset in range(index.config.overflow_threshold + 2):
        peer.store.items.add(Item((low - 0.001 * (offset + 1)) % index.config.key_space))
    assert peer.store.item_count() > index.config.overflow_threshold
    in_range = len(peer.balancer._split_candidates())
    assert in_range <= index.config.overflow_threshold
    assert not peer.balancer.split_feasible()
    assert not index.split_pressure()
    # The split defers without consuming a free peer or wedging the balancer.
    free_before = len(index.free_peers())
    peer.balancer.schedule_split()
    index.run(30.0)
    assert peer.balancer._pending_split is None
    assert not peer.balancer._balancing
    assert len(index.free_peers()) == free_before
    assert index.history.count("split_deferred") > 0


def test_split_base_respects_a_predecessor_inside_the_range():
    """A ring predecessor inside the store range tightens the split boundary."""
    index, keys = build_cluster(seed=45, peers=6)
    members = sorted(index.ring_members(), key=lambda p: p.ring.value)
    peer = members[2]
    low, own = peer.store.range.low, peer.ring.value
    assert peer.balancer._split_base() == low
    # Simulate the ring adopting a closer predecessor while the range lags.
    inside = (low + (own - low) * 0.5) if own > low else own - 0.001
    peer.ring.pred_address = "peerX"
    peer.ring.pred_value = inside
    assert peer.balancer._split_base() == inside


# --------------------------------------------------------------------------- split crash atomicity
# A split is move-then-delete: the splitter drops the handed-over slice only
# after the new peer has joined the ring and confirmed (``ds_split_complete``).
# These tests crash one side inside that window.
def _serving_copies(index, key):
    """Live ring members that both own *and* hold ``key`` (split-brain probe)."""
    return [
        peer.address
        for peer in index.ring_members()
        if peer.store.owns_key(key) and key in peer.store.items.keys()
    ]


def _run_until(index, condition, limit=30.0, step=0.001):
    deadline = index.sim.now + limit
    while not condition():
        assert index.sim.now < deadline, "condition never held"
        index.run(step)


def _split_in_flight(seed):
    """A settled ring with one split stopped right after ``ds_activate``.

    Returns ``(index, splitter, receiver, transferred keys)``: the receiver
    holds the lower slice and is joining the ring; the splitter still holds
    every key and has not heard ``ds_split_complete``.
    """
    index, _keys = build_cluster(seed=seed, peers=8)
    index.add_peer()
    index.run(5.0)
    assert index.pool.available() >= 1
    members = sorted(index.ring_members(), key=lambda p: p.ring.value)
    splitter = max(members[1:], key=lambda p: len(p.balancer._split_candidates()))
    # Overflow the splitter with keys it owns, then ask for the split.
    high = splitter.store.range.high
    filler = 0
    while splitter.store.item_count() <= index.config.overflow_threshold:
        filler += 1
        key = (high - 0.01 * filler) % index.config.key_space
        assert splitter.store.owns_key(key)
        assert splitter.store.items.add(Item(key, payload="filler"))
    splitter.balancer.schedule_split()

    def activated():
        pending = splitter.balancer._pending_split
        return pending is not None and index.peers[pending["new_peer"]].store.active

    _run_until(index, activated)
    pending = splitter.balancer._pending_split
    assert not pending["event"].triggered  # no ds_split_complete yet
    transferred = set(pending["transferred"])
    assert len(transferred) >= index.config.storage_factor
    return index, splitter, index.peers[pending["new_peer"]], transferred


def test_split_receiver_failure_before_confirming_leaves_splitter_intact():
    """The receiver dies between ``ds_activate`` and ``ds_split_complete``.

    Nothing was deleted at the splitter, so the split times out and the
    splitter keeps, and alone serves, every key it handed over.
    """
    index, splitter, receiver, transferred = _split_in_flight(seed=64)
    finished = index.history.count("split_finished")
    index.fail_peer(receiver.address)
    _run_until(
        index,
        lambda: splitter.balancer._pending_split is None,
        limit=index.config.leave_ack_timeout + 40.0,
        step=0.5,
    )
    assert not splitter.balancer._balancing
    assert index.history.count("split_timed_out") == 1
    assert index.history.count("split_finished") == finished
    assert transferred <= set(splitter.store.items.keys())
    for key in transferred:
        assert _serving_copies(index, key) == [splitter.address], key


def test_split_splitter_failure_after_activation_leaves_receiver_owning_the_slice():
    """The splitter dies right after ``ds_activate``.

    The receiver already holds the whole slice; its confirmation to the dead
    splitter fails, so it keeps the range and becomes the sole serving owner
    of every transferred key.
    """
    index, splitter, receiver, transferred = _split_in_flight(seed=63)
    index.fail_peer(splitter.address)
    # Let the receiver finish its join and the ring stabilize around the crash.
    index.run(120.0)
    assert receiver.in_ring
    for key in transferred:
        assert _serving_copies(index, key) == [receiver.address], key


def test_deletions_cause_merges_and_peers_become_free():
    index, keys = build_cluster(seed=44, peers=8)
    before = len(index.ring_members())
    for key in keys[: int(len(keys) * 0.8)]:
        index.delete_item_now(key)
        index.run(0.8)
    index.run(30.0)
    after = len(index.ring_members())
    assert after < before
    assert index.metrics.count("merge") >= 1
    assert len(index.free_peers()) > 0
    assert check_consistent_successor_pointers(index.live_peers()).ok


def test_merged_peers_surrender_items_to_survivors():
    index, keys = build_cluster(seed=45, peers=8)
    victims = keys[: int(len(keys) * 0.8)]
    for key in victims:
        index.delete_item_now(key)
        index.run(0.8)
    index.run(30.0)
    survivors = set()
    for peer in index.ring_members():
        survivors.update(peer.store.items.keys())
    assert survivors == set(keys) - set(victims)


def test_redistribution_moves_boundary():
    index, keys = build_cluster(seed=46, peers=8)
    redistributions = index.history.count("redistribute")
    # Delete items from one peer's range only, so it underflows while its
    # successor still has plenty -> redistribution rather than merge.
    members = sorted(index.ring_members(), key=lambda p: p.ring.value)
    donor = None
    for peer, successor in zip(members, members[1:]):
        if peer.store.item_count() >= 5 and successor.store.item_count() >= 8:
            donor = (peer, successor)
            break
    if donor is None:
        pytest.skip("no suitable adjacent pair in this topology")
    peer, successor = donor
    for key in list(peer.store.items.keys())[: peer.store.item_count() - 1]:
        index.delete_item_now(key)
        index.run(0.3)
    index.run(15.0)
    assert (
        index.history.count("redistribute") > redistributions
        or index.metrics.count("merge") > 0
    )


def test_merged_peer_leaves_the_ring_and_surrenders_its_range():
    index, keys = build_cluster(seed=44, peers=8)
    for key in keys[: int(len(keys) * 0.8)]:
        index.delete_item_now(key)
        index.run(0.8)
    index.run(30.0)
    merges = index.history.history().of_kind("merge_finished")
    assert merges, "the deletion workload should force at least one merge"
    for op in merges:
        merged_peer = index.peers[op.peer]
        if merged_peer.alive:
            # A merged-away peer is out of the ring (free) unless a later split
            # pulled it back in; either way it must hold a consistent state.
            assert merged_peer.is_free or merged_peer.in_ring
    # At least the most recent merger should still be outside the ring.
    last_merged = index.peers[merges[-1].peer]
    assert not last_merged.in_ring or index.pool.available() > 0


def test_balance_survives_interleaved_inserts_and_deletes():
    index, keys = build_cluster(seed=48, peers=8)
    rng_keys = [k + 7.0 for k in keys[:20]]
    for new_key, victim in zip(rng_keys, keys[:20]):
        index.insert_item_now(new_key)
        index.delete_item_now(victim)
        index.run(0.5)
    index.run(20.0)
    expected = (set(keys) - set(keys[:20])) | set(rng_keys)
    stored = set()
    for peer in index.ring_members():
        stored.update(peer.store.items.keys())
    assert stored == expected
    assert check_consistent_successor_pointers(index.live_peers()).ok
