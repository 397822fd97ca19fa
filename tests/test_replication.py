"""Tests for the Replication Manager: refresh, revive, tombstones, extra hop."""

import random

from hypothesis import given, settings, strategies as st

from repro import default_config
from repro.datastore.items import Item, items_from_wire, items_to_wire
from repro.datastore.ranges import CircularRange
from repro.datastore.store import DataStore
from repro.replication.cfs import ReplicationManager
from repro.ring.chord import ChordRing
from repro.sim.engine import Simulator
from repro.sim.network import Network, NetworkConfig
from repro.transport import Endpoint
from tests.conftest import build_cluster


def test_items_are_replicated_to_successors():
    index, keys = build_cluster(seed=51, peers=8)
    index.run(2 * index.config.replication_refresh_period)
    replicated = set()
    for peer in index.live_peers():
        replicated.update(peer.replication.replica_keys())
    # With replication factor 6 on a ~8-member ring every item has replicas.
    assert set(keys) <= replicated


def test_failed_peer_items_are_revived():
    index, keys = build_cluster(seed=52, peers=8)
    index.run(2 * index.config.replication_refresh_period)
    victim = index.ring_members()[2]
    lost_keys = set(victim.store.items.keys())
    assert lost_keys
    index.fail_peer(victim.address)
    index.run(40.0)
    stored = set()
    for peer in index.ring_members():
        stored.update(peer.store.items.keys())
    assert lost_keys <= stored


def test_two_failures_tolerated_with_default_replication():
    index, keys = build_cluster(seed=53, peers=10)
    index.run(2 * index.config.replication_refresh_period)
    victims = index.ring_members()[2:4]
    for victim in victims:
        index.fail_peer(victim.address)
    index.run(60.0)
    stored = set()
    for peer in index.ring_members():
        stored.update(peer.store.items.keys())
    assert stored == set(keys)


def test_deleted_items_are_not_resurrected_by_failures():
    index, keys = build_cluster(seed=54, peers=8)
    index.run(2 * index.config.replication_refresh_period)
    victims = keys[:5]
    for key in victims:
        assert index.delete_item_now(key)
        index.run(0.5)
    # Fail the peer that owned those keys' range: replicas elsewhere must not
    # bring the deleted items back.
    index.run(2.0)
    owner = None
    for peer in index.ring_members():
        if any(peer.store.range.contains(k) for k in victims):
            owner = peer
            break
    if owner is not None and len(index.ring_members()) > 2:
        index.fail_peer(owner.address)
    index.run(40.0)
    stored = set()
    for peer in index.ring_members():
        stored.update(peer.store.items.keys())
    assert not (stored & set(victims))


def test_replica_counts_do_not_include_primaries():
    index, keys = build_cluster(seed=55, peers=8)
    index.run(2 * index.config.replication_refresh_period)
    for peer in index.ring_members():
        primaries = set(peer.store.items.keys())
        replicas = set(peer.replication.replica_keys())
        assert not (primaries & replicas)


def test_clear_drops_replicas():
    index, keys = build_cluster(seed=56, peers=6)
    index.run(2 * index.config.replication_refresh_period)
    peer = index.ring_members()[1]
    assert peer.replication.replica_count() > 0
    peer.replication.clear()
    assert peer.replication.replica_count() == 0


def test_tombstone_blocks_and_then_expires():
    index, keys = build_cluster(seed=57, peers=6)
    peer = index.ring_members()[1]
    manager = peer.replication
    skv = 4242.5
    manager._tombstones[skv] = index.sim.now
    assert manager._tombstoned(skv)
    # After three refresh periods the tombstone expires automatically.
    index.run(3 * index.config.replication_refresh_period + 1.0)
    assert not manager._tombstoned(skv)


def test_an_insert_acked_just_before_its_owner_fails_is_served_by_the_successor():
    """The owner acks an insert and fails before any replication refresh has
    run.  The one-item cast it sent its first JOINED successor with the ack is
    the copy that survives: the successor takes the range over and serves it."""
    index, _keys = build_cluster(seed=59, peers=8)
    owner = index.ring_members()[2]
    (successor,) = [index.peers[address] for address in owner.ring.joined_successors(1)]
    entry = index.ring_members()[0]
    key = owner.store.items.keys()[-1] - 0.5  # a new key inside the owner's range
    assert owner.store.owns_key(key)
    assert len(owner.store.items) + 1 <= index.config.overflow_threshold  # no split
    assert index.insert_item_now(key, payload="late", via=entry.address)
    assert key in owner.store.items
    index.fail_peer(owner.address)
    index.run(40.0)
    assert successor.store.owns_key(key) and key in successor.store.items
    result = index.range_query_now(key - 0.25, key, via=entry.address)
    assert result["keys"] == [key]


def test_extra_hop_push_reports_acknowledgements():
    index, keys = build_cluster(seed=58, peers=8)
    index.run(2 * index.config.replication_refresh_period)
    peer = index.ring_members()[2]
    count = index.run_process(peer.replication.push_extra_hop())
    assert count >= 1


# --------------------------------------------------------------------------- reference paths
# The promotion scan and the push receiver answer from the replica store's
# sorted keys and the wire entries directly; the full scan and the
# Item-per-entry loop they replaced stay here as the references.
PERIOD = 4.0  # default_config's replication_refresh_period
NOW = 40.0
grid_key = st.integers(0, 79_999).map(lambda n: n / 8)
# Ages at, inside and just past the tombstone (3 periods) and freshness
# (4 periods) windows; ``None`` is "no record".
ages = st.sampled_from([None, 0.0, PERIOD, 3 * PERIOD, 3 * PERIOD + 0.125, 4 * PERIOD,
                        4 * PERIOD + 0.125, 10 * PERIOD])


def _old_promotion_candidates(manager):
    return [
        item
        for item in manager.replicas.all_items()
        if manager.store.range.contains(item.skv)
        and item.skv not in manager.store.items
        and manager._is_promotable(item.skv)
    ]


def _old_handle_store_replicas(manager, payload, request):
    stored = 0
    now = manager.node.sim.now
    pushed = []
    for item in items_from_wire(payload["items"]):
        pushed.append(item.skv)
        if manager._tombstoned(item.skv):
            continue
        manager._freshness[item.skv] = now
        if manager.store.active and item.skv in manager.store.items:
            continue
        if manager.replicas.add(item):
            stored += 1
    manager._push_state[payload["owner"]] = (payload.get("version"), now, tuple(pushed))
    return {"stored": stored}


def _bare_manager(state):
    """A lone peer's ReplicationManager at ``NOW``, holding ``state``."""
    config = default_config(seed=0)
    sim = Simulator()
    node = Endpoint(sim, Network(sim, random.Random(0), NetworkConfig()), "peer",
                    rng=random.Random(0))
    ring = ChordRing(node, 0.0, config)
    manager = ReplicationManager(node, ring, DataStore(node, ring, config), config)
    sim.run(until=NOW)  # the refresh loop idles: the store is not active yet
    manager.store.active = state["active"]
    manager.store.range = state["range"]
    for key in state["primaries"]:
        manager.store.items.add(Item(key, "primary"))
    for key in state["replicas"]:
        manager.replicas.add(Item(key, "replica"))
    for table, recorded in ((manager._tombstones, state["tombstones"]),
                            (manager._freshness, state["freshness"])):
        for key, age in recorded.items():
            if age is not None:
                table[key] = NOW - age
    return manager


@st.composite
def replica_states(draw):
    keys = draw(st.lists(grid_key, unique=True, max_size=30))
    shape = draw(st.sampled_from(["plain", "wrapping", "full", "empty"]))
    low, high = sorted(draw(st.lists(grid_key, min_size=2, max_size=2)))
    if shape == "wrapping":
        low, high = high, low
    elif shape == "empty":
        high = low
    return {
        "keys": keys,
        "active": draw(st.booleans()),
        "range": CircularRange(low, high, full=shape == "full"),
        "primaries": [key for key in keys if draw(st.integers(0, 3)) == 0],
        "replicas": [key for key in keys if draw(st.booleans())],
        "tombstones": {key: draw(ages) for key in keys},
        "freshness": {key: draw(ages) for key in keys},
    }


def _end_state(manager):
    return (
        list(manager._freshness.items()),
        list(manager._tombstones.items()),
        list(manager._push_state.items()),
        [(item.skv, item.payload) for item in manager.replicas],
    )


@settings(max_examples=200, deadline=None)
@given(state=replica_states())
def test_promotion_candidates_equal_the_full_scan(state):
    state["active"] = True
    reference, manager = _bare_manager(state), _bare_manager(state)
    expected = [item.skv for item in _old_promotion_candidates(reference)]
    assert [item.skv for item in manager._promotion_candidates()] == expected
    assert _end_state(manager) == _end_state(reference)  # the same tombstone expiries


@settings(max_examples=200, deadline=None)
@given(state=replica_states(), data=st.data())
def test_push_receiver_ends_as_the_item_per_entry_loop(state, data):
    pushed = data.draw(st.lists(st.sampled_from(state["keys"]), unique=True)
                       if state["keys"] else st.just([]))
    payload = {
        "items": items_to_wire(Item(key, f"pushed-{key}") for key in pushed),
        "owner": "pred",
        "version": 7,
    }
    reference, manager = _bare_manager(state), _bare_manager(state)
    expected = _old_handle_store_replicas(reference, payload, None)
    assert manager._handle_store_replicas(payload, None) == expected
    assert _end_state(manager) == _end_state(reference)
