"""Edge-case tests for the content router.

Wrap-around ranges, a single-peer ring and dead successors midway through a
route must hold for the one router every peer runs, even though the happy
path is exercised through the integration suites.
"""

import pytest

from repro import PRingIndex, default_config
from tests.conftest import build_cluster


# --------------------------------------------------------------------------- single-peer ring
def test_single_peer_ring_owns_every_key():
    config = default_config(seed=71)
    index = PRingIndex(config)
    peer = index.bootstrap()
    index.run(5.0)
    for key in (0.5, 1.0, 4_000.0, index.config.key_space - 0.5):
        found = index.run_process(peer.router.find_responsible(key))
        assert found == peer.address
    # The zero-hop local answer must be recorded as such.
    assert index.metrics.values("route_hops")[-1] == 0


def test_single_peer_ring_with_items_routes_inserts_locally():
    config = default_config(seed=72)
    index = PRingIndex(config)
    index.bootstrap()
    for key in (100.0, 200.0, 300.0):
        assert index.insert_item_now(key)
    assert index.total_stored_items() == 3


# --------------------------------------------------------------------------- wrap-around ranges
@pytest.fixture(scope="module")
def wrap_cluster():
    return build_cluster(seed=73, peers=8)


def _wrap_peer(index):
    """The ring member whose Data Store range wraps around the key space."""
    for peer in index.ring_members():
        if peer.store.range.low > peer.store.range.high:
            return peer
    return None


def test_some_range_wraps_the_key_space(wrap_cluster):
    index, _keys = wrap_cluster
    assert _wrap_peer(index) is not None, "a circular ring always has one wrapping range"


def test_route_to_key_inside_wrapped_range(wrap_cluster):
    index, _keys = wrap_cluster
    wrap = _wrap_peer(index)
    assert wrap is not None
    # Pick one key on each side of the wrap point.
    key_high = wrap.store.range.low + 1.0  # just above low, still < key_space
    key_low = max(wrap.store.range.high - 1e-4, wrap.store.range.high / 2)
    for key in (key_high, key_low):
        if not wrap.store.owns_key(key):
            continue  # degenerate split landed the probe outside; skip that side
        for start in index.ring_members()[:3]:
            found = index.run_process(start.router.find_responsible(key))
            assert found == wrap.address


def test_route_from_every_member_converges_on_wrap_owner(wrap_cluster):
    index, _keys = wrap_cluster
    wrap = _wrap_peer(index)
    assert wrap is not None
    key = wrap.store.range.low + 0.5
    if not wrap.store.owns_key(key):
        pytest.skip("wrap range too narrow for the probe key in this topology")
    owners = {
        index.run_process(peer.router.find_responsible(key))
        for peer in index.ring_members()
    }
    assert owners == {wrap.address}


# --------------------------------------------------------------------------- dead-successor paths
def test_walk_survives_dead_peer_on_route():
    index, keys = build_cluster(seed=74, peers=8)
    members = sorted(index.ring_members(), key=lambda p: p.ring.value)
    start = members[0]
    # Kill the peer two hops clockwise so the walk hits it before stabilization
    # can patch the successor lists.
    victim = members[2 % len(members)]
    target_key = members[4 % len(members)].store.range.high
    owner_before = index.peer_for_key(target_key)
    assert owner_before is not None
    index.fail_peer(victim.address)
    found = index.run_process(start.router.find_responsible(target_key), timeout=120.0)
    assert found is not None
    assert index.peers[found].alive
    assert index.peers[found].store.owns_key(target_key)


def test_unroutable_when_all_successors_dead():
    index, _keys = build_cluster(
        seed=75, peers=4, keys=[200.0 + 37.0 * i for i in range(25)]
    )
    members = sorted(index.ring_members(), key=lambda p: p.ring.value)
    start = members[0]
    for peer in members[1:]:
        index.fail_peer(peer.address)
    foreign_key = None
    for candidate in (123.456, 7_777.7, 9_000.0):
        if not start.store.owns_key(candidate):
            foreign_key = candidate
            break
    if foreign_key is None:
        pytest.skip("the surviving peer owns the whole space in this topology")
    found = index.run_process(start.router.find_responsible(foreign_key), timeout=600.0)
    # Every probe times out; the router must give up cleanly, not hang or crash.
    assert found is None
