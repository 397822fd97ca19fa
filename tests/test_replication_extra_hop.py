"""Unit tests for the replicate-to-additional-hop protocol (Section 5.2).

``push_items_one_extra_hop`` is what stands between a merge and the Figure 17
item-loss scenario, so its edge cases (no items, dead successors, single-peer
rings with nobody to push to) get direct coverage here; the end-to-end effect
is covered by the availability ablation.
"""

import pytest

from repro import PRingIndex, default_config
from repro.replication.extra_hop import push_items_one_extra_hop
from tests.conftest import build_cluster


@pytest.fixture(scope="module")
def cluster():
    return build_cluster(seed=81, peers=8)


def _member_with_successors(index, minimum=2):
    for peer in sorted(index.ring_members(), key=lambda p: p.ring.value):
        if len(peer.ring.joined_successors(minimum)) >= minimum:
            return peer
    pytest.skip("no member with enough joined successors in this topology")


def test_no_items_pushes_nothing(cluster):
    index, _keys = cluster
    peer = _member_with_successors(index)
    calls_before = index.network.stats.per_method.get("rep_store_replicas", 0)
    acknowledged = index.run_process(
        push_items_one_extra_hop(peer, peer.ring, [], hops=2)
    )
    assert acknowledged == 0
    assert index.network.stats.per_method.get("rep_store_replicas", 0) == calls_before


def test_push_stores_replicas_on_joined_successors(cluster):
    index, _keys = cluster
    peer = _member_with_successors(index)
    targets = peer.ring.joined_successors(2)
    items = [{"skv": 0.123456, "payload": "extra-hop-probe"}]
    acknowledged = index.run_process(
        push_items_one_extra_hop(peer, peer.ring, items, hops=2)
    )
    assert acknowledged == len(targets)
    holders = [
        address
        for address in targets
        if 0.123456 in index.peers[address].replication.replicas.keys()
    ]
    assert holders == targets


def test_push_tolerates_a_dead_successor():
    index, _keys = build_cluster(seed=82, peers=8)
    peer = _member_with_successors(index, minimum=2)
    targets = peer.ring.joined_successors(2)
    index.fail_peer(targets[0])
    items = [{"skv": 0.654321, "payload": "extra-hop-probe"}]
    acknowledged = index.run_process(
        push_items_one_extra_hop(peer, peer.ring, items, hops=2),
        timeout=60.0,
    )
    # The dead successor never acknowledges, the live one does; the protocol
    # only needs one extra holder to preserve the replica count.
    assert acknowledged == len(targets) - 1
    live = [address for address in targets if index.peers[address].alive]
    for address in live:
        assert 0.654321 in index.peers[address].replication.replicas.keys()


def test_single_member_ring_has_no_push_targets():
    config = default_config(seed=83)
    index = PRingIndex(config)
    peer = index.bootstrap()
    index.run(5.0)
    items = [{"skv": 42.0, "payload": "lonely"}]
    acknowledged = index.run_process(
        push_items_one_extra_hop(peer, peer.ring, items, hops=2)
    )
    assert acknowledged == 0
