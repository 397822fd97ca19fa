"""Tests for the stranded-item shed pass and the reachability audit.

A half-completed split leaves copies below the holder's effective ring
boundary: ``total_stored_items()`` counts them but ``scan_range`` never
serves them.  The shed pass must route every such copy to its responsible
owner (store-then-delete with a version-checked ack) so that the
``items_reachable`` audit matches ``items_stored`` again.
"""

import pytest

from repro.core.correctness import audit_reachability
from repro.datastore.items import Item
from repro.datastore.maintenance import StorageBalancer
from tests.conftest import build_cluster


def _forge_stranded_copy(index):
    """Plant a copy below a member's range, as a half-completed split would.

    Returns ``(holder, stray_key)``: the key belongs to the holder's
    predecessor on the ring, but the copy sits in the holder's store.
    """
    members = index.ring_members()
    assert len(members) >= 3
    # A member with a bounded range whose lower neighbourhood is inside the
    # predecessor's range.
    holder = next(peer for peer in members[1:] if not peer.store.range.full)
    low = holder.store.range.low
    stray_key = (low - 7.5) % index.config.key_space
    assert not holder.store.owns_key(stray_key)
    assert holder.store.items.add(Item(stray_key, payload="stray"))
    return holder, stray_key


@pytest.mark.usefixtures("heap_id")
def test_stranded_copy_invisible_to_scan_until_shed():
    """The satellite regression: missed by scan_range before shed, found after."""
    index, keys = build_cluster(seed=51, peers=8)
    holder, stray_key = _forge_stranded_copy(index)

    # Stored but unreachable: the full-space scan misses the stranded copy.
    result = index.range_query_now(0.0, index.config.key_space)
    assert result["complete"]
    assert stray_key not in result["keys"]
    audit = index.reachability()
    assert audit.items_stored == len(keys) + 1
    assert audit.items_reachable == len(keys)
    assert (holder.address, stray_key) in audit.stranded
    assert not audit.ok

    # The periodic shed pass heals it: routed to the responsible owner via
    # the normal store path, then dropped locally.
    index.run(30.0)
    audit = index.reachability()
    assert audit.ok
    assert audit.items_reachable == len(keys) + 1
    owner = index.peer_for_key(stray_key)
    assert owner is not None and owner.address != holder.address
    assert stray_key in owner.store.items.keys()
    assert stray_key not in holder.store.items.keys()
    assert index.history.count("item_shed") >= 1

    # And the scan serves it now.
    result = index.range_query_now(0.0, index.config.key_space)
    assert result["complete"]
    assert stray_key in result["keys"]


@pytest.mark.usefixtures("heap_id")
def test_shed_can_be_disabled(monkeypatch):
    """With the shed switched off, nothing else moves the copy: it stays put."""
    monkeypatch.setattr(StorageBalancer, "_shed_due", lambda self: False)
    index, keys = build_cluster(seed=52, peers=8)
    holder, stray_key = _forge_stranded_copy(index)
    index.run(30.0)
    assert stray_key in holder.store.items.keys()
    assert index.history.count("item_shed") == 0
    audit = index.reachability()
    assert audit.items_stranded == 1


@pytest.mark.usefixtures("heap_id")
def test_healthy_cluster_audit_is_clean():
    """With the shed on, a settled deployment reports full reachability."""
    index, keys = build_cluster(seed=53, peers=8)
    audit = index.reachability()
    assert audit.ok
    assert audit.items_stored == index.total_stored_items() == len(keys)
    assert audit.stranded == []


def test_audit_counts_every_member_copy():
    """audit_reachability inspects exactly the live active stores it is given."""
    index, keys = build_cluster(seed=54, peers=6)
    members = index.ring_members()
    audit = audit_reachability(members)
    assert audit.items_stored == sum(p.store.item_count() for p in members)
    assert audit.items_reachable == audit.items_stored
    # A subset audit sees only that subset's copies.
    partial = audit_reachability(members[:2])
    assert partial.items_stored == sum(p.store.item_count() for p in members[:2])
