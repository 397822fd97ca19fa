"""Tests for the Replication Manager: rounds, revive, tombstones, extra hop."""

import random
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro import default_config
from repro.core.correctness import count_lost_items
from repro.core.histories import History, Operation
from repro.datastore.items import Item, ItemStore, items_from_wire, items_to_wire
from repro.datastore.ranges import CircularRange
from repro.datastore.store import DataStore
from repro.datastore.maintenance import StorageBalancer
from repro.harness.scenarios import build_experiment, get_scenario
from repro.replication import cfs, leases
from repro.replication.cfs import ReplicationManager
from repro.replication.leases import LEASE_PERIODS, Lease, LeaseTable
from repro.ring.chord import ChordRing
from repro.ring.entries import JOINED
from repro.sim.engine import Simulator
from repro.sim.network import Network, NetworkConfig
from repro.transport import Endpoint
from tests.conftest import build_cluster
from tests.test_maintenance import _overflowing_splitter, _run_until


def _period(index):
    """The replication round's period, which every member's lease table keeps."""
    return index.ring_members()[0].replication.table.period


def test_items_are_replicated_to_successors():
    index, keys = build_cluster(seed=51, peers=8)
    index.run(2 * _period(index))
    replicated = set()
    for peer in index.live_peers():
        replicated.update(peer.replication.replicas.keys())
    # With replication factor 6 on a ~8-member ring every item has replicas.
    assert set(keys) <= replicated


def test_failed_peer_items_are_revived():
    index, keys = build_cluster(seed=52, peers=8)
    index.run(2 * _period(index))
    victim = index.ring_members()[2]
    lost_keys = set(victim.store.items.keys())
    assert lost_keys
    index.fail_peer(victim.address)
    index.run(40.0)
    stored = set()
    for peer in index.ring_members():
        stored.update(peer.store.items.keys())
    assert lost_keys <= stored


def test_a_revive_follows_the_range_update_without_waiting_for_a_refresh_round(monkeypatch):
    """The successor revives a failed predecessor's items as soon as its range
    has grown over them, not at its next replication round (every fourth 4 s
    tick here: 16 s apart)."""
    monkeypatch.setattr(cfs, "REPLICATION_TICKS", 4)
    index, _ = build_cluster(seed=52, peers=8)
    index.run(16.0)
    victim = index.ring_members()[2]
    lost_keys = set(victim.store.items.keys())
    assert lost_keys
    successor = index.peers[victim.ring.succ_list[0].address]
    index.fail_peer(victim.address)
    step = 0.05
    for _ in range(int(40.0 / step)):
        index.run(step)
        if all(successor.store.range.contains(key) for key in lost_keys):
            break
    assert all(successor.store.range.contains(key) for key in lost_keys)
    index.run(step)
    assert lost_keys <= set(successor.store.items.keys())


def test_two_failures_tolerated_with_default_replication():
    index, keys = build_cluster(seed=53, peers=10)
    index.run(2 * _period(index))
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
    index.run(2 * _period(index))
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
    index.run(2 * _period(index))
    for peer in index.ring_members():
        primaries = set(peer.store.items.keys())
        replicas = set(peer.replication.replicas.keys())
        assert not (primaries & replicas)


def test_clear_drops_replicas():
    index, keys = build_cluster(seed=56, peers=6)
    index.run(2 * _period(index))
    peer = index.ring_members()[1]
    assert len(peer.replication.replicas) > 0
    peer.replication.clear()
    assert len(peer.replication.replicas) == 0


def test_tombstone_blocks_and_then_expires():
    index, keys = build_cluster(seed=57, peers=6)
    peer = index.ring_members()[1]
    manager = peer.replication
    skv = 4242.5
    leases.delete(manager.table, skv, index.sim.now)
    assert leases.deleted(manager.table, skv, index.sim.now)
    # After three replication periods the tombstone expires, and the next refresh
    # round drops it.
    index.run(3 * _period(index) + 1.0)
    assert not leases.deleted(manager.table, skv, index.sim.now)
    index.run(_period(index) + 1.0)
    assert skv not in manager.table.tombstones


def test_an_insert_acked_just_before_its_owner_fails_is_served_by_the_successor():
    """The owner acks an insert and fails before any replication round has
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
    index.run(2 * _period(index))
    peer = index.ring_members()[2]
    count = index.run_process(peer.replication.push_extra_hop())
    assert count >= 1


# --------------------------------------------------------------------------- leases
# A settled store is never pushed again: its copies stay promotable on a lease
# the owner's ring_stabilize beacons renew (docs/ARCHITECTURE.md, "Contract:
# ring maintenance", rule 4).
def _casts(index, method):
    return index.network.stats.per_method.get(method, 0)


def _carried_until(table, key):
    """The latest time a lease in ``table`` carries ``key`` at (None: none does)."""
    times = [lease.time for lease in table.leases.values() if key in lease.keys]
    if key in table.copies:
        times.append(table.copies[key])
    return max(times, default=None)


def _carried(index):
    """Per holder, each promotable held key and the latest time a lease carries it at."""
    return {
        peer.address: {skv: _carried_until(peer.replication.table, skv)
                       for skv in peer.replication.promotable_keys()}
        for peer in index.live_peers()
    }


def _recorded(table):
    """Each recorded snapshot's version, keys and targets (its time aside)."""
    return {owner: (lease.version, lease.keys, lease.targets)
            for owner, lease in table.leases.items()}


def test_a_quiet_scale_100_ring_pushes_nothing_and_keeps_every_copy_promotable():
    spec = get_scenario("scale_100")
    experiment = build_experiment(spec, 0)
    experiment.run_phases(spec.phases[:2], total_peers=spec.peers)
    index = experiment.index
    period = _period(index)
    pushes = _casts(index, "rep_store_replicas")
    checked = 0
    for _ in range(8):  # four replication periods
        index.run(period / 2)
        members = {peer.address: peer for peer in index.ring_members()}
        for owner in members.values():
            if not len(owner.store.items):
                continue
            version, targets = owner.replication._last_push
            assert version == owner.store.items.version
            for address in targets:
                holder = members[address].replication
                lease = holder.table.leases[owner.address]
                assert lease.version == version
                for skv in lease.keys:
                    if skv in holder.replicas:
                        assert leases.promotable(holder.table, skv, index.sim.now), (
                            address, owner.address, skv)
                        checked += 1
    assert _casts(index, "rep_store_replicas") == pushes
    assert checked > 8 * len(members)


def test_a_dead_owners_leases_stop_at_its_failure_and_its_copies_age_out():
    index, _keys = build_cluster(seed=52, peers=8)
    period = _period(index)
    index.run(2 * period)
    owner = index.ring_members()[2]
    failed_at = index.sim.now
    index.fail_peer(owner.address)
    # A stabilize request the owner sent just before it failed may still land.
    landed_by = failed_at + index.network.config.latency_model.high
    while index.sim.now < failed_at + LEASE_PERIODS * period + 1.0:
        index.run(period / 4)
        for peer in index.live_peers():
            lease = peer.replication.table.leases.get(owner.address)
            assert lease is None or lease.time <= landed_by
    aged = 0
    for peer in index.live_peers():
        table = peer.replication.table
        lease = table.leases.get(owner.address)
        if lease is None:
            continue
        aged += 1
        # A copy only the dead owner's lease carries is no longer promotable.
        for skv in set(lease.keys) & set(peer.replication.replicas.keys()):
            if leases.promotable(table, skv, index.sim.now):
                assert _carried_until(table._replace(leases={
                    other: held for other, held in table.leases.items() if other != owner.address
                }), skv) is not None
    assert aged
    # Expiry is final: the replication round after the window plus one period
    # drops every record of the owner.
    index.run(2 * period + 1.0)
    assert not any(owner.address in peer.replication.table.leases for peer in index.live_peers())


def test_a_beacon_at_another_version_renews_nothing():
    index, _keys = build_cluster(seed=53, peers=8)
    index.run(index.config.stabilization_period / 2)
    owner = index.ring_members()[2]
    holder = index.peers[owner.replication._last_push[1][0]].replication
    lease = holder.table.leases[owner.address]
    stamped = lease.time
    assert stamped < index.sim.now
    resyncs = _casts(index, "rep_resync")
    holder.renew({owner.address: (lease.version + 1, None)})
    holder.renew({owner.address: (lease.version - 1, index.sim.now)})
    assert lease.time == stamped
    assert _casts(index, "rep_resync") == resyncs
    holder.renew({owner.address: (lease.version, None)})  # the owner's own, stamped here
    assert lease.time == index.sim.now


def test_a_target_that_lost_its_copies_in_place_is_resynced_by_the_beacon():
    """Forged: a second target drops every replica (as a merged-away peer
    recruited back into the same slot does) while the owner's fingerprint
    holds.  The owner's relayed beacon reaches it, it asks once, and the
    owner pushes it the snapshot; no replication round re-pushed anything."""
    index, _keys = build_cluster(seed=54, peers=8)
    period = index.config.stabilization_period
    owner = index.ring_members()[2]
    fingerprint = owner.replication._last_push
    holder = index.peers[fingerprint[1][1]]
    holder.replication.clear()
    resyncs = _casts(index, "rep_resync")
    index.run(3 * period)
    table = holder.replication.table
    lease = table.leases[owner.address]
    assert lease.version == owner.store.items.version
    assert set(lease.keys) == set(owner.store.items.keys())
    held = set(holder.replication.replicas.keys()) | set(holder.store.items.keys())
    assert set(lease.keys) <= held
    assert all(leases.promotable(table, skv, index.sim.now) for skv in lease.keys)
    assert owner.replication._last_push == fingerprint
    assert _casts(index, "rep_resync") > resyncs
    settled = (_casts(index, "rep_resync"), _casts(index, "rep_store_replicas"))
    index.run(3 * period)
    assert (_casts(index, "rep_resync"), _casts(index, "rep_store_replicas")) == settled


def test_a_finished_split_keeps_the_handed_over_keys_as_replicas(monkeypatch):
    """The new peer's first snapshot reaches the splitter while it still holds
    the keys as primaries; right after the shed they are its replicas."""
    finished = []
    original = StorageBalancer._finish_split

    def recording(self):
        pending = self._pending_split
        handed = set(pending["transferred"]) - set(pending["deleted_during"])
        yield from original(self)
        if self._pending_split is None:
            finished.append((handed, set(self.replication.replicas.keys())))

    monkeypatch.setattr(StorageBalancer, "_finish_split", recording)
    build_cluster(seed=51, peers=8)
    assert finished
    for handed, held in finished:
        assert handed <= held


def test_an_extra_hop_push_leaves_every_recorded_snapshot_alone():
    index, _keys = build_cluster(seed=58, peers=8)
    index.run(2 * _period(index))
    leaver = index.ring_members()[2]
    recorded = {peer.address: _recorded(peer.replication.table) for peer in index.live_peers()}
    carried = _carried(index)
    assert sum(map(len, carried.values()))
    assert index.run_process(leaver.replication.push_extra_hop()) >= 1
    for peer in index.live_peers():
        table = peer.replication.table
        assert _recorded(table) == recorded[peer.address]
        for skv, until in carried[peer.address].items():
            assert _carried_until(table, skv) >= until, (peer.address, skv)


def test_a_merge_whose_successor_pushes_before_the_extra_hop_keeps_every_lease():
    """A merge by hand, in maybe_merge's order: the leaver's items move to its
    successor and leave its store; the successor's next round pushes the new
    snapshot *before* the leaver's extra hop (its promotable replicas) lands.
    No promotable key's lease gets shorter, and the absorbed keys stay
    promotable on the successor's beacons after the leaver is gone."""
    index, _keys = build_cluster(seed=58, peers=8)
    period = _period(index)
    index.run(2 * period)
    leaver = index.ring_members()[2]
    successor = index.peers[leaver.ring.first_live_successor()]
    moved = leaver.store.items.to_wire()
    absorbed = [entry["skv"] for entry in moved]
    assert absorbed

    def absorb():
        yield leaver.call(
            successor.address,
            "ds_absorb_items",
            {"items": moved, "new_low": leaver.store.range.low, "from_peer": leaver.address},
        )
        for skv in absorbed:
            leaver.store.remove_local(skv, reason="merge_transfer")
        leaver.store.deactivate()

    index.run_process(absorb())
    successor.replication.refresh_now()
    index.run(0.05)  # the new snapshot lands at the successor's targets
    version, targets = successor.replication._last_push
    assert version == successor.store.items.version
    for address in targets:
        lease = index.peers[address].replication.table.leases[successor.address]
        assert set(absorbed) <= set(lease.keys), address
    carried = _carried(index)
    forwarded = set(leaver.replication.promotable_keys())
    hopped = leaver.ring.joined_successors(index.config.replication_factor)
    assert any(forwarded & set(carried[address]) for address in hopped)
    assert index.run_process(leaver.replication.push_extra_hop()) >= 1
    for peer in index.live_peers():
        table = peer.replication.table
        for skv, until in carried[peer.address].items():
            assert _carried_until(table, skv) >= until, (peer.address, skv)
    index.run_process(leaver.ring.leave())
    leaver.replication.clear()
    index.run((LEASE_PERIODS + 1) * period)
    assert successor.replication._last_push == (version, targets)
    for address in targets:
        table = index.peers[address].replication.table
        assert all(leases.promotable(table, skv, index.sim.now) for skv in absorbed), address


def test_a_splitter_push_before_the_shed_leaves_the_keys_on_the_new_peers_lease(monkeypatch):
    """The new peer's first snapshot reaches its targets while the splitter
    still holds the keys.  A splitter push in between (its store changed)
    carries them too, and the shed's snapshot supersedes it; the keys stay
    promotable on the new peer's snapshot, whose beacons renew it, since the
    new peer's fingerprint holds."""
    index, splitter = _overflowing_splitter(seed=61)
    original = StorageBalancer._finish_split
    handed, receiver = [], []

    def push_around_the_shed(self):
        if self is not splitter.balancer:
            yield from original(self)
            return
        pending = self._pending_split
        handed.extend(set(pending["transferred"]) - set(pending["deleted_during"]))
        receiver.append(pending["new_peer"])
        sim = self.node.sim
        yield sim.timeout(0.05)  # the new peer's first snapshot lands
        key = (self.store.range.high - 0.005) % index.config.key_space
        assert self.store.items.add(Item(key, payload="late"))
        self.replication.refresh_now()  # still carries the keys
        yield sim.timeout(0.05)
        yield from original(self)
        self.replication.refresh_now()  # the shed's snapshot
        yield sim.timeout(0.05)

    monkeypatch.setattr(StorageBalancer, "_finish_split", push_around_the_shed)
    index.run(5.0)
    assert handed and splitter.balancer._pending_split is None
    new_peer = index.peers[receiver[0]]
    assert set(handed) <= set(new_peer.store.items.keys())
    shared = set(new_peer.replication._last_push[1]) & set(splitter.replication._last_push[1])
    assert shared
    for address in shared:
        table = index.peers[address].replication.table
        assert set(handed) <= set(table.leases[new_peer.address].keys), address
        assert not set(handed) & set(table.leases[splitter.address].keys), address
    fingerprint = new_peer.replication._last_push
    index.run((LEASE_PERIODS + 1) * _period(index))
    assert new_peer.replication._last_push == fingerprint
    for address in shared:
        table = index.peers[address].replication.table
        assert all(leases.promotable(table, skv, index.sim.now) for skv in handed), address


def test_a_splits_new_peer_revives_a_predecessor_that_failed_before_its_round():
    """A split's new peer becomes the first successor of the splitter's
    predecessor, which fails before any round of its has pushed to the new
    peer.  The splitter handed the new peer its lease for that predecessor,
    time unchanged, with the copies it carries: the new peer revives them
    once its range grows, and no item is lost (``mixed_300`` seed 4 lost six)."""
    index, splitter = _overflowing_splitter(seed=60, peers=9)
    predecessor = index.peers[splitter.ring.pred_address]
    at_risk = set(predecessor.store.items.keys())
    assert at_risk
    _run_until(index, lambda: splitter.balancer._pending_split is None and (
        splitter.ring.pred_address != predecessor.address))
    new_peer = index.peers[splitter.ring.pred_address]
    assert len(index.ring_members()) == 10
    # The peer behind the predecessor knows the new peer as JOINED, so the
    # ring repairs round the failure (a gap there is ROADMAP item 31's).
    behind = index.peers[predecessor.ring.pred_address]
    _run_until(index, lambda: (new_peer.address, JOINED) in (
        (entry.address, entry.state) for entry in behind.ring.succ_list))
    assert new_peer.address not in predecessor.replication._last_push[1]  # no round yet
    index.fail_peer(predecessor.address)
    index.run((LEASE_PERIODS + 2) * _period(index))
    stored = set()
    for peer in index.ring_members():
        stored.update(peer.store.items.keys())
    assert at_risk <= stored
    assert count_lost_items(index.history.history(), index.live_peers()) == []


def test_a_holder_asks_an_owner_that_does_not_answer_once_per_version(monkeypatch):
    """A holder without the owner's snapshot keeps getting the owner's beacon
    relayed (here: the owner died, and the holder cleared its replicas).  It
    asks once, not on every stabilize request; the live owners it also lost
    answer their one ask."""
    index, _keys = build_cluster(seed=54, peers=8)
    period = _period(index)
    owner = index.ring_members()[2]
    holder = index.peers[owner.replication._last_push[1][1]]
    asked = []
    cast = holder.cast

    def counting(destination, method, payload=None):
        if method == "rep_resync":
            asked.append(destination)
        cast(destination, method, payload)

    monkeypatch.setattr(holder, "cast", counting)
    index.fail_peer(owner.address)
    holder.replication.clear()
    relayed = []
    renew = holder.replication.renew

    def recording(beacons):
        if owner.address in beacons:
            relayed.append(beacons[owner.address])
        renew(beacons)

    holder.ring.beacon_sink = recording
    index.run((LEASE_PERIODS + 1) * period)
    assert len(relayed) >= 3
    assert asked.count(owner.address) == 1
    assert len(asked) == len(set(asked))  # the live owners answered the one ask


# --------------------------------------------------------------------------- reference paths
# The promotion scan and the push receiver answer from the replica store's
# sorted keys, the wire entries and the lease table directly.  The full scan,
# and the Item-per-entry loop with a lease per key that they replaced, stay
# here as the references.
PERIOD = cfs.REPLICATION_TICKS * default_config().stabilization_period  # a default lease period
NOW = 40.0
WINDOW = LEASE_PERIODS * PERIOD
grid_key = st.integers(0, 79_999).map(lambda n: n / 8)
# Ages at, inside and just past the tombstone (3 periods), promotable (4
# periods) and expiry (5 periods) windows; ``None`` is "no record".
ages = st.sampled_from([None, 0.0, PERIOD, 3 * PERIOD, 3 * PERIOD + 0.125, 4 * PERIOD,
                        4 * PERIOD + 0.125, 5 * PERIOD + 0.125, 10 * PERIOD])


class _OldLease:
    """The reference's lease: one per push, which each key it last touched points at."""

    def __init__(self, version, time, keys=(), targets=()):
        self.version, self.time, self.keys, self.targets = version, time, keys, targets


class _Reference:
    """The per-key lease map the table replaced: ``freshness`` (key -> the lease
    of the push that last touched it), ``push_state`` and ``tombstones``."""

    def __init__(self, state):
        self.freshness, self.push_state, self.tombstones = {}, {}, {}
        self.replicas = ItemStore()
        for key in state["replicas"]:
            self.replicas.add(Item(key, "replica"))
        for key, age in state["tombstones"].items():
            if age is not None:
                self.tombstones[key] = NOW - age
        for key, age in state["freshness"].items():
            if age is not None:
                self.freshness[key] = _OldLease(None, NOW - age)
        for owner, (age, keys) in state["snapshots"].items():
            lease = _OldLease(3, NOW - age, tuple(keys), ("peer",))
            self.push_state[owner] = lease
            for key in keys:
                if state["carried"].get(key) == owner:
                    self.freshness[key] = lease

    def tombstoned(self, skv):
        deleted_at = self.tombstones.get(skv)
        return deleted_at is not None and not NOW - deleted_at > 3 * PERIOD

    def promotable(self, skv):
        lease = self.freshness.get(skv)
        return not self.tombstoned(skv) and lease is not None and NOW - lease.time <= WINDOW


def _old_handle_store_replicas(reference, primaries, payload):
    stored = 0
    owner, snapshot = payload["owner"], payload.get("snapshot", True)
    lease = _OldLease(payload.get("version"), NOW, targets=payload.get("targets", ()))
    pushed = []
    for item in items_from_wire(payload["items"]):
        pushed.append(item.skv)
        if reference.tombstoned(item.skv):
            continue
        held = reference.freshness.get(item.skv)
        if snapshot or held is None or NOW - held.time > WINDOW:
            reference.freshness[item.skv] = lease
        if item.skv in primaries:
            continue
        if reference.replicas.add(item):
            stored += 1
    if snapshot:
        lease.keys = tuple(pushed)
        superseded = reference.push_state.get(owner)
        reference.push_state[owner] = lease
        for skv in superseded.keys if superseded is not None else ():
            if skv in pushed or reference.freshness.get(skv) is not superseded:
                continue
            carriers = [held for held in reference.push_state.values() if skv in held.keys]
            if carriers:
                reference.freshness[skv] = max(carriers, key=lambda held: held.time)
    return {"stored": stored}


def _table(state):
    """The lease table holding what ``_Reference(state)`` holds."""
    reference = _Reference(state)
    return LeaseTable(
        PERIOD,
        {owner: Lease(lease.version, lease.time, tuple(sorted(lease.keys)), lease.targets)
         for owner, lease in reference.push_state.items()},
        {key: lease.time for key, lease in reference.freshness.items() if lease.version is None},
        dict(reference.tombstones),
        {},
    )


def _bare_manager(state):
    """A lone peer's ReplicationManager at ``NOW``, holding ``state``."""
    config = default_config(seed=0)
    sim = Simulator()
    node = Endpoint(sim, Network(sim, random.Random(0), NetworkConfig()), "peer",
                    rng=random.Random(0))
    ring = ChordRing(node, 0.0, config)
    manager = ReplicationManager(node, ring, DataStore(node, ring, config), config)
    sim.run(until=NOW)  # no loop runs: the ring never joined
    manager.store.active = state["active"]
    manager.store.range = state["range"]
    for key in state["primaries"]:
        manager.store.items.add(Item(key, "primary"))
    for key in state["replicas"]:
        manager.replicas.add(Item(key, "replica"))
    manager.table = _table(state)
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
        "snapshots": {
            owner: (draw(ages.filter(lambda age: age is not None)),
                    sorted(key for key in keys if draw(st.booleans())))
            for owner in draw(st.lists(st.sampled_from(["pred", "other", "third"]), unique=True))
        },
        "carried": {key: draw(st.sampled_from([None, "pred", "other", "third"])) for key in keys},
    }


@st.composite
def pushes(draw, keys):
    pushed = draw(st.lists(st.sampled_from(keys), unique=True) if keys else st.just([]))
    return {
        "items": items_to_wire(Item(key, f"pushed-{key}") for key in pushed),
        "owner": draw(st.sampled_from(["pred", "other", "new"])),
        "version": 7,
        "targets": ("peer", "next"),
        "snapshot": draw(st.booleans()),
    }


def _old_promotion_candidates(manager):
    return [
        item
        for item in manager.replicas.all_items()
        if manager.store.range.contains(item.skv)
        and item.skv not in manager.store.items
        and leases.promotable(manager.table, item.skv, NOW)
    ]


@settings(max_examples=200, deadline=None)
@given(state=replica_states())
def test_promotion_candidates_equal_the_full_scan(state):
    state["active"] = True
    manager = _bare_manager(state)
    expected = [item.skv for item in _old_promotion_candidates(manager)]
    assert [item.skv for item in manager._promotion_candidates()] == expected


@settings(max_examples=200, deadline=None)
@given(state=replica_states(), data=st.data())
def test_push_receiver_ends_as_the_item_per_entry_loop(state, data):
    """The receiver stores what the reference stores, and every key the
    reference calls promotable, before and after the push, the table does."""
    payload = data.draw(pushes(state["keys"]))
    reference, manager = _Reference(state), _bare_manager(state)
    for key in state["keys"]:
        assert not reference.promotable(key) or leases.promotable(manager.table, key, NOW), key
    primaries = manager.store.items if state["active"] else ()
    expected = _old_handle_store_replicas(reference, primaries, payload)
    assert manager._handle_store_replicas(payload, None) == expected
    assert list(manager.replicas) == list(reference.replicas)
    for key in state["keys"]:
        assert not reference.promotable(key) or leases.promotable(manager.table, key, NOW), key


@settings(max_examples=100, deadline=None)
@given(state=replica_states(), data=st.data())
def test_no_promotable_key_is_carried_only_by_an_expired_lease(state, data):
    table = _table(state)
    leases.receive(table, data.draw(pushes(state["keys"])), NOW)
    now = NOW + data.draw(st.sampled_from([0.0, PERIOD, 4 * PERIOD + 0.125]))
    for key in state["keys"]:
        until = _carried_until(table, key)
        if leases.promotable(table, key, now):
            assert until is not None and now - until <= WINDOW, key
            assert not leases.deleted(table, key, now)
        elif until is not None and now - until <= WINDOW:
            assert leases.deleted(table, key, now), key


@settings(max_examples=100, deadline=None)
@given(state=replica_states(), data=st.data())
def test_a_relayed_time_never_advances(state, data):
    before, renewed = _table(state), _table(state)
    owners = ["pred", "other", "third", "new"]
    beacons = {owner: (data.draw(st.sampled_from([2, 3, 4])),
                       data.draw(st.sampled_from([None, NOW - 9 * PERIOD, NOW - PERIOD, NOW])))
               for owner in data.draw(st.lists(st.sampled_from(owners), unique=True))}
    asks = leases.renew(renewed, beacons, NOW)
    for owner, lease in renewed.leases.items():
        old = before.leases[owner]
        sent = beacons.get(owner, (None, None))[1]
        heard = NOW if sent is None else sent
        assert lease.time in (old.time, heard) and lease.time >= old.time
        assert (lease.version, lease.keys, lease.targets) == (old.version, old.keys, old.targets)
    assert asks == [owner for owner in beacons if owner not in before.leases]
    for target in ("peer", "next"):
        for owner, (version, time) in leases.relayed(renewed, target, NOW).items():
            assert (version, time) == (renewed.leases[owner].version, renewed.leases[owner].time)


@settings(max_examples=100, deadline=None)
@given(state=replica_states(), data=st.data())
def test_receive_is_idempotent(state, data):
    payload = data.draw(pushes(state["keys"]))
    once, twice = _table(state), _table(state)
    kept = leases.receive(once, payload, NOW)
    assert leases.receive(twice, payload, NOW) == kept
    assert leases.receive(twice, payload, NOW) == kept
    assert twice == once


@settings(max_examples=100, deadline=None)
@given(state=replica_states(), data=st.data())
def test_a_non_snapshot_push_never_shortens_a_promotable_keys_lease(state, data):
    payload = {**data.draw(pushes(state["keys"])), "snapshot": False}
    before, after = _table(state), _table(state)
    leases.receive(after, payload, NOW)
    assert after.leases == before.leases
    for key in state["keys"]:
        if leases.promotable(before, key, NOW):
            assert leases.promotable(after, key, NOW)
            assert _carried_until(after, key) >= _carried_until(before, key), key


@settings(max_examples=50, deadline=None)
@given(state=replica_states(), data=st.data())
def test_after_the_drop_a_beacon_at_the_held_version_asks_exactly_once(state, data):
    before, expired = _table(state), _table(state)
    now = NOW + data.draw(st.sampled_from([0.0, PERIOD, 6 * PERIOD]))
    dropped = leases.expire(expired, now)
    horizon = (LEASE_PERIODS + 1) * PERIOD
    assert set(expired.leases) == {owner for owner, lease in before.leases.items()
                                   if now - lease.time <= horizon}
    for key in dropped:
        assert _carried_until(expired, key) is None
    for key in state["keys"]:
        assert leases.promotable(expired, key, now) == leases.promotable(before, key, now)
    for owner, lease in before.leases.items():
        beacon = {owner: (lease.version, now)}
        asks = leases.renew(expired, beacon, now)
        if owner in expired.leases:
            assert asks == [] and expired.leases[owner].time == now
        else:
            assert asks == [owner]
            assert leases.renew(expired, beacon, now) == []


def test_a_dropped_key_moves_to_the_freshest_snapshot_that_carries_it():
    """An owner's new snapshot drops two keys.  1.0 is carried by two other
    owners' snapshots and stays promotable as long as the freshest of them;
    3.0 is carried by none and keeps the superseded snapshot's time."""
    state = {
        "keys": [1.0, 2.0, 3.0], "active": True, "range": CircularRange(0.0, 5.0),
        "primaries": [], "replicas": [1.0, 3.0], "tombstones": {}, "freshness": {},
        "snapshots": {"pred": (PERIOD, [1.0, 3.0]), "other": (0.0, [1.0]),
                      "third": (2 * PERIOD, [1.0])},
        "carried": {1.0: "pred", 3.0: "pred"},
    }
    payload = {"items": items_to_wire([Item(2.0, "new")]), "owner": "pred", "version": 7,
               "targets": ("peer",)}
    manager = _bare_manager(state)
    manager._handle_store_replicas(payload, None)
    table = manager.table
    assert table.leases["pred"].keys == (2.0,)
    assert _carried_until(table, 1.0) == table.leases["other"].time == NOW
    assert _carried_until(table, 3.0) == table.copies[3.0] == NOW - PERIOD
    assert leases.promotable(table, 3.0, NOW + WINDOW - PERIOD)
    assert not leases.promotable(table, 3.0, NOW + WINDOW - PERIOD + 0.125)
    assert leases.promotable(table, 1.0, NOW + WINDOW)


def test_a_copy_only_an_expired_lease_carries_does_not_keep_its_item_available():
    """The owner of 1.0 is dead (not among the live peers); the one live holder
    keeps its copy under the owner's snapshot lease.  Inside the window the
    copy keeps the item available; past it the copy can never be revived, so
    :func:`count_lost_items` counts the item lost."""
    history = History([Operation(0, "index_insert_item", 0.0, "client", {"skv": 1.0})])
    lost = []
    for age in (PERIOD, WINDOW + 0.125):
        state = {
            "keys": [1.0], "active": True, "range": CircularRange(5.0, 6.0), "primaries": [],
            "replicas": [1.0], "tombstones": {}, "freshness": {},
            "snapshots": {"dead": (age, [1.0])}, "carried": {1.0: "dead"},
        }
        manager = _bare_manager(state)
        holder = SimpleNamespace(alive=True, store=manager.store, replication=manager)
        lost.append(count_lost_items(history, [holder]))
    assert lost == [[], [1.0]]
