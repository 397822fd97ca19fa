"""Tests for the content router (hierarchical pointer table, table-hop routing)."""

import collections
import gc
import math
import random

import pytest

from repro import default_config
from repro.datastore.store import DataStore
from repro.harness.scenarios import build_experiment, get_scenario, run_spec
from repro.ring.chord import ChordRing
from repro.ring.entries import JOINED, JOINING, LEAVING, SuccessorEntry
from repro.router.hierarchical import (
    _WALK_TIMEOUT,
    ROUTER_TABLE_SIZE,
    AdaptiveCadence,
    HierarchicalRingRouter,
)
from repro.sim.engine import Simulator
from repro.sim.network import Network, NetworkConfig
from repro.transport import Endpoint
from tests.conftest import build_cluster


@pytest.fixture(scope="module")
def cluster():
    return build_cluster(seed=61, peers=10)


def test_hierarchical_routing_finds_owner_for_every_key(cluster):
    index, keys = cluster
    start = index.ring_members()[0]
    for key in keys[::5]:
        found = index.run_process(start.router.find_responsible(key))
        assert found is not None
        assert index.peers[found].store.owns_key(key)


def test_routing_from_every_member_converges(cluster):
    index, keys = cluster
    key = keys[len(keys) // 2]
    owners = set()
    for peer in index.ring_members():
        owners.add(index.run_process(peer.router.find_responsible(key)))
    assert len(owners) == 1


def test_local_owner_short_circuits(cluster):
    index, keys = cluster
    key = keys[0]
    owner = next(p for p in index.ring_members() if p.store.owns_key(key))
    found = index.run_process(owner.router.find_responsible(key))
    assert found == owner.address


def test_router_table_is_populated_after_refresh(cluster):
    index, _keys = cluster
    index.run(2 * index.config.router_refresh_period)
    populated = [p for p in index.ring_members() if p.router.table]
    assert len(populated) >= len(index.ring_members()) // 2


def test_routing_survives_a_failed_peer(cluster):
    index, keys = cluster
    victim = index.ring_members()[3]
    index.fail_peer(victim.address)
    index.run(20.0)
    start = index.ring_members()[0]
    key = keys[10]
    found = index.run_process(start.router.find_responsible(key))
    assert found is not None
    assert index.peers[found].alive


# --------------------------------------------------------------------------- logarithmic routing
@pytest.fixture(scope="module")
def settled_ring():
    """scale_300's build + settle phases, then one refresh period: a static
    300-member ring whose pointer tables have converged."""
    cell = get_scenario("scale_300")
    experiment = build_experiment(cell, seed=0)
    experiment.run_phases(cell.phases[:2], total_peers=cell.peers)
    index = experiment.index
    index.run(index.config.router_refresh_period)
    members = index.ring_members()
    assert len(members) >= 200
    return index, members


def test_converged_tables_hold_only_usable_strictly_farther_pointers(settled_ring):
    index, members = settled_ring
    position = {peer.address: place for place, peer in enumerate(members)}
    for peer in members:
        assert peer.router.table
        steps = []
        for address, value in peer.router.table:
            assert value == index.peers[address].ring.value  # every entry carries a value
            steps.append((position[address] - position[peer.address]) % len(members))
        assert steps[0] == 1
        assert all(near < far for near, far in zip(steps, steps[1:])), steps
        assert steps[-1] >= len(members) / 3


def test_routes_from_every_member_are_logarithmic(settled_ring):
    index, members = settled_ring
    rng = random.Random(7)
    bound = 2 * math.log2(len(members))
    recorded = index.metrics.count("route_hops")
    for peer in members:
        key = rng.uniform(1.0, index.config.key_space - 1.0)
        found = index.run_process(peer.router.find_responsible(key))
        assert index.peers[found].store.owns_key(key)
    hops = index.metrics.values("route_hops")[recorded:]
    assert len(hops) == len(members)
    assert max(hops) <= bound


def test_routes_end_at_the_named_owner_without_probing_it(settled_ring, monkeypatch):
    """The owner's predecessor names it (or the origin does, as that
    predecessor): the route returns it unprobed, and records as its hops
    exactly the probes it sent."""
    index, members = settled_ring
    probed = []
    tracker = index.serve_tracker
    issued = tracker.rpc_issued

    def record(source, destination, method):
        if method == "ds_probe":
            probed.append(destination)
        issued(source, destination, method)

    monkeypatch.setattr(tracker, "rpc_issued", record)
    rng = random.Random(11)
    recorded = index.metrics.count("route_hops")
    sent = []
    for peer in members:
        key = rng.uniform(1.0, index.config.key_space - 1.0)
        del probed[:]
        found = index.run_process(peer.router.find_responsible(key))
        assert index.peers[found].store.owns_key(key)
        assert found not in probed
        sent.append(len(probed))
    assert index.metrics.values("route_hops")[recorded:] == sent
    # The origin's own word: a key on its first successor's arc costs no probe.
    origin = members[0]
    successor = index.peers[origin.ring.first_live_successor()]
    del probed[:]
    assert index.run_process(origin.router.find_responsible(successor.ring.value)) == (
        successor.address
    )
    assert probed == []


def _probes(index):
    return index.network.stats.per_method.get("ds_probe", 0)


def test_route_across_a_freshly_failed_pointer_costs_one_timeout(settled_ring):
    index, members = settled_ring
    origin = members[10]
    dead_address, _value = origin.router.table[-1]
    # A key two peers past the far pointer: the route's first hop is that pointer.
    target = members[(members.index(index.peers[dead_address]) + 2) % len(members)]
    key = target.ring.value
    assert origin.router._next_hops(key)[0] == dead_address
    index.fail_peer(dead_address)
    routes_before = len(index.history.history().of_kind("route"))
    probes, started = _probes(index), index.sim.now
    found = index.run_process(origin.router.find_responsible(key))
    assert found == target.address
    # One RPC timeout on the path (the dead pointer), then live hops only.
    timeout = index.config.network.rpc_timeout
    assert timeout <= index.sim.now - started < 2 * timeout
    assert _probes(index) - probes <= 2 * math.log2(len(members))
    assert dead_address not in [address for address, _ in origin.router.table]
    # One route was recorded, by the origin: no restart, no nested fallback walk.
    routes = index.history.history().of_kind("route")[routes_before:]
    assert [(op.peer, op.attrs["found"]) for op in routes] == [(origin.address, found)]


def _planned_probes(index, origin, key):
    """The peers ``origin``'s route to ``key`` probes while every peer is
    alive, read off the tables and successor lists as they stand: each hop
    takes the first of the last hop's candidates (``_next_hops``), until a
    peer owns the key or names its owner."""
    probes, hop = [], origin
    while not hop.store.owns_key(key) and hop.router._named_owner(key) is None:
        hop = index.peers[hop.router._next_hops(key)[0]]
        probes.append(hop.address)
    return probes


def _route_probes(index, origin, key, monkeypatch):
    """Route from ``origin`` to ``key``; return what it found and the peers it probed."""
    probed = []
    tracker = index.serve_tracker
    issued = tracker.rpc_issued

    def record(source, destination, method):
        if method == "ds_probe":
            probed.append(destination)
        issued(source, destination, method)

    monkeypatch.setattr(tracker, "rpc_issued", record)
    found = index.run_process(origin.router.find_responsible(key))
    monkeypatch.undo()
    return found, probed


def test_route_to_a_key_nobody_owns_fails_fast_and_is_recorded(settled_ring, monkeypatch):
    index, members = settled_ring
    victim = members[200]
    key = victim.ring.value  # owned by the victim alone
    # An origin whose route takes the victim from no table on the way: it
    # reaches the victim's predecessor in several probes.
    for origin in members[40:200]:
        plan = _planned_probes(index, origin, key)
        if len(plan) >= 3 and victim.address not in plan:
            break
    else:
        pytest.fail("no origin routes to the victim's predecessor without probing it")
    index.fail_peer(victim.address)
    probes = _probes(index)
    recorded = index.metrics.count("route_hops")
    started = index.sim.now
    found, probed = _route_probes(index, origin, key, monkeypatch)
    # The victim's live predecessor still names it: the route ends there,
    # unprobed, and the caller's next RPC pays the timeout.
    assert found == victim.address
    assert probed == plan
    spent = _probes(index) - probes
    assert spent == len(plan) <= 12 + math.log2(len(members))
    assert index.metrics.values("route_hops")[recorded:] == [spent]
    route = index.history.history().of_kind("route")[-1]
    assert (route.peer, route.attrs["found"], route.attrs["hops"]) == (
        origin.address, victim.address, spent
    )
    assert index.sim.now - started < 2.0


def test_a_route_that_probed_the_named_owner_dead_returns_none_at_once(settled_ring, monkeypatch):
    """A hop offers the failed owner as a table pointer: the route probes it,
    pays one timeout, goes on to the owner's predecessor and, named a peer
    it found dead, returns ``None``."""
    index, members = settled_ring
    victim = members[120]
    key = victim.ring.value
    for origin in members[20:120]:
        plan = _planned_probes(index, origin, key)
        if len(plan) >= 2 and plan[-1] == victim.address:
            break
    else:
        pytest.fail("no origin's route takes the victim from a table")
    index.fail_peer(victim.address)
    recorded = index.metrics.count("route_hops")
    started = index.sim.now
    found, probed = _route_probes(index, origin, key, monkeypatch)
    assert found is None
    assert probed[: len(plan)] == plan and probed.count(victim.address) == 1
    assert index.metrics.values("route_hops")[recorded:] == [len(probed)]
    route = index.history.history().of_kind("route")[-1]
    assert (route.peer, route.attrs["found"], route.attrs["hops"]) == (
        origin.address, None, len(probed)
    )
    timeout = index.config.network.rpc_timeout
    assert timeout <= index.sim.now - started < 2 * timeout


# --------------------------------------------------------------------------- table-entry answers
def _bare_router(address="self", value=100.0, network=None):
    """A peer's HierarchicalRingRouter alone (or on ``network``): successor
    list and table set by hand."""
    config = default_config(seed=0)
    if network is None:
        sim = Simulator()
        network = Network(sim, random.Random(0), NetworkConfig())
    node = Endpoint(network.sim, network, address, rng=random.Random(0))
    ring = ChordRing(node, value, config)
    return HierarchicalRingRouter(node, ring, DataStore(node, ring, config), config)


SUCCESSOR_LISTS = {
    "joined_first": [("a", 200.0, JOINED), ("b", 300.0, JOINED)],
    "self_joining_joined": [
        ("self", 100.0, JOINED), ("j", 150.0, JOINING), ("b", 300.0, JOINED)],
    "only_self": [("self", 100.0, JOINED)],
    "none_joined": [("j", 150.0, JOINING), ("l", 250.0, LEAVING)],
    "empty": [],
}


@pytest.mark.parametrize("table_size", [0, 1, 2, 6])
@pytest.mark.parametrize("successors", sorted(SUCCESSOR_LISTS))
def test_table_entry_answers_equal_the_joined_successor_expression(successors, table_size):
    router = _bare_router()
    router.ring.succ_list = [SuccessorEntry(*entry) for entry in SUCCESSOR_LISTS[successors]]
    router.table = [(f"t{level}", 1000.0 * (level + 1)) for level in range(table_size)]
    # The expression the answer slices, kept as the reference.
    pointers = router._joined_successors()[:1] + router.table[1:]
    until = 99.0  # an origin just behind us: no pointer passes it
    for level in range(table_size + 3):
        expected = (pointers[level : level + 2], None)
        if level >= len(pointers) and pointers:
            # Past the end: the farthest pointer, for the walk to go on from.
            expected = (pointers[-1:], "past_end")
        assert router._table_answer(level, until) == expected, level


def test_table_entry_answers_stop_short_of_the_asker():
    router = _bare_router()  # at 100.0
    router.ring.succ_list = [SuccessorEntry("a", 200.0, JOINED)]
    router.table = [(f"t{level}", 1000.0 * (level + 1)) for level in range(6)]
    a, t1, t2, t3, t4, t5 = [("a", 200.0)] + router.table[1:]

    def ask(level, until):
        return router._table_answer(level, until)

    # A slice short of the origin is answered as it is; one whose second
    # pointer passes it is cut there and marked, so the walk goes on from it.
    assert ask(0, 3500.0) == ([a, t1], None)
    assert ask(2, 3500.0) == ([t2], "wrapped")
    # Our pointers at the level pass the origin: the farthest short of it.
    assert ask(3, 3500.0) == ([t2], "wrapped")
    assert ask(4, 4500.0) == ([t3], "wrapped")
    # Past the end of the table: the farthest pointer, unless it passes the origin.
    assert ask(7, 9000.0) == ([t5], "past_end")
    assert ask(7, 3500.0) == ([t2], "wrapped")
    # Nothing between us and the origin: nothing to answer.
    assert ask(0, 150.0) == ([], None)


# --------------------------------------------------------------------------- the cadence controller
def test_adaptive_cadence_backs_off_after_threshold_successes():
    cadence = AdaptiveCadence(8.0, growth=2.0, max_factor=4.0, success_threshold=2)
    assert cadence.interval() == 8.0
    cadence.note_success()
    assert cadence.interval() == 8.0  # one success is below the threshold
    cadence.note_success()
    assert cadence.interval() == 16.0
    cadence.note_success()
    cadence.note_success()
    assert cadence.interval() == 32.0


def test_adaptive_cadence_is_bounded_by_max_factor():
    cadence = AdaptiveCadence(8.0, growth=2.0, max_factor=4.0, success_threshold=1)
    for _ in range(10):
        cadence.note_success()
    assert cadence.interval() == 32.0  # 8.0 * 4


def test_adaptive_cadence_tightens_to_base_on_failure_and_change():
    cadence = AdaptiveCadence(8.0, success_threshold=1)
    cadence.note_success()
    assert cadence.interval() > 8.0
    cadence.note_failure()
    assert cadence.interval() == 8.0
    cadence.note_success()
    assert cadence.interval() > 8.0
    cadence.note_change()
    assert cadence.interval() == 8.0


def test_adaptive_cadence_failure_resets_the_success_streak():
    cadence = AdaptiveCadence(8.0, success_threshold=2)
    cadence.note_success()
    cadence.note_failure()
    cadence.note_success()  # streak restarted: still one success short
    assert cadence.interval() == 8.0


# --------------------------------------------------------------------------- refresh walk and cadence
A, B, C, D, E = ("a", 200.0), ("b", 400.0), ("c", 800.0), ("d", 1600.0), ("e", 6000.0)


def _stop_refresh_loops(routers):
    """End the routers' periodic refresh, so only the walks a test runs happen."""
    for router in routers:
        for process in list(router.node._processes):
            if process._label[-1] == "router-refresh":
                process.interrupt()


def _joined_router(table=()):
    """A bare router at 100.0 whose ring is JOINED, with successor ``a`` at
    200.0, and a bare router at each of A..E on its network (``router.hops``)
    for its walks to hop through.  No refresh loop runs."""
    router = _bare_router()
    router.ring._set_state(JOINED)
    router.ring.succ_list = [SuccessorEntry("a", 200.0, JOINED)]
    router.table = list(table)
    router.hops = {
        address: _bare_router(address, value, router.node.network)
        for address, value in (A, B, C, D, E)
    }
    _stop_refresh_loops([router, *router.hops.values()])
    return router


def _walk(router, *answers):
    """Run one refresh walk from ``router`` to its end; return the hops it made.

    The walk's hops answer ``answers`` in turn, each a ``(pointers, mark)``
    pair; a hop is ``(address, level)``.
    """
    calls = []
    script = iter(answers)

    def scripted(address):
        def answer(level, until):
            calls.append((address, level))
            return next(script)
        return answer

    for address, hop in router.hops.items():
        hop._table_answer = scripted(address)
    router.node.sim.run_process(router._refresh_table())
    assert next(script, None) is None, f"the walk made fewer hops than answers: {calls}"
    return calls


def _backed_off(router):
    router._cadence.note_success()
    router._cadence.note_success()
    base = router.config.router_refresh_period
    assert router._cadence.interval() == 2 * base
    return base


def test_a_walk_that_grew_the_table_refreshes_at_the_base_period():
    router = _joined_router(table=[A, B])
    base = _backed_off(router)
    assert _walk(router, ([B, C], None), ([], None)) == [("a", 0), ("c", 2)]
    assert router.table == [A, B, C]
    assert router._cadence.interval() == base


def test_a_walk_with_a_past_the_end_step_goes_on_and_refreshes_at_the_base_period():
    router = _joined_router(table=[A, B, C, D])
    base = _backed_off(router)
    calls = _walk(router, ([B], None), ([C], "past_end"), ([D], None), ([], None))
    assert calls == [("a", 0), ("b", 1), ("c", 2), ("d", 3)]
    assert router.table == [A, B, C, D]  # the same length: only the past-the-end step tightens
    assert router._cadence.interval() == base


def test_two_clean_unchanged_walks_back_the_refresh_off():
    router = _joined_router(table=[A, B, C])
    base = router.config.router_refresh_period
    for interval in (base, 2 * base):  # one clean walk is below the threshold
        _walk(router, ([B, C], None), ([], None))
        assert router.table == [A, B, C]
        assert router._cadence.interval() == interval


def test_a_failed_hop_refreshes_at_the_base_period():
    # The walk is lost at the dead hop: the origin waits out its timer, keeps
    # the table it had and counts a failure.
    router = _joined_router(table=[A, B])
    base = _backed_off(router)
    router.hops["c"].node.fail()
    started = router.node.sim.now
    assert _walk(router, ([B, C], None)) == [("a", 0)]
    assert router.node.sim.now - started == pytest.approx(_WALK_TIMEOUT)
    assert router.table == [A, B]  # not the lost walk's [A, B, C]
    assert router._cadence.interval() == base
    assert router._walk_done is None


def test_a_wrapped_answer_ends_the_walk_once_it_reaches_halfway():
    # Short of halfway round the key space (5,000 of 10,000) the walk goes on
    # from the wrapped pointer; past it, the wrapped pointer is the table's last.
    router = _joined_router()
    calls = _walk(router, ([B, C], None), ([D], "wrapped"), ([E], "wrapped"))
    assert calls == [("a", 0), ("c", 2), ("d", 3)]
    assert router.table == [A, B, C, D, E]


def test_a_walk_of_h_hops_costs_h_plus_one_messages():
    # One cast per hop and one back to the origin.
    for table, answers, hops in (
        ([A, B], [([B, C], None), ([], None)], 2),
        ([A, B, C, D], [([B], None), ([C], "past_end"), ([D], None), ([], None)], 4),
    ):
        router = _joined_router(table=table)
        stats = router.node.network.stats
        sent, methods = stats.messages_sent, dict(stats.per_method)
        assert len(_walk(router, *answers)) == hops
        assert stats.messages_sent - sent == hops + 1
        assert stats.per_method["route_table_entry"] - methods.get("route_table_entry", 0) == hops
        assert stats.per_method["route_table_done"] - methods.get("route_table_done", 0) == 1


def test_a_late_or_stale_walk_result_is_dropped():
    router = _joined_router(table=[A, B])
    router.hops["c"].node.fail()
    _walk(router, ([B, C], None))  # lost at c
    lost = router._walks
    late = {"walk": lost, "table": [A, B, C, D], "past_end": False}
    router.hops["a"].node.cast("self", "route_table_done", late)
    router.node.sim.run(until=router.node.sim.now + 1.0)
    assert router.table == [A, B]  # after its walk gave up: ignored
    # While the next walk is pending, the lost walk's result is not its own.
    walk = router.node.sim.process(router._refresh_table())
    router.hops["a"].node.cast("self", "route_table_done", late)
    for hop in router.hops.values():
        hop._table_answer = lambda level, until: ([], None)
    router.node.sim.run_until(walk, timeout=_WALK_TIMEOUT / 2)
    assert walk.triggered and router._walks == lost + 1
    assert router.table == [A]  # the pending walk's own result


def test_a_peer_failing_mid_walk_leaves_no_cycle():
    router = _joined_router(table=[A, B])
    router.hops["c"].node.fail()
    for hop in router.hops.values():
        hop._table_answer = lambda level, until: ([B, C], None)
    sim = router.node.sim
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        walk = sim.process(router._refresh_table())
        sim.run(until=sim.now + 1.0)
        assert router._walk_done is not None and not walk.triggered
        router.node.fail()  # the origin, with its walk pending
        del walk
        sim.run(until=sim.now + 2 * _WALK_TIMEOUT)
        assert router._walk_done is None and router.table == [A, B]
        gc.set_debug(gc.DEBUG_SAVEALL)
        unreachable = gc.collect()
        kinds = collections.Counter(type(obj).__name__ for obj in gc.garbage)
        assert unreachable == 0, f"{unreachable} objects in cycles: {kinds.most_common(5)}"
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


# --------------------------------------------------------------------------- restarted walks
F = ("f", 8000.0)
X = ("x", 1000.0)  # between C and D


def _settled_router():
    """A router whose full walk installed [A, B, C, D, E] unchanged, so its
    next walk restarts at level 2 (two below the table's end, rounded down
    to even); ``f`` at 8000.0 is one more hop on its network."""
    router = _joined_router(table=[A, B, C, D, E])
    router.hops["f"] = _bare_router(*F, router.node.network)
    _stop_refresh_loops([router.hops["f"]])
    assert _walk(router, ([B, C], None), ([D, E], None), ([], None)) == [
        ("a", 0), ("c", 2), ("e", 4)]
    assert router.table == [A, B, C, D, E]
    return router


def _first_hop(router):
    """Run one walk that ends at its first hop; return that hop."""
    (hop,) = _walk(router, ([], None))
    return hop


def test_a_walk_restarts_two_levels_below_the_lowest_level_the_last_walk_changed():
    router = _settled_router()
    # Nothing changed: levels 0-2 are kept, the walk re-asks from c, and c's
    # answer is what we hold, so the walk ends there.
    assert _walk(router, ([D, E], None)) == [("c", 2)]
    assert router.table == [A, B, C, D, E]
    # This walk changes level 3, so the next one starts at level 0 (3 - 2,
    # rounded down to even).
    assert _walk(router, ([X, E], None), ([], None)) == [("c", 2), ("e", 4)]
    assert router.table == [A, B, C, X, E]
    assert _first_hop(router) == ("a", 0)


@pytest.mark.parametrize("event", ["successor", "predecessor", "predecessor_failed", "mid_walk"])
def test_a_ring_event_makes_the_next_walk_full(event):
    router = _settled_router()
    ring = router.ring
    fire = {
        "successor": lambda: router.on_successor_changed(ring, "a"),
        "predecessor": lambda: router.on_predecessor_changed(ring, None, None, "p", 50.0),
        "predecessor_failed": lambda: router.on_predecessor_failed(ring, "p", 50.0),
    }
    if event == "mid_walk":
        # Heard while a restarted walk is out: the walk's own clean result
        # does not override it.
        def answering(level, until):
            fire["successor"]()
            return [D, E], None

        router.hops["c"]._table_answer = answering
        router.hops["e"]._table_answer = lambda level, until: ([], None)
        router.node.sim.run_process(router._refresh_table())
        assert router.table == [A, B, C, D, E]
    else:
        fire[event]()
    assert _first_hop(router) == ("a", 0)


def test_a_lost_walk_makes_the_next_walk_full():
    router = _settled_router()
    router.hops["e"].node.fail()
    assert _walk(router, ([X, E], None)) == [("c", 2)]  # a change at level 3: lost at e
    assert _first_hop(router) == ("a", 0)


def test_a_dead_pointer_found_by_our_own_route_makes_the_next_walk_full():
    router = _settled_router()
    router.hops["d"].node.fail()
    router.node.sim.run_process(router.find_responsible(1700.0))  # d is its first candidate
    assert D not in router.table
    assert _first_hop(router) == ("a", 0)


@pytest.mark.parametrize("grew", [True, False])
def test_a_walk_that_grew_or_went_past_the_end_makes_the_next_walk_full(grew):
    router = _settled_router()
    if grew:
        calls = _walk(router, ([X, E], None), ([F], None), ([], None))
        assert router.table == [A, B, C, X, E, F]
    else:
        # d's plain answer is what we hold: the walk ends there, past the end.
        calls = _walk(router, ([D], "past_end"), ([E], None))
        assert router.table == [A, B, C, D, E]  # unchanged, but past the end
    assert calls[0] == ("c", 2)
    assert _first_hop(router) == ("a", 0)


def test_a_moved_first_successor_makes_the_next_walk_full():
    # Same address, new value: table[0] is no longer the first JOINED successor.
    router = _settled_router()
    router.ring.succ_list = [SuccessorEntry("a", 250.0, JOINED)]
    assert _first_hop(router) == ("a", 0)


def test_a_table_emptied_without_a_joined_successor_makes_the_next_walk_full():
    router = _settled_router()
    router.ring.succ_list = []
    assert _walk(router) == [] and router.table == []
    router.ring.succ_list = [SuccessorEntry("a", 200.0, JOINED)]
    assert _first_hop(router) == ("a", 0)


@pytest.mark.parametrize("entry, full", [
    (("x", 300.0, JOINED), True),  # joined within the kept levels' span
    (("y", 1000.0, JOINED), False),  # past table[2], which the walk re-asks anyway
    (("x", 300.0, JOINING), False),  # not a JOINED successor yet
])
def test_a_successor_list_change_within_the_kept_span_makes_the_next_walk_full(entry, full):
    router = _settled_router()
    router.ring.succ_list = [SuccessorEntry("a", 200.0, JOINED), SuccessorEntry(*entry)]
    assert _first_hop(router) == (("a", 0) if full else ("c", 2))


def test_a_successor_leaving_the_kept_span_makes_the_next_walk_full():
    router = _joined_router(table=[A, B, C, D, E])
    router.ring.succ_list = [SuccessorEntry("a", 200.0, JOINED), SuccessorEntry("b", 400.0, JOINED)]
    _walk(router, ([B, C], None), ([D, E], None), ([], None))
    router.ring.succ_list = router.ring.succ_list[:1]
    assert _first_hop(router) == ("a", 0)


def test_the_floor_makes_a_walk_full_every_twelve_base_periods():
    router = _settled_router()
    base = router.config.router_refresh_period
    sim = router.node.sim
    assert router._full_due == pytest.approx(sim.now + 12 * base, abs=0.01)
    sim.run(until=router._full_due - 0.01)
    assert _walk(router, ([D, E], None)) == [("c", 2)]
    sim.run(until=router._full_due)
    assert _first_hop(router) == ("a", 0)


def _long_settled_router():
    """A router whose full walk changed level 4 of [A, B, C, D, Y, F] to E,
    so its next walk restarts at level 2 and carries [D, E, F]."""
    router = _joined_router(table=[A, B, C, D, ("y", 3000.0), F])
    router.hops["f"] = _bare_router(*F, router.node.network)
    _stop_refresh_loops([router.hops["f"]])
    _walk(router, ([B, C], None), ([D, E], None), ([F], None), ([], None))
    assert router.table == [A, B, C, D, E, F]
    return router


def test_a_restart_walk_over_an_unchanged_table_sends_one_entry_and_one_done():
    router = _long_settled_router()
    stats = router.node.network.stats
    sent, methods = stats.messages_sent, dict(stats.per_method)
    # c's answer is what we hold at levels 3 and 4: the walk ends there, and
    # level 5, which it never asked, is kept.
    assert _walk(router, ([D, E], None)) == [("c", 2)]
    assert router.table == [A, B, C, D, E, F]
    assert stats.messages_sent - sent == 2
    assert stats.per_method["route_table_entry"] - methods["route_table_entry"] == 1
    assert stats.per_method["route_table_done"] - methods["route_table_done"] == 1
    # Nothing changed: the next walk restarts two levels below the table's end.
    assert _first_hop(router) == ("e", 4)


def _full_walk_answers(table):
    """The answers that rebuild ``table`` unchanged by a full walk, and its hops."""
    answers, hops, level = [], [], 0
    while level < len(table) - 1:
        hops.append((table[level][0], level))
        answers.append((table[level + 1 : level + 3], None))
        level = min(level + 2, len(table) - 1)
    return answers + [([], None)], hops + [(table[level][0], level)]


def _lose_a_walk(router):
    router.hops["f"].node.fail()
    assert _walk(router, ([X, F], None)) == [("c", 2)]  # lost at f


def _grow(router):
    _walk(router, ([X, E], None), ([F], None), ([], None))


def _fail_d_and_route_to_it(router):
    router.hops["d"].node.fail()
    router.node.sim.run_process(router.find_responsible(1700.0))


FULL_WALK_EVIDENCE = {
    "floor": lambda router: router.node.sim.run(until=router._full_due),
    "ring_event": lambda router: router.on_successor_changed(router.ring, "a"),
    "lost_walk": _lose_a_walk,
    "dead_pointer": _fail_d_and_route_to_it,
    "growth": _grow,
    "past_end": lambda router: _walk(router, ([D], "past_end"), ([E], None)),
    "successors": lambda router: setattr(
        router.ring, "succ_list", [SuccessorEntry("a", 200.0, JOINED),
                                   SuccessorEntry("x", 300.0, JOINED)]),
}


@pytest.mark.parametrize("evidence", sorted(FULL_WALK_EVIDENCE))
def test_a_full_walk_is_never_cut_short(evidence):
    """The floor's full walk, and the full walk after each kind of evidence,
    asks every hop even when every answer is what we hold (as does a
    router's first walk, in ``_settled_router``)."""
    router = _settled_router()
    router.hops["f"] = _bare_router(*F, router.node.network)
    _stop_refresh_loops([router.hops["f"]])
    FULL_WALK_EVIDENCE[evidence](router)
    table = list(router.table)
    answers, hops = _full_walk_answers(table)
    assert len(hops) >= 3
    assert _walk(router, *answers) == hops
    assert router.table == table


@pytest.mark.parametrize("mark", ["past_end", "wrapped"])
def test_a_marked_answer_never_stops_a_walk(mark):
    # c's marked answer is the pointer we hold at level 3; the walk goes on
    # from it, and d's plain answer, what we hold at levels 4 and 5, ends it.
    router = _long_settled_router()
    assert _walk(router, ([D], mark), ([E, F], None)) == [("c", 2), ("d", 3)]
    assert router.table == [A, B, C, D, E, F]


def test_a_table_short_of_half_the_key_space_never_stops_a_walk():
    # Four pointers reaching 1,500 of 10,000: the table is still converging.
    router = _joined_router(table=[A, B, C, D])
    _walk(router, ([B, C], None), ([D], None), ([], None))
    assert _walk(router, ([D], None), ([], None)) == [("c", 2), ("d", 3)]
    assert router.table == [A, B, C, D]


def test_a_spliced_table_strictly_increases_clockwise():
    """Our value moved since the table was installed, so its far pointers no
    longer increase clockwise from it: the walk does not keep them."""
    router = _long_settled_router()
    router.ring.value = 7000.0  # F, at 8,000, is now 1,000 round from us
    assert _walk(router, ([D, E], None), ([F], None)) == [("c", 2), ("e", 4)]
    assert router.table == [A, B, C, D, E]  # F was refused, not spliced in
    distances = [router._clockwise(7000.0, value) for _, value in router.table]
    assert distances == sorted(set(distances))


def _iterative_walk(index, router, prefix=()):
    """``(table, hops)``: the table the iterative walk (a round trip per hop,
    the origin installing every answer) builds over the tables as they
    stand, from ``prefix`` kept (a restart) or from the first JOINED
    successor, and how many peers it asked.

    A restart stops early when the origin's table ``router.table`` reaches
    half the key space and strictly
    increases clockwise from the prefix's last pointer on: at the first
    unmarked answer whose pointers all install and equal the ones the
    origin's table holds at those levels, the walk keeps the rest of that
    table."""
    own = router.ring.value
    halfway = router.config.key_space / 2.0
    old = list(router.table)
    table, last, mark, hops = list(prefix), 0.0, None, 0
    stops = False
    if table:
        reach = [router._clockwise(own, value) for _, value in old[len(table) - 1 :]]
        stops = reach[-1] >= halfway and reach == sorted(set(reach))
        last = reach[0]
        fresh, mark = index.peers[table[-1][0]].router._table_answer(len(table) - 1, own)
        hops += 1
    else:
        first = router.ring._stabilization_target()
        fresh = [] if first is None else [(first.address, first.value)]
    while fresh:
        level = len(table)
        for address, value in fresh:
            distance = router._clockwise(own, value)
            if len(table) >= ROUTER_TABLE_SIZE or (table and distance <= last):
                return table, hops
            table.append((address, value))
            last = distance
        if stops and mark is None and old[level : len(table)] == fresh:
            return table + old[len(table) :], hops
        if len(table) >= ROUTER_TABLE_SIZE or (mark == "wrapped" and last >= halfway):
            return table, hops
        remote = index.peers[table[-1][0]].router
        fresh, mark = remote._table_answer(len(table) - 1, own)
        hops += 1
    return table, hops


def test_the_forwarded_walk_installs_the_iterative_walks_table():
    """On a settled scale_100 ring with every table frozen, each member's
    forwarded walk installs the table the iterative walk computes, asking
    as many peers: a full walk, and a restart from every even level of its
    kept prefix, stopped early where nothing moved."""
    spec = get_scenario("scale_100")
    experiment = build_experiment(spec, 0)
    experiment.run_phases(spec.phases[:2], total_peers=spec.peers)
    index = experiment.index
    members = index.ring_members()
    _stop_refresh_loops([peer.router for peer in index.peers.values()])
    index.run(1.0)
    frozen = {peer.address: list(peer.router.table) for peer in members}
    stats = index.network.stats
    lengths, restarts, stopped = set(), 0, 0

    def walk(router, start):
        """Run one walk; return how many route_table_entry casts it sent."""
        sent = stats.per_method.get("route_table_entry", 0)
        index.run_process(router._refresh_table(start=start))
        return stats.per_method["route_table_entry"] - sent

    for peer in members:
        expected, hops = _iterative_walk(index, peer.router)
        assert walk(peer.router, 0) == hops, peer.address
        assert peer.router.table == expected, peer.address
        lengths.add(len(expected))
        kept = frozen[peer.address]
        for start in range(2, len(kept), 2):
            peer.router.table = list(kept)
            expected, hops = _iterative_walk(index, peer.router, kept[: start + 1])
            assert walk(peer.router, start) == hops, (peer.address, start)
            assert peer.router.table == expected, (peer.address, start)
            assert peer.router.table[: start + 1] == kept[: start + 1]
            restarts += 1
            stopped += hops == 1 and len(expected) > start + 3
        peer.router.table = kept
    assert len(index.ring_members()) == len(members)
    assert max(lengths) > 4  # the walks went several hops
    assert restarts > 3 * len(members)
    assert stopped > len(members)  # restarts that ended at their first hop


# scale_100's stress-phase route_table_entry hops per ring member per simulated
# second: 0.0804 at seed 0 since a restart walk stops at the first hop that
# changes nothing, plus 20% headroom (CI's scale-smoke gates the same); 0.207
# while every walk started at level 0, 0.141 and then 0.149 (one maintenance
# tick) while a restart re-asked every level above its start.
ROUTER_WALK_RATE = 0.096


def test_converged_tables_back_the_stress_phase_walks_off():
    """The refresh backs off once the tables have converged: the stress
    phase's table walks stay under a fixed rate per ring member (a walk every
    base period cost 0.31 here)."""
    cell = run_spec(get_scenario("scale_100"), seed=0)
    (stress,) = [phase for phase in cell.phases if phase["phase"] == "stress"]
    members = (stress["ring_members_start"] + stress["ring_members"]) / 2
    rate = stress["rpc_per_method"]["route_table_entry"] / members / stress["sim_seconds"]
    assert rate <= ROUTER_WALK_RATE, f"{rate:.3f} table RPCs per member-second"


_RESET_CAUSES = {
    "ring_event", "lost_walk", "dead_pointer", "growth", "past_end", "floor", "successors",
}


def test_the_walk_census_counts_every_walk_and_why_it_was_full():
    """Each walk is tallied as full or restart, and each piece of evidence
    that made a walk full by its cause; on scale_100 (seed 0: 382 full, 239
    restarts, resets ring_event 301, growth 201, successors 11, lost_walk 7,
    past_end 4) every full walk after a router's first has a reset to
    account for it."""
    spec = get_scenario("scale_100")
    experiment = build_experiment(spec, 0)
    experiment.run_phases(spec.phases, total_peers=spec.peers)
    index = experiment.index
    routers = [peer.router for peer in index.peers.values()]
    count = index.metrics.count
    full, restart = count("router_walk_full"), count("router_walk_restart")
    assert full + restart == sum(router._walks for router in routers)
    assert restart > 0
    resets = {cause: count("router_reset_" + cause) for cause in _RESET_CAUSES}
    assert resets["growth"] > 0 and resets["ring_event"] > 0 and resets["lost_walk"] > 0
    first_walks = sum(1 for router in routers if router._walks)
    assert full <= first_walks + sum(resets.values())


# ring_ping per ring member per stabilization period on scale_100 (seed 0) once
# it has settled, with nothing happening: 0.452 (0.518 while successor
# validation ran on a loop of its own, 0.620 while the predecessor check
# trusted a stabilize for one check period), plus 20% headroom.
QUIET_PING_RATE = 0.54


def test_a_quiet_ring_pings_only_what_stabilize_traffic_left_unvouched():
    """On a settled, quiet ring most liveness comes from stabilize traffic:
    the ring pings stay under a fixed number per member per period."""
    spec = get_scenario("scale_100")
    experiment = build_experiment(spec, 0)
    experiment.run_phases(spec.phases[:2], total_peers=spec.peers)
    index = experiment.index
    members = len(index.ring_members())
    periods = 5
    before = index.network.stats.per_method.get("ring_ping", 0)
    index.run(periods * index.config.stabilization_period)
    pings = index.network.stats.per_method["ring_ping"] - before
    assert len(index.ring_members()) == members
    rate = pings / members / periods
    assert rate <= QUIET_PING_RATE, f"{rate:.2f} ring pings per member-period"
