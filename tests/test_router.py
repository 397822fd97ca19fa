"""Tests for the content router (hierarchical pointer table, table-hop routing)."""

import math
import random

import pytest

from repro import default_config
from repro.datastore.store import DataStore
from repro.harness.scenarios import build_experiment, get_scenario, run_spec
from repro.ring.chord import ChordRing
from repro.ring.entries import JOINED, JOINING, LEAVING, SuccessorEntry
from repro.router.hierarchical import HierarchicalRingRouter
from repro.sim.engine import Simulator
from repro.sim.network import Network, NetworkConfig
from repro.transport import Endpoint, RpcTimeout
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


def test_route_to_a_key_nobody_owns_fails_fast_and_is_recorded(settled_ring):
    index, members = settled_ring
    origin = members[40]
    victim = members[200]
    key = victim.ring.value  # owned by the victim alone
    index.fail_peer(victim.address)
    probes = _probes(index)
    recorded = index.metrics.count("route_hops")
    started = index.sim.now
    found = index.run_process(origin.router.find_responsible(key))
    assert found is None
    spent = _probes(index) - probes
    assert spent <= 12 + math.log2(len(members))
    assert index.metrics.values("route_hops")[recorded:] == [spent]
    route = index.history.history().of_kind("route")[-1]
    assert (route.peer, route.attrs["found"], route.attrs["hops"]) == (origin.address, None, spent)
    assert index.sim.now - started < 2.0


# --------------------------------------------------------------------------- table-entry answers
def _bare_router():
    """A lone peer's HierarchicalRingRouter: successor list and table set by hand."""
    config = default_config(seed=0)
    sim = Simulator()
    node = Endpoint(sim, Network(sim, random.Random(0), NetworkConfig()), "self",
                    rng=random.Random(0))
    ring = ChordRing(node, 100.0, config)
    return HierarchicalRingRouter(node, ring, DataStore(node, ring, config), config)


SUCCESSOR_LISTS = {
    "joined_first": [("a", 200.0, JOINED), ("b", 300.0, JOINED)],
    "self_joining_joined": [
        ("self", 100.0, JOINED), ("j", 150.0, JOINING), ("b", 300.0, JOINED)],
    "only_self": [("self", 100.0, JOINED)],
    "none_joined": [("j", 150.0, JOINING), ("l", 250.0, LEAVING)],
    "empty": [],
}


def _wire(pointers):
    return [{"address": address, "value": value} for address, value in pointers]


@pytest.mark.parametrize("table_size", [0, 1, 2, 6])
@pytest.mark.parametrize("successors", sorted(SUCCESSOR_LISTS))
def test_table_entry_answers_equal_the_joined_successor_expression(successors, table_size):
    router = _bare_router()
    router.ring.succ_list = [SuccessorEntry(*entry) for entry in SUCCESSOR_LISTS[successors]]
    router.table = [(f"t{level}", 1000.0 * (level + 1)) for level in range(table_size)]
    # The expression the answer slices, kept as the reference.
    pointers = router._joined_successors()[:1] + router.table[1:]
    until = 99.0  # an asker just behind us: no pointer passes it
    assert router._handle_table_entry({"until": until}, None) == {"entries": _wire(pointers[:1])}
    for level in range(table_size + 3):
        for span in range(-1, 5):
            payload = {"level": level, "span": span, "until": until}
            answer = router._handle_table_entry(payload, None)
            expected = {"entries": _wire(pointers[level : level + max(1, span)])}
            if level >= len(pointers) and pointers:
                # Past the end: the farthest pointer, for the walk to go on from.
                expected = {"entries": _wire(pointers[-1:]), "past_end": True}
            assert answer == expected, (level, span)


def test_table_entry_answers_stop_short_of_the_asker():
    router = _bare_router()  # at 100.0
    router.ring.succ_list = [SuccessorEntry("a", 200.0, JOINED)]
    router.table = [(f"t{level}", 1000.0 * (level + 1)) for level in range(6)]
    a, t1, t2, t3, t4, t5 = [("a", 200.0)] + router.table[1:]

    def ask(level, until):
        return router._handle_table_entry({"level": level, "span": 2, "until": until}, None)

    # A slice that starts short of the asker is answered as it is; the asker
    # refuses a second pointer that passes it.
    assert ask(0, 3500.0) == {"entries": _wire([a, t1])}
    assert ask(2, 3500.0) == {"entries": _wire([t2, t3])}
    # Our pointers at the level pass the asker: the farthest short of it.
    assert ask(3, 3500.0) == {"entries": _wire([t2]), "wrapped": True}
    assert ask(4, 4500.0) == {"entries": _wire([t3]), "wrapped": True}
    # Past the end of the table: the farthest pointer, unless it passes the asker.
    assert ask(7, 9000.0) == {"entries": _wire([t5]), "past_end": True}
    assert ask(7, 3500.0) == {"entries": _wire([t2]), "wrapped": True}
    # Nothing between us and the asker: nothing to answer.
    assert ask(0, 150.0) == {"entries": []}


# --------------------------------------------------------------------------- refresh walk and cadence
def _joined_router(table=()):
    """A bare router at 100.0 whose ring is JOINED, with successor ``a`` at 200.0."""
    router = _bare_router()
    router.ring._set_state(JOINED)
    router.ring.succ_list = [SuccessorEntry("a", 200.0, JOINED)]
    router.table = list(table)
    return router


def _walk(router, *answers):
    """Run one refresh walk, answering its calls in turn; return the calls it made.

    An answer is a reply dict, or an exception the call raises.
    """
    calls = []
    router.node.call = lambda address, method, payload: calls.append((address, payload["level"]))
    walk = router._refresh_table()
    next(walk)
    for answer in answers:
        try:
            walk.throw(answer) if isinstance(answer, Exception) else walk.send(answer)
        except StopIteration:
            break
    else:
        raise AssertionError(f"the walk made more calls than answered: {calls}")
    return calls


A, B, C, D, E = ("a", 200.0), ("b", 400.0), ("c", 800.0), ("d", 1600.0), ("e", 6000.0)


def _backed_off(router):
    router._cadence.note_success()
    router._cadence.note_success()
    base = router.config.router_refresh_period
    assert router._cadence.interval() == 2 * base
    return base


def test_a_walk_that_grew_the_table_refreshes_at_the_base_period():
    router = _joined_router(table=[A, B])
    base = _backed_off(router)
    assert _walk(router, {"entries": _wire([B, C])}, {"entries": []}) == [("a", 0), ("c", 2)]
    assert router.table == [A, B, C]
    assert router._cadence.interval() == base


def test_a_walk_with_a_past_the_end_step_goes_on_and_refreshes_at_the_base_period():
    router = _joined_router(table=[A, B, C, D])
    base = _backed_off(router)
    calls = _walk(router, {"entries": _wire([B])}, {"entries": _wire([C]), "past_end": True},
                  {"entries": _wire([D])}, {"entries": []})
    assert calls == [("a", 0), ("b", 1), ("c", 2), ("d", 3)]
    assert router.table == [A, B, C, D]  # the same length: only the past-the-end step tightens
    assert router._cadence.interval() == base


def test_two_clean_unchanged_walks_back_the_refresh_off():
    router = _joined_router(table=[A, B, C])
    base = router.config.router_refresh_period
    for interval in (base, 2 * base):  # one clean walk is below the threshold
        _walk(router, {"entries": _wire([B, C])}, {"entries": []})
        assert router.table == [A, B, C]
        assert router._cadence.interval() == interval


def test_a_failed_hop_refreshes_at_the_base_period():
    router = _joined_router(table=[A, B, C])
    base = _backed_off(router)
    assert _walk(router, {"entries": _wire([B, C])}, RpcTimeout("c")) == [("a", 0), ("c", 2)]
    assert router.table == [A, B]  # the dead pointer is not installed
    assert router._cadence.interval() == base


# scale_100's stress-phase route_table_entry RPCs per ring member per simulated
# second: 0.21 at seed 0, plus 20% headroom (CI's scale-smoke gates the same).
ROUTER_WALK_RATE = 0.255


def test_converged_tables_back_the_stress_phase_walks_off():
    """The refresh backs off once the tables have converged: the stress
    phase's table walks stay under a fixed rate per ring member (a walk every
    base period cost 0.31 here)."""
    cell = run_spec(get_scenario("scale_100"), seed=0)
    (stress,) = [phase for phase in cell.phases if phase["phase"] == "stress"]
    members = (stress["ring_members_start"] + stress["ring_members"]) / 2
    rate = stress["rpc_per_method"]["route_table_entry"] / members / stress["sim_seconds"]
    assert rate <= ROUTER_WALK_RATE, f"{rate:.3f} table RPCs per member-second"


# ring_ping per ring member per stabilization period on scale_100 (seed 0) once
# it has settled, with nothing happening: 0.60, plus 20% headroom.
QUIET_PING_RATE = 0.72


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


def test_a_wrapped_answer_ends_the_walk_once_it_reaches_halfway():
    # Short of halfway round the key space (10,000) the walk goes on from the
    # wrapped pointer; past it, the wrapped pointer is the table's last.
    router = _joined_router()
    calls = _walk(router, {"entries": _wire([B, C])}, {"entries": _wire([D]), "wrapped": True},
                  {"entries": _wire([E]), "wrapped": True})
    assert calls == [("a", 0), ("c", 2), ("d", 3)]
    assert router.table == [A, B, C, D, E]
