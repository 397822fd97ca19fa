"""Ring-level tests: Chord substrate, PEPPER insertSucc and availability-preserving leave."""

import random

import pytest
from hypothesis import event, given, settings, strategies as st

from repro.core.histories import HistoryRecorder
from repro.core.pepper_ring import PepperRing
from repro.core.correctness import (
    check_consistent_successor_pointers,
    check_ring_connectivity,
)
from repro.harness.metrics import Metrics
from repro.harness.runner import run_spec
from repro.harness.scenarios import build_experiment, get_scenario
from repro.index.config import FAILURE_DETECTION_TIMEOUT, STABILIZATION_JITTER, default_config
from repro.ring.chord import ChordRing, in_open_interval
from repro.ring.entries import (
    FREE,
    JOINED,
    JOINING,
    LEAVING,
    NEVER,
    SuccessorEntry,
    _extension,
    _merge_all,
    clockwise_distance,
    entries_from_wire,
    insert_sorted,
    merge,
    trim,
    trim_riding,
    without,
)
from repro.sim.engine import Simulator
from repro.sim.network import ConstantLatency, Network, NetworkConfig
from repro.sim.randomness import RngStreams
from repro.transport import Endpoint
from repro.transport.endpoint import _PeriodicProcess
from tests.conftest import build_cluster
from tests.test_sim_network import _unmatched_returns


class RingPeer(Endpoint):
    """A bare node carrying only the ring component (for ring-level tests)."""

    def __init__(self, sim, network, address, value, config, ring_class, metrics=None):
        rng = RngStreams(config.seed).stream(f"ring:{address}")
        super().__init__(sim, network, address, rng=rng)
        self.ring = ring_class(self, value, config, metrics=metrics)


class RingHarness:
    """Builds and manipulates a ring of bare ring peers."""

    def __init__(self, ring_class=PepperRing, metrics=None, **config_overrides):
        self.config = default_config(**config_overrides)
        self.sim = Simulator()
        self.network = Network(self.sim, RngStreams(1).stream("net"), NetworkConfig())
        self.metrics = metrics or Metrics()
        self.ring_class = ring_class
        self.peers = []

    def bootstrap(self, value=1000.0):
        peer = RingPeer(
            self.sim, self.network, "n000", value, self.config, self.ring_class, self.metrics
        )
        peer.ring.create()
        self.peers.append(peer)
        return peer

    def predecessor_for(self, value):
        """The existing ring member that should precede ``value``."""
        members = [p for p in self.peers if p.alive and p.ring.state == JOINED]
        below = [p for p in members if p.ring.value < value]
        if below:
            return max(below, key=lambda p: p.ring.value)
        return max(members, key=lambda p: p.ring.value)

    def join_peer(self, value):
        address = f"n{len(self.peers):03d}"
        peer = RingPeer(
            self.sim, self.network, address, value, self.config, self.ring_class, self.metrics
        )
        self.peers.append(peer)
        predecessor = self.predecessor_for(value)
        self.sim.run_process(peer.ring.join(predecessor.address), timeout=300.0)
        return peer

    def run(self, duration):
        self.sim.run(until=self.sim.now + duration)

    def live(self):
        return [p for p in self.peers if p.alive]


# --------------------------------------------------------------------------- helpers
def test_in_open_interval_handles_wrap_and_degenerate():
    assert in_open_interval(5.0, 1.0, 10.0)
    assert not in_open_interval(1.0, 1.0, 10.0)
    assert in_open_interval(0.5, 9.0, 2.0)  # wrapping interval
    assert in_open_interval(9.5, 9.0, 2.0)
    assert not in_open_interval(5.0, 9.0, 2.0)
    assert in_open_interval(3.0, 7.0, 7.0)  # degenerate: whole ring minus endpoint
    assert not in_open_interval(7.0, 7.0, 7.0)


def test_successor_entry_wire_round_trip():
    entry = SuccessorEntry("addr", 5.0, LEAVING, heard=1.0, vouched=2.0)
    restored = SuccessorEntry.from_wire(entry.to_wire())
    assert restored.address == "addr"
    assert restored.value == 5.0
    assert restored.state == LEAVING
    assert (restored.heard, restored.vouched) == (NEVER, NEVER)  # liveness is not on the wire


# --------------------------------------------------------------------------- bootstrap & joins
def test_first_peer_points_at_itself():
    harness = RingHarness()
    first = harness.bootstrap()
    assert first.ring.state == JOINED
    assert first.ring.succ_list[0].address == first.address
    assert first.ring.pred_address == first.address


def test_sequential_joins_build_consistent_ring_pepper():
    harness = RingHarness(ring_class=PepperRing)
    harness.bootstrap(1000.0)
    for value in (100.0, 300.0, 500.0, 700.0, 900.0):
        harness.join_peer(value)
        harness.run(1.0)
    harness.run(3 * harness.config.stabilization_period)
    assert check_consistent_successor_pointers(harness.live()).ok
    assert check_ring_connectivity(harness.live()).ok


def test_sequential_joins_build_connected_ring_naive():
    harness = RingHarness(
        ring_class=ChordRing, consistent_insert=False, safe_leave=False, proactive_nudge=False
    )
    harness.bootstrap(1000.0)
    for value in (100.0, 300.0, 500.0, 700.0):
        harness.join_peer(value)
        harness.run(1.0)
    harness.run(4 * harness.config.stabilization_period)
    assert check_ring_connectivity(harness.live()).ok


def test_pepper_join_keeps_pointers_consistent_immediately():
    """Theorem 1: at no sampled instant do JOINED peers have missing pointers."""
    harness = RingHarness(ring_class=PepperRing)
    harness.bootstrap(1000.0)
    for value in (200.0, 400.0, 600.0, 800.0):
        harness.join_peer(value)
        # No settling time: the new peer is JOINED, so pointers must already
        # be consistent among JOINED peers.
        result = check_consistent_successor_pointers(harness.live())
        assert result.ok, result.violations


def test_naive_join_leaves_window_of_inconsistency():
    """Section 4.2.1: right after a naive insert some predecessor misses the new peer."""
    harness = RingHarness(
        ring_class=ChordRing, consistent_insert=False, proactive_nudge=False
    )
    harness.bootstrap(1000.0)
    for value in (200.0, 400.0, 600.0, 800.0):
        harness.join_peer(value)
        harness.run(3 * harness.config.stabilization_period)
    # Insert one more peer between 400 and 600 and check instantly, before any
    # stabilization round can propagate it.
    harness.join_peer(500.0)
    result = check_consistent_successor_pointers(harness.live())
    assert not result.ok


def test_insert_succ_metric_recorded():
    metrics = Metrics()
    harness = RingHarness(ring_class=PepperRing, metrics=metrics)
    harness.bootstrap(1000.0)
    harness.join_peer(500.0)
    harness.run(2.0)
    assert metrics.count("insert_succ") == 1
    assert metrics.mean("insert_succ") >= 0.0


@pytest.fixture(scope="module", params=["smoke", "churn_heavy"])
def cell_history(request):
    """The recorded history of one run of a registry churn cell."""
    spec = get_scenario(request.param)
    experiment = build_experiment(spec, spec.seed)
    experiment.run_phases(spec.phases, total_peers=spec.peers)
    return experiment.index.history


def test_no_insert_succ_gives_up_waiting_for_its_ack(cell_history):
    """After 200 unanswered nudges the ack wait gives up and records
    ``insert_succ_unacked``; the registry's churn cells never get there."""
    assert cell_history.count("insert_succ") > 0
    assert cell_history.count("insert_succ_unacked") == 0


def test_no_join_gives_up(cell_history):
    """After 20 tries a joining peer returns to FREE and records
    ``join_abandoned``; the registry's churn cells never get there."""
    assert cell_history.count("ring_joined") > 0
    assert cell_history.count("join_abandoned") == 0


def test_insert_redirect_when_contacting_wrong_predecessor():
    harness = RingHarness(ring_class=PepperRing)
    harness.bootstrap(1000.0)
    harness.join_peer(200.0)
    harness.join_peer(600.0)
    harness.run(8.0)
    # Join a peer at 700 but deliberately contact the peer at 200: the ring
    # must redirect the join towards the correct predecessor (600).
    address = f"n{len(harness.peers):03d}"
    peer = RingPeer(harness.sim, harness.network, address, 700.0, harness.config, PepperRing)
    harness.peers.append(peer)
    wrong_contact = next(p for p in harness.peers if p.ring.value == 200.0)
    harness.sim.run_process(peer.ring.join(wrong_contact.address), timeout=300.0)
    harness.run(3 * harness.config.stabilization_period)
    assert peer.ring.state == JOINED
    assert check_consistent_successor_pointers(harness.live()).ok


class RedirectingStub(Endpoint):
    """A forged ring member whose insertSucc always redirects to a fixed partner."""

    def __init__(self, sim, network, address):
        super().__init__(sim, network, address)
        self.partner = None
        self.requests = 0
        self.register_handler("ring_insert_successor", self._redirect)

    def _redirect(self, payload, request):
        self.requests += 1
        return {"accepted": False, "state": JOINED, "redirect": self.partner}


def test_join_redirect_cycle_aborts_instead_of_spinning():
    """A cyclic stale-pointer redirect chain (A -> B -> A) must hit the attempt
    cap and abort -- the ``ring_insert_successor`` redirect storm seen under
    flash crowds.  Before the fix the redirect path skipped the cap check, so
    this join spun forever."""
    harness = RingHarness(ring_class=ChordRing)
    a = RedirectingStub(harness.sim, harness.network, "stubA")
    b = RedirectingStub(harness.sim, harness.network, "stubB")
    a.partner, b.partner = "stubB", "stubA"
    joiner = RingPeer(harness.sim, harness.network, "joiner", 500.0, harness.config, ChordRing)
    joiner.ring.history = recorder = HistoryRecorder(harness.sim)
    with pytest.raises(RuntimeError, match="could not join"):
        harness.sim.run_process(joiner.ring.join("stubA"), timeout=500.0)
    assert joiner.ring.state == FREE
    # The cap bounds the storm: at most 20 insert attempts reach the ring.
    assert a.requests + b.requests <= 20
    # The give-up is on the record, with the tries made and the last contact.
    [abandoned] = recorder.history().of_kind("join_abandoned")
    assert abandoned.get("attempts") == 20
    assert abandoned.get("contact") in ("stubA", "stubB")
    # The 2-cycle redirect memory backs off between laps instead of
    # ping-ponging at network speed: simulated time actually advanced.
    assert harness.sim.now > 5.0


class MergedAwayStub(Endpoint):
    """A forged peer that has merged away: every ring request finds it FREE."""

    def __init__(self, sim, network, address):
        super().__init__(sim, network, address)
        self.insert_requests = 0
        self.register_handler("ring_insert_successor", self._insert)
        self.register_handler("ring_ping",
                              lambda payload, request: {"state": FREE, "value": 400.0})

    def _insert(self, payload, request):
        self.insert_requests += 1
        return {"accepted": False, "state": FREE}


def test_join_falls_back_when_a_redirect_names_a_merged_away_peer():
    """A stale predecessor pointer redirects a joiner at a peer that has since
    merged away (FREE).  The joiner must fall back to the redirecting peer
    after a breather -- not give up -- and join once the contact's predecessor
    check has dropped the stale pointer."""
    harness = RingHarness(ring_class=PepperRing)
    harness.bootstrap(1000.0)
    harness.join_peer(200.0)
    harness.join_peer(600.0)
    harness.run(8.0)
    contact = next(p for p in harness.peers if p.ring.value == 600.0)
    merged = MergedAwayStub(harness.sim, harness.network, "merged")
    # The contact still believes a peer at 400 precedes it; that peer is FREE.
    contact.ring.pred_address, contact.ring.pred_value = merged.address, 400.0
    joiner = RingPeer(harness.sim, harness.network, "joiner", 500.0, harness.config, PepperRing)
    harness.peers.append(joiner)
    harness.sim.run_process(joiner.ring.join(contact.address), timeout=300.0)
    assert merged.insert_requests >= 1
    assert joiner.ring.state == JOINED
    harness.run(3 * harness.config.stabilization_period)
    assert contact.ring.pred_address == joiner.address
    assert check_consistent_successor_pointers(harness.live()).ok


def test_a_predecessor_recycled_at_another_value_is_cleared():
    """Forged: our predecessor pointer names a peer that merged away and was
    re-activated elsewhere by a split, so it answers JOINED at another value
    (``mixed_300`` left a range with no owner this way).  The check triggered
    by the stabilize of the peer behind clears it, as it clears a dead one,
    and adopts that peer."""
    harness = RingHarness(ring_class=PepperRing)
    harness.bootstrap(1000.0)
    for value in (200.0, 400.0, 600.0, 800.0):
        harness.join_peer(value)
    harness.run(8.0)
    by_value = {peer.ring.value: peer for peer in harness.peers}
    contact, behind, recycled = by_value[600.0], by_value[400.0], by_value[1000.0]
    assert contact.ring.pred_address == behind.address
    contact.ring.pred_address, contact.ring.pred_value = recycled.address, 500.0
    harness.run(2 * harness.config.stabilization_period)
    assert (contact.ring.pred_address, contact.ring.pred_value) == (behind.address, 400.0)
    assert check_consistent_successor_pointers(harness.live()).ok


# --------------------------------------------------------------------------- failures
def test_failure_detection_repairs_ring():
    harness = RingHarness(ring_class=PepperRing)
    harness.bootstrap(1000.0)
    for value in (200.0, 400.0, 600.0, 800.0):
        harness.join_peer(value)
        harness.run(1.0)
    harness.run(8.0)
    victim = next(p for p in harness.peers if p.ring.value == 400.0)
    victim.fail()
    harness.run(4 * harness.config.stabilization_period)
    assert check_ring_connectivity(harness.live()).ok
    assert check_consistent_successor_pointers(harness.live()).ok
    # The failed peer must not appear in any live successor list any more.
    for peer in harness.live():
        assert all(entry.address != victim.address for entry in peer.ring.succ_list)


def test_predecessor_failure_clears_pointer_and_recovers():
    harness = RingHarness(ring_class=PepperRing)
    harness.bootstrap(1000.0)
    a = harness.join_peer(200.0)
    b = harness.join_peer(500.0)
    harness.run(10.0)
    assert b.ring.pred_address == a.address
    a.fail()
    harness.run(4 * harness.config.stabilization_period)
    assert b.ring.pred_address != a.address


def test_ring_survives_k_minus_one_failures():
    """With successor lists of length 4 the ring tolerates 3 simultaneous failures."""
    harness = RingHarness(ring_class=PepperRing, successor_list_length=4)
    harness.bootstrap(1000.0)
    for value in (100.0, 250.0, 400.0, 550.0, 700.0, 850.0, 925.0):
        harness.join_peer(value)
        harness.run(1.0)
    harness.run(12.0)
    victims = [p for p in harness.peers if p.ring.value in (250.0, 400.0, 550.0)]
    for victim in victims:
        victim.fail()
    harness.run(6 * harness.config.stabilization_period)
    assert check_ring_connectivity(harness.live()).ok


def _record_stabilizes(peer, log):
    """Log every ``ring_stabilize`` ``peer`` answers: (time, caller, the
    predecessor it held on arrival, its entries' heard and vouched times as
    it replied, the reply)."""
    handler = peer.ring._handle_stabilize

    def recording(payload, request):
        ring = peer.ring
        held = ring.pred_address
        reply = handler(payload, request)
        entries = {e.address: (e.heard, e.vouched) for e in ring.succ_list}
        log.append((ring.sim.now, payload["pred_address"], held, entries, reply))
        return reply

    peer.register_handler("ring_stabilize", recording)


def test_a_stabilize_from_behind_a_dead_predecessor_is_adopted_at_once():
    """The peer behind a failed predecessor stabilizes with the failed peer's
    successor.  The successor checks its predecessor at once and adopts the
    stabilizer when the check clears the pointer, within one
    ``FAILURE_DETECTION_TIMEOUT`` of that stabilize -- not a round later."""
    harness = RingHarness(ring_class=PepperRing)
    harness.bootstrap(1000.0)
    for value in (200.0, 400.0, 600.0, 800.0):
        harness.join_peer(value)
        harness.run(1.0)
    harness.run(10.0)
    behind, victim, successor = (
        next(p for p in harness.peers if p.ring.value == value) for value in (200.0, 400.0, 600.0)
    )
    assert successor.ring.pred_address == victim.address
    log = []
    _record_stabilizes(successor, log)
    victim.fail()
    behind.ring.stabilize_now()  # its round times out on the victim, then moves on
    deadline = harness.sim.now + harness.config.stabilization_period
    while not any(caller == behind.address for _, caller, *_ in log):
        assert harness.sim.now < deadline, "the peer behind never stabilized with the successor"
        harness.run(0.05)
    arrived, _, held, *_ = next(entry for entry in log if entry[1] == behind.address)
    assert held == victim.address  # it arrived before anything cleared the dead pointer
    harness.sim.run(until=arrived + FAILURE_DETECTION_TIMEOUT)
    assert successor.ring.pred_address == behind.address


def test_a_stabilize_reply_relays_only_first_hand_times():
    """In the 5-peer ring whose lists wrap around, every peer's list holds
    every other peer.  A reply's ``heard`` maps each entry to the freshest
    first-hand time its sender knows of -- its own, or one relayed to it,
    unchanged -- so once a peer dies no reply can name it with a later time,
    none names it 2.5 periods on, and it leaves every list."""
    harness = RingHarness(ring_class=PepperRing)
    harness.bootstrap(1000.0)
    for value in (200.0, 400.0, 600.0, 800.0):
        harness.join_peer(value)
        harness.run(1.0)
    log = []
    for peer in harness.peers:
        _record_stabilizes(peer, log)
    harness.run(8.0)
    period = harness.config.stabilization_period
    relayed = 0
    for now, _, _, entries, reply in log:
        for address, (heard, vouched) in entries.items():
            latest = max(heard, vouched)
            if latest < now - 2.5 * period:
                assert address not in reply["heard"]
            else:
                assert reply["heard"][address] == latest
                relayed += vouched > heard  # a time its sender did not hear itself
    assert relayed > 0
    victim = next(p for p in harness.peers if p.ring.value == 400.0)
    victim.fail()
    failed_at = harness.sim.now
    del log[:]
    harness.run(4 * period)
    named = [(now, reply["heard"][victim.address])
             for now, *_, reply in log if victim.address in reply["heard"]]
    assert named  # replies went on naming it for a while, with old times
    assert all(time <= failed_at for _, time in named)
    assert all(now <= failed_at + 2.5 * period for now, _ in named)
    for peer in harness.live():
        assert all(entry.address != victim.address for entry in peer.ring.succ_list)


def test_a_third_successor_is_skipped_on_a_relayed_time_until_it_goes_stale():
    """The first successor's reply relays, unchanged, the time its own
    successor heard from our third successor.  Successor validation skips
    that entry while the time is at most 2.5 periods old and pings it after;
    our own reply passes the relayed time on, and the ping's, once made."""
    sim = Simulator()
    node = Endpoint(sim, Network(sim, random.Random(0), NetworkConfig()), "me")
    ring = ChordRing(node, 100.0, default_config())
    ring._set_state(JOINED)
    ring.succ_list = [SuccessorEntry(name, value) for name, value in
                      (("s1", 200.0), ("s2", 300.0), ("s3", 400.0))]
    period = ring.config.stabilization_period
    pinged = []

    def call(address, method, payload, timeout=None):
        pinged.append(address)
        assert method == "ring_ping"
        return sim.event().succeed({"value": 0.0, "state": JOINED})

    sim.run(until=10 * period)
    third_heard = sim.now - 1.5 * period  # by s2, first-hand; s1 relays it
    reply = {"value": 200.0, "state": JOINED, "heard": {"s2": sim.now - 0.1, "s3": third_heard},
             "succ_list": [{"address": "s2", "value": 300.0}, {"address": "s3", "value": 400.0}]}
    sim.run_process(ring._adopt(ring.succ_list[0], reply))
    assert [(e.address, e.vouched) for e in ring.succ_list] == [
        ("s1", NEVER), ("s2", sim.now - 0.1), ("s3", third_heard)]
    node.call = call
    relay = {"pred_address": "p", "pred_value": 50.0, "pred_state": JOINED}
    sim.run(until=third_heard + 2.5 * period)  # exactly 2.5 periods old: still skipped
    sim.run_process(ring._validate_successors_once())
    assert pinged == []
    assert ring._handle_stabilize(relay, None)["heard"]["s3"] == third_heard
    sim.run(until=sim.now + 0.01)  # now older than 2.5 periods; s2's time is not
    sim.run_process(ring._validate_successors_once())
    assert pinged == ["s3"]
    assert ring._handle_stabilize(relay, None)["heard"]["s3"] == sim.now


@pytest.mark.parametrize("stabilization, window", [(4.0, 5.0), (8.0, 9.0)])
def test_the_predecessor_check_trusts_one_of_the_predecessors_own_rounds(stabilization, window):
    """The check skips its ping while the predecessor's last stabilize is at
    most one of the predecessor's own rounds old -- ``stabilization_period``
    plus the round's jitter plus the call's timeout -- and pings once it is
    older."""
    sim = Simulator()
    node = Endpoint(sim, Network(sim, random.Random(0), NetworkConfig()), "me")
    ring = ChordRing(node, 100.0, default_config(stabilization_period=stabilization))
    ring._set_state(JOINED)
    ring.succ_list = [SuccessorEntry("s1", 200.0)]
    pinged = []

    def call(address, method, payload, timeout=None):
        pinged.append((address, method))
        return sim.event().succeed({"value": 50.0, "state": JOINED})

    node.call = call
    sim.run(until=10 * stabilization)
    ring._handle_stabilize({"pred_address": "p", "pred_value": 50.0, "pred_state": JOINED}, None)
    assert ring.pred_address == "p" and ring.pred_heard == sim.now
    assert window == stabilization + STABILIZATION_JITTER + FAILURE_DETECTION_TIMEOUT
    sim.run(until=ring.pred_heard + window)  # exactly one round old: skipped
    sim.run_process(ring._check_predecessor_once())
    assert pinged == []
    sim.run(until=sim.now + 0.01)
    sim.run_process(ring._check_predecessor_once())
    assert pinged == [("p", "ring_ping")]


@pytest.mark.parametrize("period", [4.0, 8.0])
def test_a_settled_rings_tick_pings_no_live_predecessor(period):
    """Each tick checks the predecessor right after its own stabilize, and a
    live predecessor's stabilize reaches us once per tick of its own: a
    settled ring's ticks send no predecessor ping."""
    harness = RingHarness(ring_class=PepperRing, stabilization_period=period)
    harness.bootstrap(1000.0)
    for value in (100.0, 250.0, 400.0, 550.0, 700.0, 850.0, 925.0):
        harness.join_peer(value)
        harness.run(1.0)
    harness.run(5 * period)
    pinged = []
    for peer in harness.peers:
        def recording(destination, method, payload=None, timeout=None, peer=peer,
                      call=peer.call):
            if method == "ring_ping" and destination == peer.ring.pred_address:
                pinged.append((harness.sim.now, peer.address, destination))
            return call(destination, method, payload, timeout)

        peer.call = recording
    skips = harness.metrics.count("ring_ping_fresh_skip")
    harness.run(10 * period)
    assert pinged == []
    # At least a skip per predecessor check (one a tick on each peer).
    assert harness.metrics.count("ring_ping_fresh_skip") - skips >= 8 * (10 * period / (period + 0.5) - 1)
    assert check_consistent_successor_pointers(harness.live()).ok


def test_fresh_stabilize_traffic_replaces_most_pings():
    """A peer pings only what no relayed first-hand time covers (one at most
    2.5 periods old), and counts each ping it skips as
    ``ring_ping_fresh_skip``."""
    metrics = Metrics()
    harness = RingHarness(ring_class=PepperRing, metrics=metrics)
    harness.bootstrap(1000.0)
    for value in (100.0, 250.0, 400.0, 550.0, 700.0, 850.0, 925.0):
        harness.join_peer(value)
        harness.run(1.0)
    harness.run(12.0)
    pings = harness.network.stats.per_method.get("ring_ping", 0)
    skips = metrics.count("ring_ping_fresh_skip")
    periods = 5
    harness.run(periods * harness.config.stabilization_period)
    pings = harness.network.stats.per_method["ring_ping"] - pings
    skips = metrics.count("ring_ping_fresh_skip") - skips
    # Without the skips: one predecessor ping and three successor pings.
    assert pings + skips == pytest.approx(4 * periods * len(harness.peers), rel=0.1)
    assert pings < skips
    assert check_consistent_successor_pointers(harness.live()).ok


# --------------------------------------------------------------------------- the maintenance tick
# A ring member's periodic loops: the ring's one tick (stabilize, the
# predecessor check, successor validation, the balancer's check and, every
# second tick, the replication round), and the routing-table refresh, which
# keeps a cadence of its own.
MEMBER_LOOPS = ["ring-tick", "router-refresh"]


def _periodic_loops(peer):
    return sorted(process._label[-1] for process in peer._processes
                  if isinstance(process, _PeriodicProcess))


def test_a_member_runs_one_ring_tick_beside_the_router_refresh_loop():
    index, _keys = build_cluster(seed=5, peers=6)
    members = index.ring_members()
    assert len(members) > 3
    assert {peer.address: _periodic_loops(peer) for peer in members} == {
        peer.address: MEMBER_LOOPS for peer in members}


def test_the_loop_census_sees_a_separate_predecessor_check_loop(monkeypatch):
    """The census above fails if a protocol gets its own loop back."""
    start = ChordRing._start_maintenance

    def with_a_check_loop(ring):
        if not ring._maintenance_started:
            ring.node.every(ring.config.stabilization_period, ring._check_predecessor_once,
                            name="ring-pred-check")
        start(ring)

    monkeypatch.setattr(ChordRing, "_start_maintenance", with_a_check_loop)
    index, _keys = build_cluster(seed=5, peers=6)
    members = index.ring_members()
    assert members
    assert all(_periodic_loops(peer) == sorted(MEMBER_LOOPS + ["ring-pred-check"])
               for peer in members)


def test_a_tick_whose_ping_times_out_keeps_the_profiler_balanced():
    """The tick delegates to its checks with ``yield from``; a ping that
    times out reaches them as a value, never as an exception a delegate
    catches and returns on (docs/ARCHITECTURE.md, "Profiler balance").  Only
    CPython 3.11 emits the unmatched return this guards against."""
    sim = Simulator()
    network = Network(sim, random.Random(0), NetworkConfig())
    node = Endpoint(sim, network, "me", rng=random.Random(0))
    ring = ChordRing(node, 100.0, default_config())
    ring._set_state(JOINED)
    ring.succ_list = [SuccessorEntry("s1", 200.0, JOINED)]
    ring.pred_address, ring.pred_value = "p", 50.0
    ring._start_maintenance()
    assert _unmatched_returns(lambda: sim.run(until=2 * ring.config.stabilization_period)) == []
    assert ring.pred_address is None and ring.succ_list == []
    assert network.stats.per_method == {"ring_stabilize": 1, "ring_ping": 1}


# scale_100's stress-phase engine events per ring member per simulated second:
# 0.862 at seed 0 (1.229 while stabilize, the predecessor check, successor
# validation and the balancer check each ran a loop of its own), plus 20%.
TICK_EVENT_RATE = 1.03


def test_the_stress_phase_events_stay_within_the_one_tick_budget():
    cell = run_spec(get_scenario("scale_100"), seed=0)
    (stress,) = [phase for phase in cell.phases if phase["phase"] == "stress"]
    members = (stress["ring_members_start"] + stress["ring_members"]) / 2
    rate = stress["events_processed"] / members / stress["sim_seconds"]
    assert rate <= TICK_EVENT_RATE, f"{rate:.3f} events per member-second"


# scale_100's stress phase, per ``ring_stabilize`` call: the replies that
# carried the successor list (16 of 903 at seed 0) and the adopts that ran
# the merge (26 of 903), plus 20%.  Every reply carried the list, and every
# adopt merged, before a reply left an unmoved list out.
LIST_REPLY_SHARE = 1.2 * 16 / 903
LIST_MERGE_SHARE = 1.2 * 26 / 903


def _stress_phase_list_shares():
    """The shares of scale_100's stress-phase stabilize calls whose reply
    carried the list, and whose adopt ran the merge."""
    spec = get_scenario("scale_100")
    experiment = build_experiment(spec, 0)
    experiment.run_phases(spec.phases[:2], total_peers=spec.peers)  # build, settle
    names = ("ring_stabilize_list_sent", "ring_stabilize_merged")
    metrics = experiment.index.metrics
    marks = [metrics.count(name) for name in names]
    (stress,), _outcomes, _victims = experiment.run_phases(spec.phases[2:],
                                                           total_peers=spec.peers)
    calls = stress.rpc_per_method["ring_stabilize"]
    return [(metrics.count(name) - mark) / calls for name, mark in zip(names, marks)]


def test_the_stress_phase_stabilize_replies_leave_an_unmoved_list_out():
    sent, merged = _stress_phase_list_shares()
    assert sent <= LIST_REPLY_SHARE, f"{sent:.4f} of stabilize replies carried the list"
    assert merged <= LIST_MERGE_SHARE, f"{merged:.4f} of adopts ran the merge"


def test_the_list_guard_sees_replies_that_always_carry_the_list(monkeypatch):
    """The bounds above fail if every reply carries the list again."""
    handle = ChordRing._handle_stabilize

    def always_with_the_list(ring, payload, request):
        return handle(ring, {k: v for k, v in payload.items() if k != "known"}, request)

    monkeypatch.setattr(ChordRing, "_handle_stabilize", always_with_the_list)
    sent, merged = _stress_phase_list_shares()
    assert sent > LIST_REPLY_SHARE and merged > LIST_MERGE_SHARE


# --------------------------------------------------------------------------- leave
def test_safe_leave_waits_for_acknowledgement():
    harness = RingHarness(ring_class=PepperRing)
    harness.bootstrap(1000.0)
    for value in (200.0, 400.0, 600.0, 800.0):
        harness.join_peer(value)
        harness.run(1.0)
    harness.run(10.0)
    leaver = next(p for p in harness.peers if p.ring.value == 400.0)
    duration = harness.sim.run_process(leaver.ring.leave(), timeout=300.0)
    assert leaver.ring.state == FREE
    assert duration < harness.config.leave_ack_timeout
    harness.run(4 * harness.config.stabilization_period)
    alive = [p for p in harness.live() if p is not leaver]
    assert check_ring_connectivity(alive).ok


def test_safe_leave_preserves_failure_tolerance():
    """Section 5.1 (Figure 14): after a safe leave, one failure cannot disconnect the ring."""
    harness = RingHarness(ring_class=PepperRing, successor_list_length=2)
    harness.bootstrap(1000.0)
    for value in (200.0, 400.0, 600.0, 800.0):
        harness.join_peer(value)
        harness.run(1.0)
    harness.run(10.0)
    leaver = next(p for p in harness.peers if p.ring.value == 400.0)
    harness.sim.run_process(leaver.ring.leave(), timeout=300.0)
    # Immediately afterwards (no stabilization rounds), fail the leaver's old successor.
    victim = next(p for p in harness.peers if p.ring.value == 600.0)
    victim.fail()
    harness.run(4 * harness.config.stabilization_period)
    alive = [p for p in harness.live() if p not in (leaver,)]
    assert check_ring_connectivity(alive).ok


def test_a_leaving_notice_hands_a_short_list_the_leavers_successor():
    """The leaver's predecessor knows no peer past it (its list is stale).  The
    leave is acknowledged without a stabilization round in between, so the
    notice itself must give the predecessor the peer after the leaver."""
    harness = RingHarness(ring_class=PepperRing)
    predecessor = harness.bootstrap(1000.0)
    leaver = harness.join_peer(200.0)
    after = harness.join_peer(600.0)
    harness.run(10.0)
    predecessor.ring.succ_list = [SuccessorEntry(leaver.address, 200.0, JOINED)]
    harness.sim.run_process(leaver.ring.leave(), timeout=300.0)
    assert leaver.ring.state == FREE
    assert predecessor.ring.first_live_successor() == after.address


def test_naive_leave_is_immediate():
    harness = RingHarness(
        ring_class=ChordRing, safe_leave=False, consistent_insert=False
    )
    harness.bootstrap(1000.0)
    harness.join_peer(500.0)
    harness.run(5.0)
    leaver = harness.peers[1]
    duration = harness.sim.run_process(leaver.ring.leave(), timeout=60.0)
    assert duration == pytest.approx(0.0, abs=1e-6)
    assert leaver.ring.state == FREE


def test_leave_of_sole_companion_acks_immediately():
    harness = RingHarness(ring_class=PepperRing)
    harness.bootstrap(1000.0)
    other = harness.join_peer(500.0)
    harness.run(6.0)
    duration = harness.sim.run_process(other.ring.leave(), timeout=120.0)
    assert duration < 1.0


# --------------------------------------------------------------------------- misc behaviour
def test_value_update_propagates_to_neighbours():
    harness = RingHarness(ring_class=PepperRing)
    harness.bootstrap(1000.0)
    a = harness.join_peer(200.0)
    b = harness.join_peer(600.0)
    harness.run(10.0)
    a.ring.update_value(300.0)
    harness.run(3 * harness.config.stabilization_period)
    assert b.ring.pred_value == 300.0
    entry = next(e for e in harness.peers[0].ring.succ_list if e.address == a.address)
    assert entry.value == 300.0


def test_free_peer_rejects_stabilization():
    harness = RingHarness(ring_class=PepperRing)
    harness.bootstrap(1000.0)
    peer = harness.join_peer(500.0)
    harness.run(6.0)
    harness.sim.run_process(peer.ring.leave(), timeout=300.0)
    harness.run(4 * harness.config.stabilization_period)
    # The remaining member must have dropped every pointer to the departed peer.
    survivor = harness.peers[0]
    assert all(e.address != peer.address for e in survivor.ring.succ_list)


def test_a_lone_joining_pointer_is_upgraded_by_the_peer_itself():
    """Two members; the first lists the second as JOINING only (its inserter
    left before a JOINED report arrived), so it has no stabilization target to
    learn better from.  The second's own stabilize call says it has joined."""
    harness = RingHarness(ring_class=PepperRing)
    first = harness.bootstrap(1000.0)
    second = harness.join_peer(500.0)
    harness.run(6.0)
    first.ring.succ_list = [SuccessorEntry(second.address, 500.0, JOINING)]
    assert first.ring.first_live_successor() is None
    harness.run(2 * harness.config.stabilization_period)
    assert first.ring.first_live_successor() == second.address


def test_concurrent_inserts_at_same_predecessor_serialise():
    """Two peers joining through the same predecessor both end up in the ring."""
    harness = RingHarness(ring_class=PepperRing)
    harness.bootstrap(1000.0)
    harness.join_peer(200.0)
    harness.run(8.0)
    predecessor = harness.predecessor_for(500.0)
    first = RingPeer(harness.sim, harness.network, "c001", 500.0, harness.config, PepperRing)
    second = RingPeer(harness.sim, harness.network, "c002", 600.0, harness.config, PepperRing)
    harness.peers.extend([first, second])
    join_one = harness.sim.process(first.ring.join(predecessor.address))
    join_two = harness.sim.process(second.ring.join(predecessor.address))
    harness.run(6 * harness.config.stabilization_period)
    assert join_one.triggered and join_one.ok
    assert join_two.triggered and join_two.ok
    assert first.ring.state == JOINED
    assert second.ring.state == JOINED
    harness.run(2 * harness.config.stabilization_period)
    assert check_consistent_successor_pointers(harness.live()).ok


# --------------------------------------------------------------------------- item 2a's stale entry
class RejoinedStub(Endpoint):
    """A forged peer that left (merged away), went FREE and joined again
    elsewhere: it answers a ping JOINED, under its new value."""

    def __init__(self, sim, network, address, value):
        super().__init__(sim, network, address)
        self.register_handler("ring_ping", lambda payload, request: {"value": value,
                                                                     "state": JOINED})
        self.register_handler("ring_leave_ack", lambda payload, request: {"ok": True})


class SuccessorStub(Endpoint):
    """A forged successor whose stabilize reply lists ``succ_list`` after itself."""

    def __init__(self, sim, network, address, value, succ_list):
        super().__init__(sim, network, address)
        reply = {"value": value, "state": JOINED, "succ_list": succ_list}
        self.register_handler("ring_stabilize", lambda payload, request: reply)
        self.register_handler("ring_ping", lambda payload, request: {"value": value,
                                                                     "state": JOINED})


@pytest.mark.xfail(strict=True, reason="item 2a: the merge keys an entry by address alone "
                                       "and LEAVING outranks JOINED, so a peer that left and "
                                       "rejoined elsewhere stays in the list as LEAVING")
def test_a_stale_leaving_entry_of_a_rejoined_peer_is_evicted():
    harness = RingHarness(ring_class=PepperRing)
    peer = RingPeer(harness.sim, harness.network, "p", 100.0, harness.config, PepperRing)
    successor = SuccessorStub(harness.sim, harness.network, "s", 200.0,
                              [{"address": "t", "value": 400.0, "state": JOINED}])
    RejoinedStub(harness.sim, harness.network, "x", 900.0)  # was at 300.0, left, rejoined
    ring = peer.ring
    ring._set_state(JOINED)
    ring.succ_list = [SuccessorEntry(successor.address, 200.0, JOINED),
                      SuccessorEntry("x", 300.0, LEAVING)]
    harness.sim.run_process(ring._validate_successors_once())
    harness.sim.run_process(ring._stabilize_once())  # the reply omits x
    assert ring.first_live_successor() == successor.address
    assert "x" not in [entry.address for entry in ring.succ_list]


# --------------------------------------------------------------------------- the successor list as a value
_PEERS = ["p1", "p2", "p3", "p4", "p5", "p6"]
_SPAN = default_config().key_space
_values = st.integers(0, 15).map(lambda k: k * 625.0)  # exact on the 10,000 key space
_states = st.sampled_from([JOINING, JOINED, LEAVING])
_entries = st.tuples(st.sampled_from(["me"] + _PEERS), _values, _states)


@st.composite
def stabilize_rounds(draw, states=_states):
    """Our value, our list, the contacted head and its reply's list.

    Half the rounds are quiet: one clockwise run of distinct peers, of which
    we hold a prefix and the reply (perhaps naming us or the head again) the
    rest.  The other half are arbitrary lists and replies.  Our entries carry
    distinct first-hand heard times, which the merge must carry over.
    Each pointer's state is drawn from ``states``.
    """
    own_value = draw(_values)
    entries = st.tuples(st.sampled_from(["me"] + _PEERS), _values, states)
    if draw(st.booleans()):
        run = draw(st.lists(st.tuples(st.sampled_from(_PEERS), _values, states),
                            min_size=1, max_size=6, unique_by=lambda entry: entry[0]))
        run.sort(key=lambda entry: (entry[1] - own_value) % _SPAN or _SPAN)
        current = run[:draw(st.integers(1, len(run)))]
        head = run[0]
        items = run[1:]
        for _ in range(draw(st.integers(0, 2))):
            named = (draw(st.sampled_from(["me", head[0]])), draw(_values), draw(states))
            items.insert(draw(st.integers(0, len(items))), named)
    else:
        current = [draw(st.tuples(st.sampled_from(_PEERS), _values, states))]
        current += draw(st.lists(entries, max_size=5))
        head = (draw(st.sampled_from(_PEERS)), draw(_values), draw(states))
        items = draw(st.lists(entries, max_size=6))
    ours = [SuccessorEntry(*entry, heard=float(i)) for i, entry in enumerate(current)]
    received = [{"address": a, "value": v, "state": s} for a, v, s in items]
    return own_value, ours, SuccessorEntry(*head), received


def _merged(round_):
    own_value, ours, head, received = round_
    return merge(ours, head, received, "me", own_value, _SPAN)


def _fields(entries):
    return [(e.address, e.value, e.state, e.heard) for e in entries]


def _rank(state):
    return [JOINING, JOINED, LEAVING].index(state)


@pytest.mark.parametrize("ring_class", [ChordRing, PepperRing])
@settings(max_examples=300, deadline=None)
@given(round_=stabilize_rounds(), pending=st.sampled_from([None] + _PEERS))
def test_the_quiet_round_fast_path_equals_the_full_merge(ring_class, round_, pending):
    """``merge``'s quiet-round branch is the full merge on the replies it takes:
    the same addresses, values, states, heard times and reported set, before
    and after each ring's trim.  It hands back our own entries; the full
    merge copies them."""
    own_value, ours, head, received = round_
    reported_by = {head.address} | {item["address"] for item in received} - {"me"}
    kept = [item for item in received if item["address"] not in ("me", head.address)]
    before = _fields(ours)
    entries, reported = _merged(round_)
    assert _fields(ours) == before  # pure: our list is not touched
    assert reported == reported_by
    if _extension(ours, head, kept, own_value, _SPAN) is None:
        event("declined")
        assert not any(entry is held for entry in entries for held in ours)
        return
    event("taken")
    assert all(entry is held for entry, held in zip(entries, ours))
    reference = _merge_all(ours, head, kept, "me", own_value, _SPAN)
    assert _fields(entries) == _fields(reference)
    rings = []
    for merged in (entries, reference):
        ring = _ring_holding(ring_class, own_value, merged, pending)
        ring.succ_list = ring._trim(ring.succ_list)
        rings.append(_fields(ring.succ_list))
    assert rings[0] == rings[1]


def _ring_holding(ring_class, own_value, entries, pending=None, **config):
    sim = Simulator()
    node = Endpoint(sim, Network(sim, random.Random(0), NetworkConfig()), "me")
    ring = ring_class(node, own_value, default_config(**config), metrics=Metrics())
    ring.succ_list = list(entries)
    if pending is not None:
        ring._pending_insert = {"address": pending, "event": sim.event()}
    return ring


def test_a_reply_that_extends_our_list_takes_the_fast_path():
    ours = [SuccessorEntry("p1", 625.0, JOINED, heard=0.0)]
    received = [{"address": "p2", "value": 1250.0, "state": JOINED}]
    entries, reported = merge(ours, SuccessorEntry("p1", 625.0, JOINED), received, "me", 0.0,
                              _SPAN)
    assert entries[0] is ours[0]
    assert _fields(entries) == [("p1", 625.0, JOINED, 0.0), ("p2", 1250.0, JOINED, NEVER)]
    assert reported == {"p1", "p2"}


@settings(max_examples=300, deadline=None)
@given(round_=stabilize_rounds())
def test_a_merge_is_sorted_distinct_and_never_downgrades_a_state(round_):
    own_value, ours, head, received = round_
    entries, _ = _merged(round_)
    distances = [clockwise_distance(e.value, own_value, _SPAN) for e in entries]
    assert distances == sorted(distances)
    addresses = [e.address for e in entries]
    assert len(addresses) == len(set(addresses)) and "me" not in addresses
    merged = {e.address: e for e in entries}
    # The reply's own copy of its sender is not a report: the head speaks for it.
    kept = [e for e in entries_from_wire(received) if e.address != head.address]
    for copy in [head, *kept, *ours]:
        if copy.address != "me":
            assert _rank(merged[copy.address].state) >= _rank(copy.state)
    for held in ours:  # our own heard is kept
        if held.address != "me":
            assert merged[held.address].heard >= held.heard


@settings(max_examples=300, deadline=None)
@given(round_=stabilize_rounds())
def test_merging_the_same_reply_again_changes_nothing(round_):
    own_value, _, head, received = round_
    once, reported = _merged(round_)
    twice, again = _merged((own_value, once, head, received))
    assert _fields(twice) == _fields(once) and again == reported


@settings(max_examples=300, deadline=None)
@given(entries=st.lists(_entries.map(lambda e: SuccessorEntry(*e)), max_size=12),
       pending=st.sampled_from([None] + _PEERS), limit=st.integers(1, 5))
def test_a_trim_keeps_the_list_within_its_length_bound(entries, pending, limit):
    assert trim(entries, limit) == entries[:limit]
    riding = trim_riding(entries, limit, pending)
    addresses = [e.address for e in riding]
    assert len(addresses) == len(set(addresses))
    counted = [e for e in riding if e.state != LEAVING
               and not (e.state == JOINING and e.address == pending)]
    assert len(counted) <= limit and len(riding) <= 2 * limit + 2
    assert trim_riding(riding, limit, pending) == riding


@settings(max_examples=300, deadline=None)
@given(own_value=_values, new=_entries.map(lambda e: SuccessorEntry(*e)),
       held=st.lists(_entries, max_size=6, unique_by=lambda entry: entry[0]))
def test_a_sorted_insert_upgrades_and_never_downgrades(own_value, new, held):
    ours = [SuccessorEntry(*entry, heard=float(i)) for i, entry in enumerate(held)]
    before = _fields(ours)
    entries = insert_sorted(ours, new, own_value, _SPAN)
    assert _fields(ours) == before  # pure: our list and entries are not touched
    distances = [clockwise_distance(e.value, own_value, _SPAN) for e in entries]
    assert distances == sorted(distances)
    others = without(ours, {new.address})
    assert sorted(map(id, without(entries, {new.address}))) == sorted(map(id, others))
    old = [e for e in ours if e.address == new.address]
    listed = [e for e in entries if e.address == new.address]
    if not old:
        assert listed == [new]
    else:
        assert len(listed) == 1
        assert _rank(listed[0].state) == max(_rank(old[0].state), _rank(new.state))
        assert (listed[0].value, listed[0].heard) == (old[0].value, old[0].heard)


# --------------------------------------------------------------------------- the conditional reply
def _reply(head, received, version):
    """A stabilize reply from ``head``; ``received`` None leaves its list out."""
    reply = {"value": head.value, "state": head.state, "heard": {}}
    if received is not None:
        reply["succ_list"] = received
        reply["version"] = version
    return reply


def _adopt(ring, head, reply):
    """Run one :meth:`ChordRing._adopt` of ``reply``; whether it ran the merge."""
    merges = ring.metrics.count("ring_stabilize_merged")
    ring.sim.run_process(ring._adopt(SuccessorEntry(head.address, head.value), reply))
    return ring.metrics.count("ring_stabilize_merged") > merges


@pytest.mark.parametrize("ring_class", [ChordRing, PepperRing])
@settings(max_examples=300, deadline=None)
@given(round_=stabilize_rounds(st.sampled_from([JOINED] * 4 + [JOINING, LEAVING])),
       pending=st.one_of(st.none(), st.sampled_from(_PEERS)))
def test_an_adopt_that_returned_its_list_returns_it_again(ring_class, round_, pending):
    """The quiet adopt's premise: when an adopt of reply R returned its list
    unchanged (and left the quiet path armed), a full re-adopt of R returns the
    same list, the same entries in the same order.  R is adopted twice first:
    the second adopt is the one that usually returns its list."""
    own_value, ours, head, received = round_
    ring = _ring_holding(ring_class, own_value, ours, pending)
    _adopt(ring, head, _reply(head, received, 1))
    _adopt(ring, head, _reply(head, received, 1))
    once = list(ring.succ_list)
    if ring._last_reply.adopted is not ring.succ_list:
        event("the next adopt merges")
        return
    event("the next adopt is quiet")
    assert not _adopt(ring, head, _reply(head, None, 1))
    assert ring.succ_list == once
    assert _adopt(ring, head, _reply(head, received, 1))  # the full path, on the same reply
    assert [id(entry) for entry in ring.succ_list] == [id(entry) for entry in once]


def test_an_adopt_that_dropped_a_stale_rider_the_reply_reports_joined_merges_again():
    """figure_22's case (seed 24, L = 2): peer003 left, went FREE and joined
    again.  At 82.42 s peer009's list still holds it as a LEAVING rider, first
    seen at 69.56 s; the merge keeps LEAVING over the reply's JOINED (item 2a)
    and the rider, older than three periods, is dropped.  That adopt moved the
    list, so the next one (86.67 s, reply unchanged, so sent without its
    list) runs the merge on the kept copy and learns peer003 JOINED."""
    head = SuccessorEntry("peer010", 6147.189199, JOINED)
    ring = _ring_holding(PepperRing, 5037.252579, [
        SuccessorEntry("peer010", 6147.189199, JOINED),
        SuccessorEntry("peer003", 7463.630667, LEAVING),
        SuccessorEntry("peer002", 8489.342284, JOINED),
    ], successor_list_length=2)
    ring._set_state(JOINED)
    ring._rider_seen["peer003"] = 69.56
    received = [{"address": "peer003", "value": 7463.630667, "state": JOINED},
                {"address": "peer002", "value": 8489.342284, "state": JOINED}]
    ring.sim.run(until=82.42)
    assert _adopt(ring, head, _reply(head, received, 7))
    assert [(e.address, e.state) for e in ring.succ_list] == [("peer010", JOINED),
                                                              ("peer002", JOINED)]
    ring.sim.run(until=86.67)
    assert _adopt(ring, head, _reply(head, None, 7))
    assert [(e.address, e.state) for e in ring.succ_list] == [("peer010", JOINED),
                                                              ("peer003", JOINED)]


def test_the_insert_sites_move_the_version():
    """Both rings' insertSucc put the new peer at the head of a new list."""
    for ring_class, state in ((ChordRing, JOINED), (PepperRing, JOINING)):
        ring = _ring_holding(ring_class, 100.0, [SuccessorEntry("s1", 200.0, JOINED)])
        ring._set_state(JOINED)
        held, version = ring.succ_list, ring.succ_version
        ring.sim.process(ring._insert_protocol("n", 150.0))
        ring.sim.run(until=0.0001)  # the list is updated; the hand-over is in flight
        assert [(e.address, e.state) for e in held] == [("s1", JOINED)]
        assert [(e.address, e.state) for e in ring.succ_list] == [("n", state), ("s1", JOINED)]
        assert ring.succ_version > version


def test_the_pepper_insert_moves_the_version_when_the_new_peer_turns_joined():
    """A lone member's insert: acked at once, then the new peer turns JOINED."""
    ring = _ring_holding(PepperRing, 100.0, [SuccessorEntry("me", 100.0, JOINED)])
    ring._set_state(JOINED)
    RingPeer(ring.sim, ring.node.network, "n", 150.0, ring.config, PepperRing)
    handed_over = []
    hand_over = ring._hand_over

    def spy(address, successors):
        handed_over.append((ring.succ_version, ring.succ_list))
        return hand_over(address, successors)

    ring._hand_over = spy
    ring.sim.run_process(ring._insert_protocol("n", 150.0))
    ((version, held),) = handed_over
    assert [(e.address, e.state) for e in held] == [("n", JOINING), ("me", JOINED)]
    assert [(e.address, e.state) for e in ring.succ_list] == [("n", JOINED), ("me", JOINED)]
    assert ring.succ_version > version


def test_a_joined_report_from_a_joining_pointer_moves_the_version():
    """The stabilize handler's promotion: the caller listed JOINING says it
    has joined, so a caller that knew the old version gets the new list."""
    ring = _ring_holding(PepperRing, 100.0, [SuccessorEntry("x", 500.0, JOINING)])
    ring._set_state(JOINED)
    held, version = ring.succ_list, ring.succ_version
    reply = ring._handle_stabilize({"pred_address": "x", "pred_value": 500.0,
                                    "pred_state": JOINED, "known": version}, None)
    assert held[0].state == JOINING
    assert ring.succ_version > version
    assert reply["version"] == ring.succ_version
    assert reply["succ_list"] == [{"address": "x", "value": 500.0, "state": JOINED}]
    again = ring._handle_stabilize({"pred_address": "x", "pred_value": 500.0,
                                    "pred_state": JOINED, "known": ring.succ_version}, None)
    assert "succ_list" not in again and "version" not in again


@pytest.mark.parametrize("ring_class", [ChordRing, PepperRing])
def test_a_reply_without_its_list_after_our_list_moved_mid_round_merges_the_kept_copy(ring_class):
    sim = Simulator()
    network = Network(sim, random.Random(0), NetworkConfig(latency_model=ConstantLatency(0.001)))
    config, metrics = default_config(), Metrics()
    a = RingPeer(sim, network, "a", 100.0, config, ring_class, metrics=metrics).ring
    b = RingPeer(sim, network, "b", 200.0, config, ring_class, metrics=metrics).ring
    for ring in (a, b):
        ring._set_state(JOINED)
    b.succ_list = [SuccessorEntry("c", 300.0), SuccessorEntry("d", 400.0)]
    a.succ_list = [SuccessorEntry("b", 200.0)]
    for _ in range(3):  # learn b's list, reach its fixed point, then go quiet
        sim.run_process(a._stabilize_once())
    assert [e.address for e in a.succ_list] == ["b", "c", "d"]
    assert a._last_reply.adopted is a.succ_list
    sent = metrics.count("ring_stabilize_list_sent")
    merged = metrics.count("ring_stabilize_merged")
    round_ = sim.process(a._stabilize_once())
    sim.run(until=sim.now + 0.0015)  # b has answered; its reply is in flight
    a.succ_list = without(a.succ_list, ("d",))  # e.g. validation pruned d meanwhile
    sim.run_until(round_)
    assert metrics.count("ring_stabilize_list_sent") == sent  # b's list had not moved
    assert metrics.count("ring_stabilize_merged") == merged + 1
    assert [e.address for e in a.succ_list] == ["b", "c", "d"]
