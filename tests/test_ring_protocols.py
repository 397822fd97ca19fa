"""Ring-level tests: Chord substrate, PEPPER insertSucc and availability-preserving leave."""

import random

import pytest
from hypothesis import event, given, settings, strategies as st

from repro.core.pepper_ring import PepperRing
from repro.core.correctness import (
    check_consistent_successor_pointers,
    check_ring_connectivity,
)
from repro.harness.metrics import Metrics
from repro.harness.scenarios import build_experiment, get_scenario
from repro.index.config import default_config
from repro.ring.chord import ChordRing, in_open_interval
from repro.ring.entries import (
    FREE,
    JOINED,
    JOINING,
    LEAVING,
    SuccessorEntry,
    entries_from_wire,
)
from repro.sim.engine import Simulator
from repro.sim.network import Network, NetworkConfig
from repro.sim.randomness import RngStreams
from repro.transport import Endpoint


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
    entry = SuccessorEntry("addr", 5.0, LEAVING, stabilized=True)
    restored = SuccessorEntry.from_wire(entry.to_wire())
    assert restored.address == "addr"
    assert restored.value == 5.0
    assert restored.state == LEAVING
    assert restored.stabilized is False  # never trusted over the wire


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


@pytest.mark.parametrize("name", ["smoke", "churn_heavy"])
def test_no_insert_succ_gives_up_waiting_for_its_ack(name):
    """After 200 unanswered nudges the ack wait gives up and records
    ``insert_succ_unacked``; the registry's churn cells never get there."""
    spec = get_scenario(name)
    experiment = build_experiment(spec, spec.seed)
    experiment.run_phases(spec.phases, total_peers=spec.peers)
    history = experiment.index.history
    assert history.count("insert_succ") > 0
    assert history.count("insert_succ_unacked") == 0


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
    with pytest.raises(RuntimeError, match="could not join"):
        harness.sim.run_process(joiner.ring.join("stubA"), timeout=500.0)
    assert joiner.ring.state == FREE
    # The cap bounds the storm: at most 20 insert attempts reach the ring.
    assert a.requests + b.requests <= 20
    # The 2-cycle redirect memory backs off between laps instead of
    # ping-ponging at network speed: simulated time actually advanced.
    assert harness.sim.now > 5.0


class MergedAwayStub(Endpoint):
    """A forged peer that has merged away: every ring request finds it FREE."""

    def __init__(self, sim, network, address):
        super().__init__(sim, network, address)
        self.insert_requests = 0
        self.register_handler("ring_insert_successor", self._insert)
        self.register_handler("ring_ping", lambda payload, request: {"state": FREE})

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
    harness.run(4 * harness.config.predecessor_check_period)
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
    ring.succ_list = [SuccessorEntry(successor.address, 200.0, JOINED, True),
                      SuccessorEntry("x", 300.0, LEAVING)]
    harness.sim.run_process(ring._validate_successors_once())
    harness.sim.run_process(ring._stabilize_once())  # the reply omits x
    assert ring.first_live_successor() == successor.address
    assert "x" not in [entry.address for entry in ring.succ_list]


# --------------------------------------------------------------------------- the quiet-round fast path
_PEERS = ["p1", "p2", "p3", "p4", "p5", "p6"]
_values = st.integers(0, 15).map(lambda k: k * 625.0)  # exact on the 10,000 key space
_states = st.sampled_from([JOINING, JOINED, LEAVING])
_entries = st.tuples(st.sampled_from(["me"] + _PEERS), _values, _states, st.booleans())


@st.composite
def stabilize_rounds(draw):
    """Our value, our list, the contacted head and its reply, and a pending insert.

    Half the rounds are quiet: one clockwise run of distinct peers, of which
    we hold a prefix and the reply (perhaps naming us or the head again) the
    rest.  The other half are arbitrary lists and replies.
    """
    own_value = draw(_values)
    if draw(st.booleans()):
        run = draw(st.lists(st.tuples(st.sampled_from(_PEERS), _values, _states, st.booleans()),
                            min_size=1, max_size=6, unique_by=lambda entry: entry[0]))
        span = default_config().key_space
        run.sort(key=lambda entry: (entry[1] - own_value) % span or span)
        current = run[:draw(st.integers(1, len(run)))]
        head_address, head_value, head_state = current[0][:3]
        items = [entry[:3] for entry in run[1:]]
        for _ in range(draw(st.integers(0, 2))):
            named = (draw(st.sampled_from(["me", head_address])), draw(_values), draw(_states))
            items.insert(draw(st.integers(0, len(items))), named)
    else:
        head = (draw(st.sampled_from(_PEERS)), draw(_values), draw(_states), draw(st.booleans()))
        current = [head] + draw(st.lists(_entries, max_size=5))
        head_address, head_value, head_state = draw(st.sampled_from(_PEERS)), draw(_values), \
            draw(_states)
        items = [entry[:3] for entry in draw(st.lists(_entries, max_size=6))]
    response = {
        "value": head_value,
        "state": head_state,
        "succ_list": [{"address": a, "value": v, "state": s} for a, v, s in items],
    }
    pending = draw(st.sampled_from([None] + _PEERS))
    return own_value, current, head_address, response, pending


def _ring_holding(ring_class, own_value, current, pending):
    sim = Simulator()
    node = Endpoint(sim, Network(sim, random.Random(0), NetworkConfig()), "me")
    ring = ring_class(node, own_value, default_config())
    ring.succ_list = [SuccessorEntry(*entry) for entry in current]
    if pending is not None:
        ring._pending_insert = {"address": pending, "event": sim.event()}
    return ring


def _held(ring):
    return (
        [(e.address, e.value, e.state, e.stabilized) for e in ring.succ_list],
        getattr(ring, "_last_received_addresses", None),
    )


@pytest.mark.parametrize("ring_class", [ChordRing, PepperRing])
@settings(max_examples=300, deadline=None)
@given(round_=stabilize_rounds())
def test_the_quiet_round_fast_path_equals_the_full_merge(ring_class, round_):
    """``_adopt_matching_reply`` is ``_install_list`` on the replies it takes:
    the same addresses, values, states, ``stabilized`` flags and reported set.
    A reply it declines leaves the list untouched for the merge."""
    own_value, current, head_address, response, pending = round_
    fast = _ring_holding(ring_class, own_value, current, pending)
    before = _held(fast)
    if not fast._adopt_matching_reply(head_address, response):
        event("declined")
        assert _held(fast) == before
        return
    event("taken")
    merged = _ring_holding(ring_class, own_value, current, pending)
    head = SuccessorEntry(head_address, response["value"], response["state"], stabilized=True)
    received = [e for e in entries_from_wire(response["succ_list"])
                if e.address not in (merged.address, head_address)]
    merged._install_list(head, received)
    assert _held(fast) == _held(merged)


def test_a_reply_that_extends_our_list_takes_the_fast_path():
    ring = _ring_holding(ChordRing, 0.0, [("p1", 625.0, JOINED, True)], None)
    reply = {"value": 625.0, "state": JOINED,
             "succ_list": [{"address": "p2", "value": 1250.0, "state": JOINED}]}
    assert ring._adopt_matching_reply("p1", reply)
    assert _held(ring) == ([("p1", 625.0, JOINED, True), ("p2", 1250.0, JOINED, False)],
                           {"p1", "p2"})
