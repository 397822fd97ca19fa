"""Unit tests for the network model and RPC transport."""

import collections
import gc
import random
import sys
from types import GeneratorType

import pytest

from repro.sim.engine import Interrupt, SimulationError, Simulator
from repro.sim.network import (
    ConstantLatency,
    LatencyModel,
    Network,
    NetworkConfig,
    RpcRemoteError,
    RpcTimeout,
    UniformLatency,
)
from repro.sim.randomness import RngStreams
from repro.transport import Endpoint


class EchoNode(Endpoint):
    def rpc_echo(self, payload, request):
        return {"echo": payload, "me": self.address}

    def rpc_slow(self, payload, request):
        yield self.sim.timeout(payload["delay"])
        return {"done": True}

    def rpc_broken(self, payload, request):
        raise ValueError("handler exploded")


@pytest.fixture
def env():
    sim = Simulator()
    network = Network(sim, RngStreams(3).stream("net"), NetworkConfig())
    a = EchoNode(sim, network, "a")
    b = EchoNode(sim, network, "b")
    return sim, network, a, b


def test_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(latency_model=UniformLatency(low=-1)).validate()
    with pytest.raises(ValueError):
        NetworkConfig(latency_model=UniformLatency(low=2, high=1)).validate()
    with pytest.raises(ValueError):
        NetworkConfig(drop_probability=1.5).validate()
    with pytest.raises(ValueError):
        NetworkConfig(rpc_timeout=0).validate()


def test_rpc_round_trip(env):
    sim, network, a, b = env

    def proc():
        response = yield a.call("b", "echo", {"x": 1})
        return response

    response = sim.run_process(proc())
    assert response == {"echo": {"x": 1}, "me": "b"}
    assert network.stats.rpc_calls == 1


def test_rpc_latency_applied(env):
    sim, network, a, b = env

    def proc():
        yield a.call("b", "echo", {})
        return sim.now

    elapsed = sim.run_process(proc())
    model = network.config.latency_model
    assert elapsed >= 2 * model.low
    assert elapsed <= 2 * model.high + 1e-9


def test_rpc_to_unknown_address_times_out(env):
    sim, network, a, _b = env

    def proc():
        try:
            yield a.call("ghost", "echo", {}, timeout=0.2)
        except RpcTimeout:
            return "timed out"

    assert sim.run_process(proc()) == "timed out"
    assert network.stats.rpc_timeouts == 1


def test_rpc_to_dead_peer_times_out(env):
    sim, network, a, b = env
    b.fail()

    def proc():
        try:
            yield a.call("b", "echo", {}, timeout=0.2)
        except RpcTimeout:
            return "timed out"

    assert sim.run_process(proc()) == "timed out"


def test_generator_handler_runs_as_process(env):
    sim, network, a, b = env

    def proc():
        response = yield a.call("b", "slow", {"delay": 0.1}, timeout=1.0)
        return response

    assert sim.run_process(proc()) == {"done": True}


def test_handler_exception_becomes_remote_error(env):
    sim, network, a, b = env

    def proc():
        try:
            yield a.call("b", "broken", {})
        except RpcRemoteError as error:
            return str(error)

    assert "exploded" in sim.run_process(proc())


def test_missing_handler_is_remote_error(env):
    sim, network, a, b = env

    def proc():
        try:
            yield a.call("b", "no_such_method", {})
        except RpcRemoteError as error:
            return str(error)

    assert "no handler" in sim.run_process(proc())


def test_message_drop_causes_timeout():
    sim = Simulator()
    config = NetworkConfig(drop_probability=0.999999)
    network = Network(sim, RngStreams(1).stream("net"), config)
    a = EchoNode(sim, network, "a")
    EchoNode(sim, network, "b")

    def proc():
        try:
            yield a.call("b", "echo", {}, timeout=0.3)
        except RpcTimeout:
            return "dropped"

    assert sim.run_process(proc()) == "dropped"
    assert network.stats.messages_dropped >= 1


def test_per_method_stats(env):
    sim, network, a, b = env

    def proc():
        yield a.call("b", "echo", {})
        yield a.call("b", "echo", {})
        yield a.call("b", "slow", {"delay": 0.01})

    sim.run_process(proc())
    assert network.stats.per_method["echo"] == 2
    assert network.stats.per_method["slow"] == 1


def test_registered_handler_takes_precedence(env):
    sim, network, a, b = env
    b.register_handler("echo", lambda payload, request: {"override": True})

    def proc():
        response = yield a.call("b", "echo", {})
        return response

    assert sim.run_process(proc()) == {"override": True}


def test_failed_node_interrupts_processes(env):
    sim, network, a, b = env
    progressed = []

    def long_task():
        yield sim.timeout(100.0)
        progressed.append("finished")

    b.spawn(long_task())
    sim.run(until=1.0)
    b.fail()
    sim.run(until=200.0)
    assert progressed == []
    assert not b.alive


def test_node_every_runs_periodically(env):
    sim, network, a, b = env
    ticks = []
    a.every(1.0, lambda: ticks.append(sim.now))
    sim.run(until=5.5)
    assert len(ticks) == 5


def test_node_every_stops_after_failure(env):
    sim, network, a, b = env
    ticks = []
    loop = a.every(1.0, lambda: ticks.append(sim.now))
    sim.run(until=2.5)
    assert not loop.triggered
    a.fail()
    sim.run(until=10.0)
    assert len(ticks) == 2
    assert loop.triggered  # the loop's process ended with the endpoint


def test_node_every_awaits_a_generator_action(env):
    sim, network, a, b = env
    rounds = []

    def slow_round():
        started = sim.now
        yield sim.timeout(0.25)
        rounds.append((started, sim.now))

    a.every(1.0, slow_round)
    sim.run(until=4.0)
    # The next sleep starts when the round ends, not when it began.
    assert rounds == [(1.0, 1.25), (2.25, 2.5), (3.5, 3.75)]


def test_node_every_forwards_replies_and_errors_like_yield_from(env):
    sim, network, a, b = env
    seen = []

    def round_trip():
        seen.append((yield a.call("b", "echo", 1))["echo"])
        try:
            yield a.call("ghost", "echo", {}, timeout=0.2)
        except RpcTimeout:
            seen.append("timed out")
        yield sim.timeout(0.1)  # the action goes on after a caught error
        seen.append("resumed")

    a.every(1.0, round_trip)
    sim.run(until=2.0)
    assert seen == [1, "timed out", "resumed"]

    def exploding():
        yield sim.timeout(0.1)
        raise ValueError("round exploded")

    loop = b.every(1.0, exploding)
    sim.run(until=3.5)
    assert loop.triggered and not loop.ok  # an uncaught error ends the loop
    assert isinstance(loop.value, ValueError)


def test_node_every_closes_its_action_when_the_loop_is_closed(env):
    sim, network, a, b = env
    closed = []

    def waiting():
        try:
            yield sim.timeout(10.0)
        finally:
            closed.append(sim.now)

    loop = a.every(1.0, waiting)
    sim.run(until=2.0)
    loop.interrupt("torn down")  # what fail() does to every owned process
    sim.run(until=2.0)
    assert closed == [2.0]
    assert loop.triggered and loop.ok  # an uncaught interrupt ends the loop quietly


def test_between_rounds_a_periodic_loop_references_no_generator(env):
    sim, network, a, b = env

    def slow_round():
        yield sim.timeout(0.25)

    def generators_held(process):
        held = gc.get_referents(process)
        return [ref for ref in held if isinstance(ref, GeneratorType)
                or isinstance(getattr(ref, "__self__", None), GeneratorType)]

    loop = a.every(1.0, slow_round)
    sim.run(until=1.1)
    assert type(loop.generator) is GeneratorType  # the round in flight is the current one
    sim.run(until=1.5)  # that round has returned and armed the next sleep
    assert loop.generator is None
    assert generators_held(loop) == []


def test_an_interrupt_reaches_the_round_in_flight(env):
    sim, network, a, b = env
    caught = []

    def patient_round():
        try:
            yield sim.timeout(10.0)
        except Interrupt as interrupt:
            caught.append((sim.now, interrupt.cause))

    loop = a.every(1.0, patient_round)
    sim.run(until=1.5)
    loop.interrupt("poke")
    sim.run(until=3.0)
    # The round caught it and returned, so the loop lives on, as under
    # ``yield from``: it slept a period and started the next round at 2.5.
    assert caught == [(1.5, "poke")]
    assert loop.alive and not loop.triggered
    loop.interrupt("again")
    sim.run(until=3.0)
    assert caught == [(1.5, "poke"), (3.0, "again")]


def test_an_uncaught_error_in_a_plain_round_ends_the_loop_with_it(env):
    sim, network, a, b = env
    rounds = []

    def flaky():
        rounds.append(sim.now)
        if len(rounds) == 2:
            raise ValueError("round exploded")

    loop = a.every(1.0, flaky)
    sim.run(until=5.0)  # the error ends the loop, not the run
    assert rounds == [1.0, 2.0]
    assert loop.triggered and not loop.ok
    assert isinstance(loop.value, ValueError)
    assert loop not in a._processes


def _unmatched_returns(run) -> list:
    """Names of the Python frames whose profiler ``return`` had no open ``call``."""
    open_calls: collections.Counter = collections.Counter()
    unmatched = []

    def hook(frame, event, arg):
        if event == "call":
            open_calls[frame] += 1
        elif event == "return":
            if open_calls[frame]:
                open_calls[frame] -= 1
            else:
                unmatched.append(frame.f_code.co_name)

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return unmatched


def _yield_from_catch_and_return():
    """The construct that unbalances the profiler where the interpreter has the gap."""

    def delegate():
        try:
            yield 1
        except KeyError:
            return

    def delegating():
        yield from delegate()
        yield 2

    generator = delegating()
    next(generator)
    generator.throw(KeyError)


def test_every_keeps_profiler_call_and_return_events_balanced(env):
    if not _unmatched_returns(_yield_from_catch_and_return):
        pytest.skip(
            "this interpreter's profiler pairs a yield-from delegate's catch-and-return; "
            "only CPython 3.11 emits the unmatched return this test guards against"
        )
    sim, network, a, b = env
    timeouts = []

    def probe_ghost():
        try:
            yield a.call("ghost", "echo", {}, timeout=0.2)
        except RpcTimeout:
            timeouts.append(sim.now)

    a.every(1.0, probe_ghost)
    assert _unmatched_returns(lambda: sim.run(until=4.0)) == []
    assert len(timeouts) == 3


def test_node_every_initial_delay_replaces_only_the_first_period(env):
    sim, network, a, b = env
    ticks = []
    a.every(2.0, lambda: ticks.append(sim.now), initial_delay=0.5)
    sim.run(until=5.0)
    assert ticks == [0.5, 2.5, 4.5]


def test_node_every_draws_jitter_once_per_sleep():
    sim = Simulator()
    network = Network(sim, RngStreams(3).stream("net"), NetworkConfig())
    node = Endpoint(sim, network, "n", rng=random.Random(11))
    ticks = []
    node.every(1.0, lambda: ticks.append(sim.now), jitter=0.5, initial_delay=0.0)
    sim.run(until=4.0)
    reference = random.Random(11)
    expected, now = [], 0.0
    for period in (0.0, 1.0, 1.0):
        now += period + reference.uniform(0, 0.5)
        expected.append(now)
    assert ticks == expected
    # One more draw armed the pending sleep; nothing else touched the stream.
    reference.uniform(0, 0.5)
    assert node.rng.getstate() == reference.getstate()


# ------------------------------------------------- the per-message path: order and failure
class _FixedButSampled(LatencyModel):
    """A sampled model (not ``ConstantLatency``) that puts every message on one instant."""

    def sample(self, rng, source, destination):
        return 0.002


def _logging_network(model):
    sim = Simulator()
    network = Network(sim, random.Random(5), NetworkConfig(latency_model=model))
    a = EchoNode(sim, network, "a")
    b = EchoNode(sim, network, "b")
    log = []
    b.register_handler("note", lambda payload, request: log.append(payload))
    return sim, network, a, log


def test_same_instant_messages_under_a_sampled_model_keep_send_order():
    sim, network, a, log = _logging_network(_FixedButSampled())
    for n in range(5):
        a.cast("b", "note", n)
    first = a.call("b", "note", 5)
    second = a.call("b", "note", 6)
    sim.run(until=0.003)
    assert log == [0, 1, 2, 3, 4, 5, 6]
    sim.run(until=1.0)
    assert first.triggered and second.triggered
    # One engine entry per message (7 requests + 2 replies), none shared.
    assert network.stats.delivery_batches == 9


def test_same_instant_messages_under_constant_latency_share_one_batch():
    sim, network, a, log = _logging_network(ConstantLatency(0.002))
    for n in range(5):
        a.cast("b", "note", n)
    sim.run(until=1.0)
    assert log == [0, 1, 2, 3, 4]
    assert network.stats.delivery_batches == 1


def test_peer_failing_mid_generator_handler_never_answers(env):
    sim, network, a, b = env
    outcome = []

    def proc():
        try:
            outcome.append((yield a.call("b", "slow", {"delay": 1.0}, timeout=2.0)))
        except RpcTimeout:
            outcome.append("timed out")

    sim.process(proc())
    sim.run(until=0.5)
    assert len(b._processes) == 1  # the handler's own generator, mid-flight
    b.fail()
    sim.run(until=5.0)
    assert outcome == ["timed out"]
    assert b._processes == set()
    assert network.stats.messages_sent == 1  # the request; no reply was ever transmitted


def test_finished_generator_handler_leaves_no_owned_process(env):
    sim, network, a, b = env

    def proc():
        return (yield a.call("b", "slow", {"delay": 0.1}, timeout=1.0))

    assert sim.run_process(proc()) == {"done": True}
    assert b._processes == set()


def test_raising_generator_handler_becomes_remote_error(env):
    sim, network, a, b = env

    def late_failure(payload, request):
        yield sim.timeout(0.01)
        raise ValueError("exploded late")

    b.register_handler("late_failure", late_failure)

    def proc():
        try:
            yield a.call("b", "late_failure", {})
        except RpcRemoteError as error:
            return str(error)

    assert sim.run_process(proc()) == repr(ValueError("exploded late"))


def test_non_event_yield_error_names_peer_kind_and_method(env):
    sim, network, a, b = env

    def bad_yield(payload, request):
        yield 42

    b.register_handler("bad_yield", bad_yield)

    def proc():
        try:
            yield a.call("b", "bad_yield", {})
        except RpcRemoteError as error:
            return str(error)

    message = sim.run_process(proc())
    assert "b:rpc:bad_yield" in message
    assert "yielded 42, expected an Event" in message


def test_process_labels_are_joined_on_demand(env):
    sim, network, a, b = env

    def worker():
        yield sim.timeout(1.0)

    assert a.spawn(worker()).name == "a:worker"
    assert a.spawn(worker(), name="named").name == "a:named"
    assert a.every(1.0, lambda: None).name == "a:every-1.0s"
    assert a.every(lambda: 1.0, lambda: None).name == "a:every-adaptive"
    assert sim.process(worker()).name == "worker"
    assert sim.process(worker(), name="driver:x").name == "driver:x"


def test_inline_uniform_draws_are_the_floats_random_uniform_returns():
    drawn, reference = random.Random(2005), random.Random(2005)
    low, high, jitter = 0.0005, 0.003, 0.5
    span = high - low
    for _ in range(10_000):
        assert low + span * drawn.random() == reference.uniform(low, high)
        assert jitter * drawn.random() == reference.uniform(0, jitter)
    assert drawn.getstate() == reference.getstate()


def test_network_uniform_fast_path_draws_what_the_model_samples():
    model = UniformLatency(0.0005, 0.003)
    sim = Simulator()
    network = Network(sim, random.Random(9), NetworkConfig(latency_model=model))
    a = EchoNode(sim, network, "a")
    EchoNode(sim, network, "b")
    for n in range(50):
        a.cast("b", "echo", n)
    reference = random.Random(9)
    expected = sorted(model.sample(reference, "a", "b") for _ in range(50))
    assert sorted(entry[0] for entry in sim._queue) == expected
    assert network.rng.getstate() == reference.getstate()


def test_attribute_handler_attached_after_first_use_of_another_method(env):
    sim, network, a, b = env

    def proc(method):
        return (yield a.call("b", method, {"x": 1}))

    assert sim.run_process(proc("echo"))["me"] == "b"
    b.rpc_late = lambda payload, request: {"late": payload}
    assert sim.run_process(proc("late")) == {"late": {"x": 1}}
    # Resolved once: the second dispatch is a plain dict hit, and a later
    # register_handler still takes precedence over the attribute.
    assert sim.run_process(proc("late")) == {"late": {"x": 1}}
    b.register_handler("late", lambda payload, request: {"registered": True})
    assert sim.run_process(proc("late")) == {"registered": True}


# ------------------------------------------- the lazy expiry: when the caller times out
class _Draws:
    """A stand-in rng: ``random()`` returns the given values in order."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def _lone_call(model, timeout, method="echo", payload=None, drops=(), dead=False,
               fail_at=None, cast_first=False):
    """One caller, one RPC from ``a`` to ``b``; what the caller saw and what it cost.

    ``drops`` scripts the loss draws (below 0.5 loses the message: the request
    draws first, then the reply).  ``cast_first`` casts to ``b`` just before
    the call, so under ``ConstantLatency`` the request joins an older batch.
    """
    sim = Simulator()
    config = NetworkConfig(latency_model=model, drop_probability=0.5 if drops else 0.0)
    network = Network(sim, _Draws(*drops) if drops else random.Random(5), config)
    completed = []

    class Observer:
        def rpc_issued(self, source, destination, method):
            pass

        def rpc_completed(self, destination):
            completed.append((sim.now, destination))

    network.observer = Observer()
    a = EchoNode(sim, network, "a")
    b = EchoNode(sim, network, "b")
    if dead:
        b.fail()
    if fail_at is not None:
        sim.schedule(fail_at, lambda _: b.fail())
    seen = []

    def caller():
        if cast_first:
            a.cast("b", "echo", None)
        try:
            reply = yield a.call("b", method, payload, timeout=timeout)
        except RpcTimeout:
            seen.append(("timeout", sim.now))
        else:
            seen.append((reply, sim.now))

    sim.process(caller())
    sim.run()
    return seen, sim.events_processed, network.stats.rpc_timeouts, completed


SLOW = {"delay": 1.0}


# Each case pins what the caller saw, when, and the events the run took, as
# they were while every call pushed its expiry entry at once: arming it lazily
# must move none of them.
@pytest.mark.parametrize("model, timeout, kwargs, seen, events", [
    # The expiry is the only way the call can end: armed when that is known.
    pytest.param(ConstantLatency(0.002), 0.5, {"dead": True}, ("timeout", 0.5), 3,
                 id="dead_destination"),
    pytest.param(ConstantLatency(0.002), 0.5, {"drops": (0.0,)}, ("timeout", 0.5), 2,
                 id="dropped_request"),
    pytest.param(ConstantLatency(0.002), 0.5, {"drops": (0.9, 0.0)}, ("timeout", 0.5), 3,
                 id="dropped_reply"),
    pytest.param(_FixedButSampled(), 0.5, {"method": "slow", "payload": SLOW},
                 ("timeout", 0.5), 6, id="generator_outlives_the_timeout"),
    pytest.param(_FixedButSampled(), 2.0,
                 {"method": "slow", "payload": SLOW, "fail_at": 0.5},
                 ("timeout", 2.0), 7, id="destination_fails_mid_handler"),
    # A reply landing exactly on the deadline loses: the expiry's seq is older.
    pytest.param(ConstantLatency(0.25), 0.5, {}, ("timeout", 0.5), 4,
                 id="constant_reply_on_the_deadline"),
    pytest.param(ConstantLatency(0.25), 0.5 + 1e-9, {}, ({"echo": None, "me": "b"}, 0.5), 4,
                 id="constant_reply_just_before_the_deadline"),
    pytest.param(ConstantLatency(0.01), 0.004, {}, ("timeout", 0.004), 4,
                 id="timeout_shorter_than_one_way_latency"),
    # The request shares an older batch at the deadline: it is delivered (and
    # answered) before the expiry, which was armed when the call was made.
    pytest.param(ConstantLatency(0.25), 0.25, {"cast_first": True}, ("timeout", 0.25), 4,
                 id="request_in_an_older_batch_at_the_deadline"),
    pytest.param(ConstantLatency(0.25), 0.25,
                 {"cast_first": True, "method": "slow", "payload": SLOW},
                 ("timeout", 0.25), 6, id="generator_request_in_an_older_batch_at_the_deadline"),
])
def test_a_call_settles_when_an_eagerly_armed_expiry_would(model, timeout, kwargs, seen, events):
    got, processed, timeouts, completed = _lone_call(model, timeout, **kwargs)
    assert got == [seen]
    assert processed == events
    assert timeouts == (seen[0] == "timeout")
    assert completed == [(seen[1], "b")]  # exactly one completion, when the caller settles


def test_a_negative_call_timeout_is_rejected(env):
    sim, network, a, b = env
    with pytest.raises(SimulationError, match="in the past"):
        a.call("b", "echo", {}, timeout=-0.1)
