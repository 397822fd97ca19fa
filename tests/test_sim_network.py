"""Unit tests for the network model and RPC transport."""

import random

import pytest

from repro.sim.engine import Simulator
from repro.sim.network import Network, NetworkConfig, RpcRemoteError, RpcTimeout
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
        NetworkConfig(latency_min=-1).validate()
    with pytest.raises(ValueError):
        NetworkConfig(latency_min=2, latency_max=1).validate()
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
    assert elapsed >= 2 * network.config.latency_min
    assert elapsed <= 2 * network.config.latency_max + 1e-9


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
