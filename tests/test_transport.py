"""Unit tests for the transport layer: contract, codec, asyncio substrate.

Four groups:

* ``Network.cast`` failure paths and per-method stats -- a cast to a dead,
  unknown, or mid-flight-failing destination is silently swallowed (the
  caller of :meth:`Endpoint.call` that discarded the reply observed exactly
  the same), while the per-method counters still record the attempt;
* the JSON wire codec (tuple round-tripping, non-string-key rejection);
* the :class:`AsyncioClock` -- the engine paced by wall time -- through the
  engine surface (timeout, run_until, the schedule_timer/cancel_timer
  contract) and its one pacing property: a timer a datagram handler sets
  before the armed wake-up fires on time;
* an end-to-end asyncio transport exchange over real UDP sockets: call,
  generator handler, remote error, timeout to a dead peer, cast, and
  malformed datagrams from a foreign socket.
"""

from __future__ import annotations

import socket
import time

import pytest

from repro.index.config import default_config
from repro.sim.engine import Simulator, make_simulator
from repro.sim.network import Network, NetworkConfig
from repro.sim.randomness import RngStreams
from repro.transport import (
    Endpoint,
    RpcRemoteError,
    RpcTimeout,
    make_transport,
)
from repro.transport.codec import decode_message, encode_message


class EchoEndpoint(Endpoint):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.casts_received = []

    def rpc_echo(self, payload, request):
        return {"echo": payload, "me": self.address}

    def rpc_slow(self, payload, request):
        yield self.sim.timeout(payload["delay"])
        return {"done": True}

    def rpc_broken(self, payload, request):
        raise ValueError("handler exploded")

    def rpc_note(self, payload, request):
        self.casts_received.append(payload)


# --------------------------------------------------------------------- cast paths
@pytest.fixture
def sim_env(heap_id):
    sim = make_simulator()
    network = Network(sim, RngStreams(3).stream("net"), NetworkConfig())
    a = EchoEndpoint(sim, network, "a")
    b = EchoEndpoint(sim, network, "b")
    return sim, network, a, b


def test_cast_delivers_and_counts(sim_env):
    sim, network, a, b = sim_env
    a.cast("b", "note", {"n": 1})
    a.cast("b", "note", {"n": 2})
    sim.run(until=1.0)
    # Each cast draws its own latency, so arrival order may differ from send
    # order; delivery of both is the guarantee.
    assert sorted(b.casts_received, key=lambda p: p["n"]) == [{"n": 1}, {"n": 2}]
    assert network.stats.per_method["note"] == 2
    assert network.stats.rpc_calls == 2
    assert network.stats.messages_sent == 2


def test_cast_to_dead_destination_is_swallowed(sim_env):
    sim, network, a, b = sim_env
    b.fail()
    a.cast("b", "note", {"n": 1})
    sim.run(until=1.0)
    assert b.casts_received == []
    # The attempt is still visible in the traffic stats: the message was
    # sent and the method was counted; only delivery silently evaporated.
    assert network.stats.per_method["note"] == 1
    assert network.stats.messages_sent == 1
    assert network.stats.messages_dropped == 0


def test_cast_to_unknown_destination_is_swallowed(sim_env):
    sim, network, a, _b = sim_env
    a.cast("ghost", "note", {})
    sim.run(until=1.0)
    assert network.stats.per_method["note"] == 1
    assert network.stats.messages_sent == 1


def test_cast_to_destination_failing_mid_flight(sim_env):
    sim, network, a, b = sim_env
    a.cast("b", "note", {"n": 1})
    # The message is in flight (latency >= low > 0); the destination fails
    # before it lands, so the handler must never run.
    assert network.config.latency_model.low > 0
    b.fail()
    sim.run(until=1.0)
    assert b.casts_received == []
    assert network.stats.per_method["note"] == 1


def test_call_and_cast_share_per_method_stats(sim_env):
    sim, network, a, b = sim_env

    def proc():
        yield a.call("b", "echo", {})
        a.cast("b", "note", {})
        yield a.call("b", "echo", {})

    sim.run_process(proc())
    sim.run(until=sim.now + 1.0)
    assert network.stats.per_method == {"echo": 2, "note": 1}
    assert network.stats.rpc_calls == 3


# --------------------------------------------------------------------------- periodic loops
def test_node_every_accepts_a_callable_period():
    sim = Simulator()
    rngs = RngStreams(3)
    network = Network(sim, rngs.stream("network"))
    node = Endpoint(sim, network, "n1")
    period = [1.0]
    ticks = []

    def action():
        ticks.append(sim.now)
        period[0] = min(period[0] * 2, 4.0)  # every round doubles the next interval

    node.every(lambda: period[0], action, name="test-loop")
    sim.run(until=16.0)
    # Rounds at 1, then +2, +4, +4 (capped), ... -> 1, 3, 7, 11, 15.
    assert ticks == [1.0, 3.0, 7.0, 11.0, 15.0]


def test_node_every_float_period_unchanged():
    sim = Simulator()
    rngs = RngStreams(3)
    network = Network(sim, rngs.stream("network"))
    node = Endpoint(sim, network, "n1")
    ticks = []
    node.every(2.0, lambda: ticks.append(sim.now), name="fixed-loop")
    sim.run(until=7.0)
    assert ticks == [2.0, 4.0, 6.0]


# --------------------------------------------------------------------------- codec
def test_codec_round_trips_plain_json():
    message = {"k": "q", "id": 7, "m": "echo", "p": {"x": [1, 2.5, None, True, "s"]}}
    assert decode_message(encode_message(message)) == message


def test_codec_round_trips_tuples():
    message = {"p": {"range": (0.0, 250.0), "nested": [(1, 2), {"t": (None, "x")}]}}
    decoded = decode_message(encode_message(message))
    assert decoded == message
    assert isinstance(decoded["p"]["range"], tuple)
    assert isinstance(decoded["p"]["nested"][0], tuple)
    assert isinstance(decoded["p"]["nested"][1]["t"], tuple)


def test_codec_rejects_non_string_keys():
    # json.dumps would silently coerce the key to "1" and the reply would
    # come back shaped differently than the sim transport delivered it.
    with pytest.raises(TypeError):
        encode_message({"p": {1: "a"}})


def test_codec_output_is_compact_bytes():
    wire = encode_message({"a": 1, "b": [1, 2]})
    assert isinstance(wire, bytes)
    assert b" " not in wire


# --------------------------------------------------------------------- AsyncioClock
@pytest.fixture
def aclock():
    from repro.transport.asyncio_transport import AsyncioClock

    clock = AsyncioClock()
    yield clock
    clock.close()


def test_asyncio_clock_timeout_fires(aclock):
    fired = []
    event = aclock.timeout(0.01, value="v")
    event._add_callback(lambda e: fired.append(e.value))
    aclock.run(until=aclock.now + 0.05)
    assert fired == ["v"]
    assert aclock.events_processed >= 1


def test_asyncio_clock_run_until_event(aclock):
    event = aclock.timeout(0.01, value=42)
    assert aclock.run_until(event, timeout=1.0) is True
    assert event.value == 42


def test_asyncio_clock_run_until_times_out(aclock):
    event = aclock.event()  # never triggered
    assert aclock.run_until(event, timeout=0.02) is False
    assert not event.triggered


def test_asyncio_clock_timer_cancel_contract(aclock):
    fired = []
    handle = aclock.schedule_timer(0.01, fired.append, "a")
    keeper = aclock.schedule_timer(0.01, fired.append, "b")
    # Cancel before expiry returns the argument and suppresses the firing.
    assert aclock.cancel_timer(handle) == "a"
    aclock.run(until=aclock.now + 0.05)
    assert fired == ["b"]
    # Cancelling an already-fired record returns None (engine contract).
    assert aclock.cancel_timer(keeper) is None


def test_asyncio_clock_run_process(aclock):
    def proc():
        start = aclock.now
        yield aclock.timeout(0.01)
        return aclock.now - start

    elapsed = aclock.run_process(proc(), timeout=5.0)
    assert elapsed >= 0.009


# ----------------------------------------------------------------- asyncio transport
@pytest.fixture
def asyncio_env():
    config = default_config(transport="asyncio")
    config.network.rpc_timeout = 0.5
    transport = make_transport(config)
    a = EchoEndpoint(transport.clock, transport.network, "a")
    b = EchoEndpoint(transport.clock, transport.network, "b")
    yield transport, a, b
    transport.shutdown()


def test_asyncio_transport_call_round_trip(asyncio_env):
    transport, a, b = asyncio_env
    sim = transport.clock

    def proc():
        response = yield a.call("b", "echo", {"x": 1, "pair": (1, 2)})
        return response

    response = sim.run_process(proc(), timeout=10.0)
    # Tuples survive the JSON framing via the codec's tuple tag.
    assert response == {"echo": {"x": 1, "pair": (1, 2)}, "me": "b"}
    assert transport.network.stats.rpc_calls == 1
    assert transport.network.stats.per_method["echo"] == 1


def test_asyncio_transport_generator_handler(asyncio_env):
    transport, a, b = asyncio_env
    sim = transport.clock

    def proc():
        return (yield a.call("b", "slow", {"delay": 0.02}, timeout=5.0))

    assert sim.run_process(proc(), timeout=10.0) == {"done": True}


def test_asyncio_transport_remote_error(asyncio_env):
    transport, a, b = asyncio_env
    sim = transport.clock

    def proc():
        try:
            yield a.call("b", "broken", {})
        except RpcRemoteError as error:
            return str(error)

    assert "exploded" in sim.run_process(proc(), timeout=10.0)


def test_asyncio_transport_dead_peer_times_out(asyncio_env):
    transport, a, b = asyncio_env
    sim = transport.clock
    b.fail()

    def proc():
        try:
            yield a.call("b", "echo", {}, timeout=0.1)
        except RpcTimeout:
            return "timed out"

    assert sim.run_process(proc(), timeout=10.0) == "timed out"
    assert transport.network.stats.rpc_timeouts == 1


def test_asyncio_transport_cast(asyncio_env):
    transport, a, b = asyncio_env
    sim = transport.clock
    a.cast("b", "note", {"n": 1})
    sim.run(until=sim.now + 0.2)
    assert b.casts_received == [{"n": 1}]
    assert transport.network.stats.per_method["note"] == 1


def test_asyncio_attribute_handler_attached_after_first_use_of_another_method(asyncio_env):
    transport, a, b = asyncio_env
    sim = transport.clock

    def proc(method):
        return (yield a.call("b", method, {"x": 1}))

    assert sim.run_process(proc("echo"), timeout=10.0)["me"] == "b"
    b.rpc_late = lambda payload, request: {"late": payload}
    assert sim.run_process(proc("late"), timeout=10.0) == {"late": {"x": 1}}
    assert sim.run_process(proc("late"), timeout=10.0) == {"late": {"x": 1}}


def test_asyncio_transport_every_runs_on_wall_clock(asyncio_env, monkeypatch):
    transport, a, _b = asyncio_env
    sim = transport.clock
    armed = []
    schedule_timer = sim.schedule_timer
    monkeypatch.setattr(sim, "schedule_timer", lambda *args: armed.append(args[0]) or schedule_timer(*args))
    monkeypatch.setattr(sim, "timeout", lambda *args: pytest.fail("every slept on a timeout event"))
    ticks = []
    a.every(0.03, lambda: ticks.append(sim.now), jitter=0.0, initial_delay=0.0)
    sim.run(until=sim.now + 0.2)
    assert len(ticks) >= 3
    # Each sleep is one timer armed through the clock API, as on the simulator.
    assert armed[: len(ticks) + 1] == [0.0] + [0.03] * len(ticks)


def test_asyncio_timer_set_by_a_datagram_handler_fires_on_time(asyncio_env):
    """The clock's one armed wake-up is for its earliest entry; a handler run
    on a datagram's arrival that sets an earlier timer re-arms it."""
    transport, a, b = asyncio_env
    clock = transport.clock
    later = []
    clock.schedule_timer(1.0, later.append, "the only other entry")
    done = clock.event()
    b.rpc_arm = lambda payload, request: clock.schedule_timer(0.01, done.succeed)
    started = time.monotonic()
    a.cast("b", "arm")
    assert clock.run_until(done, timeout=0.5)
    assert time.monotonic() - started < 0.5
    assert later == []


def test_asyncio_network_drops_malformed_datagrams(asyncio_env):
    """Any local process can write to a peer's port: a datagram that is not a
    well-formed message is counted as dropped, and the peer carries on."""
    transport, a, b = asyncio_env
    clock, network = transport.clock, transport.network
    errors = []
    clock.loop.set_exception_handler(lambda loop, context: errors.append(context))
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as raw:
        for data in (b"\xff", b"[1]", b'{"k":"q"}', b'{"k":"r"}'):
            raw.sendto(data, ("127.0.0.1", network._ports["b"]))
    clock.run(until=clock.now + 0.1)
    assert network.stats.messages_dropped == 4
    assert errors == []

    def proc():
        return (yield a.call("b", "echo", {"x": 1}))

    assert clock.run_process(proc(), timeout=10.0)["me"] == "b"


# ------------------------------------------------------------------- selection
def test_make_transport_selects_sim_by_default():
    transport = make_transport(default_config())
    assert transport.name == "sim"
    assert type(transport.clock) is Simulator


def test_asyncio_transport_clock_is_the_engine():
    transport = make_transport(default_config(transport="asyncio"))
    try:
        assert transport.name == "asyncio"
        assert isinstance(transport.clock, Simulator)
    finally:
        transport.shutdown()
    transport.shutdown()  # idempotent
    assert transport.clock.loop.is_closed()


def test_make_transport_rejects_unknown():
    with pytest.raises(ValueError):
        make_transport(default_config().copy(transport="pigeon"))


def test_run_cell_transport_override():
    """The override really overrides: an asyncio cell runs in-sim, and the
    registry's spec keeps its own transport."""
    from repro.harness.runner import run_cell
    from repro.harness.scenarios import get_scenario

    cell = run_cell(("localhost_20", 0, "sim"))
    assert cell["transport"] == "sim"
    assert "engine" not in cell
    assert get_scenario("localhost_20").index_config(seed=0).transport == "asyncio"


def test_run_cell_short_and_long_tuples_agree():
    """The 2-tuple and the full 3-tuple (default transport slot) run identically."""
    from repro.harness.runner import run_cell

    short = run_cell(("smoke", 0))
    long = run_cell(("smoke", 0, None))
    assert long["events_processed"] == short["events_processed"]
    assert long["rpc_per_method"] == short["rpc_per_method"]
