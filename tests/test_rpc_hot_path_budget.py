"""Deterministic budget for the host cost of one simulated RPC.

A 50-peer echo network of this test's own (uniform latency, every caller
issuing 40 sequential RPCs: half to a plain handler, half to a generator
handler, exactly one in ten to a failed peer) is run under ``cProfile`` and
the profile's *call count* is divided by the RPCs issued.  A count, not a
timing: it repeats exactly on one interpreter and moves only when the path
``Process._resume -> Network.call -> Endpoint._handle_rpc -> reply`` gains or
loses a Python frame or a builtin call.

Measured on CPython 3.11 over the 2000 RPCs of the mix:

* e40118a:               84.9 calls per RPC (``PARENT_CALLS_PER_RPC``), 2.90 heap pushes;
* 244bfe9 (rewritten path): 49.4 calls per RPC,                        2.90 heap pushes;
* the in-place rule:        45.9 calls per RPC,                        2.90 heap pushes;
* the lazy RPC expiry:      43.9 calls per RPC,                        2.40 heap pushes.

The budget is 0.85 x e40118a's count, so the test fails if the wrapper
generator, the per-RPC closures, the label f-strings, the one-line helpers or
the per-message batch come back.  Heap pushes per RPC are pinned per kind: a
plain handler's request and reply (2); a generator handler's request, reply
and the expiry armed as it starts (3); a dead target's request and expiry (2).
The generator handler here yields an already-fired event, so only the path
itself pushes.  The simulated side is pinned exactly too: the events each kind
of RPC costs, and the one event and one timer entry of a quiet periodic round
(which builds no ``Event`` of its own and resumes no generator but its round).
"""

import cProfile
import pstats
import random

import pytest

from repro.sim.engine import Event, Process, Simulator, Timeout
from repro.sim.locks import RWLock
from repro.sim.network import Network, NetworkConfig, UniformLatency
from repro.transport import Endpoint, RpcTimeout

PEERS = 50
RPCS_PER_CALLER = 40
PARENT_CALLS_PER_RPC = 84.9
BUDGET = 0.85


class _EchoPeer(Endpoint):
    def rpc_echo(self, payload, request):
        return payload

    def rpc_echo_gen(self, payload, request):
        done = self.sim.event()
        done.succeed()
        yield done
        return payload


def profiled_run(methods=("echo", "echo_gen"), dead_every=10):
    """Profile the callers' plans; ``dead_every`` 0 sends nothing to the failed peer."""
    sim = Simulator()
    config = NetworkConfig(rpc_timeout=0.5, latency_model=UniformLatency(0.0005, 0.003))
    network = Network(sim, random.Random(7), config)
    peers = [_EchoPeer(sim, network, f"peer{i:02d}") for i in range(PEERS)]
    _EchoPeer(sim, network, "dead").fail()
    draw = random.Random(11)
    # Plans are drawn before the profile starts: the count is the path's alone.
    plans = [
        [
            ("dead" if dead_every and k % dead_every == dead_every - 1
             else peers[draw.randrange(PEERS)].address,
             methods[k % len(methods)])
            for k in range(RPCS_PER_CALLER)
        ]
        for _ in peers
    ]
    tally = {"ok": 0, "timeout": 0}

    def caller(peer, plan):
        for nonce, (destination, method) in enumerate(plan):
            try:
                reply = yield peer.call(destination, method, nonce)
            except RpcTimeout:
                tally["timeout"] += 1
            else:
                tally["ok"] += reply == nonce

    callers = [peer.spawn(caller(peer, plan), name="caller") for peer, plan in zip(peers, plans)]
    started = sim.events_processed
    profile = cProfile.Profile()
    profile.enable()
    sim.run_until(sim.all_of(callers))
    profile.disable()
    stats = pstats.Stats(profile)

    def calls_named(fragment):
        return sum(calls for (_file, _line, name), (_cc, calls, *_rest) in stats.stats.items()
                   if fragment in name)

    rpcs = PEERS * RPCS_PER_CALLER
    assert network.stats.rpc_calls == rpcs
    return {
        "tally": tally,
        "rpcs": rpcs,
        "events": sim.events_processed - started,
        "calls_per_rpc": stats.total_calls / rpcs,
        "pushes_per_rpc": calls_named("heappush") / rpcs,
        "pops_per_rpc": calls_named("heappop") / rpcs,
    }


def test_calls_and_heap_pushes_per_rpc_stay_inside_the_budget():
    run = profiled_run()
    rpcs = run["rpcs"]
    assert run["tally"] == {"ok": rpcs - rpcs // 10, "timeout": rpcs // 10}
    print(f"calls per RPC: parent {PARENT_CALLS_PER_RPC}, now {run['calls_per_rpc']:.1f}; "
          f"heap pushes per RPC: {run['pushes_per_rpc']:.2f}")
    assert run["calls_per_rpc"] <= BUDGET * PARENT_CALLS_PER_RPC
    # Per caller: 20 plain, 16 generator and 4 dead-target RPCs (every tenth
    # call is odd, so a generator call).
    assert run["pushes_per_rpc"] == (20 * 2 + 16 * 3 + 4 * 2) / RPCS_PER_CALLER


# Events per RPC under the engine's in-place rule (e40118a: 3 / 7 / 3).  Plain:
# request delivery, then reply delivery, which resumes the caller in place.
# Generator: request delivery, the handler's start (its yield of a fired event,
# its end and its one completion callback run in place), reply delivery.  Dead
# target: request delivery, then the expiry, which resumes the caller in place.
# Heap pushes: an answered plain call never pushes its expiry.
@pytest.mark.parametrize("methods, dead_every, events_per_rpc, pushes_per_rpc", [
    pytest.param(("echo",), 0, 2, 2, id="plain"),
    pytest.param(("echo_gen",), 0, 3, 3, id="generator"),
    pytest.param(("echo",), 1, 2, 2, id="dead_target"),
])
def test_events_per_rpc_are_pinned(methods, dead_every, events_per_rpc, pushes_per_rpc):
    run = profiled_run(methods, dead_every)
    # Beyond the RPCs, per caller: its start and its two completion callbacks
    # (its endpoint's, and the ``all_of`` the run waits on: two waiters queue).
    assert run["events"] == events_per_rpc * run["rpcs"] + 3 * PEERS
    assert run["pushes_per_rpc"] == pushes_per_rpc


def _quiet_plain():
    pass


def _quiet_generator():
    return
    yield  # a generator action that returns before sending anything


def _uncontended_lock(lock):
    def action():
        yield lock.acquire_write()  # fires at once: the loop continues in place
        lock.release_write()
    return action


# Per quiet round, beyond its one timer entry and one event: the ``Event``
# objects built (the loop's sleep builds none; the lock's grant is one) and the
# generator resumes (a plain round resumes none; a generator round is driven
# once, from the wakeup, with no forwarding frame).
@pytest.mark.parametrize("make_action, events_made, resumes", [
    pytest.param(lambda lock: _quiet_plain, 0, 0, id="plain"),
    pytest.param(lambda lock: _quiet_generator, 0, 1, id="generator"),
    pytest.param(_uncontended_lock, 1, 1, id="uncontended_lock"),
])
def test_a_quiet_periodic_round_is_one_timer_entry_and_one_event(
    monkeypatch, make_action, events_made, resumes
):
    sim = Simulator()
    peer = _EchoPeer(sim, Network(sim, random.Random(7), NetworkConfig()), "peer")
    action = make_action(RWLock(sim))
    rounds = []

    def round_():
        rounds.append(sim.now)
        return action()

    peer.every(1.0, round_)
    sim.run(until=0.5)  # the loop has started and armed its first sleep
    made, built, resumed = [], [], []
    build = Timeout.__init__
    monkeypatch.setattr(Timeout, "__init__", lambda self, *a: made.append(a) or build(self, *a))
    init = Event.__init__
    monkeypatch.setattr(Event, "__init__", lambda self, sim: built.append(1) or init(self, sim))
    resume = Process._resume
    monkeypatch.setattr(Process, "_resume", lambda self, t: resumed.append(1) or resume(self, t))
    entries, events = sim._sequence, sim.events_processed
    sim.run(until=10.5)
    assert rounds == [float(t) for t in range(1, 11)]
    assert sim._sequence - entries == 10
    assert sim.events_processed - events == 10
    assert made == []
    assert len(built) == 10 * events_made
    assert len(resumed) == 10 * resumes
