"""Deterministic budget for the host cost of one simulated RPC.

A 50-peer echo network of this test's own (uniform latency, every caller
issuing 40 sequential RPCs: half to a plain handler, half to a generator
handler, exactly one in ten to a failed peer) is run under ``cProfile`` and
the profile's *call count* is divided by the RPCs issued.  A count, not a
timing: it repeats exactly on one interpreter and moves only when the path
``Process._resume -> Network.call -> Endpoint._handle_rpc -> reply`` gains or
loses a Python frame or a builtin call.

Measured on CPython 3.11 over the 2000 RPCs of the mix:

* parent e40118a: 84.9 calls per RPC (``PARENT_CALLS_PER_RPC``), 2.90 heap pushes;
* this change:    49.4 calls per RPC,                           2.90 heap pushes.

The budget is 0.85 x the parent's count, so the test fails at the parent and
fails again if the wrapper generator, the per-RPC closures, the label
f-strings, the one-line helpers or the per-message batch come back.  Heap
pushes per RPC are bounded at 3 (expiry timer, request, reply): the generator
handler here yields an already-fired event, so only the path itself pushes.
The simulated side is pinned too: the events each kind of RPC costs are the
parent's, exactly.
"""

import cProfile
import pstats
import random

import pytest

from repro.sim.engine import Simulator
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
    assert run["pushes_per_rpc"] <= 3.0


# Events per RPC, as at the parent.  Plain: request delivery, reply delivery,
# caller resume.  Generator: those plus the handler's start, its one resume and
# its two completion callbacks.  Dead target: request delivery, expiry, resume.
@pytest.mark.parametrize("methods, dead_every, events_per_rpc", [
    (("echo",), 0, 3),
    (("echo_gen",), 0, 7),
    (("echo",), 1, 3),
])
def test_events_per_rpc_are_the_parents(methods, dead_every, events_per_rpc):
    run = profiled_run(methods, dead_every)
    # Beyond the RPCs, per caller: its start and its two completion callbacks.
    assert run["events"] == events_per_rpc * run["rpcs"] + 3 * PEERS
