"""Discrete-event simulation substrate.

The paper evaluates its protocols on a real 30-peer distributed deployment.
This package provides the substitute substrate: a deterministic, seeded
discrete-event simulator in which every peer runs as a cooperative process,
messages experience configurable latency, and read/write locks are simulated
objects with FIFO wait queues.

Layer contract: the bottom of the stack (stdlib-only); nothing here may
import ring/datastore/index/harness code.  Every higher layer may import the
public surface below.
Periodic loops (:meth:`repro.transport.endpoint.Endpoint.every`) accept
either a float period or a zero-argument callable, which is how the router's
table-refresh back-off (:class:`~repro.router.hierarchical.AdaptiveCadence`)
plugs in without an import in this direction.
Determinism is part of the contract -- all randomness comes through
:class:`~repro.sim.randomness.RngStreams`, never the global ``random`` module.

The public surface is:

* :class:`~repro.sim.engine.Simulator` -- the event loop (a binary heap of
  timed entries behind a FIFO ready queue);
  :func:`~repro.sim.engine.make_simulator` is where the stack builds it.
* :class:`~repro.sim.engine.Event`, :class:`~repro.sim.engine.Timeout`,
  :class:`~repro.sim.engine.Process` -- the primitives protocol code yields on.
* :class:`~repro.sim.locks.RWLock` -- simulated read/write lock.
* :class:`~repro.sim.network.Network` -- latency/loss model and RPC transport.
* :class:`~repro.sim.randomness.RngStreams` -- named, seeded RNG streams.
"""

from repro.sim.engine import (
    ENGINE_ENV_VAR,
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    ProcessKilled,
    SimulationError,
    Simulator,
    Timeout,
    make_simulator,
)
from repro.sim.locks import RWLock
from repro.sim.network import (
    Network,
    NetworkConfig,
    RpcError,
    RpcRequest,
    RpcTimeout,
    RpcUnreachable,
)
from repro.sim.randomness import RngStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "ENGINE_ENV_VAR",
    "Event",
    "Interrupt",
    "Network",
    "NetworkConfig",
    "Process",
    "ProcessKilled",
    "RWLock",
    "RngStreams",
    "RpcError",
    "RpcRequest",
    "RpcTimeout",
    "RpcUnreachable",
    "SimulationError",
    "Simulator",
    "Timeout",
    "make_simulator",
]

