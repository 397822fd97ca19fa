"""Pluggable execution substrates for the P-Ring protocol layers.

The protocols (ring membership, data-store splits/merges, replication,
routing, range queries) are written against the transport contract in
:mod:`repro.transport.api` -- ``call``/``cast`` messaging, periodic loops,
clock and RNG access, peer addressing -- never against a concrete substrate.
Two implementations exist:

* :class:`~repro.transport.sim_transport.SimTransport` -- the seeded
  discrete-event simulator.  Deterministic; the default; event-trace
  bit-identical to the pre-transport stack.
* :class:`~repro.transport.asyncio_transport.AsyncioTransport` -- real UDP
  sockets on localhost with wall-clock periods, on an asyncio loop.  The
  same generators, in real time; used by the ``localhost_*`` fidelity cells.

Layer contract: protocol layers import messaging names (``Endpoint``,
``RpcError`` & friends) from *here*; only this package and the composition
root (:mod:`repro.index.pring`) may touch ``repro.sim.network``
internals.  ``tests/test_import_boundary.py`` enforces that.  The engine
primitives (:class:`~repro.sim.engine.Event`, ``Interrupt``,
:class:`~repro.sim.locks.RWLock`) remain importable from ``repro.sim`` by
every layer: they are substrate-independent.
"""

from repro.transport.api import (
    TRANSPORT_NAMES,
    NetworkStats,
    RpcError,
    RpcRemoteError,
    RpcRequest,
    RpcTimeout,
    RpcUnreachable,
    Transport,
    make_transport,
)
from repro.transport.endpoint import Endpoint

__all__ = [
    "AsyncioTransport",
    "Endpoint",
    "NetworkStats",
    "RpcError",
    "RpcRemoteError",
    "RpcRequest",
    "RpcTimeout",
    "RpcUnreachable",
    "SimTransport",
    "TRANSPORT_NAMES",
    "Transport",
    "make_transport",
]


def __getattr__(name):
    # The concrete transports import the sim package; loading them lazily
    # keeps `import repro.transport` cheap and cycle-free from any direction.
    if name == "SimTransport":
        from repro.transport.sim_transport import SimTransport

        return SimTransport
    if name == "AsyncioTransport":
        from repro.transport.asyncio_transport import AsyncioTransport

        return AsyncioTransport
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
