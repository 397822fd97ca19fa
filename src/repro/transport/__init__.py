"""Pluggable execution substrates for the P-Ring protocol layers.

The protocols (ring membership, data-store splits/merges, replication,
routing, range queries) are written against the transport contract in
:mod:`repro.transport.api` -- ``call``/``cast`` messaging, periodic loops,
clock and RNG access, peer addressing -- never against a concrete substrate.
:func:`make_transport` builds one of two, both on the one event engine
(:class:`~repro.sim.engine.Simulator`):

* ``sim`` -- the seeded discrete-event simulator and its simulated network.
  Deterministic; the default.
* ``asyncio`` -- the engine paced by wall time
  (:class:`~repro.transport.asyncio_transport.AsyncioClock`) over real UDP
  sockets on localhost.  The same generators, in real time; used by the
  ``localhost_*`` fidelity cells.

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
    "Endpoint",
    "NetworkStats",
    "RpcError",
    "RpcRemoteError",
    "RpcRequest",
    "RpcTimeout",
    "RpcUnreachable",
    "TRANSPORT_NAMES",
    "Transport",
    "make_transport",
]

