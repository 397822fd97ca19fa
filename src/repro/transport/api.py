"""The transport contract: what protocol layers may assume about messaging.

The P-Ring protocol layers (``ring/``, ``core/``, ``datastore/``,
``replication/``, ``router/``) are written against *this* contract, never
against a concrete substrate.  A transport supplies three cooperating
objects:

``clock``
    The scheduler/clock the protocol coroutines run on.  Its surface is the
    engine contract of :mod:`repro.sim.engine`: ``now``, ``event()``,
    ``timeout(delay)``, ``process(generator)``, ``any_of``/``all_of``,
    ``schedule_timer``/``cancel_timer``, ``run(until)``,
    ``run_until(event, timeout)``, ``run_process(generator)`` and the
    ``events_processed`` counter.  The discrete-event engine implements it
    in simulated time; the asyncio transport implements it in real
    wall-clock time on an asyncio loop.  Protocol code cannot tell the
    difference: it yields the same events either way.

``network``
    The message plane.  The surface protocol layers use:

    * ``call(source, destination, method, payload, timeout)`` -- request/
      reply RPC returning an event that succeeds with the handler's return
      value or fails with an :class:`RpcError` subclass (a dead, missing or
      silent destination surfaces as :class:`RpcTimeout`);
    * ``cast(source, destination, method, payload)`` -- fire-and-forget
      one-way message (no reply, no timer; a dead destination swallows it);
    * ``register(endpoint)`` -- peer addressing, the only one: endpoints are
      addressable by an opaque string address;
    * ``stats`` -- a :class:`NetworkStats` with per-method call counters;
    * ``config`` -- the :class:`~repro.sim.network.NetworkConfig` in force
      (``rpc_timeout`` is honoured by every transport; latency/loss fields
      are simulation-only and ignored where the real network provides them).

``rngs``
    The seeded :class:`~repro.sim.randomness.RngStreams` of the deployment.
    All protocol randomness (jitter, shuffles) flows through named streams,
    which is what makes sim runs reproducible; the asyncio transport reuses
    the same streams so protocol-level decisions stay seeded even when
    message timing is real.

Determinism guarantees per transport:

* ``sim`` -- fully deterministic: one seed, one event trace.  The frozen-seed
  parity suite (``tests/test_transport_parity.py``) pins the end-state
  matrix of representative cells, so the adapter is provably a no-op.
* ``asyncio`` -- protocol decisions are seeded but message timing is real;
  only *converged end states* (membership, stored items, reachability) are
  comparable across runs, which is exactly what the ``localhost_*`` fidelity
  cells assert.

This module is dependency-free (stdlib only): it also hosts the RPC
exception hierarchy, the request record and the stats counters that both
substrates share, so protocol layers import them from here (or from
:mod:`repro.transport`) instead of from ``repro.sim.network``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict


class RpcError(Exception):
    """Base class for RPC failures observed by callers."""


class RpcTimeout(RpcError):
    """The callee did not answer within the RPC timeout.

    Seen when the callee has failed, left the system, or the request/reply was
    dropped by the network.
    """


class RpcUnreachable(RpcError):
    """The destination address was never registered with the network."""


class RpcRemoteError(RpcError):
    """The remote handler raised an exception; its repr is carried along."""


@dataclass(slots=True)
class RpcRequest:
    """A request in flight.  Exposed to handlers for tracing/diagnostics.

    Request records may be recycled once the reply has been transmitted (or
    the destination turned out to be dead), so handlers must not retain one
    past their own execution.
    """

    source: str
    destination: str
    method: str
    payload: Any
    request_id: int


@dataclass
class NetworkStats:
    """Counters kept by every transport's message plane.

    ``delivery_batches`` counts the engine entries the simulated network
    queued to deliver messages: one per message under a sampled latency model
    (uniform, lan_wan), one per distinct delivery instant under
    ``ConstantLatency``, where same-instant messages share an entry.  The
    asyncio network delivers through sockets and leaves it at zero.
    """

    messages_sent: int = 0
    messages_dropped: int = 0
    rpc_calls: int = 0
    rpc_timeouts: int = 0
    delivery_batches: int = 0
    per_method: Dict[str, int] = field(default_factory=dict)
    # RPCs per originating site (only populated under a LanWanLatency model).
    per_site_rpcs: Dict[str, int] = field(default_factory=dict)

    def record_call(self, method: str) -> None:
        self.rpc_calls += 1
        self.per_method[method] = self.per_method.get(method, 0) + 1


class Transport:
    """One execution substrate for a deployment: clock + message plane + RNG.

    Concrete transports populate ``clock``, ``network`` and ``rngs`` in their
    constructor (see the module docstring for the surface each must provide)
    and identify themselves through ``name``.  The composition root
    (:class:`~repro.index.pring.PRingIndex`) builds exactly one transport per
    deployment via :func:`make_transport` and wires every endpoint to it.
    """

    #: Registry name of the transport implementation ("sim" or "asyncio").
    name = "abstract"

    clock: Any
    network: Any
    rngs: Any

    def shutdown(self) -> None:
        """Release substrate resources (sockets, loops).  Idempotent."""


# --------------------------------------------------------------------------- selection
#: The selectable transport implementations.  ``sim`` adapts the existing
#: discrete-event :class:`~repro.sim.network.Network`/engine pair (bit-
#: identical to the pre-transport stack); ``asyncio`` runs the same protocol
#: code over real UDP sockets on localhost with wall-clock periods.
TRANSPORT_NAMES = ("sim", "asyncio")


def make_transport(config, metrics=None) -> Transport:
    """Build the transport selected by ``config.transport``.

    Unknown names raise :class:`ValueError`.
    """
    name = getattr(config, "transport", "sim")
    if name == "sim":
        from repro.transport.sim_transport import SimTransport  # deferred: imports sim

        return SimTransport(config, metrics=metrics)
    if name == "asyncio":
        from repro.transport.asyncio_transport import AsyncioTransport

        return AsyncioTransport(config, metrics=metrics)
    raise ValueError(
        f"unknown transport {name!r}; known: {', '.join(TRANSPORT_NAMES)}"
    )
