"""The transport contract: what protocol layers may assume about messaging.

The P-Ring protocol layers (``ring/``, ``core/``, ``datastore/``,
``replication/``, ``router/``) are written against *this* contract, never
against a concrete substrate.  A transport supplies three cooperating
objects:

``clock``
    The event engine the protocol coroutines run on: a
    :class:`~repro.sim.engine.Simulator` on both transports, with its
    surface -- ``now``, ``event()``, ``timeout(delay)``,
    ``process(generator)``, ``any_of``/``all_of``,
    ``schedule_timer``/``cancel_timer``, ``run(until)``,
    ``run_until(event, timeout)``, ``run_process(generator)`` and the
    ``events_processed`` counter.  On ``sim`` it jumps from entry to entry
    in simulated time; on ``asyncio`` the same engine
    (:class:`~repro.transport.asyncio_transport.AsyncioClock`) is paced by
    wall time, so ``run(until)`` / ``run_until`` take real seconds.
    Protocol code cannot tell the difference: it yields the same events,
    through the same engine code, either way.

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
  matrix of representative cells.
* ``asyncio`` -- protocol decisions are seeded but message timing is real;
  only *converged end states* (membership, stored items, reachability) are
  comparable across runs, which is exactly what the ``localhost_*`` fidelity
  cells assert.  ``clock.now`` is the wall time of the action being run (the
  time the engine last caught up to), not a live read of the wall clock.

This module imports no substrate at load time (:func:`make_transport`
imports the one it builds): it also hosts the RPC exception hierarchy, the
request record and the stats counters that both substrates share, so
protocol layers import them from here (or from :mod:`repro.transport`)
instead of from ``repro.sim.network``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, NamedTuple


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


class Transport(NamedTuple):
    """One execution substrate for a deployment: clock + message plane + RNG.

    Built by :func:`make_transport`; the composition root
    (:class:`~repro.index.pring.PRingIndex`) builds exactly one per
    deployment and wires every endpoint to it.  See the module docstring for
    the surface ``clock`` and ``network`` provide.
    """

    #: Registry name of the substrate ("sim" or "asyncio").
    name: str
    clock: Any
    network: Any
    rngs: Any
    #: Release substrate resources (sockets, the loop).  Idempotent.
    shutdown: Callable[[], None]


# --------------------------------------------------------------------------- selection
#: The selectable transports.  ``sim`` is the discrete-event
#: :class:`~repro.sim.network.Network`/engine pair; ``asyncio`` runs the same
#: engine paced by wall time, over real UDP sockets on localhost.
TRANSPORT_NAMES = ("sim", "asyncio")


def make_transport(config, metrics=None) -> Transport:
    """Build the transport selected by ``config.transport``.

    Both substrates are built in one order -- the clock, then the seeded
    streams, then the message plane drawing the ``"network"`` stream -- the
    order the simulated stack's RNG draws (and so every frozen baseline)
    depend on.  Unknown names raise :class:`ValueError`.
    """
    name = getattr(config, "transport", "sim")
    # Deferred imports: the substrates import the sim package.
    from repro.sim.randomness import RngStreams

    if name == "sim":
        from repro.sim.engine import make_simulator
        from repro.sim.network import Network

        clock = make_simulator()
        rngs = RngStreams(config.seed)
        network = Network(clock, rngs.stream("network"), config.network, metrics=metrics)
        return Transport(name, clock, network, rngs, lambda: None)
    if name == "asyncio":
        from repro.transport.asyncio_transport import AsyncioClock, AsyncioNetwork

        clock = AsyncioClock()
        rngs = RngStreams(config.seed)
        network = AsyncioNetwork(clock, rngs.stream("network"), config.network, metrics=metrics)

        def shutdown() -> None:
            network.close()
            clock.close()

        return Transport(name, clock, network, rngs, shutdown)
    raise ValueError(
        f"unknown transport {name!r}; known: {', '.join(TRANSPORT_NAMES)}"
    )
