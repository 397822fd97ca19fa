"""Base class for protocol peers, independent of the execution substrate.

An :class:`Endpoint` owns:

* an address on the transport's message plane;
* a set of running :class:`~repro.sim.engine.Process` objects (RPC handlers,
  periodic maintenance loops) that are interrupted when the peer fails;
* the RPC dispatch machinery: a request for method ``m`` is dispatched to the
  instance method ``rpc_m(payload, request)``, which may either return a value
  directly or be a generator (in which case it runs as a process and the reply
  is sent when it finishes).

The ring, data store, replication and index layers all subclass or compose
endpoints; peer failure (`fail`), graceful departure (`depart`) and the
fail-stop model from Section 2.1 are implemented here.

This class is substrate-agnostic: ``sim`` is any clock satisfying the engine
contract (a discrete-event :class:`~repro.sim.engine.Simulator` or the
real-time :class:`~repro.transport.asyncio_transport.AsyncioClock`) and
``network`` is any message plane satisfying the contract in
:mod:`repro.transport.api`.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Optional, Set

from repro.sim.engine import Event, Process, ProcessKilled
from repro.transport.api import RpcRemoteError, RpcRequest


class Endpoint:
    """A peer process attached to a transport's message plane."""

    def __init__(self, sim, network, address: str, rng=None):
        self.sim = sim
        self.network = network
        self.address = address
        self.rng = rng
        self.alive = True
        self._processes: Set[Process] = set()
        self._handlers: dict[str, Callable[..., Any]] = {}
        network.register(self)

    # -- handler registration ---------------------------------------------------
    def register_handler(self, method: str, handler: Callable[..., Any]) -> None:
        """Register ``handler`` for RPC ``method``.

        Components composed into a peer (ring, data store, replication manager,
        router) use this to expose their message handlers without subclassing
        the endpoint.  A registered handler takes precedence over an
        ``rpc_<method>`` instance method.
        """
        self._handlers[method] = handler

    # -- identity ------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "alive" if self.alive else "dead"
        return f"<{type(self).__name__} {self.address} {status}>"

    # -- process management ---------------------------------------------------
    def spawn(self, generator, name: str = "") -> Process:
        """Run ``generator`` as a process owned by this endpoint.

        Owned processes are interrupted when the peer fails, which models the
        fail-stop semantics of Section 2.1: a failed peer performs no further
        steps of any protocol.
        """
        label = f"{self.address}:{name or getattr(generator, '__name__', 'proc')}"
        process = self.sim.process(generator, name=label)
        self._processes.add(process)
        process._add_callback(lambda _event: self._processes.discard(process))
        return process

    def every(
        self,
        period,
        action: Callable[[], Any],
        jitter: float = 0.0,
        initial_delay: Optional[float] = None,
        name: str = "",
    ) -> Process:
        """Run ``action`` every ``period`` seconds (plus uniform jitter).

        ``period`` is either a float (fixed cadence) or a zero-argument
        callable returning the delay before the *next* round -- that is how the
        adaptive maintenance controllers (:mod:`repro.maintenance.cadence`)
        drive the ring and replication loops without a second scheduling path.
        The callable is consulted after every round, so a controller that
        backs off or tightens takes effect on the very next sleep.

        ``action`` may be a plain callable or return a generator, in which case
        the periodic loop waits for it to complete before sleeping again --
        matching the paper's sequential stabilization rounds.
        """
        period_source = period if callable(period) else None

        def _next_period() -> float:
            return period_source() if period_source is not None else period

        def _loop():
            delay = _next_period() if initial_delay is None else initial_delay
            if self.rng is not None and jitter > 0:
                delay += self.rng.uniform(0, jitter)
            while True:
                yield self.sim.timeout(delay)
                if not self.alive:
                    return
                result = action()
                if inspect.isgenerator(result):
                    yield from result
                delay = _next_period()
                if self.rng is not None and jitter > 0:
                    delay += self.rng.uniform(0, jitter)

        label = name or (f"every-{period}s" if period_source is None else "every-adaptive")
        return self.spawn(_loop(), name=label)

    # -- RPC ------------------------------------------------------------------
    def call(
        self,
        destination: str,
        method: str,
        payload: Any = None,
        timeout: Optional[float] = None,
    ) -> Event:
        """Issue an RPC to ``destination``; yield the returned event."""
        return self.network.call(self.address, destination, method, payload, timeout)

    def cast(self, destination: str, method: str, payload: Any = None) -> None:
        """Send a one-way message to ``destination`` (no reply event, no timer).

        Use for fan-outs whose replies nobody reads; see
        :meth:`repro.sim.network.Network.cast`.
        """
        self.network.cast(self.address, destination, method, payload)

    def _handle_cast(self, request: RpcRequest) -> bool:
        """Dispatch a one-way message; the handler's result is discarded.

        Returns whether handling completed synchronously, in which case the
        network may recycle the request record immediately.  Handler errors
        are swallowed: with :meth:`call` they would travel back to the caller
        as an :class:`RpcRemoteError`, and a cast has no caller to tell.
        """
        handler = self._handlers.get(request.method)
        if handler is None:
            handler = getattr(self, f"rpc_{request.method}", None)
        if handler is None:
            return True
        try:
            outcome = handler(request.payload, request)
        except Exception:
            return True
        if not inspect.isgenerator(outcome):
            return True
        self.spawn(outcome, name=f"cast:{request.method}")
        return False

    def _handle_rpc(
        self,
        request: RpcRequest,
        reply: Callable[[Any, Optional[BaseException]], None],
    ) -> None:
        """Dispatch an incoming request to its handler and send the reply."""
        handler = self._handlers.get(request.method)
        if handler is None:
            handler = getattr(self, f"rpc_{request.method}", None)
        if handler is None:
            reply(None, RpcRemoteError(f"{self.address} has no handler for {request.method!r}"))
            return
        try:
            outcome = handler(request.payload, request)
        except Exception as error:  # handler bug or protocol rejection
            reply(None, RpcRemoteError(repr(error)))
            return
        if not inspect.isgenerator(outcome):
            reply(outcome, None)
            return

        def _run_handler():
            value = yield from outcome
            return value

        process = self.spawn(_run_handler(), name=f"rpc:{request.method}")

        def _on_done(event: Event) -> None:
            if not self.alive:
                return  # a failed peer never answers
            if event.ok:
                reply(event.value, None)
            else:
                reply(None, RpcRemoteError(repr(event.value)))

        process._add_callback(_on_done)

    # -- failure / departure ----------------------------------------------------
    def fail(self) -> None:
        """Fail-stop the peer: all of its running protocol steps cease."""
        if not self.alive:
            return
        self.alive = False
        for process in list(self._processes):
            process.interrupt(ProcessKilled(f"{self.address} failed"))
        self._processes.clear()
        self.on_failed()

    def depart(self) -> None:
        """Remove the peer after a *graceful* departure (protocols already ran)."""
        if not self.alive:
            return
        self.alive = False
        for process in list(self._processes):
            process.interrupt(ProcessKilled(f"{self.address} departed"))
        self._processes.clear()
        self.on_departed()

    # Subclass hooks -----------------------------------------------------------
    def on_failed(self) -> None:
        """Hook invoked after :meth:`fail`; subclasses may release resources."""

    def on_departed(self) -> None:
        """Hook invoked after :meth:`depart`."""
