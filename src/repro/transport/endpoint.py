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

from types import GeneratorType
from typing import Any, Callable, Optional, Set

from repro.sim.engine import Event, Process, ProcessKilled
from repro.transport.api import RpcRemoteError, RpcRequest


class _HandlerProcess(Process):
    """A generator RPC handler, run as a process of the handling endpoint.

    The handler's own generator is the process (no wrapper generator), and the
    process carries what its completion needs, so an RPC allocates no closure.
    """

    __slots__ = ("endpoint", "reply")


def _answer(process: _HandlerProcess) -> None:
    """Completion callback of a generator handler: disown it, then reply.

    One callback, so a finished handler's completion is one ready entry, or
    none when the engine runs it in place.
    """
    endpoint = process.endpoint
    endpoint._processes.discard(process)
    if not endpoint.alive:
        return  # a failed peer never answers
    if process.ok:
        process.reply(process.value, None)
    else:
        process.reply(None, RpcRemoteError(repr(process.value)))


class Endpoint:
    """A peer process attached to a transport's message plane."""

    def __init__(self, sim, network, address: str, rng=None):
        self.sim = sim
        self.network = network
        self.address = address
        self.rng = rng
        self.alive = True
        self._processes: Set[Process] = set()
        # Every owned process's first completion callback: a finished process
        # is called back with itself, so the set's own ``discard`` fits as is.
        self._disown = self._processes.discard
        # Registered handlers, plus each ``rpc_<method>`` attribute handler
        # from its first use on (resolved once, not per message).
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
        process = Process(self.sim, generator, (self.address, name), [self._disown])
        self._processes.add(process)
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

        The loop drives a generator action by hand (``send`` / ``throw``, and
        ``close`` on ``GeneratorExit``) rather than by ``yield from``: the
        engine sees the same events and an uncaught error still ends the
        process, but an action that catches a thrown exception and returns no
        longer unbalances a profiler's call / return events on CPython 3.11
        (``docs/ARCHITECTURE.md``, "Contract: the event engine").

        The sleep is one clock timer (``schedule_timer``, on either clock)
        that fires a plain event as its entry's last step, so under the
        engine's in-place rule the entry itself resumes the loop: no timeout
        object and no ready-queue hop.  A wakeup after :meth:`fail` is dropped
        by the process like any stale one.
        """
        adaptive = callable(period)
        # ``jitter * random()`` is the float ``uniform(0, jitter)`` returns.
        rng = self.rng if jitter > 0 else None

        def _loop():
            sim = self.sim
            delay = initial_delay
            if delay is None:
                delay = period() if adaptive else period
            if rng is not None:
                delay += jitter * rng.random()
            while True:
                event = Event(sim)  # nothing but the timer fires it
                sim.schedule_timer(delay, Event._trigger_last, event)
                yield event
                if not self.alive:
                    return
                result = action()
                if type(result) is GeneratorType:
                    reply = thrown = None
                    while True:
                        try:
                            if thrown is None:
                                event, reply = result.send(reply), None
                            else:
                                event, thrown = result.throw(thrown), None
                        except StopIteration:
                            break
                        try:
                            reply = yield event
                        except GeneratorExit:
                            result.close()
                            raise
                        except BaseException as error:  # noqa: BLE001 - forwarded
                            thrown = error
                    # Hold nothing of the round across the sleep.
                    result = event = reply = thrown = None
                delay = period() if adaptive else period
                if rng is not None:
                    delay += jitter * rng.random()

        label = name or ("every-adaptive" if adaptive else f"every-{period}s")
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
        method = request.method
        handler = self._handlers.get(method)
        if handler is None:
            handler = self._attribute_handler(method)
            if handler is None:
                return True
        try:
            outcome = handler(request.payload, request)
        except Exception:
            return True
        if type(outcome) is not GeneratorType:
            return True
        process = Process(self.sim, outcome, (self.address, "cast", method), [self._disown])
        self._processes.add(process)
        return False

    def _handle_rpc(
        self,
        request: RpcRequest,
        reply: Callable[[Any, Optional[BaseException]], None],
    ) -> None:
        """Dispatch an incoming request to its handler and send the reply."""
        method = request.method
        handler = self._handlers.get(method)
        if handler is None:
            handler = self._attribute_handler(method)
            if handler is None:
                reply(None, RpcRemoteError(f"{self.address} has no handler for {method!r}"))
                return
        try:
            outcome = handler(request.payload, request)
        except Exception as error:  # handler bug or protocol rejection
            reply(None, RpcRemoteError(repr(error)))
            return
        if type(outcome) is not GeneratorType:
            reply(outcome, None)
            return
        process = _HandlerProcess(
            self.sim, outcome, (self.address, "rpc", method), [_answer]
        )
        process.endpoint = self
        process.reply = reply
        self._processes.add(process)

    def _attribute_handler(self, method: str) -> Optional[Callable[..., Any]]:
        """Resolve the ``rpc_<method>`` attribute handler, once per method.

        A found handler is kept beside the registered ones (a later
        :meth:`register_handler` still replaces it); a miss is not, so a
        handler attached later is found.
        """
        handler = getattr(self, f"rpc_{method}", None)
        if handler is not None:
            self._handlers[method] = handler
        return handler

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
