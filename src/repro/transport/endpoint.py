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

This class is substrate-agnostic: ``sim`` is the event engine, a
:class:`~repro.sim.engine.Simulator` -- run in simulated time, or paced by
wall time as the :class:`~repro.transport.asyncio_transport.AsyncioClock` --
and ``network`` is any message plane satisfying the contract in
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


def _raise(error: BaseException):
    """A sleeping loop's ``_throw_into``: an interrupt between rounds ends it."""
    raise error


#: A sleeping loop's ``_waiting_on``: its wakeup is a timer entry, not an event.
#: An interrupt (or the loop's end) clears it, so a later wakeup is stale.
_ASLEEP = object()


class _PeriodicProcess(Process):
    """:meth:`Endpoint.every`'s loop: a process with no generator of its own.

    Its sleep is one clock timer whose entry calls :meth:`_wake`: no event and
    no suspended frame.  A round that is a generator becomes the process's
    current generator (``_send`` / ``_throw_into`` are rebound to it), so
    :meth:`Process._resume` drives it with no forwarding frame, and the round's
    return (:meth:`_returned`) arms the next sleep in the same action.
    Between rounds the process references no generator.
    """

    __slots__ = ("endpoint", "period", "action", "jitter", "initial_delay")

    def __init__(self, endpoint, period, action, jitter, initial_delay, label):
        # Inlined Event.__init__; the rest of Process.__init__ without a generator.
        sim = endpoint.sim
        self.sim = sim
        self.callbacks = [endpoint._disown]
        self._triggered = False
        self._ok = True
        self._value = None
        self.generator = None
        self._send = self._throw_into = _raise
        self._label = label
        self._waiting_on = None
        self._alive = True
        self.endpoint = endpoint
        self.period = period
        self.action = action
        self.jitter = jitter
        self.initial_delay = initial_delay
        sim._ready.append((_PeriodicProcess._start, self))

    def _start(self) -> None:
        self._sleep(self.initial_delay)

    def _sleep(self, delay: Optional[float] = None) -> None:
        """Arm the wakeup after ``delay``, or the period's next, plus jitter."""
        if delay is None:
            period = self.period
            delay = period() if callable(period) else period
        if self.jitter > 0:
            # ``jitter * random()`` is the float ``uniform(0, jitter)`` returns.
            delay += self.jitter * self.endpoint.rng.random()
        self._waiting_on = _ASLEEP
        self.sim.schedule_timer(delay, _PeriodicProcess._wake, self)

    def _wake(self) -> None:
        if self._waiting_on is not _ASLEEP:
            return  # stale: the loop was interrupted or has ended
        self._waiting_on = None
        if not self.endpoint.alive:
            self._finish(None)
            return
        try:
            round_ = self.action()
        except BaseException as stop:  # noqa: BLE001 - dispatched in _stop
            self._stop(stop)
            return
        if type(round_) is not GeneratorType:
            self._sleep()
            return
        self.generator = round_
        self._send = round_.send
        self._throw_into = round_.throw
        self._resume(None)

    def _returned(self, value: Any) -> None:
        """The round returned: drop it and arm the next sleep."""
        self.generator = None
        self._send = self._throw_into = _raise
        self._sleep()


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
        callable returning the delay before the *next* round -- that is how
        the router's table refresh is paced by its
        :class:`~repro.router.hierarchical.AdaptiveCadence` without a second
        scheduling path.  The callable is consulted after every round, so a
        controller that backs off or tightens takes effect on the very next
        sleep.

        ``action`` may be a plain callable or return a generator, in which case
        the periodic loop waits for it to complete before sleeping again --
        matching the paper's sequential stabilization rounds.

        The loop is a :class:`Process` with no generator of its own.  Its
        sleep is one clock timer (``schedule_timer``, on either clock) whose
        entry runs the next round itself: no event, no ready-queue hop and no
        frame suspended between rounds.  A generator round becomes the
        process's current generator, driven by the engine like any other (no
        ``yield from``, so a round that catches a thrown exception and returns
        leaves a profiler's call / return events balanced;
        ``docs/ARCHITECTURE.md``, "Contract: the event engine").  An interrupt
        reaches the round in flight; an uncaught error ends the process with
        that error, an uncaught interrupt ends it quietly, and a wakeup after
        :meth:`fail` is dropped.
        """
        label = name or ("every-adaptive" if callable(period) else f"every-{period}s")
        process = _PeriodicProcess(
            self, period, action, jitter, initial_delay, (self.address, label)
        )
        self._processes.add(process)
        return process

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

    # -- failure --------------------------------------------------------------
    def fail(self) -> None:
        """Fail-stop the peer: all of its running protocol steps cease."""
        if not self.alive:
            return
        self.alive = False
        for process in list(self._processes):
            process.interrupt(ProcessKilled(f"{self.address} failed"))
        self._processes.clear()
        self.on_failed()

    # Subclass hooks -----------------------------------------------------------
    def on_failed(self) -> None:
        """Hook invoked after :meth:`fail`; subclasses may release resources."""
