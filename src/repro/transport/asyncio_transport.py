"""The real-network transport: wall-clock time and UDP sockets on localhost.

The protocol layers are generators yielding :class:`~repro.sim.engine.Event`
objects, and nothing about that machinery is inherently simulated: an event
is just a one-shot callback registry, and a :class:`~repro.sim.engine.Process`
only ever touches its clock through ``sim._ready`` (appending its resume, or
finding it empty and resuming in place -- the engine's in-place rule) and
factory methods.  :class:`AsyncioClock` exploits that: it presents the
engine surface (``now``/``event``/``timeout``/``process``/``any_of``/
``schedule_timer``/``run``/``run_until``) backed by a real asyncio loop --
``now`` is wall-clock seconds since construction, ``timeout`` arms
``loop.call_later``, and the ready queue is a deque that wakes a pump
callback whenever protocol work is appended.  The exact same generator code
that runs in simulated time therefore runs in real time, unmodified.

:class:`AsyncioNetwork` replaces the simulated message plane with per-peer
UDP sockets bound to ``127.0.0.1:<ephemeral>``.  Messages are JSON datagrams
framed by :mod:`repro.transport.codec`.  Failure semantics mirror the
simulator exactly: a dead or unknown destination never answers and the caller
observes an :class:`~repro.transport.api.RpcTimeout`; a handler exception
travels back as an :class:`~repro.transport.api.RpcRemoteError`; casts are
fire-and-forget.  Latency comes from the real loopback path (the config's
latency model is ignored); ``drop_probability`` is still honoured so loss
experiments remain runnable against real sockets.

Sockets are registered with ``loop.add_reader`` rather than
``create_datagram_endpoint`` deliberately: peers join *mid-run* from inside
protocol callbacks (a split recruits a free peer while the loop is running),
and ``add_reader`` is a plain synchronous call that works from any context.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Any, Callable, Dict, Optional

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Event,
    Process,
    ProcessGenerator,
    SimulationError,
)
from repro.sim.network import NetworkConfig
from repro.sim.randomness import RngStreams
from repro.transport.api import (
    NetworkStats,
    RpcRemoteError,
    RpcRequest,
    RpcTimeout,
    Transport,
)
from repro.transport.codec import decode_message, encode_message

# Payloads ride single UDP datagrams; localhost accepts up to ~64 KiB.  The
# protocols' largest messages (split item transfers) are far below this, but
# fail loudly rather than truncate if an experiment ever exceeds it.
_MAX_DATAGRAM = 60000


class _WakingReady:
    """The clock's ready queue: a FIFO that wakes the pump on ``append``.

    :class:`~repro.sim.engine.Event` and :class:`~repro.sim.engine.Process`
    push resume work via ``sim._ready.append`` (and test it for emptiness
    before running a step in place); under the discrete-event
    engine the run loop polls the deque, but an asyncio loop must be *told*
    there is work.  Appending schedules the clock's pump with
    ``loop.call_soon`` (coalesced while one is already pending).
    """

    __slots__ = ("_items", "_wake")

    def __init__(self, wake: Callable[[], None]):
        from collections import deque

        self._items = deque()
        self._wake = wake

    def append(self, item) -> None:
        self._items.append(item)
        self._wake()

    def popleft(self):
        return self._items.popleft()

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)


class AsyncioClock:
    """The engine surface in real time, over an asyncio event loop.

    ``now`` is wall-clock seconds since the clock was built (``loop.time``
    rebased to zero, so scenario durations read the same as simulated ones).
    ``events_processed`` counts protocol actions pumped through the ready
    queue plus fired timers -- the same notion the simulated engine reports.
    """

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None):
        self.loop = loop if loop is not None else asyncio.new_event_loop()
        self._start = self.loop.time()
        self._ready = _WakingReady(self._wake)
        self._pump_pending = False
        self.events_processed = 0

    # -- time --------------------------------------------------------------
    @property
    def now(self) -> float:
        """Wall-clock seconds since the clock was created."""
        return self.loop.time() - self._start

    # -- ready-queue pump --------------------------------------------------
    def _wake(self) -> None:
        if not self._pump_pending:
            self._pump_pending = True
            self.loop.call_soon(self._pump)

    def _pump(self) -> None:
        self._pump_pending = False
        ready = self._ready
        processed = 0
        while ready:
            func, arg = ready.popleft()
            processed += 1
            func(arg)
        self.events_processed += processed

    # -- factories ---------------------------------------------------------
    def event(self) -> Event:
        """Create an untriggered :class:`Event` bound to this clock."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event firing ``delay`` *wall-clock* seconds from now.

        Returns a plain :class:`Event` completed by ``loop.call_later``
        (:class:`~repro.sim.engine.Timeout` is simulator-specific: its
        constructor pushes directly into the simulator's time queue).
        """
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        result = Event(self)

        def _fire() -> None:
            self.events_processed += 1
            result.succeed(value)

        self.loop.call_later(delay, _fire)
        return result

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start ``generator`` as a :class:`Process` driven by this clock."""
        return Process(self, generator, name=name)

    def any_of(self, events) -> AnyOf:
        """Condition firing when the first of ``events`` fires."""
        return AnyOf(self, events)

    def all_of(self, events) -> AllOf:
        """Condition firing when all ``events`` have fired."""
        return AllOf(self, events)

    # -- timers ------------------------------------------------------------
    # Same contract as the engine's schedule_timer/cancel_timer: cancelling
    # returns the argument, or None if the timer already fired or was cancelled.
    def schedule_timer(self, delay: float, func: Callable[[Any], None], arg: Any = None) -> list:
        """Run ``func(arg)`` after ``delay`` wall-clock seconds; returns a handle."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        record = [None, func, arg]

        def _fire() -> None:
            fn, argument = record[1], record[2]
            record[0] = record[1] = record[2] = None
            if fn is not None:
                self.events_processed += 1
                fn(argument)

        record[0] = self.loop.call_later(delay, _fire)
        return record

    def cancel_timer(self, record: Optional[list]) -> Any:
        """Cancel a pending timer; returns its argument, or ``None`` if fired."""
        if record is None or record[1] is None:
            return None
        handle, arg = record[0], record[2]
        record[0] = record[1] = record[2] = None
        if handle is not None:
            handle.cancel()
        return arg

    # ``schedule``/``schedule_at`` complete the engine surface for callers
    # that schedule plain actions (the simulated network's batching does; no
    # protocol layer does, but the surface stays uniform).
    def schedule(self, delay: float, func: Callable[[Any], None], arg: Any = None) -> list:
        return self.schedule_timer(delay, func, arg)

    def schedule_at(self, time: float, func: Callable[[Any], None], arg: Any = None) -> list:
        return self.schedule_timer(max(0.0, time - self.now), func, arg)

    # -- execution ---------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run the loop until wall-clock ``now`` reaches ``until``.

        Unlike the simulated engine there is no "queue exhausted" stop: real
        time always advances, so ``until`` is required.
        """
        if until is None:
            raise SimulationError("AsyncioClock.run requires an explicit 'until' time")
        remaining = until - self.now
        self.loop.run_until_complete(asyncio.sleep(max(0.0, remaining)))
        return self.now

    def run_until(self, event: Event, timeout: float = 1e9) -> bool:
        """Run the loop until ``event`` triggers or ``timeout`` real seconds pass."""
        if event.triggered:
            return True
        future = self.loop.create_future()

        def _on_trigger(_event: Event) -> None:
            if not future.done():
                future.set_result(True)

        event._add_callback(_on_trigger)

        async def _wait() -> None:
            try:
                await asyncio.wait_for(asyncio.shield(future), timeout=timeout)
            except asyncio.TimeoutError:
                pass

        self.loop.run_until_complete(_wait())
        return event.triggered

    def run_process(self, generator: ProcessGenerator, timeout: float = 1e9) -> Any:
        """Run ``generator`` to completion in real time and return its value."""
        proc = self.process(generator)
        self.run_until(proc, timeout=timeout)
        if not proc.triggered:
            raise SimulationError("process did not finish within the timeout")
        if not proc.ok:
            raise proc.value
        return proc.value

    def close(self) -> None:
        """Close the underlying event loop.  Idempotent."""
        if not self.loop.is_closed():
            self.loop.close()


class AsyncioNetwork:
    """Message plane over per-peer UDP sockets on the loopback interface.

    Implements the contract of :mod:`repro.transport.api`: ``call``/``cast``
    with the simulator's failure semantics, ``register``/``unregister``
    addressing, shared :class:`NetworkStats` and live-read
    ``drop_probability``.  Logical peer addresses (``peer017``) map
    to UDP ports through an in-process registry -- the deployments this
    transport targets are single-host cells, so no external name service is
    needed.
    """

    def __init__(
        self,
        clock: AsyncioClock,
        rng,
        config: Optional[NetworkConfig] = None,
        metrics=None,
    ):
        self.sim = clock
        self.clock = clock
        self.rng = rng
        self.metrics = metrics
        self.config = config or NetworkConfig()
        self.config.validate()
        self.stats = NetworkStats()
        self._nodes: Dict[str, Any] = {}
        self._socks: Dict[str, socket.socket] = {}
        self._ports: Dict[str, int] = {}
        self._next_request_id = 0
        # request_id -> [result event, timer handle, method, destination]
        self._pending: Dict[int, list] = {}
        self._closed = False
        # Optional RPC observer with the same contract as the simulated
        # network's: ``rpc_issued`` on every call, ``rpc_completed`` exactly
        # once per call (reply or expiry -- whichever pops the pending
        # record).  Casts are not observed.
        self.observer = None

    # -- membership --------------------------------------------------------
    def register(self, node) -> None:
        """Attach ``node``: bind a loopback UDP socket and start reading it."""
        if self._closed:
            raise RuntimeError("network is closed")
        address = node.address
        self._nodes[address] = node
        if address in self._socks:
            return  # re-registration keeps the existing socket
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.setblocking(False)
        sock.bind(("127.0.0.1", 0))
        self._socks[address] = sock
        self._ports[address] = sock.getsockname()[1]
        self.clock.loop.add_reader(sock.fileno(), self._on_readable, address, sock)

    def unregister(self, address: str) -> None:
        """Detach the node at ``address`` (it becomes unreachable)."""
        self._nodes.pop(address, None)
        sock = self._socks.pop(address, None)
        self._ports.pop(address, None)
        if sock is not None:
            self.clock.loop.remove_reader(sock.fileno())
            sock.close()

    def node(self, address: str):
        """Return the node registered at ``address``, if any."""
        return self._nodes.get(address)

    def known_addresses(self) -> list[str]:
        """Addresses of all registered nodes (dead or alive)."""
        return list(self._nodes)

    # -- config ------------------------------------------------------------
    def _dropped(self) -> bool:
        prob = self.config.drop_probability
        return prob > 0 and self.rng.random() < prob

    # -- RPC ----------------------------------------------------------------
    def call(
        self,
        source: str,
        destination: str,
        method: str,
        payload: Any = None,
        timeout: Optional[float] = None,
    ) -> Event:
        """Issue an RPC over UDP; returns the event carrying the reply.

        The event succeeds with the handler's return value or fails with an
        :class:`RpcError` subclass; an unreachable, dead or silent destination
        surfaces as :class:`RpcTimeout` after ``timeout`` real seconds.
        """
        timeout = self.config.rpc_timeout if timeout is None else timeout
        result = self.clock.event()
        self.stats.record_call(method)
        self._next_request_id += 1
        request_id = self._next_request_id
        pending = [result, None, method, destination]
        pending[1] = self.clock.schedule_timer(timeout, self._expire, request_id)
        self._pending[request_id] = pending
        if self.observer is not None:
            self.observer.rpc_issued(source, destination, method)
        self._send(
            source,
            destination,
            {
                "k": "q",
                "id": request_id,
                "s": source,
                "d": destination,
                "m": method,
                "p": payload,
            },
        )
        return result

    def cast(self, source: str, destination: str, method: str, payload: Any = None) -> None:
        """Send a one-way message: no reply event, no expiry timer, no reply."""
        self.stats.record_call(method)
        self._next_request_id += 1
        self._send(
            source,
            destination,
            {
                "k": "c",
                "id": self._next_request_id,
                "s": source,
                "d": destination,
                "m": method,
                "p": payload,
            },
        )

    # -- internals ----------------------------------------------------------
    def _send(self, via: str, destination: str, message: dict) -> None:
        """Encode and transmit one datagram from ``via``'s socket.

        An unknown destination is not an error: exactly like the simulator,
        the message evaporates and any caller observes a timeout.
        """
        self.stats.messages_sent += 1
        if self._dropped():
            self.stats.messages_dropped += 1
            return
        port = self._ports.get(destination)
        sock = self._socks.get(via)
        if port is None or sock is None:
            return
        data = encode_message(message)
        if len(data) > _MAX_DATAGRAM:
            raise ValueError(
                f"datagram for {message['m']!r} is {len(data)} bytes; "
                f"exceeds the {_MAX_DATAGRAM}-byte UDP budget"
            )
        try:
            sock.sendto(data, ("127.0.0.1", port))
        except OSError:
            # A burst overflowing the socket buffer behaves like loss: the
            # protocols already tolerate dropped messages.
            self.stats.messages_dropped += 1

    def _expire(self, request_id: int) -> None:
        pending = self._pending.pop(request_id, None)
        if pending is None:
            return
        result, _timer, method, destination = pending
        if self.observer is not None:
            self.observer.rpc_completed(destination)
        if not result.triggered:
            self.stats.rpc_timeouts += 1
            result.fail(RpcTimeout(f"{method} -> {destination} timed out"))

    def _on_readable(self, address: str, sock: socket.socket) -> None:
        """Drain every datagram queued on ``address``'s socket."""
        while True:
            try:
                data, origin = sock.recvfrom(65536)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return  # socket closed under us during shutdown
            try:
                message = decode_message(data)
            except (ValueError, UnicodeDecodeError):
                self.stats.messages_dropped += 1
                continue
            kind = message.get("k")
            if kind == "r":
                self._on_reply(message)
            elif kind in ("q", "c"):
                self._on_request(address, message, kind)

    def _on_request(self, address: str, message: dict, kind: str) -> None:
        node = self._nodes.get(address)
        if node is None or not node.alive:
            # A dead peer never answers; the caller times out (sim semantics).
            return
        request = RpcRequest(
            source=message["s"],
            destination=message["d"],
            method=message["m"],
            payload=message["p"],
            request_id=message["id"],
        )
        if kind == "c":
            node._handle_cast(request)
            return
        request_id = message["id"]
        source = message["s"]

        def _reply(value: Any, error: Optional[BaseException]) -> None:
            reply: dict = {"k": "r", "id": request_id}
            if error is None:
                reply["v"] = value
            else:
                reply["e"] = repr(error)
            self._send(address, source, reply)

        node._handle_rpc(request, _reply)

    def _on_reply(self, message: dict) -> None:
        pending = self._pending.pop(message["id"], None)
        if pending is None:
            return  # the expiry timer already fired (late reply)
        result, timer, _method, destination = pending
        self.clock.cancel_timer(timer)
        if self.observer is not None:
            self.observer.rpc_completed(destination)
        if result.triggered:
            return
        if "e" in message:
            result.fail(RpcRemoteError(message["e"]))
        else:
            result.succeed(message.get("v"))

    def close(self) -> None:
        """Tear down every socket and reader.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for sock in self._socks.values():
            try:
                self.clock.loop.remove_reader(sock.fileno())
            except (ValueError, OSError):
                pass
            sock.close()
        self._socks.clear()
        self._ports.clear()
        self._nodes.clear()
        self._pending.clear()


class AsyncioTransport(Transport):
    """Clock = wall time on an asyncio loop; message plane = loopback UDP."""

    name = "asyncio"

    def __init__(self, config, metrics=None):
        self.loop = asyncio.new_event_loop()
        self.clock = AsyncioClock(self.loop)
        self.rngs = RngStreams(config.seed)
        self.network = AsyncioNetwork(
            self.clock, self.rngs.stream("network"), config.network, metrics=metrics
        )

    def shutdown(self) -> None:
        """Close every socket and the event loop.  Idempotent."""
        self.network.close()
        if not self.loop.is_closed():
            self.loop.close()
