"""The real-network transport: wall-clock time and UDP sockets on localhost.

:class:`AsyncioClock` *is* the discrete-event engine
(:class:`~repro.sim.engine.Simulator`), paced by wall time instead of
jumping from entry to entry: each time the asyncio loop wakes it -- at its
next heap entry's wall-clock instant, or when a datagram arrives -- it runs
the heap up to the seconds elapsed since it was built.  The exact same
generator code, events, timeouts and timers that run in simulated time
therefore run in real time, through the same engine code.

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
from typing import Any, Dict, Optional

from repro.sim.engine import Event, SimulationError, Simulator
from repro.sim.network import NetworkConfig
from repro.transport.api import NetworkStats, RpcRemoteError, RpcRequest, RpcTimeout
from repro.transport.codec import decode_message, encode_message

# Payloads ride single UDP datagrams; localhost accepts up to ~64 KiB.  The
# protocols' largest messages (split item transfers) are far below this, but
# fail loudly rather than truncate if an experiment ever exceeds it.
_MAX_DATAGRAM = 60000

# The fields each message kind carries, with their types: a request or cast
# ("q", "c") and a reply ("r", whose outcome is an optional "v" or "e").
_REQUEST_FIELDS = (("id", int), ("s", str), ("d", str), ("m", str), ("p", object))
_FIELDS = {"q": _REQUEST_FIELDS, "c": _REQUEST_FIELDS, "r": (("id", int),)}


def _well_formed(message: Any) -> bool:
    """Whether a decoded datagram is a message this network sends.

    Any local process can write to a peer's port, so a datagram is checked
    before a handler sees it.
    """
    if not isinstance(message, dict):
        return False
    kind = message.get("k")
    fields = _FIELDS.get(kind) if isinstance(kind, str) else None
    return fields is not None and all(
        name in message and isinstance(message[name], type_) for name, type_ in fields
    )


class AsyncioClock(Simulator):
    """The discrete-event engine, paced by the wall clock of an asyncio loop.

    Everything the engine does -- the ready queue and the in-place rule,
    :class:`~repro.sim.engine.Timeout`, timers with lazy cancel and
    compaction, ``events_processed`` -- is :class:`Simulator`'s own.  Only
    pacing is added: :meth:`_catch_up` runs the heap up to the wall-clock
    seconds since the clock was built and arms one ``loop.call_at`` for the
    next live entry.  :meth:`run` and :meth:`run_until` block on the loop in
    real time while those wake-ups (and the network's socket readers) drive
    the engine.  ``now`` is the wall time of the action being run.
    """

    def __init__(self):
        super().__init__()
        self.loop = asyncio.new_event_loop()
        self._start = self.loop.time()
        self._wakeup: Optional[asyncio.TimerHandle] = None

    def _catch_up(self, due: Optional[float] = None) -> None:
        """Run every entry due by the wall clock, then arm the next wake-up.

        ``due`` is the entry time the calling wake-up was armed for: the run
        reaches it even when the loop fires a wake-up a clock tick early.  A
        head entry earlier than the armed wake-up (a timer a datagram handler
        just set) gets a wake-up of its own.
        """
        if due is None:
            due = self._now
        else:
            self._wakeup = None  # this call is that wake-up
        Simulator.run(self, until=max(self.loop.time() - self._start, due, self._now))
        queue = self._queue
        if not queue:
            return
        # The run stopped at a live head entry: tombstones ahead of it are popped.
        head = queue[0][0]
        when = self._start + head
        if self._wakeup is not None:
            if self._wakeup.when() <= when:
                return
            self._wakeup.cancel()
        self._wakeup = self.loop.call_at(when, self._catch_up, head)

    def run(self, until: Optional[float] = None) -> float:
        """Run until the wall clock reaches ``until`` seconds.

        Real time never runs out of events, so ``until`` is required.
        """
        if until is None:
            raise SimulationError("AsyncioClock.run requires an explicit 'until' time")
        self._catch_up()
        remaining = until - (self.loop.time() - self._start)
        if remaining > 0:
            self.loop.run_until_complete(asyncio.sleep(remaining))
        self._catch_up()
        return self._now

    def run_until(self, event: Event, timeout: float = 1e9) -> bool:
        """Run until ``event`` triggers or ``timeout`` wall-clock seconds pass."""
        self._catch_up()
        if not event._triggered:
            fired = self.loop.create_future()
            event._add_callback(fired.set_result)
            self.loop.run_until_complete(asyncio.wait((fired,), timeout=timeout))
        return event._triggered

    def close(self) -> None:
        """Close the event loop.  Idempotent."""
        if not self.loop.is_closed():
            self.loop.close()


class AsyncioNetwork:
    """Message plane over per-peer UDP sockets on the loopback interface.

    Implements the contract of :mod:`repro.transport.api`: ``call``/``cast``
    with the simulator's failure semantics, ``register`` addressing, shared
    :class:`NetworkStats` and live-read ``drop_probability``.  Logical peer
    addresses (``peer017``) map to UDP ports through an in-process registry --
    the deployments this transport targets are single-host cells, so no
    external name service is needed.
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
        """Drain every datagram queued on ``address``'s socket.

        The clock catches up first, so handlers see the arrival's wall time,
        and again afterwards, to run the work the handlers made ready and arm
        a wake-up for any timer they set.  A datagram that does not decode to
        a well-formed message counts as dropped.
        """
        self.clock._catch_up()
        while True:
            try:
                data, _origin = sock.recvfrom(65536)
            except OSError:  # drained (BlockingIOError), or closed under us
                break
            try:
                message = decode_message(data)
            except (ValueError, UnicodeDecodeError, RecursionError):
                message = None
            if not _well_formed(message):
                self.stats.messages_dropped += 1
                continue
            if message["k"] == "r":
                self._on_reply(message)
            else:
                self._on_request(address, message)
        self.clock._catch_up()

    def _on_request(self, address: str, message: dict) -> None:
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
        if message["k"] == "c":
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
