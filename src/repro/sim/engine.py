"""Generator-based discrete-event simulation engine.

The engine follows the classic "process interaction" style popularised by
SimPy, but is intentionally small and dependency free.  Protocol code is
written as plain Python generators that ``yield`` :class:`Event` objects; the
engine resumes a generator when the event it is waiting on triggers.

Design notes
------------
* Time is a float in *simulated seconds*.  All experiments in this repository
  interpret it as wall-clock seconds on the paper's LAN cluster.
* The event queue is a binary heap keyed on ``(time, sequence)`` so that events
  scheduled for the same instant fire in scheduling order (deterministic).
* Heap entries are mutable ``[time, seq, func, arg]`` records invoked as
  ``func(arg)``.  This avoids a closure allocation per scheduled action (the
  dominant cost of the original engine) and makes entries *cancellable*:
  :meth:`Simulator.cancel` tombstones an entry in place (lazy deletion) and the
  run loop skips it for free.
* **A reserved seq.**  A caller may take ``seq`` (``sim._sequence += 1``)
  now and push ``[time, seq, func, arg]`` later, as long as the run loop has
  not yet reached ``(time, seq)`` -- in the action that took the seq, or
  while the clock is short of ``time``: the entry then sorts exactly where an
  entry pushed at once would have.  The network's RPC expiries work this
  way, so an RPC answered in time never touches the heap for its expiry.
* When more than half of a large heap is tombstones the queue is compacted
  (filter + re-heapify), bounding memory under timeout-heavy workloads.
* **Memory.**  A run builds no reference cycles: what it drops, reference
  counting frees.  So :meth:`Simulator.run` and :meth:`Simulator.run_until`
  pause the cyclic collector (when it was on) and restore it on every exit,
  and the collector stops rescanning a large deployment's settled objects
  during a run.  A deployment dropped *between* runs is collected as usual.
  An interrupt that ends a process is stored without its traceback for this
  reason (the traceback's frame holds the process).
* Zero-delay work (event callbacks, process starts/resumes, interrupts) runs
  through a FIFO *ready queue* drained before the time-keyed heap is touched:
  same-instant causality is preserved at O(1) per action instead of an
  O(log n) heap round-trip.  Relative to the original engine this runs an
  event's callbacks before same-time heap entries that were scheduled earlier,
  which is an equally valid (and still deterministic) tie-break.
* **The in-place rule.**  An action whose last step would make exactly one
  action ready, while the ready queue is empty, runs that action in place:
  the run loop's next step would be to pop exactly that entry, so neither
  ``(time, seq)`` order nor the order of same-instant work can change.  A
  process that yields an already-fired event continues in the same action
  (:meth:`Process._resume`); an event triggered as an action's last step --
  a timeout's fire, a process's end, a sampled-latency RPC reply or expiry --
  calls its one waiter directly (:meth:`Event._trigger_last`).  A step
  run in place is part of the action that ran it, so it is not counted in
  ``events_processed``.  Anything else ready, or a second waiter, and the
  work queues as before.
* Processes can be interrupted (used to model peer failures): an
  :class:`Interrupt` exception is thrown into the generator at its current
  suspension point.
"""

from __future__ import annotations

import gc
import heapq
import os
from collections import deque
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple, Union

__all__ = [
    "AllOf",
    "AnyOf",
    "ENGINE_ENV_VAR",
    "Event",
    "Interrupt",
    "Process",
    "ProcessKilled",
    "SimulationError",
    "Simulator",
    "Timeout",
    "make_simulator",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation primitives."""


class Interrupt(Exception):
    """Thrown into a process that has been interrupted (e.g. its peer failed).

    The ``cause`` attribute carries an arbitrary, caller-supplied reason.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class ProcessKilled(Interrupt):
    """Interrupt variant used when a node fails and kills its processes."""


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *untriggered*.  Calling :meth:`succeed` or :meth:`fail`
    triggers it exactly once; the simulator then runs all registered callbacks
    at the current simulation time.  Waiting on an already triggered event
    resumes the waiter immediately (at the same timestamp).
    """

    __slots__ = ("sim", "callbacks", "_triggered", "_ok", "_value")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        # Lazily allocated: most events in a large deployment have exactly one
        # waiter and many (e.g. fire-and-forget RPC replies) have none.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = None
        self._triggered = False
        self._ok = True
        self._value: Any = None

    # -- inspection -------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether the event has already fired."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """Whether the event fired successfully (vs. with an exception)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The payload of a successful event, or the exception of a failure."""
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value`` as its payload."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = None
            ready = self.sim._ready
            for callback in callbacks:
                ready.append((callback, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with a failure; waiters have ``exception`` thrown in."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("Event.fail requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = None
            ready = self.sim._ready
            for callback in callbacks:
                ready.append((callback, self))
        return self

    def _trigger_last(self, ok: bool = True, value: Any = None) -> "Event":
        """Trigger the event as the last step of the running action.

        :meth:`succeed` / :meth:`fail` for a caller that does nothing after
        it: under the in-place rule a single waiter, with nothing else ready,
        is called here instead of queued behind an empty ready queue.
        """
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._ok = ok
        self._value = value
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = None
            ready = self.sim._ready
            if not ready and len(callbacks) == 1:
                callbacks[0](self)
            else:
                for callback in callbacks:
                    ready.append((callback, self))
        return self

    # -- plumbing ----------------------------------------------------------
    def _add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self._triggered:
            # Already fired: run the callback at the current time.
            self.sim._ready.append((callback, self))
        elif self.callbacks is None:
            self.callbacks = [callback]
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        return f"<{type(self).__name__} {state} at t={self.sim.now:.6f}>"


def _fire_timeout(timeout: "Timeout") -> None:
    timeout._trigger_last(True, timeout._pending)


class Timeout(Event):
    """An event that fires automatically after ``delay`` simulated seconds."""

    __slots__ = ("delay", "_pending")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Inlined Event.__init__ and sim.schedule: timeouts are the
        # most-allocated event kind.
        self.sim = sim
        self.callbacks = None
        self._triggered = False
        self._ok = True
        self._value = None
        self.delay = delay
        self._pending = value
        sim._sequence += 1
        # A timeout carrying no value (nearly all of them) needs no adapter
        # frame: the entry runs ``Event._trigger_last(timeout)`` itself.
        fire = Event._trigger_last if value is None else _fire_timeout
        heapq.heappush(sim._queue, [sim._now + delay, sim._sequence, fire, self])


class AnyOf(Event):
    """Fires when the *first* of the given events fires.

    The payload is a ``(index, value)`` tuple identifying which event won.  If
    the winning event failed, this condition fails with the same exception.
    """

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        if not self.events:
            raise SimulationError("AnyOf requires at least one event")
        for index, event in enumerate(self.events):
            event._add_callback(self._make_callback(index))

    def _make_callback(self, index: int) -> Callable[[Event], None]:
        def _on_trigger(event: Event) -> None:
            if self._triggered:
                return
            if event.ok:
                self.succeed((index, event.value))
            else:
                self.fail(event.value)

        return _on_trigger


class AllOf(Event):
    """Fires when *all* of the given events have fired successfully.

    The payload is the list of event values in the original order.  The first
    failing event fails the condition.
    """

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._remaining = len(self.events)
        if not self.events:
            self.succeed([])
            return
        for event in self.events:
            event._add_callback(self._on_trigger)

    def _on_trigger(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([child.value for child in self.events])


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running generator.  Also an event that fires when the generator ends.

    The generator yields :class:`Event` objects.  When a yielded event fires,
    the generator is resumed with the event's value (or has the event's
    exception thrown into it).  The value returned by the generator becomes the
    process event's payload, so processes can be composed by yielding other
    processes.
    """

    __slots__ = ("generator", "_label", "_waiting_on", "_alive", "_send", "_throw_into")

    def __init__(
        self,
        sim: "Simulator",
        generator: ProcessGenerator,
        name: Union[str, Tuple[str, ...]] = "",
        callbacks: Optional[List[Callable[[Event], None]]] = None,
    ):
        """Start ``generator`` at the current time.

        ``name`` is a string or a tuple of label parts; :attr:`name` joins it
        on demand, so starting a process formats nothing.  ``callbacks`` are
        the process's first completion callbacks, in order (what
        ``_add_callback`` would append, without the calls).
        """
        # Inlined Event.__init__: one process per generator-handled RPC.
        self.sim = sim
        self.callbacks = callbacks
        self._triggered = False
        self._ok = True
        self._value = None
        try:
            self._send = generator.send
            self._throw_into = generator.throw
        except AttributeError:
            raise SimulationError("Process requires a generator") from None
        self.generator = generator
        self._label = name
        self._waiting_on: Optional[Event] = None
        self._alive = True
        sim._ready.append((self._resume, None))

    # -- lifecycle ---------------------------------------------------------
    @property
    def name(self) -> str:
        """The process's label: its parts joined by ``:``, built when read.

        An empty part (or an empty label) stands for the generator's own name.
        """
        label = self._label
        if isinstance(label, str):
            label = (label,)
        own = getattr(self.generator, "__name__", "process")
        return ":".join(part or own for part in label)

    @property
    def alive(self) -> bool:
        """Whether the generator has not yet finished."""
        return self._alive

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its suspension point.

        Interrupting a finished process is a no-op (peers may fail after their
        handlers complete).
        """
        if not self._alive:
            return
        exception = cause if isinstance(cause, Interrupt) else Interrupt(cause)
        self._waiting_on = None
        self.sim._ready.append((self._throw, exception))

    # -- stepping ----------------------------------------------------------
    def _resume(self, trigger: Optional[Event]) -> None:
        if not self._alive:
            return
        if trigger is not None:
            if self._waiting_on is not trigger:
                # Stale wakeup: the process was interrupted (or already
                # resumed) while this event was pending.
                return
            self._waiting_on = None
        while True:
            try:
                if trigger is None:
                    target = self._send(None)
                elif trigger._ok:
                    target = self._send(trigger._value)
                else:
                    # The throw leaves this generator's frame on the error's
                    # traceback; once the generator finishes, that frame links
                    # back to the frames that resumed it, one of which holds
                    # the error: a cycle, which CPython 3.12 builds for every
                    # timed-out RPC a loop catches.  An error the generator
                    # handled loses its traceback; one it lets through keeps
                    # it, so the failure still says where it started.
                    error = trigger._value
                    try:
                        target = self._throw_into(error)
                    except BaseException as stop:  # noqa: BLE001 - re-raised
                        if stop is not error:
                            error.__traceback__ = None
                        raise
                    error.__traceback__ = None
            except StopIteration as stop:
                self._returned(stop.value)
                return
            except BaseException as stop:  # noqa: BLE001 - dispatched in _stop
                self._stop(stop)
                return
            # Inlined _wait_for: this is the single hottest call site.
            if not isinstance(target, Event):
                self._wait_for(target)
                return
            if target._triggered:
                ready = self.sim._ready
                if not ready:
                    # The in-place rule: the resume would be the only ready
                    # action, so continue the generator in this one.
                    trigger = target
                    continue
                self._waiting_on = target
                ready.append((self._resume, target))
            else:
                self._waiting_on = target
                if target.callbacks is None:
                    target.callbacks = [self._resume]
                else:
                    target.callbacks.append(self._resume)
            return

    def _throw(self, exception: BaseException) -> None:
        if not self._alive:
            return
        try:
            target = self._throw_into(exception)
        except BaseException as stop:  # noqa: BLE001 - dispatched below
            self._stop(stop)
            return
        self._wait_for(target)

    def _wait_for(self, target: Any) -> None:
        if not isinstance(target, Event):
            self._finish(
                value=None,
                error=SimulationError(
                    f"process {self.name!r} yielded {target!r}, expected an Event"
                ),
            )
            return
        self._waiting_on = target
        if target._triggered:
            ready = self.sim._ready
            if ready:
                ready.append((self._resume, target))
            else:
                self._resume(target)  # the in-place rule
        elif target.callbacks is None:
            target.callbacks = [self._resume]
        else:
            target.callbacks.append(self._resume)

    def _stop(self, stop: BaseException) -> None:
        """Dispatch the exception that ended the generator."""
        if isinstance(stop, StopIteration):
            self._returned(stop.value)
        elif isinstance(stop, Interrupt):
            # An uncaught interrupt terminates the process quietly: this is the
            # normal way a failed peer's handlers disappear.  Its traceback
            # would hold this process through the ``_throw`` frame (a cycle),
            # and nothing re-raises it, so it is dropped.
            self._finish(value=stop.with_traceback(None), error=None)
        elif isinstance(stop, Exception):
            self._finish(value=None, error=stop)
        else:  # KeyboardInterrupt & friends propagate out of the simulation
            self._alive = False
            raise stop

    def _finish(self, value: Any, error: Optional[BaseException] = None) -> None:
        self._alive = False
        self._waiting_on = None
        if self._triggered:
            return
        # Ending is the last step of the action that ran the generator.
        if error is None:
            self._trigger_last(True, value)
        else:
            self._trigger_last(False, error)

    #: What the generator's return does: end the process with its value.  A
    #: process that drives one generator after another (``Endpoint.every``'s
    #: loop) overrides it; here it is ``_finish`` itself, so no frame is added.
    _returned = _finish

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self._alive else "finished"
        return f"<Process {self.name} {state} at t={self.sim.now:.6f}>"


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator()
        sim.process(some_generator())
        sim.run(until=100.0)

    ``events_processed`` counts executed actions (a step run in place under
    the in-place rule is part of the action that ran it), which the harness
    reports as the engine-throughput metric of a scenario run.
    """

    # Compaction kicks in once the heap holds this many tombstones *and* they
    # outnumber the live entries (classic lazy-deletion bookkeeping).
    _COMPACT_MIN = 2048

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list = []  # entries: [time, seq, func, arg]
        self._ready: deque = deque()  # same-instant (func, arg) pairs, FIFO
        self._sequence = 0
        self._cancelled = 0
        self._running = False
        self.events_processed = 0

    # -- time --------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- factories ---------------------------------------------------------
    def event(self) -> Event:
        """Create an untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def capped_timeout(self, delay: float, deadline: float) -> Timeout:
        """A :meth:`timeout` of ``delay`` seconds that fires no later than
        ``deadline`` (at once if the deadline has passed)."""
        return Timeout(self, max(0.0, min(delay, deadline - self._now)))

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start ``generator`` as a :class:`Process`."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Create a condition firing when the first of ``events`` fires."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Create a condition firing when all ``events`` have fired."""
        return AllOf(self, events)

    # -- scheduling --------------------------------------------------------
    def schedule(self, delay: float, func: Callable[[Any], None], arg: Any = None) -> list:
        """Schedule ``func(arg)`` after ``delay`` seconds; returns a handle.

        The handle can be passed to :meth:`cancel` to tombstone the entry
        without touching the heap.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._sequence += 1
        entry = [self._now + delay, self._sequence, func, arg]
        heapq.heappush(self._queue, entry)
        return entry

    def schedule_at(self, time: float, func: Callable[[Any], None], arg: Any = None) -> list:
        """Schedule ``func(arg)`` at absolute simulated ``time``.

        Used by the network's delivery batching, which keys pending messages on
        their exact delivery instant: computing the instant once and scheduling
        at it avoids float round-trip drift.
        """
        if time < self._now:
            raise SimulationError(f"cannot schedule in the past (time={time})")
        self._sequence += 1
        entry = [time, self._sequence, func, arg]
        heapq.heappush(self._queue, entry)
        return entry

    def cancel(self, entry: Optional[list]) -> Any:
        """Tombstone a scheduled entry; the run loop skips it for free.

        Returns the entry's ``arg`` (or ``None`` if the entry already fired or
        was cancelled) so callers that recycle their argument records can
        reclaim them.  Cancelling a handle *after* its entry fired is a no-op.
        """
        if entry is None or entry[2] is None:
            return None
        arg = entry[3]
        entry[2] = None
        entry[3] = None
        self._cancelled += 1
        if self._cancelled > self._COMPACT_MIN and self._cancelled * 2 > len(self._queue):
            self._compact()
        return arg

    def _compact(self) -> None:
        # In place: the run loop holds a local alias of the queue list, so the
        # compacted heap must live in the same list object.
        live = [entry for entry in self._queue if entry[2] is not None]
        self._queue[:] = live
        heapq.heapify(self._queue)
        self._cancelled = 0

    # The timer API of the clock contract (the network's RPC fast path and the
    # asyncio clock share these names).  Here a timer is just a scheduled entry.
    schedule_timer = schedule
    cancel_timer = cancel

    # -- execution ---------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or simulated time reaches ``until``.

        Returns the simulation time at which execution stopped.  The cyclic
        collector is paused for the run, if it was on, and switched back on
        however the run ends.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        queue = self._queue
        ready = self._ready
        pop = heapq.heappop
        processed = 0
        exhausted = False
        collecting = gc.isenabled()  # "Memory" in the module notes
        if collecting:
            gc.disable()
        try:
            while True:
                while ready:
                    func, arg = ready.popleft()
                    processed += 1
                    func(arg)
                if not queue:
                    exhausted = True
                    break
                entry = queue[0]
                func = entry[2]
                if func is None:
                    pop(queue)
                    self._cancelled -= 1
                    continue
                time = entry[0]
                if until is not None and time > until:
                    self._now = until
                    break
                pop(queue)
                self._now = time
                arg = entry[3]
                # Mark the entry dead so a late cancel is a no-op returning None.
                entry[2] = None
                entry[3] = None
                processed += 1
                func(arg)
            if exhausted and until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False
            self.events_processed += processed
            if collecting:
                gc.enable()
        return self._now

    def run_until(self, event: Event, timeout: float = 1e9) -> bool:
        """Process queued events until ``event`` triggers (or ``timeout`` elapses).

        Unlike :meth:`run`, this stops as soon as the event fires, so simulated
        time only advances as far as needed.  Returns whether the event fired.
        The collector is paused and restored as in :meth:`run`.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        deadline = self._now + timeout
        self._running = True
        queue = self._queue
        ready = self._ready
        pop = heapq.heappop
        processed = 0
        collecting = gc.isenabled()
        if collecting:
            gc.disable()
        try:
            while not event._triggered:
                if ready:
                    func, arg = ready.popleft()
                    processed += 1
                    func(arg)
                    continue
                if not queue:
                    break
                entry = queue[0]
                func = entry[2]
                if func is None:
                    pop(queue)
                    self._cancelled -= 1
                    continue
                time = entry[0]
                if time > deadline:
                    break
                pop(queue)
                self._now = time
                arg = entry[3]
                entry[2] = None
                entry[3] = None
                processed += 1
                func(arg)
        finally:
            self._running = False
            self.events_processed += processed
            if collecting:
                gc.enable()
        return event._triggered

    def run_process(self, generator: ProcessGenerator, timeout: float = 1e9) -> Any:
        """Convenience: run ``generator`` to completion and return its value.

        Simulated time advances only as far as the process needs (background
        periodic activity scheduled further in the future is left pending).
        Raises the process's exception if it failed, or :class:`SimulationError`
        if it did not finish within ``timeout`` simulated seconds.
        """
        proc = self.process(generator)
        self.run_until(proc, timeout=timeout)
        if not proc.triggered:
            raise SimulationError("process did not finish within the timeout")
        if not proc.ok:
            raise proc.value
        return proc.value


# --------------------------------------------------------------------------- construction
#: Once selected between two engines.  One engine remains; the variable is
#: still read so that a stale value fails loudly instead of being ignored.
ENGINE_ENV_VAR = "REPRO_ENGINE"


def make_simulator(engine: str = "heap") -> Simulator:
    """Build the stack's clock: the one place a :class:`Simulator` is made.

    The argument and :data:`ENGINE_ENV_VAR` are outside input left over from
    when a second engine existed.  Anything but ``heap`` in either raises
    :class:`SimulationError`, so a stale ``REPRO_ENGINE=...`` in a shell or CI
    file can never label a result with an engine that did not run.
    """
    stale = {engine, os.environ.get(ENGINE_ENV_VAR) or "heap"} - {"heap"}
    if stale:
        names = ", ".join(sorted(map(repr, stale)))
        raise SimulationError(
            f"unknown simulation engine {names}: the second event engine was removed and "
            f"'heap' is the only one -- unset {ENGINE_ENV_VAR} / drop the argument"
        )
    return Simulator()
