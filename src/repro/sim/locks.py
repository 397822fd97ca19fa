"""Simulated read/write locks.

The paper's algorithms (Algorithms 1-5 and the appendix pseudocode) acquire
read and write locks on a peer's ``succList`` and Data Store ``range``.  In the
simulator these are cooperative locks: ``acquire_*`` returns an
:class:`~repro.sim.engine.Event` that the calling process yields on and that
fires once the lock is granted.

Fairness is strict FIFO: a waiting writer blocks later readers, which mirrors
the blocking behaviour the paper relies on (a scan holding a read lock on a
range delays a concurrent split/merge, and vice versa).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.sim.engine import Event, SimulationError, Simulator

_READ = "read"
_WRITE = "write"


class RWLock:
    """A reader/writer lock with FIFO queuing for simulated processes.

    Every change of state ends in :meth:`_grant`, so the head of a non-empty
    queue is always blocked.  An acquire that finds the queue empty and the
    lock free for its kind is therefore granted at once, queue untouched, and
    any other acquire just joins the queue.  The queue itself is built on a
    contention and dropped when it drains: most of a large deployment's locks
    hold no queue most of the time.
    """

    __slots__ = ("sim", "name", "_readers", "_writer", "_waiters")

    def __init__(self, sim: Simulator, name: str = "lock"):
        self.sim = sim
        self.name = name
        self._readers = 0
        self._writer = False
        self._waiters: Optional[Deque[Tuple[str, Event]]] = None

    # -- inspection --------------------------------------------------------
    @property
    def readers(self) -> int:
        """Number of read holders currently inside the lock."""
        return self._readers

    @property
    def write_held(self) -> bool:
        """Whether a writer currently holds the lock."""
        return self._writer

    @property
    def locked(self) -> bool:
        """Whether any holder (reader or writer) is inside the lock."""
        return self._writer or self._readers > 0

    @property
    def waiting(self) -> int:
        """Number of queued acquisition requests."""
        return len(self._waiters) if self._waiters else 0

    # -- acquisition -------------------------------------------------------
    def acquire_read(self) -> Event:
        """Request shared access; the returned event fires when granted."""
        event = self.sim.event()
        if not self._writer and not self._waiters:
            self._readers += 1
            event.succeed(self)
        else:
            self._enqueue(_READ, event)
        return event

    def acquire_write(self) -> Event:
        """Request exclusive access; the returned event fires when granted."""
        event = self.sim.event()
        if not self._writer and not self._readers and not self._waiters:
            self._writer = True
            event.succeed(self)
        else:
            self._enqueue(_WRITE, event)
        return event

    def _enqueue(self, kind: str, event: Event) -> None:
        if self._waiters is None:
            self._waiters = deque()
        self._waiters.append((kind, event))

    # -- release -----------------------------------------------------------
    def release_read(self) -> None:
        """Release one shared hold."""
        if self._readers <= 0:
            raise SimulationError(f"{self.name}: release_read without a holder")
        self._readers -= 1
        self._grant()

    def release_write(self) -> None:
        """Release the exclusive hold."""
        if not self._writer:
            raise SimulationError(f"{self.name}: release_write without a holder")
        self._writer = False
        self._grant()

    # -- internals ---------------------------------------------------------
    def _grant(self) -> None:
        waiters = self._waiters
        while waiters:
            kind, event = waiters[0]
            if kind == _WRITE:
                if self._writer or self._readers:
                    return
                waiters.popleft()
                self._writer = True
                event.succeed(self)
                break
            # kind == _READ: grant as long as no writer holds the lock.  A
            # queued writer blocks this reader (strict FIFO), which prevents
            # writer starvation.
            if self._writer:
                return
            waiters.popleft()
            self._readers += 1
            event.succeed(self)
        if waiters is not None and not self._waiters:
            # Drained: drop the deque; the next contention builds a new one.
            self._waiters = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RWLock {self.name} readers={self._readers} "
            f"writer={self._writer} waiting={self.waiting}>"
        )
