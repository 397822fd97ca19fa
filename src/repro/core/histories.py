"""Histories of operations (Definitions 1-2 of the paper).

The paper reasons about correctness via *histories*: a set of operations with a
happened-before partial order.  In the simulator every interesting protocol
step records an :class:`Operation` into a global :class:`HistoryRecorder`; the
checkers in :mod:`repro.core.correctness` evaluate the paper's definitions over
the resulting :class:`History`.

Because the simulator is sequential, simulation time (plus a tie-breaking
sequence number) yields a total order that is a legal linear extension of the
real happened-before partial order; evaluating the definitions over it is
therefore sound for the "all/only live items" style conditions we check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional


@dataclass(frozen=True, slots=True)
class Operation:
    """One recorded operation.

    ``kind`` is a short string (e.g. ``"item_stored"``, ``"insert_succ"``,
    ``"scan_visit"``); ``attrs`` carries kind-specific data.
    """

    op_id: int
    kind: str
    time: float
    peer: Optional[str]
    attrs: Dict[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        """Shorthand for ``attrs.get``."""
        return self.attrs.get(key, default)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Operation(#{self.op_id} {self.kind} t={self.time:.4f} peer={self.peer})"


class History:
    """An ordered collection of operations supporting the paper's queries."""

    def __init__(self, operations: Iterable[Operation]):
        self.operations: List[Operation] = sorted(
            operations, key=lambda op: (op.time, op.op_id)
        )

    def __len__(self) -> int:
        return len(self.operations)

    def __iter__(self):
        return iter(self.operations)

    def of_kind(self, *kinds: str) -> List[Operation]:
        """All operations whose kind is one of ``kinds``, in order."""
        wanted = set(kinds)
        return [op for op in self.operations if op.kind in wanted]

    def filter(self, predicate: Callable[[Operation], bool]) -> "History":
        """A new history containing the operations satisfying ``predicate``."""
        return History(op for op in self.operations if predicate(op))

    def happened_before(self, first: Operation, second: Operation) -> bool:
        """Whether ``first`` happened before ``second`` in this history."""
        return (first.time, first.op_id) < (second.time, second.op_id)

    def truncate(self, operation: Operation) -> "History":
        """The truncated history H_o: operations up to and including ``operation``."""
        key = (operation.time, operation.op_id)
        return History(op for op in self.operations if (op.time, op.op_id) <= key)

    def between(self, start_time: float, end_time: float) -> "History":
        """Operations with ``start_time <= time <= end_time``."""
        return History(
            op for op in self.operations if start_time <= op.time <= end_time
        )

    def last_of_kind(self, kind: str) -> Optional[Operation]:
        """The latest operation of ``kind``, if any."""
        for op in reversed(self.operations):
            if op.kind == kind:
                return op
        return None


class HistoryRecorder:
    """Collects operations as the simulation runs.

    Components receive the recorder (or ``None``) and call :meth:`record`;
    the experiment harness turns the recorder into a :class:`History` for the
    correctness checkers and into per-item timelines for query-correctness
    checks.
    """

    def __init__(self, sim=None):
        self.sim = sim
        self.operations: List[Operation] = []
        self._next_id = 0
        self.enabled = True

    def record(self, kind: str, peer: Optional[str] = None, **attrs) -> Optional[Operation]:
        """Record one operation at the current simulation time."""
        if not self.enabled:
            return None
        self._next_id += 1
        # ``attrs`` is already this call's own dict: no copy.
        sim = self.sim
        op = Operation(self._next_id, kind, sim.now if sim is not None else 0.0, peer, attrs)
        self.operations.append(op)
        return op

    def history(self) -> History:
        """A :class:`History` snapshot of everything recorded so far."""
        return History(self.operations)

    def clear(self) -> None:
        """Drop all recorded operations (used between experiment phases)."""
        self.operations.clear()

    def count(self, kind: str) -> int:
        """Number of recorded operations of ``kind``."""
        return sum(1 for op in self.operations if op.kind == kind)
