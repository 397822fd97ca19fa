"""Histories of operations (Definitions 1-2 of the paper).

The paper reasons about correctness via *histories*: a set of operations with a
happened-before partial order.  In the simulator every interesting protocol
step records an operation into the deployment's :class:`HistoryRecorder`; the
checkers in :mod:`repro.core.correctness` evaluate the paper's definitions over
the resulting :class:`History`.

Because the simulator is sequential, simulation time (plus a tie-breaking
sequence number) yields a total order that is a legal linear extension of the
real happened-before partial order; evaluating the definitions over it is
therefore sound for the "all/only live items" style conditions we check.

The recorder stores operations as columns, not objects: an ``array('d')`` of
times, an ``array('q')`` of op ids, lists of kinds and peers (shared string
objects), one interned attribute-key tuple per record, and one flat value
list cut by an ``array('q')`` of offsets -- about 67 bytes a record.  The clock
is monotone and ids count up, so append order *is* ``(time, op_id)`` order:
:meth:`HistoryRecorder.history` is a zero-copy snapshot over the columns,
fixed at their current length.  An :class:`Operation` is built only when a
reader iterates or indexes a history; the checkers read ``(kind, time, peer,
attrs)`` rows of the kinds they need through :meth:`History.rows`
(``docs/ARCHITECTURE.md``, "Contract: the operation history").
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple


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
    """An immutable, ``(time, op_id)``-ordered sequence of operations.

    ``History(operations)`` sorts hand-built operations and packs them into a
    recorder's column layout; :meth:`HistoryRecorder.history` shares the live
    recorder's columns up to their current length instead.
    """

    __slots__ = ("_columns", "_length")

    def __init__(self, operations: Iterable[Operation]):
        columns = HistoryRecorder()
        for op in sorted(operations, key=lambda op: (op.time, op.op_id)):
            columns._append(op.op_id, op.kind, op.time, op.peer, op.attrs)
        self._columns = columns
        self._length = len(columns.kinds)

    @classmethod
    def _prefix(cls, columns: "HistoryRecorder", length: int) -> "History":
        history = cls.__new__(cls)
        history._columns = columns
        history._length = length
        return history

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Operation]:
        return map(self._operation, range(self._length))

    def __getitem__(self, index):
        positions = range(self._length)[index]  # resolves negatives, slices and IndexError
        if isinstance(positions, range):
            return [self._operation(i) for i in positions]
        return self._operation(positions)

    def _operation(self, i: int) -> Operation:
        c = self._columns
        return Operation(c.op_ids[i], c.kinds[i], c.times[i], c.peers[i], c.attrs(i))

    def _positions(self, kinds: Tuple[str, ...]) -> List[int]:
        wanted = set(kinds)
        return [
            i for i, kind in enumerate(islice(self._columns.kinds, self._length)) if kind in wanted
        ]

    def of_kind(self, *kinds: str) -> List[Operation]:
        """All operations whose kind is one of ``kinds``, in order."""
        return [self._operation(i) for i in self._positions(kinds)]

    def rows(self, *kinds: str) -> Iterator[Tuple[str, float, Optional[str], Dict[str, Any]]]:
        """``(kind, time, peer, attrs)`` of each operation of one of ``kinds``, in order.

        The checkers' reader: it builds no :class:`Operation`.
        """
        columns = self._columns
        kinds_column, times, peers = columns.kinds, columns.times, columns.peers
        for i in self._positions(kinds):
            yield kinds_column[i], times[i], peers[i], columns.attrs(i)

    def happened_before(self, first: Operation, second: Operation) -> bool:
        """Whether ``first`` happened before ``second`` in this history."""
        return (first.time, first.op_id) < (second.time, second.op_id)

    def truncate(self, operation: Operation) -> "History":
        """The truncated history H_o: operations up to and including ``operation``."""
        times, op_ids = self._columns.times, self._columns.op_ids
        key = (operation.time, operation.op_id)
        length = bisect_right(range(self._length), key, key=lambda i: (times[i], op_ids[i]))
        return History._prefix(self._columns, length)


class HistoryRecorder:
    """Collects operations as the simulation runs, one column per field.

    Components receive the recorder (or ``None``) and call :meth:`record`;
    the experiment harness turns the recorder into a :class:`History` for the
    correctness checkers and into per-item timelines for query-correctness
    checks.
    """

    def __init__(self, sim=None):
        self.sim = sim
        self.times = array("d")
        self.op_ids = array("q")
        self.kinds: List[str] = []
        self.peers: List[Optional[str]] = []
        self.shapes: List[Tuple[str, ...]] = []  # each record's attribute keys, interned
        self.values: List[Any] = []  # every record's attribute values, back to back
        self.offsets = array("q", [0])  # record i's values are values[offsets[i]:offsets[i + 1]]
        self._interned: Dict[Tuple[str, ...], Tuple[str, ...]] = {}

    def record(self, kind: str, peer: Optional[str] = None, **attrs) -> None:
        """Record one operation at the current simulation time."""
        sim = self.sim
        self._append(len(self.kinds) + 1, kind, sim.now if sim is not None else 0.0, peer, attrs)

    def _append(self, op_id: int, kind: str, time: float, peer: Optional[str], attrs: dict) -> None:
        self.times.append(time)
        self.op_ids.append(op_id)
        self.kinds.append(kind)
        self.peers.append(peer)
        shape = tuple(attrs)
        self.shapes.append(self._interned.setdefault(shape, shape))
        self.values.extend(attrs.values())
        self.offsets.append(len(self.values))

    def attrs(self, i: int) -> Dict[str, Any]:
        """A fresh ``attrs`` dict of record ``i``."""
        offsets = self.offsets
        return dict(zip(self.shapes[i], self.values[offsets[i] : offsets[i + 1]]))

    def history(self) -> History:
        """A zero-copy :class:`History` of everything recorded so far (later records unseen)."""
        return History._prefix(self, len(self.kinds))

    def count(self, kind: str) -> int:
        """Number of recorded operations of ``kind``."""
        return self.kinds.count(kind)
