"""Failure accounting by the paper's own definitions.

Runs after a ring's last timed window, outside ``wall_s``; the caller times it and
reports the cost as ``harness.audit_s``.  One :class:`~repro.core.correctness.ItemTimeline` is
built from the deployment's recorded history and every query is judged by
Definition 4 (all and only the relevant live items); inserted items are
checked against :func:`~repro.core.correctness.count_lost_items` (Definition
7, snapshot form); the ring is checked for consistent successor pointers
(Definition 5) and connectivity, and the stores for stranded copies.

Failure rules (counted, never raised):

* a query fails if it is unfinished when the drain ends, incomplete, raised,
  or violates Definition 4;
* an insert fails if it was not acknowledged ``stored`` or its item is lost at
  the end; a delete fails if it was not acknowledged ``removed``.

Definition 4 is evaluated with the checkers' own predicates
(``ever_live_between`` / ``live_throughout``) but bisects a sorted key list
for the query window instead of scanning every key per query, as
``check_query_result`` does; the verdicts are the same.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.core.correctness import (
    ItemTimeline,
    check_consistent_successor_pointers,
    check_ring_connectivity,
    count_lost_items,
)

from perfbench.loadgen import FAIL, INSERT, QUERY, Op

# The tolerance ``check_query_result`` trims from both ends of a query.
_TOLERANCE = 1e-9

OK, UNFINISHED, INCOMPLETE, VIOLATION, ERROR, UNACKED, LOST = (
    "ok",
    "unfinished",
    "incomplete",
    "violates_definition_4",
    "error",
    "not_acknowledged",
    "lost",
)


@dataclass
class Audit:
    """Verdicts and end-state checks of one deployment (or several, pooled)."""

    attempted: Dict[str, int] = field(default_factory=dict)  # per kind
    failed: Dict[str, int] = field(default_factory=dict)  # per kind
    queries_checked: int = 0  # complete results judged against Definition 4
    queries_violating: int = 0
    queries_incomplete: int = 0  # incomplete results plus queries unfinished at drain end
    items_lost: int = 0
    items_stranded: int = 0
    pointers_consistent: int = 1
    connected: int = 1
    audit_s: float = 0.0

    def count(self, kind: str, failed: bool) -> None:
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        self.failed[kind] = self.failed.get(kind, 0) + int(failed)

    def pooled_with(self, other: "Audit") -> "Audit":
        """The audit of both deployments taken together."""
        merged = Audit()
        for kind in {*self.attempted, *other.attempted}:
            merged.attempted[kind] = self.attempted.get(kind, 0) + other.attempted.get(kind, 0)
            merged.failed[kind] = self.failed.get(kind, 0) + other.failed.get(kind, 0)
        for name in ("queries_checked", "queries_violating", "queries_incomplete",
                     "items_lost", "items_stranded", "audit_s"):
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        merged.pointers_consistent = min(self.pointers_consistent, other.pointers_consistent)
        merged.connected = min(self.connected, other.connected)
        return merged


def violates_definition_4(timeline: ItemTimeline, sorted_keys: List[float], op: Op) -> bool:
    """Whether a finished query's result breaks Definition 4 against the timeline."""
    returned = set(op.keys)
    for key in returned:
        if not op.lb < key <= op.ub:
            return True
        if not timeline.ever_live_between(key, op.start, op.end):
            return True
    low, high = bisect_right(sorted_keys, op.lb), bisect_right(sorted_keys, op.ub)
    for key in sorted_keys[low:high]:
        if key not in returned and timeline.live_throughout(
            key, op.start + _TOLERANCE, op.end - _TOLERANCE
        ):
            return True
    return False


def audit_deployment(index, ops: Sequence[Op]) -> Audit:
    """Judge every played operation (setting ``op.verdict``) and the end state of ``index``."""
    audit = Audit()
    history = index.history.history()
    timeline = ItemTimeline(history)
    sorted_keys = sorted(timeline.intervals)
    lost = set(count_lost_items(history, index.live_peers()))

    for op in ops:
        if op.kind == FAIL:
            continue  # an injected failure is an input, not a user operation
        if op.error is not None:
            verdict = ERROR
        elif op.end is None:
            verdict = UNFINISHED
        elif op.kind == QUERY and not op.ok:
            verdict = INCOMPLETE
        elif op.kind == QUERY:
            audit.queries_checked += 1
            verdict = VIOLATION if violates_definition_4(timeline, sorted_keys, op) else OK
            audit.queries_violating += verdict == VIOLATION
        elif not op.ok:
            verdict = UNACKED
        elif op.kind == INSERT and op.key in lost:
            verdict = LOST
        else:
            verdict = OK
        if op.kind == QUERY and verdict in (UNFINISHED, INCOMPLETE):
            audit.queries_incomplete += 1
        op.verdict = verdict
        audit.count(op.kind, verdict != OK)

    members = index.ring_members()
    audit.items_lost = len(lost)
    audit.items_stranded = index.reachability().items_stranded
    audit.pointers_consistent = int(bool(check_consistent_successor_pointers(members)))
    audit.connected = int(bool(check_ring_connectivity(members)))
    return audit
