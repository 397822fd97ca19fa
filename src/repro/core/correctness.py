"""Checkers for the paper's correctness and availability definitions.

These functions evaluate, over a recorded :class:`~repro.core.histories.History`
or over a live cluster snapshot, the formal properties the paper proves about
its protocols:

* **Consistent successor pointers** (Definition 5, Theorem 1) --
  :func:`check_consistent_successor_pointers`.
* **scanRange correctness** (Definition 6, Theorem 2) --
  :func:`check_scan_range_correctness`.
* **Correct query results** (Definition 4, Theorem 3) --
  :func:`check_query_result` using per-item presence timelines.
* **Item availability** (Definition 7) -- :func:`check_item_availability`.
* **System availability** (ring connectivity, Section 5.1) --
  :func:`check_ring_connectivity`.

The ablations in ``repro.harness.figures`` run both the PEPPER protocols and the naive baselines
under identical workloads and count how often each checker reports violations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.histories import History, Operation
from repro.datastore.ranges import segments_cover_interval, segments_overlap
from repro.ring.entries import JOINED


@dataclass
class CheckResult:
    """Outcome of a correctness check: a verdict plus human-readable violations."""

    ok: bool
    violations: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok

    @staticmethod
    def success() -> "CheckResult":
        return CheckResult(ok=True)

    @staticmethod
    def failure(violations: Iterable[str]) -> "CheckResult":
        messages = list(violations)
        return CheckResult(ok=not messages, violations=messages)

    def merge(self, other: "CheckResult") -> "CheckResult":
        """Combine two results (violations accumulate)."""
        return CheckResult(
            ok=self.ok and other.ok, violations=self.violations + other.violations
        )


# --------------------------------------------------------------------------- ring
def check_consistent_successor_pointers(peers: Sequence) -> CheckResult:
    """Definition 5: no JOINED peer has a "missing" pointer to another JOINED peer.

    ``peers`` is any sequence of objects exposing ``alive``, ``address`` and a
    ``ring`` attribute with ``state``, ``value`` and ``succ_list``.  For every
    live JOINED peer ``p`` we trim its successor list to live JOINED peers and
    require that consecutive trimmed entries are consecutive on the global
    ring, and that the first trimmed entry is ``p``'s true successor.
    """
    members = [
        peer
        for peer in peers
        if peer.alive and getattr(peer.ring, "state", None) == JOINED
    ]
    if len(members) <= 1:
        return CheckResult.success()

    by_address = {peer.address: peer for peer in members}
    ordering = sorted(members, key=lambda peer: (peer.ring.value, peer.address))
    successor_of: Dict[str, str] = {}
    for index, peer in enumerate(ordering):
        successor_of[peer.address] = ordering[(index + 1) % len(ordering)].address

    violations: List[str] = []
    for peer in members:
        trimmed = [
            entry.address
            for entry in peer.ring.succ_list
            if entry.address in by_address and entry.address != peer.address
        ]
        # Remove duplicates while preserving order.
        seen = set()
        trimmed = [addr for addr in trimmed if not (addr in seen or seen.add(addr))]
        if not trimmed:
            violations.append(f"{peer.address}: empty trimmed successor list")
            continue
        if successor_of[peer.address] != trimmed[0]:
            violations.append(
                f"{peer.address}: first trimmed pointer {trimmed[0]} is not its "
                f"successor {successor_of[peer.address]}"
            )
        for first, second in zip(trimmed, trimmed[1:]):
            if successor_of[first] != second:
                violations.append(
                    f"{peer.address}: pointer gap between {first} and {second} "
                    f"(missing {successor_of[first]})"
                )
    return CheckResult.failure(violations)


def check_ring_connectivity(peers: Sequence) -> CheckResult:
    """System availability: every live ring member can reach every other.

    Edges are the live entries of each peer's successor list.  A disconnected
    ring means some portion of the key space is unreachable by scans
    (Section 5.1's failure scenario for the naive leave).

    Every member reaches every other exactly when one member reaches all of
    them and all of them reach it, so one search over the successor graph
    and one over its reverse decide the verdict.  Only a failing verdict
    runs a search from every member, to name who cannot reach whom.
    """
    members = [
        peer
        for peer in peers
        if peer.alive and getattr(peer.ring, "state", None) == JOINED
    ]
    if len(members) <= 1:
        return CheckResult.success()
    alive_addresses = {peer.address for peer in members}
    adjacency: Dict[str, List[str]] = {}
    reverse: Dict[str, List[str]] = {address: [] for address in alive_addresses}
    for peer in members:
        adjacency[peer.address] = [
            entry.address
            for entry in peer.ring.succ_list
            if entry.address in alive_addresses and entry.address != peer.address
        ]
        for neighbour in adjacency[peer.address]:
            reverse[neighbour].append(peer.address)

    root = members[0].address
    if (
        len(_reached(root, adjacency)) == len(alive_addresses)
        and len(_reached(root, reverse)) == len(alive_addresses)
    ):
        return CheckResult.success()
    violations: List[str] = []
    for start in alive_addresses:
        missing = alive_addresses - _reached(start, adjacency)
        if missing:
            violations.append(
                f"{start} cannot reach {len(missing)} peer(s): {sorted(missing)[:5]}"
            )
    return CheckResult.failure(violations)


def _reached(start: str, adjacency: Dict[str, List[str]]) -> set:
    """Every node reachable from ``start`` along ``adjacency``'s edges."""
    reached = {start}
    frontier = [start]
    while frontier:
        for neighbour in adjacency.get(frontier.pop(), ()):
            if neighbour not in reached:
                reached.add(neighbour)
                frontier.append(neighbour)
    return reached


# --------------------------------------------------------------------------- item timelines
class ItemTimeline:
    """Per-item presence intervals derived from Data Store history operations.

    An item is *live* (Definition 3) at time ``t`` if some live peer holds it
    in its Data Store at ``t``.  The Data Store records ``item_stored`` /
    ``item_removed`` operations (and peer failures record ``peer_failed``), from
    which we reconstruct, for every search key value, the set of half-open time
    intervals during which it was live.
    """

    def __init__(self, history: History):
        self.intervals: Dict[float, List[Tuple[float, float]]] = {}
        self._build(history)

    def _build(self, history: History) -> None:
        open_intervals: Dict[Tuple[float, str], float] = {}
        held: Dict[str, Dict[float, None]] = {}  # each peer's open keys, in opening order
        horizon = history[-1].time if len(history) else 0.0

        for kind, time, peer, attrs in history.rows("item_stored", "item_removed", "peer_failed"):
            if kind == "item_stored":
                skv = attrs.get("skv")
                if (skv, peer) not in open_intervals:
                    open_intervals[skv, peer] = time
                    held.setdefault(peer, {})[skv] = None
            elif kind == "item_removed":
                skv = attrs.get("skv")
                start = open_intervals.pop((skv, peer), None)
                if start is not None:
                    del held[peer][skv]
                    self._close(skv, start, time)
            else:  # peer_failed
                for skv in held.pop(peer, ()):
                    self._close(skv, open_intervals.pop((skv, peer)), time)

        for (skv, _peer), start in open_intervals.items():
            self._close(skv, start, horizon + 1.0)
        self.horizon = horizon

    def _close(self, skv: float, start: float, end: float) -> None:
        if skv is None or end <= start:
            return
        self.intervals.setdefault(skv, []).append((start, end))

    def live_at(self, skv: float, time: float) -> bool:
        """Whether the item was live at instant ``time``."""
        return any(start <= time < end for start, end in self.intervals.get(skv, ()))

    def ever_live_between(self, skv: float, start: float, end: float) -> bool:
        """Whether the item was live at some instant in ``[start, end]``."""
        return any(s <= end and e > start for s, e in self.intervals.get(skv, ()))

    def live_throughout(self, skv: float, start: float, end: float) -> bool:
        """Whether the item was live at *every* instant in ``[start, end]``.

        The item may move between peers during the window; what matters is that
        the union of its presence intervals covers the window.
        """
        spans = sorted(self.intervals.get(skv, ()))
        position = start
        for s, e in spans:
            if s > position:
                return False
            position = max(position, e)
            if position >= end:
                return True
        return position >= end


# --------------------------------------------------------------------------- query correctness
@dataclass
class QueryRecord:
    """What the harness knows about one executed range query."""

    lb: float
    ub: float
    start_time: float
    end_time: float
    result_keys: List[float]


def check_query_result(
    timeline: ItemTimeline, query: QueryRecord, tolerance: float = 1e-9
) -> CheckResult:
    """Definition 4: the result contains all and only the relevant live items.

    Condition 1: every returned item satisfies the predicate and was live at
    some point during the query.  Condition 2: every item that satisfies the
    predicate and was live *throughout* the query appears in the result.
    """
    violations: List[str] = []
    returned = set(query.result_keys)

    for skv in returned:
        if not (query.lb < skv <= query.ub):
            violations.append(f"returned key {skv} outside query ({query.lb}, {query.ub}]")
        elif not timeline.ever_live_between(skv, query.start_time, query.end_time):
            violations.append(f"returned key {skv} was never live during the query")

    for skv, _spans in timeline.intervals.items():
        if not (query.lb < skv <= query.ub):
            continue
        if skv in returned:
            continue
        if timeline.live_throughout(
            skv, query.start_time + tolerance, query.end_time - tolerance
        ):
            violations.append(
                f"key {skv} satisfied the predicate and was live throughout "
                f"[{query.start_time:.3f}, {query.end_time:.3f}] but is missing"
            )
    return CheckResult.failure(violations)


# --------------------------------------------------------------------------- scanRange correctness
def check_scan_range_correctness(history: History) -> CheckResult:
    """Definition 6 over recorded ``scan_init`` / ``scan_visit`` / ``scan_done`` ops.

    For every completed scanRange invocation ``i`` we check that (1) it was
    initiated before it completed, (2) each handler invocation's sub-range was
    a subset of the visited peer's range at that time, (3) sub-ranges of
    distinct handler invocations do not overlap, and (4) the union of the
    sub-ranges equals the scanned interval.
    """
    inits = {op.get("scan_id"): op for op in history.of_kind("scan_init")}
    dones = {op.get("scan_id"): op for op in history.of_kind("scan_done")}
    visits: Dict[int, List[Operation]] = {}
    for op in history.of_kind("scan_visit"):
        visits.setdefault(op.get("scan_id"), []).append(op)

    violations: List[str] = []
    for scan_id, done in dones.items():
        init = inits.get(scan_id)
        if init is None:
            violations.append(f"scan {scan_id}: completed without an initiation")
            continue
        if not (init.time <= done.time):
            violations.append(f"scan {scan_id}: initiation after completion")
        lb, ub = init.get("lb"), init.get("ub")
        segments: List[Tuple[float, float]] = []
        for visit in visits.get(scan_id, []):
            if not (init.time <= visit.time <= done.time):
                violations.append(
                    f"scan {scan_id}: handler at {visit.peer} ran outside the scan window"
                )
            sub = (visit.get("sub_low"), visit.get("sub_high"))
            peer_low, peer_high, peer_full = visit.get("range")
            if not peer_full:
                inside = _segment_in_peer_range(sub, peer_low, peer_high)
                if not inside:
                    violations.append(
                        f"scan {scan_id}: sub-range {sub} not within {visit.peer}'s "
                        f"range ({peer_low}, {peer_high}]"
                    )
            for previous in segments:
                if segments_overlap(previous, sub):
                    violations.append(
                        f"scan {scan_id}: overlapping sub-ranges {previous} and {sub}"
                    )
            segments.append(sub)
        if not segments_cover_interval(segments, lb, ub):
            violations.append(
                f"scan {scan_id}: sub-ranges {segments} do not cover ({lb}, {ub}]"
            )
    return CheckResult.failure(violations)


def _segment_in_peer_range(
    segment: Tuple[float, float], low: float, high: float
) -> bool:
    """Whether the ``(lo, hi]`` segment lies inside the circular peer range ``(low, high]``."""
    lo, hi = segment
    if low < high:
        return low <= lo and hi <= high
    # Wrapping peer range: the segment must fit entirely in one of the arms.
    return lo >= low or hi <= high


# --------------------------------------------------------------------------- item availability
def _inserted_and_deleted(history: History) -> Tuple[dict, dict]:
    """Keys of the recorded ``index_insert_item`` and ``index_delete_item`` operations, in order."""
    inserted: dict = {}
    deleted: dict = {}
    for kind, _time, _peer, attrs in history.rows("index_insert_item", "index_delete_item"):
        (inserted if kind == "index_insert_item" else deleted)[attrs.get("skv")] = None
    return inserted, deleted


def check_item_availability(history: History) -> CheckResult:
    """Definition 7: every item inserted and never deleted is live at the end.

    Evaluated over the recorded history after the system has been given time to
    quiesce (failures detected, replicas revived).
    """
    inserted, deleted = _inserted_and_deleted(history)
    timeline = ItemTimeline(history)
    end_time = timeline.horizon
    violations = []
    for skv in inserted:
        if skv in deleted:
            continue
        if not timeline.live_at(skv, end_time):
            violations.append(f"item {skv} was inserted, never deleted, but is not live")
    return CheckResult.failure(violations)


# --------------------------------------------------------------------------- reachability
@dataclass
class ReachabilityAudit:
    """Scan-vs-store audit: which stored copies a full scanRange would return.

    A copy is *reachable* when its search key value lies inside the holding
    peer's current range -- exactly the predicate ``scan_range`` applies when
    it visits the peer.  Copies outside the range (typically strays below the
    effective ring boundary after a half-completed split) are counted as
    *stranded*: ``total_stored_items()`` sees them, scans never do.
    """

    items_stored: int
    items_reachable: int
    stranded: List[Tuple[str, float]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.items_reachable == self.items_stored

    @property
    def items_stranded(self) -> int:
        return self.items_stored - self.items_reachable


def audit_reachability(peers: Sequence) -> ReachabilityAudit:
    """Audit every live peer's Data Store for stranded (scan-invisible) copies.

    ``peers`` is any sequence of objects exposing ``alive``, ``address`` and a
    ``store`` with ``active``, ``range`` and ``items`` -- in practice the ring
    members of a :class:`~repro.index.pring.PRingIndex`.
    """
    stored = 0
    reachable = 0
    stranded: List[Tuple[str, float]] = []
    for peer in peers:
        if not peer.alive:
            continue
        store = peer.store
        if not store.active:
            continue
        for skv in store.items.keys():
            stored += 1
            if store.range is None or store.range.contains(skv):
                reachable += 1
            else:
                stranded.append((peer.address, skv))
    return ReachabilityAudit(stored, reachable, stranded)


def count_lost_items(history: History, peers: Sequence) -> List[float]:
    """Keys of items inserted, never deleted, and not present on any live peer.

    A stricter, snapshot-based version of :func:`check_item_availability` used
    by the availability ablation: it inspects the actual Data Store and replica
    contents of the live peers rather than the recorded timeline.  A replica
    counts only while it is promotable: a copy no lease carries any more can
    never be revived, so it does not keep its item available.
    """
    inserted, deleted = _inserted_and_deleted(history)
    expected = inserted.keys() - deleted

    present: set = set()
    for peer in peers:
        if not peer.alive:
            continue
        store = getattr(peer, "store", None)
        if store is not None:
            present.update(store.items.keys())
        replication = getattr(peer, "replication", None)
        if replication is not None:
            present.update(replication.promotable_keys())
    return sorted(expected - present)
