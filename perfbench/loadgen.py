"""The benchmark's own load generator.

Every arrival time, key, victim and entry peer is drawn up front from
``random.Random`` streams derived from the run's seed (:func:`stream`), so a
seed fixes the inputs exactly and the system under test receives only the
generated operations.  Arrivals are a Poisson process *conditioned on its
count*: ``round(rate * duration)`` instants uniform over the window.  Given
its count a Poisson process is exactly that, and fixing the count at its mean
makes every seed do the same amount of work, so the cost of a run does not
carry the +-1/sqrt(n) of a free Poisson count.

:class:`OpenLoopDriver` then plays a plan against a
deployment as *simulator events*: an operation is issued at its due instant
whatever the operations before it are doing (open loop), so its latency is
timed from when it was due and a stall shows up as latency, not as a lighter
load.  Generator lateness (issue instant minus due instant) is therefore zero
by construction; it is still measured and reported.

The driver touches the deployment only through public entry points:
``PRingIndex.{ring_members, query_client, insert_item, delete_item, fail_peer,
add_peer}``, ``QueryClient.query`` and the clock's ``process``/``timeout``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.serve.workload import zipf_hotspot_windows
from repro.workloads.churn import failure_schedule

QUERY, INSERT, DELETE, FAIL = "query", "insert", "delete", "fail"

# Shape of the read traffic, shared by every workload that serves reads.
HOTSPOTS = 8
ZIPF_ALPHA = 1.1
WINDOW_PEERS = 1.5  # hotspot window width, in mean per-peer range shares
ROUTING = "replica_lb"
CONSISTENCY = "strong"


def stream(workload: str, seed, name: str) -> random.Random:
    """The named input stream of one ``(workload, seed)`` run (or ``ring.window`` of one).

    Seeding ``random.Random`` with a string hashes it with SHA-512, so the
    stream is the same in every process (unlike ``hash()``-based mixing).
    """
    return random.Random(f"perfbench/{workload}/{seed}/{name}")


@dataclass
class Op:
    """One planned operation and, once played, what happened to it.

    ``at`` and ``pick`` are the plan: the due offset from the window start and
    a uniform draw selecting the entry peer (the victim, for ``FAIL``) among
    the ring members at that instant.  The remaining fields are the outcome,
    on the simulated clock; ``end`` stays ``None`` for an operation still in
    flight when the window closes.
    """

    kind: str
    at: float
    pick: float
    lb: float = 0.0
    ub: float = 0.0
    key: float = 0.0
    op_id: int = -1  # position in its window's plan
    ring: int = 0  # seed of the ring the operation ran on
    window: int = 0  # which of the ring's windows
    due: Optional[float] = None
    start: Optional[float] = None
    end: Optional[float] = None
    entry: Optional[str] = None
    ok: bool = False  # query complete / insert stored / delete removed / peer failed
    hops: int = 0
    scan_elapsed: float = 0.0
    keys: List[float] = field(default_factory=list)
    error: Optional[str] = None
    verdict: str = ""  # set by the audit


def _arrival_times(rng: random.Random, rate: float, duration: float) -> List[float]:
    """Poisson arrivals at ``rate``/s over ``duration``, conditioned on their mean count."""
    return sorted(rng.uniform(0.0, duration) for _ in range(round(rate * duration)))


def read_plan(
    workload: str, seed, rate: float, duration: float, key_space: float, peers: int
) -> List[Op]:
    """Reads at ``rate``/s over zipf-ranked hotspot windows, each through a random entry peer."""
    windows = zipf_hotspot_windows(
        HOTSPOTS, key_space, key_space * WINDOW_PEERS / peers, stream(workload, seed, "hotspots")
    )
    times = _arrival_times(stream(workload, seed, "reads"), rate, duration)
    weights = [1.0 / (rank + 1) ** ZIPF_ALPHA for rank in range(HOTSPOTS)]
    ranks = stream(workload, seed, "read-ranks").choices(range(HOTSPOTS), weights, k=len(times))
    entry = stream(workload, seed, "read-entry")
    return [
        Op(QUERY, at, entry.random(), lb=windows[rank][0], ub=windows[rank][1])
        for at, rank in zip(times, ranks)
    ]


def write_plan(
    workload: str,
    seed,
    duration: float,
    key_space: float,
    stored_keys: Sequence[float],
    insert_rate: float,
    delete_rate: float,
    failures_per_100s: float,
) -> List[Op]:
    """Inserts of fresh keys, deletes of stored keys, and failures at uniform instants.

    Deleted keys are drawn without replacement from ``stored_keys`` (the keys
    the set-up inserted), so every delete aims at an item that exists.
    """
    ops: List[Op] = []
    keys = stream(workload, seed, "insert-keys")
    entry = stream(workload, seed, "write-entry")
    for at in _arrival_times(stream(workload, seed, "inserts"), insert_rate, duration):
        ops.append(Op(INSERT, at, entry.random(), key=round(keys.uniform(1.0, key_space - 1.0), 6)))
    delete_times = _arrival_times(stream(workload, seed, "deletes"), delete_rate, duration)
    victims = stream(workload, seed, "delete-keys").sample(
        sorted(stored_keys), min(len(delete_times), len(stored_keys))
    )
    for at, key in zip(delete_times, victims):
        ops.append(Op(DELETE, at, entry.random(), key=key))
    victim = stream(workload, seed, "victims")
    for event in failure_schedule(failures_per_100s, duration, stream(workload, seed, "failures")):
        ops.append(Op(FAIL, event.time, victim.random()))
    return ops


def merged(ring: int, window: int, *plans: Sequence[Op]) -> List[Op]:
    """One time-ordered plan for a window of a ring, operation ids assigned in due order."""
    plan = sorted((op for ops in plans for op in ops), key=lambda op: op.at)
    for op_id, op in enumerate(plan):
        op.op_id, op.ring, op.window = op_id, ring, window
    return plan


class OpenLoopDriver:
    """Plays a plan against a deployment on the simulated clock."""

    # Never fail the ring below this many members (mirrors the harness floor).
    RING_FLOOR = 3

    def __init__(self, index, plan: Sequence[Op], query_timeout: float):
        self.index = index
        self.plan = list(plan)
        self.query_timeout = query_timeout
        self.origin = 0.0

    def start(self) -> None:
        """Open the window now: schedule every arrival relative to this instant."""
        self.origin = self.index.sim.now
        self.index.sim.process(self._arrivals(), name="perfbench:arrivals")

    def _arrivals(self):
        sim = self.index.sim
        for op in self.plan:
            op.due = self.origin + op.at
            delay = op.due - sim.now
            if delay > 0:
                yield sim.timeout(delay)
            if op.kind == FAIL:
                self._fail(op)
            else:
                # Fire and forget: the next arrival never waits for this one.
                sim.process(self._play(op), name=f"perfbench:{op.kind}")

    def _pick(self, op: Op, members):
        return members[int(op.pick * len(members))]

    def _fail(self, op: Op) -> None:
        op.start = op.end = self.index.sim.now
        members = self.index.ring_members()
        if len(members) <= self.RING_FLOOR:
            op.error = "ring at its floor; no peer failed"
            return
        op.entry = self._pick(op, members).address
        self.index.fail_peer(op.entry)
        self.index.add_peer()  # one fresh free peer arrives per failure
        op.ok = True

    def _play(self, op: Op):
        index = self.index
        op.start = index.sim.now
        try:
            members = index.ring_members()
            if not members:
                raise LookupError("no ring member to enter through")
            op.entry = self._pick(op, members).address
            if op.kind == QUERY:
                client = index.query_client(routing=ROUTING, consistency=CONSISTENCY, via=op.entry)
                result = yield from client.query(op.lb, op.ub, timeout=self.query_timeout)
                op.ok = bool(result["complete"])
                op.hops = result["hops"]
                op.scan_elapsed = result["scan_elapsed"]
                op.keys = list(result["keys"])
            elif op.kind == INSERT:
                op.ok = bool((yield from index.insert_item(op.key, f"v{op.op_id}", via=op.entry)))
            else:
                op.ok = bool((yield from index.delete_item(op.key, via=op.entry)))
        except Exception as error:  # failures are counted, never raised
            op.error = repr(error)
        op.end = index.sim.now
