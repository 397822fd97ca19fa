"""Cluster-level facade: a whole simulated P-Ring deployment.

:class:`PRingIndex` owns the simulator, network, free-peer pool, metrics and
history recorder, and exposes the P2P Index API of Figure 1 at cluster level:

* ``insert_item`` / ``delete_item`` -- routed to the responsible peer;
* ``range_query`` -- issued through a serve-layer
  :class:`~repro.serve.client.QueryClient` under a ``routing=`` policy
  (``primary`` | ``replica_lb``);
* ``add_peer`` (arrives as a free peer), ``fail_peer``, and time control.

Everything inside the cluster still happens through simulated messages between
peers; the facade only provides convenient entry points for examples, tests and
the experiment harness.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.correctness import QueryRecord, ReachabilityAudit, audit_reachability
from repro.core.histories import HistoryRecorder
from repro.datastore.maintenance import FreePeerPool
from repro.harness.metrics import Metrics
from repro.index.config import IndexConfig, default_config
from repro.index.membership import MembershipIndex
from repro.index.peer import IndexPeer
from repro.serve.client import QueryClient
from repro.serve.tracker import InFlightTracker
from repro.sim.engine import SimulationError
from repro.transport import RpcError, make_transport


class PRingIndex:
    """A deployment of the index with the configured protocols.

    The execution substrate -- clock, message plane, RNG streams -- comes
    from the configured transport (``config.transport``): the seeded
    discrete-event simulator by default, or real asyncio sockets on
    localhost.  Everything above this composition root is substrate-blind.
    """

    def __init__(self, config: Optional[IndexConfig] = None):
        self.config = config or default_config()
        self.config.validate()
        self.metrics = Metrics()
        # The network observes intra- vs cross-site latency into the shared
        # collector when the configured latency model is site-aware.
        self.transport = make_transport(self.config, metrics=self.metrics)
        self.sim = self.transport.clock
        self.rngs = self.transport.rngs
        self.network = self.transport.network
        self.history = HistoryRecorder(self.sim)
        # Per-peer in-flight RPC accounting, fed by the transport's observer
        # hooks; the serve layer's replica_lb routing balances on it and the
        # harness reports its read-load variance.  Always on: the hooks cost
        # two dict operations per RPC.
        self.serve_tracker = InFlightTracker()
        self.network.observer = self.serve_tracker
        self.pool = FreePeerPool(self.sim, self.network, address="pool")
        self.peers: Dict[str, IndexPeer] = {}
        # Incrementally maintained live/free/ring-member sets: updated by ring
        # state transitions and failure hooks, never by rescanning ``peers``.
        self.membership = MembershipIndex()
        self.query_records: List[QueryRecord] = []
        self._next_peer = 0
        self._bootstrapped = False

    # ------------------------------------------------------------------ peers
    def _new_address(self) -> str:
        self._next_peer += 1
        return f"peer{self._next_peer:03d}"

    def _make_peer(self, value: float) -> IndexPeer:
        address = self._new_address()
        peer = IndexPeer(
            sim=self.sim,
            network=self.network,
            address=address,
            value=value,
            config=self.config,
            rng=self.rngs.stream(f"peer:{address}"),
            pool_address=self.pool.address,
            metrics=self.metrics,
            history=self.history,
        )
        self.peers[address] = peer
        self.membership.track(peer)
        return peer

    @property
    def bootstrapped(self) -> bool:
        """Whether the first peer has been created."""
        return self._bootstrapped

    def bootstrap(self) -> IndexPeer:
        """Create the first peer (owning the whole key space)."""
        if self._bootstrapped:
            raise SimulationError("the index is already bootstrapped")
        peer = self._make_peer(value=self.config.key_space)
        peer.bootstrap_first()
        self._bootstrapped = True
        return peer

    def add_peer(self) -> IndexPeer:
        """Add a new peer to the system as a *free* peer.

        Free peers enter the ring when a Data Store split needs them, exactly
        as in P-Ring; the experiments add peers at the paper's rate of one
        every three seconds.
        """
        if not self._bootstrapped:
            return self.bootstrap()
        peer = self._make_peer(value=0.0)
        self.pool.add(peer.address)
        return peer

    def fail_peer(self, address: str) -> None:
        """Fail-stop the peer at ``address``."""
        peer = self.peers[address]
        peer.fail()

    def live_peers(self) -> List[IndexPeer]:
        """All peers that have not failed."""
        return self.membership.live_peers()

    def ring_members(self) -> List[IndexPeer]:
        """All live peers currently part of the ring, in ring-value order."""
        return self.membership.ring_members()

    def free_peers(self) -> List[IndexPeer]:
        """All live peers currently outside the ring."""
        return self.membership.free_peers()

    def peer_for_key(self, key: float) -> Optional[IndexPeer]:
        """The ring member currently responsible for ``key`` (by direct inspection)."""
        candidate = self.membership.member_for_key(key)
        if candidate is not None and candidate.store.owns_key(key):
            return candidate
        # Data Store ranges trail ring values while splits/failures propagate;
        # fall back to inspecting every member during those windows.
        for peer in self.ring_members():
            if peer.store.owns_key(key):
                return peer
        return None

    def total_stored_items(self) -> int:
        """Total number of items across all live Data Stores."""
        return sum(peer.store.item_count() for peer in self.ring_members())

    def reachability(self) -> ReachabilityAudit:
        """Scan-vs-store audit: which stored copies a full scan would return.

        ``items_reachable == items_stored`` is the deployment's first-class
        correctness gate: any gap means some copy is stranded outside its
        holder's range (usually by a half-completed split) and no range query
        can ever return it.
        """
        return audit_reachability(self.ring_members())

    def split_pressure(self) -> bool:
        """Whether more ring growth is still pending.

        True while some member's Data Store is overflowed with a *feasible*
        split (see :meth:`StorageBalancer.split_feasible`) and a free peer is
        available to absorb it -- i.e. the split cascade has not finished, it
        is merely between protocol rounds.  The phase executor's quiescence
        condition uses this so a lull between split bursts (splits are paced
        by periodic balancer checks) is not mistaken for a settled
        deployment.  An overflow made of ring-stranded items (a boundary
        moved since they arrived) is deliberately *not* pressure: no split
        can ever service it.
        """
        if not self.membership.free_peers():
            return False
        threshold = self.config.overflow_threshold
        return any(
            peer.store.item_count() > threshold and peer.balancer.split_feasible()
            for peer in self.membership.ring_members()
        )

    # ------------------------------------------------------------------ time control
    def run(self, duration: float) -> float:
        """Advance the simulation by ``duration`` seconds."""
        return self.sim.run(until=self.sim.now + duration)

    def run_process(self, generator, timeout: float = 600.0):
        """Run a simulated process to completion and return its value."""
        return self.sim.run_process(generator, timeout=timeout)

    def shutdown(self) -> None:
        """Release transport resources (sockets, loops).  Idempotent.

        A no-op for the simulated transport; required after asyncio runs so
        repeated deployments in one process don't leak file descriptors.
        """
        self.transport.shutdown()

    # ------------------------------------------------------------------ index API
    def _entry_peer(self, via: Optional[str] = None) -> IndexPeer:
        if via is not None:
            peer = self.peers[via]
            if peer.alive:
                return peer
        peer = self.membership.first_member()
        if peer is None:
            raise SimulationError("no live ring members to route through")
        return peer

    def _routed_write(self, peer: IndexPeer, skv: float, method: str, payload: dict, ack: str):
        """Generator: call ``method`` on the owner of ``skv`` until it answers ``ack``.

        Returns the acknowledging owner's address, or ``None`` once the ring's
        repair horizon has passed: a write into a range whose owner just
        failed waits for the take-over on the clock, not on an attempt count.
        """
        deadline = self.sim.now + self.config.repair_horizon
        while True:
            owner = yield from peer.router.route_until(skv, deadline)
            if owner is None:
                return None
            try:
                response = yield peer.call(owner, method, payload)
                if response.get(ack):
                    return owner
            except RpcError:
                pass
            yield self.sim.capped_timeout(0.1, deadline)

    def insert_item(self, skv: float, payload=None, via: Optional[str] = None):
        """Generator: insert ``(skv, payload)`` through peer ``via`` (or any member)."""
        peer = self._entry_peer(via)
        self.history.record("index_insert_item", peer=peer.address, skv=skv)
        owner = yield from self._routed_write(
            peer, skv, "ds_store_item", {"item": {"skv": skv, "payload": payload}}, "stored"
        )
        stored = owner is not None
        self.history.record(
            "index_insert_done", peer=peer.address, skv=skv, stored=stored
        )
        return stored

    def delete_item(self, skv: float, via: Optional[str] = None):
        """Generator: delete the item with key ``skv``."""
        peer = self._entry_peer(via)
        self.history.record("index_delete_item", peer=peer.address, skv=skv)
        responsible = yield from self._routed_write(
            peer, skv, "ds_remove_item", {"skv": skv}, "removed"
        )
        removed = responsible is not None
        if removed:
            owner = self.peers.get(responsible)
            if owner is not None and owner.alive:
                owner.replication.propagate_delete(skv)
        self.history.record("index_delete_done", peer=peer.address, skv=skv, removed=removed)
        return removed

    def query_client(
        self,
        routing: str = "primary",
        consistency: str = "strong",
        via: Optional[str] = None,
    ) -> QueryClient:
        """A :class:`QueryClient` for an entry peer and routing policy.

        A client holds no state between queries, so each call builds one.
        """
        return QueryClient(
            self._entry_peer(via),
            routing=routing,
            consistency=consistency,
            tracker=self.serve_tracker,
            metrics=self.metrics,
        )

    def range_query(
        self,
        lb: float,
        ub: float,
        via: Optional[str] = None,
        timeout: float = 60.0,
        routing: str = "primary",
        consistency: str = "strong",
    ):
        """Generator: evaluate ``(lb, ub]`` under ``routing`` and record it for checking."""
        client = self.query_client(routing=routing, consistency=consistency, via=via)
        result = yield from client.query(lb, ub, timeout=timeout)
        self.query_records.append(
            QueryRecord(
                lb=lb,
                ub=ub,
                start_time=result["start_time"],
                end_time=result["end_time"],
                result_keys=result["keys"],
            )
        )
        return result

    # ------------------------------------------------------------------ convenience (blocking wrappers)
    def insert_item_now(self, skv: float, payload=None, via: Optional[str] = None) -> bool:
        """Insert an item and advance the simulation until it completes."""
        return self.run_process(self.insert_item(skv, payload, via=via))

    def delete_item_now(self, skv: float, via: Optional[str] = None) -> bool:
        """Delete an item and advance the simulation until it completes."""
        return self.run_process(self.delete_item(skv, via=via))

    def range_query_now(
        self,
        lb: float,
        ub: float,
        via: Optional[str] = None,
        timeout: float = 60.0,
        routing: str = "primary",
        consistency: str = "strong",
    ):
        """Run a range query and advance the simulation until it completes."""
        return self.run_process(
            self.range_query(
                lb, ub, via=via, timeout=timeout, routing=routing, consistency=consistency
            )
        )
