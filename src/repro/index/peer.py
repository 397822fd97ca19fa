"""One peer of the P2P index: the composition of all framework components.

An :class:`IndexPeer` is a simulated node (Section 2.1's peer) carrying the
full indexing framework stack of Section 2.2:

* a Fault Tolerant Ring (:class:`~repro.core.pepper_ring.PepperRing`, which
  degrades to the naive Chord protocols when the corresponding configuration
  flags are off);
* a Data Store with the storage balancer (split / merge / redistribute);
* a CFS-style Replication Manager with the extra-hop protocol;
* a Content Router;
* the range-query engine (scanRange and the naive application-level scan);
* the serve handlers (``serve_meta`` / ``serve_read``), the peer side of the
  serve layer's :class:`~repro.serve.client.QueryClient`.

Peers are created as *free peers* (not in the ring, no range); they are pulled
into the ring either by bootstrapping (the first peer) or by Data Store splits.
"""

from __future__ import annotations

from typing import Optional

from repro.core.pepper_ring import PepperRing
from repro.core.scan_range import RangeQueryEngine
from repro.datastore.maintenance import StorageBalancer
from repro.datastore.store import DataStore
from repro.index.config import IndexConfig
from repro.replication.cfs import ReplicationManager
from repro.ring.chord import ChordRing
from repro.router import HierarchicalRingRouter
from repro.serve.handlers import ServeHandler
from repro.transport import Endpoint


class IndexPeer(Endpoint):
    """A full index peer (ring + data store + replication + router + queries)."""

    def __init__(
        self,
        sim,
        network,
        address: str,
        value: float,
        config: IndexConfig,
        rng,
        pool_address: Optional[str] = None,
        metrics=None,
        history=None,
    ):
        super().__init__(sim, network, address, rng=rng)
        self.config = config
        self.metrics = metrics
        self.history = history

        ring_class = PepperRing if (config.consistent_insert or config.safe_leave) else ChordRing
        self.ring = ring_class(self, value, config, metrics=metrics, history=history)
        self.store = DataStore(self, self.ring, config, metrics=metrics, history=history)
        self.replication = ReplicationManager(self, self.ring, self.store, config, history=history)
        self.router = HierarchicalRingRouter(
            self, self.ring, self.store, config, metrics=metrics, history=history
        )
        self.balancer = StorageBalancer(
            self,
            self.ring,
            self.store,
            self.replication,
            config,
            pool_address,
            router=self.router,
            metrics=metrics,
            history=history,
        )
        self.queries = RangeQueryEngine(
            self, self.ring, self.store, self.router, config, metrics=metrics, history=history
        )
        self.serve = ServeHandler(
            self, self.ring, self.store, self.replication, config, metrics=metrics
        )

    # ------------------------------------------------------------------ helpers
    @property
    def value(self) -> float:
        """The peer's current ring value (upper bound of its range)."""
        return self.ring.value

    @property
    def in_ring(self) -> bool:
        """Whether this peer is currently a ring member."""
        return self.alive and self.ring.is_joined

    @property
    def is_free(self) -> bool:
        """Whether this peer is currently a free peer (alive but not in the ring)."""
        return self.alive and not self.ring.is_joined

    # ------------------------------------------------------------------ bootstrap
    def bootstrap_first(self) -> None:
        """Make this peer the first (and only) member of the system."""
        self.ring.create()
        self.store.activate_first(self.ring.value)

    # ------------------------------------------------------------------ failure hooks
    def on_failed(self) -> None:
        if self.ring.membership is not None:
            self.ring.membership.peer_gone(self)
        if self.history is not None:
            self.history.record("peer_failed", peer=self.address)
