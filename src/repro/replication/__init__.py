"""Replication Manager: CFS-style successor replication plus the extra-hop protocol.

Layer contract: builds on :mod:`repro.sim`, :mod:`repro.ring` (listens for
predecessor changes to revive replicas) and :mod:`repro.datastore`
(reads the local store, promotes replicas into it).  It has no loop of its
own: every second ring maintenance tick (:meth:`ReplicationManager.on_tick`)
is a replication round, and a split hands its new peer the splitter's lease
for its predecessor.  Which held copies may be revived is one value, the
holder's lease table (:mod:`repro.replication.leases`): only that module's
functions read and change it, and nothing outside this package reads its
internals -- the serve layer's replica reads ask it for an owner's recorded
snapshot through :func:`~repro.replication.leases.snapshot`.  Only
:class:`~repro.index.peer.IndexPeer` composes a :class:`ReplicationManager`,
which keeps the casts, the rounds and the revive; other layers interact with
replication solely through the ring events and the store.
"""

from repro.replication.cfs import ReplicationManager
from repro.replication.extra_hop import push_items_one_extra_hop

__all__ = ["ReplicationManager", "push_items_one_extra_hop"]
