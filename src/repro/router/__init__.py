"""The Content Router.

The Content Router's job (Section 2.2) is to deliver a message to the peer
responsible for a given search key value -- here, to find the peer at which a
range scan must start or an item must be stored.  The paper's P-Ring Content
Router builds a hierarchy of rings; its details are explicitly out of scope
("not relevant here"), so this package provides one faithful-in-spirit
implementation, the router of every peer and every cell:

* :class:`~repro.router.hierarchical.HierarchicalRingRouter` -- each peer keeps
  a table of exponentially spaced pointers built by pointer doubling and routes
  in O(log N) hops, every hop a table hop.

Layer contract: builds on :mod:`repro.sim`, :mod:`repro.ring` and
:mod:`repro.datastore` (range ownership checks).
"""

from repro.router.hierarchical import HierarchicalRingRouter

__all__ = ["HierarchicalRingRouter"]
