"""P-Ring Data Store: order-preserving item placement with storage balancing.

Layer contract: builds on :mod:`repro.sim` and :mod:`repro.ring` (ranges
follow the ring's predecessor pointers via :class:`RingListener` events;
splits address ring inserts at the splitter's ``ChordRing.pred_address``).  May
import :mod:`repro.index.config` for tunables.  The replication manager and
the index peer compose these classes; neighbors should import
:class:`DataStore`, :class:`StorageBalancer`, :class:`FreePeerPool` (from
``maintenance``), :class:`Item`/:class:`ItemStore` and
:class:`CircularRange` from here rather than reaching into submodules.
"""

from repro.datastore.items import Item, ItemStore
from repro.datastore.ranges import CircularRange
from repro.datastore.store import DataStore
from repro.datastore.maintenance import StorageBalancer

__all__ = ["CircularRange", "DataStore", "Item", "ItemStore", "StorageBalancer"]
