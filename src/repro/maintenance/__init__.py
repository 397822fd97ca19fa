"""The back-off cadence shared by self-pacing maintenance loops.

Layer contract
--------------
This package sits *below* the protocol layers: it depends only on the standard
library, so :mod:`repro.router` and :mod:`repro.datastore` can pace their
periodic loops through it without import cycles.  Neighbors may import
everything exported here; nothing in this package may import from any other
``repro`` package.

What lives here:

* :mod:`~repro.maintenance.cadence` -- :class:`AdaptiveCadence`, the
  back-off/tighten controller behind the router's table refresh and the Data
  Store's split-deferral retry.  The ring's own loops run on fixed timers.
"""

from repro.maintenance.cadence import AdaptiveCadence

__all__ = ["AdaptiveCadence"]
