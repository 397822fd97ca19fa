"""The end-state census: what a deployment still holds once its last phase ends.

:func:`state_census` sums each live peer's own counts into one flat map of
named rows.  It runs once, after the last phase and outside every timed
window, so it moves no simulated number.  A row that reads 0 on working code
is asserted by CI; the rest are reported.

Replication rows (:meth:`repro.replication.cfs.ReplicationManager.census`):
replica copies held, those no lease lets a successor revive
(``_unpromotable``), and those no lease has carried for the promotable window
plus one replication period; the owners' snapshot records, past the window and
past the window plus one period; tombstones still blocking a copy, and
expired ones still kept.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict


def state_census(index) -> Dict[str, int]:
    """Every census row of ``index``'s live peers, summed."""
    rows: Counter = Counter()
    for peer in index.live_peers():
        rows.update(peer.replication.census())
    return dict(sorted(rows.items()))
