"""Replicate-to-additional-hop (Section 5.2).

Before a peer merges away and leaves the ring, every item it holds (both the
items in its Data Store -- already transferred to the successor by the merge --
and the replicas it stores on behalf of predecessors) must exist on one more
peer than before, otherwise the departure reduces the replica count and a
single subsequent failure can lose items (the Figure 17 scenario).

The naive baseline simply skips this step, which is what the availability
ablation (`repro-run ablation_availability`) quantifies.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.datastore.items import Wire
from repro.transport import RpcError


def push_items_one_extra_hop(node, ring, items: Iterable[Wire], hops: int):
    """Send the wire ``items`` to up to ``hops`` JOINED successors of ``node``.

    Runs as a generator (a simulated process step).  Returns the number of
    successors that acknowledged the replicas.  Failures of individual
    successors are tolerated: the protocol only needs *one* additional holder
    to preserve the replica count, and the periodic refresh repairs the rest.
    """
    items = list(items)
    if not items:
        return 0
    acknowledged = 0
    targets: List[str] = ring.joined_successors(hops)
    # No snapshot of anyone's store: receivers keep each owner's recorded
    # snapshot (and its lease) as it is.
    payload = {"items": items, "owner": node.address, "extra_hop": True, "snapshot": False}
    for target in targets:
        try:
            yield node.call(target, "rep_store_replicas", payload)
            acknowledged += 1
        except RpcError:
            continue
    return acknowledged
