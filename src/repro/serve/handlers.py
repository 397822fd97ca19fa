"""Peer-side serve RPCs: metadata probes and version-checked replica reads.

Two handlers per peer:

* ``serve_meta`` -- the client's routing probe: is this peer an active owner,
  of which range, at which :class:`~repro.datastore.items.ItemStore` version,
  with which replica set (``replicas``) and which of those hold its current
  snapshot (``current``: the targets of its last push while its store has
  not changed since), and who is its ring successor.  One constant-size
  message; every routing policy pays it once per hop.

* ``serve_read`` -- serve the window ``(lb, ub]`` on behalf of ``owner``.
  Asked of the owner itself it answers from the primary Data Store (checking
  its range still covers the window -- a concurrent split sends the client
  back to routing).  Asked of a replica holder it answers **only** from the
  owner's last replication push, and only while that push is provably
  current: the recorded push version must equal the version the client just
  read off the owner's ``serve_meta``.  Any mutation at the owner since the
  push (insert, delete, split, shed) bumps the version and the replica
  refuses, so a replica read can never serve a stale or tombstoned copy --
  tombstoned keys are recorded in the push key set but never stored, which
  surfaces as a refusal, not as resurrected data.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List

from repro.datastore.items import Item, items_to_wire
from repro.datastore.ranges import segments_cover_interval
from repro.index.config import IndexConfig
from repro.replication import leases


class ServeHandler:
    """Serve-layer RPC component of one peer."""

    def __init__(self, node, ring, store, replication, config: IndexConfig, metrics=None):
        self.node = node
        self.ring = ring
        self.store = store
        self.replication = replication
        self.config = config
        self.metrics = metrics

        node.register_handler("serve_meta", self._handle_meta)
        node.register_handler("serve_read", self._handle_read)

    def _record_metric(self, name: str, value: float) -> None:
        if self.metrics is not None:
            self.metrics.record(name, value)

    # ------------------------------------------------------------------ RPC handlers
    def _handle_meta(self, payload, request):
        """RPC: the client's routing probe (owner state + replica candidates)."""
        active = self.store.active and self.store.range is not None
        replicas = self.ring.joined_successors(self.config.replication_factor) if active else []
        holders = self.replication.current_holders()
        return {
            "active": active,
            "range": self.store.range.as_tuple() if active else None,
            "version": self.store.items.version,
            "replicas": replicas,
            "current": [address for address in replicas if address in holders],
            "successor": self.ring.first_live_successor(),
        }

    def _handle_read(self, payload, request):
        """RPC: serve ``(lb, ub]`` for ``owner`` from primary or replica state."""
        lb, ub = payload["lb"], payload["ub"]
        owner = payload["owner"]
        if owner == self.node.address:
            return self._primary_read(lb, ub)
        return self._replica_read(owner, lb, ub, payload.get("version"))

    # ------------------------------------------------------------------ read paths
    def _primary_read(self, lb: float, ub: float) -> dict:
        if not self.store.active or self.store.range is None:
            return {"ok": False, "reason": "inactive"}
        segments = self.store.range.intersect_interval(lb, ub)
        if not segments_cover_interval(segments, lb, ub):
            # Our range no longer covers the whole window (split/merge raced
            # with the client's probe); send it back to routing rather than
            # return a silently partial answer.
            return {"ok": False, "reason": "moved"}
        items = self.store.items.interval_wire(lb, ub)
        self._record_metric("serve_read_primary", len(items))
        return {"ok": True, "items": items, "source": "primary"}

    def _replica_read(self, owner: str, lb: float, ub: float, version) -> dict:
        pushed = leases.snapshot(self.replication.table, owner, self.node.sim.now)
        if pushed is None:
            return {"ok": False, "reason": "no_push"}
        pushed_version, keys, deleted = pushed
        if version is not None and pushed_version != version:
            # The owner mutated since this push: our copy may miss inserts or
            # resurrect deletions.  Strong-consistency readers go back to the
            # primary; eventual readers pass ``version=None`` and accept the
            # recorded snapshot.
            return {"ok": False, "reason": "stale"}
        replicas = self.replication.replicas
        primary = self.store.items if self.store.active else None
        collected: List[Item] = []
        for skv in keys[bisect_right(keys, lb):bisect_right(keys, ub)]:
            if skv in deleted:
                # Deleted under us since the push; never serve it.
                return {"ok": False, "reason": "tombstoned"}
            item = replicas.get(skv)
            if item is None and primary is not None:
                # We hold the primary copy ourselves (the push skipped it).
                item = primary.get(skv)
            if item is None:
                return {"ok": False, "reason": "missing"}
            collected.append(item)
        self._record_metric("serve_read_replica", len(collected))
        return {"ok": True, "items": items_to_wire(collected), "source": "replica"}
