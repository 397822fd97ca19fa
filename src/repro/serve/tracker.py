"""Per-peer in-flight RPC accounting: the load signal behind ``replica_lb``.

The transport layer (both the simulated :class:`~repro.sim.network.Network`
and the real-socket :class:`~repro.transport.asyncio_transport.AsyncioNetwork`)
exposes an ``observer`` slot with two hooks:

* ``rpc_issued(source, destination, method)`` -- fired once per ``call``;
* ``rpc_completed(destination)`` -- fired exactly once per call, when the
  reply settles the caller's event *or* when the expiry timer does, whichever
  wins the race.  Both planes run on the one event engine (on asyncio, paced
  by wall time), so the expiry is an engine timer on either and whichever of
  the two comes first pops the pending record.

:class:`InFlightTracker` turns those hooks into two maps:

* ``in_flight[address]`` -- RPCs currently outstanding against ``address``
  (all methods; an overloaded peer is slow to answer *everything*, so the
  balancing signal should see its full queue, not just reads);
* ``read_load[address]`` -- cumulative count of *read-path* RPCs issued to
  ``address`` (the :data:`READ_METHODS` set).  The per-peer load variance
  reported in BENCH cells is the population variance of this map over the
  ring members -- the number ``replica_lb`` is meant to flatten.

Casts are not tracked: they have no completion signal, so counting them would
leak the in-flight map upward forever.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

# RPC methods that constitute the read path.  ``serve_meta`` is deliberately
# excluded from ``read_load``: it is a constant-size metadata probe every
# routing policy pays identically, so counting it would only dilute the
# variance signal the BENCH cells compare.
READ_METHODS = frozenset(
    {
        "serve_read",
        "scan_begin",
        "scan_continue",
        "ds_get_local_items",
        "ring_successor_info",
    }
)


class InFlightTracker:
    """Counts outstanding RPCs and cumulative read load per destination."""

    def __init__(self):
        self.in_flight: Dict[str, int] = {}
        self.read_load: Dict[str, int] = {}
        self.issued = 0
        self.completed = 0

    # -- transport observer hooks ------------------------------------------
    def rpc_issued(self, source: str, destination: str, method: str) -> None:
        self.issued += 1
        self.in_flight[destination] = self.in_flight.get(destination, 0) + 1
        if method in READ_METHODS:
            self.read_load[destination] = self.read_load.get(destination, 0) + 1

    def rpc_completed(self, destination: str) -> None:
        self.completed += 1
        count = self.in_flight.get(destination, 0) - 1
        if count > 0:
            self.in_flight[destination] = count
        else:
            # Drop zeroed entries so the map stays proportional to *active*
            # destinations, not to every address ever contacted.
            self.in_flight.pop(destination, None)

    # -- queries ------------------------------------------------------------
    def outstanding(self, address: str) -> int:
        """RPCs currently in flight against ``address``."""
        return self.in_flight.get(address, 0)

    def least_loaded(self, candidates: List[str]) -> str:
        """The candidate with the fewest outstanding RPCs.

        Ties break by cumulative read load, then by position in
        ``candidates`` (callers list the primary first).  The secondary key
        matters more than it looks: when service times are shorter than the
        arrival gaps the in-flight counts are almost always all zero, and
        without it every read would collapse onto the primary -- cumulative
        load turns that regime into a deterministic least-served rotation.
        """
        if not candidates:
            raise ValueError("least_loaded needs at least one candidate")
        best = candidates[0]
        best_key = (self.in_flight.get(best, 0), self.read_load.get(best, 0))
        for candidate in candidates[1:]:
            key = (self.in_flight.get(candidate, 0), self.read_load.get(candidate, 0))
            if key < best_key:
                best, best_key = candidate, key
        return best

    def read_load_variance(self, addresses: Iterable[str]) -> float:
        """Population variance of cumulative read load over ``addresses``.

        Peers that never served a read count as zero -- an idle replica *is*
        imbalance, so it must weigh the variance down only when the hot peers
        are also near zero.
        """
        loads = [self.read_load.get(address, 0) for address in addresses]
        if not loads:
            return 0.0
        mean = sum(loads) / len(loads)
        return sum((load - mean) ** 2 for load in loads) / len(loads)
