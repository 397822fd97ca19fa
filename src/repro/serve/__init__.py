"""The serve layer: one client-facing query API over the P-Ring protocols.

After PR 10 there is exactly one way to issue a range query:
:class:`~repro.serve.client.QueryClient` with a ``routing=`` policy
(``primary`` | ``replica_lb``) and a ``consistency=`` knob;
:meth:`~repro.core.scan_range.RangeQueryEngine.query` is its primary-routing
backend.

* :mod:`repro.serve.tracker` -- per-peer in-flight RPC accounting fed by the
  transport layer's observer hooks; the load signal ``replica_lb`` balances on.
* :mod:`repro.serve.handlers` -- the peer-side ``serve_meta`` / ``serve_read``
  RPCs: version-checked replica reads that never serve tombstoned or stale
  copies.
* :mod:`repro.serve.client` -- the :class:`QueryClient` itself.
* :mod:`repro.serve.workload` -- the open-loop (arrival-rate, zipf-hotspot)
  workload generator behind ``ServeSpec`` scenario phases.

This is a protocol layer: it depends only on the transport contract and the
other protocol components, never on the simulation substrate
(``tests/test_import_boundary.py`` enforces this).
"""

from repro.serve.client import QueryClient
from repro.serve.handlers import ServeHandler
from repro.serve.tracker import READ_METHODS, InFlightTracker
from repro.serve.workload import OpenLoopQuery, open_loop_queries, zipf_hotspot_windows

__all__ = [
    "InFlightTracker",
    "OpenLoopQuery",
    "QueryClient",
    "READ_METHODS",
    "ServeHandler",
    "open_loop_queries",
    "zipf_hotspot_windows",
]
