"""P2P Index layer: configuration, per-peer composition and the cluster facade.

Attribute access is lazy so that low-level packages (ring, data store,
replication) can import :mod:`repro.index.config` without dragging in the
peer/cluster modules that depend on them.

Layer contract: :mod:`repro.index.config` is the *shared tunables* module --
it imports only :mod:`repro.sim` and may be imported by every protocol
layer.  The rest of the package composes the full
stack: :class:`IndexPeer` wires ring + datastore + replication + router +
queries into one node, :class:`~repro.index.membership.MembershipIndex`
maintains the incremental live/free/ring-member sets (fed exclusively by the
ring's ``_set_state``/``_set_value`` hooks and the peer failure hooks -- see
``docs/ARCHITECTURE.md``), and :class:`PRingIndex` is the cluster facade the
harness, examples and tests drive.  Nothing below the harness may import
``peer``/``pring``.
"""

from typing import TYPE_CHECKING

__all__ = ["IndexConfig", "IndexPeer", "PRingIndex", "default_config"]

if TYPE_CHECKING:  # pragma: no cover - static typing only
    from repro.index.config import IndexConfig, default_config
    from repro.index.peer import IndexPeer
    from repro.index.pring import PRingIndex


def __getattr__(name):
    if name in ("IndexConfig", "default_config"):
        from repro.index import config

        return getattr(config, name)
    if name == "IndexPeer":
        from repro.index.peer import IndexPeer

        return IndexPeer
    if name == "PRingIndex":
        from repro.index.pring import PRingIndex

        return PRingIndex
    raise AttributeError(f"module 'repro.index' has no attribute {name!r}")
