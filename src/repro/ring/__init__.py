"""Fault Tolerant Ring substrate (Chord-style) with naive baseline protocols.

Layer contract: sits directly on :mod:`repro.sim`, and may additionally
import :mod:`repro.index.config` (the shared tunables; config deliberately
imports nothing from this package).  Its loops run on fixed periods, and
its successor-list rules are the pure functions of
:mod:`repro.ring.entries`.  Higher layers (datastore, replication, router,
index) attach to a ring through :class:`RingListener` callbacks and the
public query/bootstrap methods of :class:`ChordRing` -- they must never
mutate ``ring.state`` / ``ring.value`` directly (the membership index is
notified through ``_set_state`` / ``_set_value``; see
``docs/ARCHITECTURE.md``).  The PEPPER protocol variants subclass
:class:`ChordRing` from :mod:`repro.core.pepper_ring`.
"""

from repro.ring.entries import (
    FREE,
    INSERTING,
    JOINED,
    JOINING,
    LEAVING,
    SuccessorEntry,
)
from repro.ring.chord import ChordRing, RingListener

__all__ = [
    "ChordRing",
    "FREE",
    "INSERTING",
    "JOINED",
    "JOINING",
    "LEAVING",
    "RingListener",
    "SuccessorEntry",
]
