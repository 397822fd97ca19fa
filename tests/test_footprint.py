"""A footprint guard: what a settled deployment holds per ring member.

A 1000-peer run allocates tens of thousands of item copies, history records,
successor entries, ranges and locks, and six periodic loops per peer.  The
records declare slots (no instance ``__dict__``), a loop is a process with
no generator of its own between rounds (``docs/ARCHITECTURE.md``, "Contract:
the event engine", *Memory*), and the history and the item stores keep
their records as columns (``docs/ARCHITECTURE.md``, "Contract: the operation
history" and "Contract: the item store").

The budget is the ``tracemalloc`` reading of settled ``scale_100`` (build and
settle, seed 0), in bytes per ring member, with 20% headroom.  The reading
differs by interpreter, so it is kept per minor version; the readings before
the records had slots and the loops lost their generators were 68,961 /
58,914 / 57,785 bytes on CPython 3.10 / 3.11 / 3.12, 49,069 / 43,897 /
43,688 before the history became columns, 32,293 / 29,703 / 29,496
before the item stores became columns, and 27,079 / 24,329 / 24,159 while
each held copy had an entry in a per-key lease map (recorded as 27,983 /
25,519 / 25,300).
"""

import gc
import random
import sys
import tracemalloc

import pytest

from repro.core.histories import HistoryRecorder, Operation
from repro.datastore.items import Item, ItemStore
from repro.datastore.ranges import CircularRange
from repro.harness.scenarios import build_experiment, get_scenario
from repro.ring.entries import SuccessorEntry
from repro.sim.engine import Simulator
from repro.sim.locks import RWLock
from repro.sim.network import Network, NetworkConfig
from repro.transport import Endpoint

HEADROOM = 1.2
# Settled ``scale_100`` bytes per ring member, by CPython minor version.
READINGS = {(3, 10): 25_682, (3, 11): 22_907, (3, 12): 22_737}
# Bytes one recorded operation may hold in the recorder's columns.
RECORD_BUDGET = 80
# Bytes one stored item copy may hold in an item store's two columns.
COPY_BUDGET = 40


@pytest.mark.parametrize("make", [
    pytest.param(lambda: Item(1.0, "payload"), id="Item"),
    pytest.param(lambda: Operation(1, "item_stored", 0.0, "peer", {}), id="Operation"),
    pytest.param(lambda: SuccessorEntry("peer", 1.0), id="SuccessorEntry"),
    pytest.param(lambda: CircularRange(0.0, 1.0), id="CircularRange"),
    pytest.param(lambda: RWLock(Simulator()), id="RWLock"),
])
def test_per_item_records_have_no_instance_dict(make):
    assert not hasattr(make(), "__dict__")


def test_a_sleeping_periodic_loop_has_no_instance_dict_and_no_generator():
    sim = Simulator()
    peer = Endpoint(sim, Network(sim, random.Random(1), NetworkConfig()), "peer")
    loop = peer.every(1.0, lambda: None)
    sim.run(until=1.5)  # one round run, the next sleep armed
    assert not hasattr(loop, "__dict__")
    assert loop.generator is None


def test_a_settled_scale_100_ring_stays_inside_its_bytes_per_member_budget():
    reading = READINGS.get(sys.version_info[:2])
    if reading is None:
        pytest.skip(f"no reading for CPython {sys.version_info[0]}.{sys.version_info[1]}")
    spec = get_scenario("scale_100")
    gc.collect()
    tracemalloc.start(1)
    try:
        experiment = build_experiment(spec, spec.seed)
        experiment.run_phases(spec.phases[:2], total_peers=spec.peers)  # build, settle
        gc.collect()
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    members = len(experiment.index.ring_members())
    per_member = held / members
    print(f"settled scale_100: {per_member:,.0f} B per ring member (reading {reading:,})")
    assert per_member <= HEADROOM * reading


def test_a_recorded_operation_stays_inside_its_bytes_budget():
    # The settled build's commonest attribute shapes; the keys, peers and
    # ranges already exist (on items, peers and stores) before they are recorded.
    rng = random.Random(0)
    peers = [f"peer-{i}" for i in range(100)]
    shapes = [
        ("item_stored", lambda key: {"skv": key, "reason": "split_transfer"}),
        ("index_insert_item", lambda key: {"skv": key}),
        ("route", lambda key: {"key": key, "hops": 3, "found": peers[0]}),
        ("index_insert_done", lambda key: {"skv": key, "stored": True}),
        ("item_removed", lambda key: {"skv": key, "reason": "split"}),
        ("range_changed", lambda key: {"range": (key, key + 0.1, False), "reason": "split"}),
    ]
    calls = [
        (kind, rng.choice(peers), make(rng.random()))
        for kind, make in (shapes[i % len(shapes)] for i in range(10_000))
    ]
    gc.collect()
    tracemalloc.start(1)
    try:
        recorder = HistoryRecorder()
        for kind, peer, attrs in calls:
            recorder.record(kind, peer=peer, **attrs)
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_record = held / len(calls)
    print(f"{per_record:.1f} B per recorded operation (budget {RECORD_BUDGET})")
    assert per_record <= RECORD_BUDGET


def test_a_stored_item_copy_stays_inside_its_bytes_budget():
    # 10k copies in 400 stores, about a settled store's size; the keys and
    # payloads already exist (on the wire dicts they arrive in) before they
    # are stored.  ``add`` keeps a key slot and a payload slot, not the Item.
    rng = random.Random(0)
    stores_copies = [
        [(rng.random(), f"payload-{store}-{copy}") for copy in range(25)]
        for store in range(400)
    ]
    copies = sum(len(entries) for entries in stores_copies)
    gc.collect()
    tracemalloc.start(1)
    try:
        stores = []
        for entries in stores_copies:
            store = ItemStore()
            for skv, payload in entries:
                store.add(Item(skv, payload))
            stores.append(store)
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_copy = held / copies
    print(f"{per_copy:.1f} B per stored item copy (budget {COPY_BUDGET})")
    assert per_copy <= COPY_BUDGET
