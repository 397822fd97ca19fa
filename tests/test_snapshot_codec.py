"""Codec round trips: every serialised structure survives encode -> JSON -> decode.

Each test pushes a component's encoding through an actual ``json.dumps`` /
``json.loads`` cycle (the snapshot store persists JSON, so "round trips as a
Python dict" alone would not prove the on-disk format), decodes it into a
*fresh* instance of the component, and asserts the re-encoding is identical.
Component tests that need live protocol objects run on a settled deployment.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.datastore.items import Item, ItemStore
from repro.datastore.ranges import CircularRange
from repro.index.peer import IndexPeer
from repro.maintenance.cadence import AdaptiveCadence, FixedCadence
from repro.snapshot.codec import (
    decode_cadence,
    decode_peer_components,
    decode_range,
    decode_rng_state,
    decode_stats,
    encode_cadence,
    encode_peer,
    encode_range,
    encode_rng_state,
    encode_stats,
)
from repro.transport.api import NetworkStats

from tests.conftest import build_cluster


def _json_cycle(data):
    """The exact transformation the snapshot store applies to the payload."""
    return json.loads(json.dumps(data))


# ------------------------------------------------------------------ scalar codecs
def test_rng_state_round_trip_preserves_the_stream():
    rng = random.Random(1234)
    rng.random(), rng.gauss(0, 1)  # advance past the seed, set gauss_next
    encoded = _json_cycle(encode_rng_state(rng.getstate()))
    twin = random.Random()
    twin.setstate(decode_rng_state(encoded))
    assert [twin.random() for _ in range(20)] == [rng.random() for _ in range(20)]
    assert twin.gauss(0, 1) == rng.gauss(0, 1)


def test_item_store_round_trip_including_version():
    store = ItemStore()
    for skv in (10.0, 250.5, 3.25):
        store.add(Item(skv=skv, payload=f"p-{skv}"))
    store.remove(250.5)  # bumps version past len(items): the counter matters
    from repro.snapshot.codec import decode_item_store, encode_item_store

    encoded = _json_cycle(encode_item_store(store))
    fresh = ItemStore()
    decode_item_store(encoded, fresh)
    assert encode_item_store(fresh) == encoded
    assert fresh.version == store.version


@pytest.mark.parametrize(
    "crange",
    [None, CircularRange(10.0, 250.0), CircularRange(250.0, 10.0), CircularRange(0.0, 0.0, full=True)],
    ids=["none", "plain", "wrapping", "full"],
)
def test_range_round_trip(crange):
    decoded = decode_range(_json_cycle(encode_range(crange)))
    assert encode_range(decoded) == encode_range(crange)


def test_adaptive_cadence_round_trip():
    cadence = AdaptiveCadence(base=2.0)
    for _ in range(5):
        cadence.note_success()  # backed-off interval + success count
    fresh = AdaptiveCadence(base=2.0)
    decode_cadence(_json_cycle(encode_cadence(cadence)), fresh)
    assert fresh._interval == cadence._interval
    assert fresh._successes == cadence._successes


def test_fixed_cadence_encodes_as_stateless():
    assert encode_cadence(FixedCadence(base=1.0)) is None


def test_stats_round_trip():
    stats = NetworkStats()
    stats.messages_sent = 101
    stats.rpc_calls = 55
    stats.rpc_timeouts = 2
    stats.latency_sum = 0.123456789
    stats.latency_samples = 55
    stats.per_method = {"echo": 50, "note": 5}
    stats.per_site_rpcs = {"site-a": 55}
    fresh = NetworkStats()
    decode_stats(_json_cycle(encode_stats(stats)), fresh)
    assert encode_stats(fresh) == encode_stats(stats)


# ------------------------------------------------------------------ live components
@pytest.fixture
def cluster(heap_id):
    index, keys = build_cluster(seed=5)
    yield index
    index.shutdown()


# Fields decode_peer_components intentionally leaves to the world-level
# restore (loop arming / joined-event succeed need the defer context).
_WORLD_LEVEL_RING_FIELDS = ("maintenance_started", "joined")


def test_peer_round_trip_on_both_engines(cluster):
    """encode -> JSON -> decode into a *fresh* peer -> identical re-encoding.

    Exercises every per-peer codec at once (ring, datastore, replication,
    router, balancer, query counter) against protocol state produced by a
    real settled deployment -- successor lists, replica freshness maps,
    redirect caches and adaptive cadences all carry non-default values here.
    """
    for address in list(cluster.membership._members):
        source = cluster.peers[address]
        encoded = _json_cycle(encode_peer(source))
        fresh = IndexPeer(
            sim=cluster.sim,
            network=cluster.network,
            address=f"rt-{address}",
            value=encoded["ring"]["value"],
            config=cluster.config,
            rng=cluster.rngs.stream(f"peer:rt-{address}"),
            pool_address=cluster.pool.address,
            metrics=cluster.metrics,
            history=cluster.history,
        )
        decode_peer_components(encoded, fresh)
        round_tripped = encode_peer(fresh)
        round_tripped["address"] = encoded["address"]
        for field in _WORLD_LEVEL_RING_FIELDS:
            round_tripped["ring"][field] = encoded["ring"][field]
        assert round_tripped == encoded, f"peer {address} did not round-trip"


def test_live_stats_round_trip(cluster):
    """The settled deployment's real traffic counters survive the cycle."""
    stats = cluster.network.stats
    assert stats.rpc_calls > 0 and stats.per_method  # non-trivial sample
    fresh = NetworkStats()
    decode_stats(_json_cycle(encode_stats(stats)), fresh)
    assert encode_stats(fresh) == encode_stats(stats)


def test_live_rng_streams_round_trip(cluster):
    """Every named stream's state survives; the twin draws the same future."""
    for name, stream in cluster.rngs._streams.items():
        twin = random.Random()
        twin.setstate(decode_rng_state(_json_cycle(encode_rng_state(stream.getstate()))))
        assert twin.getstate() == stream.getstate(), f"stream {name!r}"
