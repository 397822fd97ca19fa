"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro import PRingIndex, default_config
from repro.sim.engine import Simulator
from repro.sim.network import Network, NetworkConfig
from repro.sim.randomness import RngStreams


@pytest.fixture(params=["heap"])
def heap_id():
    """Does nothing.  Its one param keeps the ``[heap]`` suffix in the ids of
    the tests that ran once per event engine while there were two, so their
    results stay comparable by name with every earlier run of the suite."""


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def network(sim) -> Network:
    rngs = RngStreams(7)
    return Network(sim, rngs.stream("network"), NetworkConfig())


def build_cluster(
    seed: int = 1,
    peers: int = 8,
    keys=None,
    settle: float = 25.0,
    spacing: float = 0.4,
    **config_overrides,
) -> tuple:
    """Build a small, settled deployment for integration-style tests.

    Returns ``(index, keys)``.  Peers are added as free peers up front and get
    pulled into the ring by Data Store splits as the items arrive, exactly as
    in the real system; ``settle`` seconds of idle time let stabilization,
    replication and the router converge.
    """
    config = default_config(seed=seed, **config_overrides)
    index = PRingIndex(config)
    index.bootstrap()
    for _ in range(peers - 1):
        index.add_peer()
    if keys is None:
        keys = [float(k) for k in range(100, 100 + 55 * 15, 15)]
    for key in keys:
        index.insert_item_now(key, payload=f"payload-{key}")
        index.run(spacing)
    index.run(settle)
    return index, list(keys)


@pytest.fixture
def small_cluster():
    """A settled 8-peer deployment with ~55 items and PEPPER protocols."""
    return build_cluster(seed=5)


@pytest.fixture
def naive_cluster():
    """The same deployment built with every naive baseline protocol."""
    config = default_config(seed=5).with_naive_protocols()
    index = PRingIndex(config)
    index.bootstrap()
    for _ in range(7):
        index.add_peer()
    keys = [float(k) for k in range(100, 100 + 55 * 15, 15)]
    for key in keys:
        index.insert_item_now(key, payload=f"payload-{key}")
        index.run(0.4)
    index.run(25.0)
    return index, keys
