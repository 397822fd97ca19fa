"""Direct coverage of the pluggable latency models.

Constant / uniform / lan_wan were previously exercised only indirectly through
full simulations.  These tests pin down the properties the harness relies on:
seeded determinism (two equally seeded draws produce identical sequences),
boundedness (every sample stays inside the configured interval), and the
lan_wan site partition being a stable, pure function of the address.
"""

from __future__ import annotations

import random

import pytest

from repro.sim.network import (
    LATENCY_MODELS,
    ConstantLatency,
    LanWanLatency,
    NetworkConfig,
    UniformLatency,
    latency_model_from_params,
)


# --------------------------------------------------------------------------- constant
def test_constant_latency_is_constant_and_rng_free():
    model = ConstantLatency(0.0042)
    assert [model.sample(None, "a", "b") for _ in range(10)] == [0.0042] * 10


def test_constant_latency_rejects_negative_values():
    with pytest.raises(ValueError):
        ConstantLatency(-0.001).validate()


# --------------------------------------------------------------------------- uniform
def test_uniform_latency_is_bounded():
    model = UniformLatency(0.002, 0.009)
    rng = random.Random(5)
    for _ in range(500):
        sample = model.sample(rng, "a", "b")
        assert 0.002 <= sample <= 0.009


def test_uniform_latency_is_seeded_deterministic():
    model = UniformLatency(0.001, 0.004)
    rng_a, rng_b = random.Random(99), random.Random(99)
    assert [model.sample(rng_a, "a", "b") for _ in range(50)] == [
        model.sample(rng_b, "a", "b") for _ in range(50)
    ]


def test_uniform_latency_degenerate_bounds_return_low():
    model = UniformLatency(0.003, 0.003)
    assert model.sample(random.Random(1), "a", "b") == 0.003


def test_uniform_latency_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        UniformLatency(0.005, 0.001).validate()
    with pytest.raises(ValueError):
        UniformLatency(-0.001, 0.002).validate()


# --------------------------------------------------------------------------- lan_wan
def test_lan_wan_site_assignment_is_stable_and_consistent():
    model = LanWanLatency(sites=4)
    addresses = [f"peer{i:03d}" for i in range(100)]
    first = {address: model.site_of(address) for address in addresses}
    # Pure function of the address: identical across calls and across instances.
    again = LanWanLatency(sites=4)
    for address in addresses:
        assert model.site_of(address) == first[address]
        assert again.site_of(address) == first[address]
        assert 0 <= first[address] < 4
    # With 100 addresses over 4 sites every site must be populated.
    assert set(first.values()) == {0, 1, 2, 3}


def test_lan_wan_same_site_draws_lan_cross_site_draws_wan():
    model = LanWanLatency(
        sites=3,
        lan=UniformLatency(0.0005, 0.003),
        wan=UniformLatency(0.02, 0.08),
    )
    rng = random.Random(23)
    addresses = [f"peer{i:03d}" for i in range(40)]
    checked_lan = checked_wan = 0
    for source in addresses[:10]:
        for destination in addresses:
            sample = model.sample(rng, source, destination)
            if model.site_of(source) == model.site_of(destination):
                assert 0.0005 <= sample <= 0.003
                checked_lan += 1
            else:
                assert 0.02 <= sample <= 0.08
                checked_wan += 1
    assert checked_lan > 0 and checked_wan > 0


def test_lan_wan_is_seeded_deterministic():
    model = LanWanLatency(sites=2)
    pairs = [(f"p{i}", f"p{i + 7}") for i in range(30)]
    rng_a, rng_b = random.Random(3), random.Random(3)
    assert [model.sample(rng_a, s, d) for s, d in pairs] == [
        model.sample(rng_b, s, d) for s, d in pairs
    ]


def test_lan_wan_rejects_zero_sites():
    with pytest.raises(ValueError):
        LanWanLatency(sites=0).validate()


def test_lan_wan_single_site_degenerates_to_pure_lan():
    model = LanWanLatency(
        sites=1,
        lan=UniformLatency(0.0005, 0.003),
        wan=UniformLatency(0.02, 0.08),
    )
    model.validate()
    rng = random.Random(11)
    addresses = [f"peer{i:03d}" for i in range(20)]
    for source in addresses:
        for destination in addresses:
            assert model.site_of(source) == 0 == model.site_of(destination)
            assert 0.0005 <= model.sample(rng, source, destination) <= 0.003


# --------------------------------------------------------------------------- flat-params factory
def test_latency_model_from_params_builds_each_model():
    constant = latency_model_from_params("constant", value=0.002)
    assert isinstance(constant, ConstantLatency) and constant.value == 0.002
    uniform = latency_model_from_params("uniform", low=0.001, high=0.004)
    assert isinstance(uniform, UniformLatency) and uniform.high == 0.004
    wan = latency_model_from_params(
        "lan_wan", sites=3, lan_low=0.001, lan_high=0.002, wan_low=0.05, wan_high=0.09
    )
    assert isinstance(wan, LanWanLatency)
    assert wan.sites == 3
    assert (wan.lan.low, wan.lan.high) == (0.001, 0.002)
    assert (wan.wan.low, wan.wan.high) == (0.05, 0.09)


def test_latency_model_from_params_defaults_and_errors():
    wan = latency_model_from_params("lan_wan")
    assert wan == LanWanLatency()
    with pytest.raises(ValueError, match="unknown latency model"):
        latency_model_from_params("satellite")
    with pytest.raises(ValueError, match="unknown lan_wan parameters"):
        latency_model_from_params("lan_wan", sites=2, bogus=1)
    with pytest.raises(ValueError):  # validation runs on the built model
        latency_model_from_params("constant", value=-1.0)


# --------------------------------------------------------------------------- config resolution
def test_registry_exposes_all_three_models():
    assert set(LATENCY_MODELS) == {"constant", "uniform", "lan_wan"}


def test_network_config_resolves_explicit_model_over_legacy_bounds():
    explicit = LanWanLatency(sites=2)
    config = NetworkConfig(latency_model=explicit)
    assert config.latency_model is explicit
    # Without one, the network draws uniformly over the paper's LAN bounds.
    assert NetworkConfig().latency_model == UniformLatency(0.0005, 0.003)
