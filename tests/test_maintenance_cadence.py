"""Unit tests for the adaptive maintenance subsystem (:mod:`repro.maintenance`).

The cadence controllers are deterministic state machines, so their back-off /
tighten transitions, bounds and RTT seeding are pinned down exactly; the
redirect cache's ring geometry (closest predecessor, wrap-around, TTL and
eviction) is covered against hand-computed distances; and the policy factory
plus the ``MaintenanceSpec -> IndexConfig`` resolution mirror the LatencySpec
tests in ``tests/test_scenarios.py``.
"""

import pytest

from repro.harness.scenarios import MaintenanceSpec
from repro.index.config import default_config
from repro.maintenance import (
    FIXED_MAINTENANCE,
    AdaptiveCadence,
    FixedCadence,
    MaintenancePolicy,
    RedirectCache,
    RttScaledCadence,
    backward_distance,
    maintenance_policy_from_params,
    rtt_scaled_period,
)
from repro.sim.engine import Simulator
from repro.sim.network import LanWanLatency, Network, NetworkConfig, UniformLatency
from repro.sim.randomness import RngStreams
from repro.transport import Endpoint


# --------------------------------------------------------------------------- cadence controllers
def test_fixed_cadence_is_constant_and_ignores_feedback():
    cadence = FixedCadence(4.0)
    assert cadence.interval() == 4.0
    cadence.note_success()
    cadence.note_failure()
    cadence.note_change()
    assert cadence.interval() == 4.0


def test_adaptive_cadence_backs_off_after_threshold_successes():
    cadence = AdaptiveCadence(8.0, growth=2.0, max_factor=4.0, success_threshold=2)
    assert cadence.interval() == 8.0
    cadence.note_success()
    assert cadence.interval() == 8.0  # one success is below the threshold
    cadence.note_success()
    assert cadence.interval() == 16.0
    cadence.note_success()
    cadence.note_success()
    assert cadence.interval() == 32.0


def test_adaptive_cadence_is_bounded_by_max_factor():
    cadence = AdaptiveCadence(8.0, growth=2.0, max_factor=4.0, success_threshold=1)
    for _ in range(10):
        cadence.note_success()
    assert cadence.interval() == 32.0  # 8.0 * 4


def test_adaptive_cadence_tightens_to_base_on_failure_and_change():
    cadence = AdaptiveCadence(8.0, success_threshold=1)
    cadence.note_success()
    assert cadence.interval() > 8.0
    cadence.note_failure()
    assert cadence.interval() == 8.0
    cadence.note_success()
    assert cadence.interval() > 8.0
    cadence.note_change()
    assert cadence.interval() == 8.0


def test_adaptive_cadence_failure_resets_the_success_streak():
    cadence = AdaptiveCadence(8.0, success_threshold=2)
    cadence.note_success()
    cadence.note_failure()
    cadence.note_success()  # streak restarted: still one success short
    assert cadence.interval() == 8.0


def test_adaptive_cadence_rejects_nonsense_parameters():
    with pytest.raises(ValueError):
        AdaptiveCadence(0.0)
    with pytest.raises(ValueError):
        AdaptiveCadence(8.0, growth=1.0)
    with pytest.raises(ValueError):
        AdaptiveCadence(8.0, max_factor=0.5)
    with pytest.raises(ValueError):
        AdaptiveCadence(8.0, success_threshold=0)


# --------------------------------------------------------------------------- RTT scaling
def test_rtt_scaled_period_keeps_base_on_lan():
    # Observed round trip at (or below) the reference: the LAN constants hold.
    assert rtt_scaled_period(8.0, 0.004, reference_rtt=0.004, floor=0.5) == 8.0
    assert rtt_scaled_period(8.0, 0.001, reference_rtt=0.004, floor=0.5) == 8.0


def test_rtt_scaled_period_tightens_down_to_the_floor_on_wan():
    # A 0.1 s WAN round trip vs. a 4 ms reference: clamped at the floor.
    assert rtt_scaled_period(8.0, 0.1, reference_rtt=0.004, floor=0.5) == 4.0
    # A mildly slower network lands between base and the floor.
    assert rtt_scaled_period(8.0, 0.005, reference_rtt=0.004, floor=0.5) == pytest.approx(6.4)


def test_rtt_scaled_period_unknown_rtt_keeps_base():
    assert rtt_scaled_period(8.0, None, reference_rtt=0.004, floor=0.5) == 8.0
    assert rtt_scaled_period(8.0, 0.0, reference_rtt=0.004, floor=0.5) == 8.0


def test_rtt_scaled_cadence_rereads_its_source():
    rtts = [0.004, 0.1]
    cadence = RttScaledCadence(8.0, lambda: rtts[0], reference_rtt=0.004, floor=0.5)
    assert cadence.interval() == 8.0
    rtts[0] = 0.1  # the network got slower: the next round tightens
    assert cadence.interval() == 4.0


def test_network_observed_rtt_seeds_from_nominal_then_tracks_samples():
    sim = Simulator()
    rngs = RngStreams(7)
    config = NetworkConfig(latency_model=UniformLatency(0.01, 0.03))
    network = Network(sim, rngs.stream("network"), config)
    # No samples yet: the model nominal (mean one-way 0.02 -> RTT 0.04).
    assert network.observed_rtt() == pytest.approx(0.04)
    for _ in range(Network._RTT_WARMUP_SAMPLES):
        network._latency("a", "b")
    observed = network.observed_rtt()
    assert 0.02 <= observed <= 0.06
    assert network.stats.mean_latency() == pytest.approx(observed / 2.0)


def test_lan_wan_nominal_latency_weights_cross_site_probability():
    model = LanWanLatency(sites=4)
    lan = model.lan.nominal_latency()
    wan = model.wan.nominal_latency()
    assert model.nominal_latency() == pytest.approx(0.75 * wan + 0.25 * lan)
    assert LanWanLatency(sites=1).nominal_latency() == pytest.approx(lan)


# --------------------------------------------------------------------------- redirect cache
def test_backward_distance_wraps_and_never_returns_zero():
    assert backward_distance(100.0, 90.0, 1000.0) == 10.0
    assert backward_distance(50.0, 900.0, 1000.0) == 150.0  # wrap
    assert backward_distance(70.0, 70.0, 1000.0) == 1000.0  # self -> full circle


def test_redirect_cache_returns_closest_predecessor():
    cache = RedirectCache(size=8, ttl=30.0)
    cache.record("a", 100.0, now=0.0)
    cache.record("b", 180.0, now=0.0)
    cache.record("c", 240.0, now=0.0)
    assert cache.lookup(200.0, 1000.0, now=1.0) == ("b", 180.0)
    # Wrap-around: the closest predecessor of a small value is the largest one.
    assert cache.lookup(50.0, 1000.0, now=1.0) == ("c", 240.0)
    # Excluded peers are skipped.
    assert cache.lookup(200.0, 1000.0, now=1.0, exclude=("b",)) == ("a", 100.0)


def test_redirect_cache_expires_entries_by_ttl():
    cache = RedirectCache(size=8, ttl=10.0)
    cache.record("a", 100.0, now=0.0)
    assert cache.lookup(200.0, 1000.0, now=5.0) == ("a", 100.0)
    assert cache.lookup(200.0, 1000.0, now=20.0) is None
    assert len(cache) == 0  # expired entries are pruned on lookup


def test_redirect_cache_evicts_oldest_beyond_size():
    cache = RedirectCache(size=2, ttl=100.0)
    cache.record("a", 10.0, now=0.0)
    cache.record("b", 20.0, now=1.0)
    cache.record("a", 11.0, now=2.0)  # re-record refreshes (and re-values) a
    cache.record("c", 30.0, now=3.0)  # evicts b (oldest observation)
    assert len(cache) == 2
    assert cache.lookup(25.0, 1000.0, now=4.0) == ("a", 11.0)
    # "b" was evicted: with "a" excluded the only candidate left is "c".
    assert cache.lookup(21.0, 1000.0, now=4.0, exclude=("a",)) == ("c", 30.0)
    assert cache.lookup(21.0, 1000.0, now=4.0, exclude=("a", "c")) is None


def test_redirect_cache_forget_drops_entries():
    cache = RedirectCache(size=4, ttl=100.0)
    cache.record("a", 10.0, now=0.0)
    cache.forget("a")
    assert cache.lookup(20.0, 1000.0, now=0.0) is None
    cache.forget("never-seen")  # must not raise


def test_redirect_cache_rejects_nonsense_parameters():
    with pytest.raises(ValueError):
        RedirectCache(size=0, ttl=10.0)
    with pytest.raises(ValueError):
        RedirectCache(size=4, ttl=0.0)


# --------------------------------------------------------------------------- policy + spec resolution
def test_policy_factory_resolves_presets_and_overrides():
    fixed = maintenance_policy_from_params("fixed")
    assert fixed == FIXED_MAINTENANCE
    adaptive = maintenance_policy_from_params("adaptive")
    assert adaptive.validation == "adaptive"
    assert adaptive.cadence == "rtt_scaled"
    assert adaptive.redirect_cache_size > 0
    tweaked = maintenance_policy_from_params("adaptive", redirect_cache_size=0)
    assert tweaked.redirect_cache_size == 0
    assert tweaked.validation == "adaptive"


def test_policy_factory_rejects_unknown_names_and_params():
    with pytest.raises(ValueError, match="unknown maintenance policy"):
        maintenance_policy_from_params("bogus")
    with pytest.raises(ValueError, match="unknown maintenance parameters"):
        maintenance_policy_from_params("adaptive", not_a_knob=1)
    with pytest.raises(ValueError):
        maintenance_policy_from_params("adaptive", backoff_growth=0.5)


def test_policy_validation_controller_shapes():
    policy = MaintenancePolicy(validation="adaptive", backoff_max=8.0)
    controller = policy.validation_controller(4.0)
    assert isinstance(controller, AdaptiveCadence)
    assert controller.max_factor == 8.0
    assert isinstance(FIXED_MAINTENANCE.validation_controller(4.0), FixedCadence)


def test_policy_router_controller_shapes():
    policy = MaintenancePolicy(router="adaptive", router_backoff_max=6.0)
    controller = policy.router_controller(16.0)
    assert isinstance(controller, AdaptiveCadence)
    assert controller.max_factor == 6.0
    assert controller.base == 16.0
    assert isinstance(FIXED_MAINTENANCE.router_controller(16.0), FixedCadence)


def test_adaptive_preset_enables_router_and_freshness():
    adaptive = maintenance_policy_from_params("adaptive")
    assert adaptive.router == "adaptive"
    assert adaptive.freshness_factor > 0
    # The fixed policy keeps both mechanisms off.
    assert FIXED_MAINTENANCE.router == "fixed"
    assert FIXED_MAINTENANCE.freshness_factor == 0.0
    assert FIXED_MAINTENANCE.validation_freshness(8.0) == 0.0
    assert adaptive.validation_freshness(8.0) == adaptive.freshness_factor * 8.0


def test_policy_rejects_bad_router_and_freshness_settings():
    with pytest.raises(ValueError, match="unknown router mode"):
        MaintenancePolicy(router="bogus").validate()
    with pytest.raises(ValueError, match="freshness_factor"):
        MaintenancePolicy(freshness_factor=-1.0).validate()
    with pytest.raises(ValueError, match="router_backoff_max"):
        MaintenancePolicy(router_backoff_max=0.5).validate()


def test_policy_maintenance_interval_fixed_returns_plain_float():
    assert FIXED_MAINTENANCE.maintenance_interval(4.0, lambda: 0.1) == 4.0
    interval = MaintenancePolicy(cadence="rtt_scaled").maintenance_interval(4.0, lambda: 0.1)
    assert callable(interval)
    assert interval() == 2.0  # WAN round trip -> floor 0.5


def test_maintenance_spec_resolves_into_index_config():
    spec = MaintenanceSpec(policy="adaptive", params={"backoff_max": 6.0})
    policy = spec.build_policy()
    assert policy.backoff_max == 6.0
    assert MaintenanceSpec().build_policy() is None
    with pytest.raises(ValueError, match="unknown maintenance policy"):
        MaintenanceSpec(policy="bogus").build_policy()


def test_index_config_carries_and_validates_the_policy():
    config = default_config(maintenance=maintenance_policy_from_params("adaptive"))
    assert config.maintenance_policy.validation == "adaptive"
    # The default config falls back to the fixed policy object.
    assert default_config().maintenance_policy is FIXED_MAINTENANCE
    with pytest.raises(ValueError):
        default_config(maintenance=MaintenancePolicy(validation="bogus"))


# --------------------------------------------------------------------------- Node.every with callable periods
def test_node_every_accepts_a_callable_period():
    sim = Simulator()
    rngs = RngStreams(3)
    network = Network(sim, rngs.stream("network"))
    node = Endpoint(sim, network, "n1")
    cadence = AdaptiveCadence(1.0, growth=2.0, max_factor=4.0, success_threshold=1)
    ticks = []

    def action():
        ticks.append(sim.now)
        cadence.note_success()  # every round doubles the next interval

    node.every(cadence.interval, action, name="test-loop")
    sim.run(until=16.0)
    # Rounds at 1, then +2, +4, +4 (capped), ... -> 1, 3, 7, 11, 15.
    assert ticks == [1.0, 3.0, 7.0, 11.0, 15.0]


def test_node_every_float_period_unchanged():
    sim = Simulator()
    rngs = RngStreams(3)
    network = Network(sim, rngs.stream("network"))
    node = Endpoint(sim, network, "n1")
    ticks = []
    node.every(2.0, lambda: ticks.append(sim.now), name="fixed-loop")
    sim.run(until=7.0)
    assert ticks == [2.0, 4.0, 6.0]
