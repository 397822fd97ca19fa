"""Unit tests for the adaptive maintenance subsystem (:mod:`repro.maintenance`).

The cadence controllers are deterministic state machines, so their back-off /
tighten transitions and bounds are pinned down exactly; the policy factory
(two knobs: validation cadence and freshness) plus the
``MaintenanceSpec -> IndexConfig`` resolution mirror the LatencySpec tests in
``tests/test_scenarios.py``.
"""

import pytest

from repro.harness.scenarios import MaintenanceSpec
from repro.index.config import default_config
from repro.maintenance import (
    FIXED_MAINTENANCE,
    AdaptiveCadence,
    FixedCadence,
    MaintenancePolicy,
    maintenance_policy_from_params,
)
from repro.maintenance.cadence import VALIDATION_BACKOFF_MAX
from repro.sim.engine import Simulator
from repro.sim.network import Network
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


# --------------------------------------------------------------------------- policy + spec resolution
def test_policy_factory_resolves_presets_and_overrides():
    fixed = maintenance_policy_from_params("fixed")
    assert fixed == FIXED_MAINTENANCE
    adaptive = maintenance_policy_from_params("adaptive")
    assert adaptive.validation == "adaptive"
    assert adaptive.freshness_factor > 0
    tweaked = maintenance_policy_from_params("adaptive", freshness_factor=0)
    assert tweaked.freshness_factor == 0
    assert tweaked.validation == "adaptive"


def test_policy_factory_rejects_unknown_names_and_params():
    with pytest.raises(ValueError, match="unknown maintenance policy"):
        maintenance_policy_from_params("bogus")
    with pytest.raises(ValueError, match="unknown maintenance parameters"):
        maintenance_policy_from_params("adaptive", not_a_knob=1)
    with pytest.raises(ValueError, match="freshness_factor"):
        maintenance_policy_from_params("adaptive", freshness_factor=-0.5)


def test_policy_validation_controller_shapes():
    policy = MaintenancePolicy(validation="adaptive", freshness_factor=2.0)
    controller = policy.validation_controller(4.0)
    assert isinstance(controller, AdaptiveCadence)
    assert controller.max_factor == VALIDATION_BACKOFF_MAX
    assert policy.validation_freshness(4.0) == 8.0
    assert isinstance(FIXED_MAINTENANCE.validation_controller(4.0), FixedCadence)


def test_adaptive_preset_enables_freshness():
    adaptive = maintenance_policy_from_params("adaptive")
    assert adaptive.freshness_factor > 0
    # The fixed policy keeps it off.
    assert FIXED_MAINTENANCE.freshness_factor == 0.0
    assert FIXED_MAINTENANCE.validation_freshness(8.0) == 0.0
    assert adaptive.validation_freshness(8.0) == adaptive.freshness_factor * 8.0


def test_policy_rejects_bad_router_and_freshness_settings():
    # Neither the router's refresh cadence, the validation back-off shape, the
    # stabilization/replication cadence nor a join-redirect cache is a policy
    # knob any more.
    for knob in (
        {"router": "fixed"},
        {"router_backoff_max": 6.0},
        {"cadence": "fixed"},
        {"reference_rtt": 0.004},
        {"cadence_floor": 0.5},
        {"redirect_cache_size": 0},
        {"redirect_cache_ttl": 30.0},
        {"backoff_growth": 2.0},
        {"backoff_max": 4.0},
        {"success_threshold": 2},
    ):
        with pytest.raises(ValueError, match="unknown maintenance parameters"):
            maintenance_policy_from_params("adaptive", **knob)
    with pytest.raises(ValueError, match="freshness_factor"):
        MaintenancePolicy(freshness_factor=-1.0).validate()


def test_maintenance_spec_resolves_into_index_config():
    spec = MaintenanceSpec(policy="adaptive", params={"freshness_factor": 3.0})
    policy = spec.build_policy()
    assert policy.freshness_factor == 3.0
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
