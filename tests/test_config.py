"""Unit tests for the deployment configuration."""

import pytest

from repro.harness.scenarios import get_scenario, run_spec
from repro.index.config import default_config


def test_defaults_follow_paper_section_6_1():
    config = default_config()
    assert config.successor_list_length == 4
    assert config.stabilization_period == 4.0
    assert config.storage_factor == 5
    assert config.replication_factor == 6


def test_thresholds_derived_from_storage_factor():
    config = default_config(storage_factor=5)
    assert config.overflow_threshold == 10
    assert config.underflow_threshold == 5


def test_validate_rejects_bad_values():
    for overrides in (
        {"successor_list_length": 0},
        {"stabilization_period": 0},
        {"storage_factor": 0},
        {"replication_factor": -1},
        {"key_space": 0},
    ):
        with pytest.raises(ValueError):
            default_config(**overrides)


@pytest.mark.parametrize("period", [
    "stabilization_period", "router_refresh_period",
])
def test_validate_rejects_a_non_positive_maintenance_period(period):
    # A negative period used to validate and then fail mid-run, when the
    # loop's first round was scheduled in the past.
    for value in (0.0, -1.0):
        with pytest.raises(ValueError, match=period):
            default_config(**{period: value})
    with pytest.raises(ValueError, match=period):
        run_spec(get_scenario("smoke").with_(config={period: -1.0}), 0)


def test_with_naive_protocols_flips_all_flags():
    config = default_config().with_naive_protocols()
    assert not config.consistent_insert
    assert not config.use_scan_range
    assert not config.safe_leave
    assert not config.extra_hop_replication
    assert not config.proactive_nudge


def test_with_pepper_protocols_enables_all_flags():
    config = default_config().with_naive_protocols().with_pepper_protocols()
    assert config.consistent_insert
    assert config.use_scan_range
    assert config.safe_leave
    assert config.extra_hop_replication


def test_copy_overrides_single_field():
    config = default_config()
    copy = config.copy(successor_list_length=8)
    assert copy.successor_list_length == 8
    assert config.successor_list_length == 4


def test_timeout_helpers_positive():
    config = default_config()
    assert config.join_ack_timeout > 0
    assert config.leave_ack_timeout > config.stabilization_period


def test_original_instance_unchanged_by_protocol_switch():
    config = default_config()
    config.with_naive_protocols()
    assert config.consistent_insert
