"""Tests for workload generators (items, churn, queries)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.churn import FAIL, JOIN, ChurnEvent, ChurnSchedule, failure_schedule, join_schedule
from repro.workloads.items import ItemWorkload, skewed_keys, uniform_keys
from repro.workloads.queries import QueryWorkload


def test_uniform_keys_unique_sorted_in_bounds():
    keys = uniform_keys(200, 10_000.0, random.Random(1))
    assert len(keys) == 200
    assert keys == sorted(set(keys))
    assert all(0 < key < 10_000.0 for key in keys)


def test_skewed_keys_concentrate_in_hot_region():
    keys = skewed_keys(500, 10_000.0, random.Random(2), hot_fraction=0.8, hot_region=0.1)
    hot = [key for key in keys if key <= 1_000.0]
    assert len(hot) > 300


def test_skewed_keys_validation():
    with pytest.raises(ValueError):
        skewed_keys(10, 10_000.0, random.Random(0), hot_region=0.0)


def test_item_workload_insert_events_respect_rate():
    workload = ItemWorkload([1.0, 2.0, 3.0], insert_rate=2.0, start_time=10.0)
    events = list(workload.insert_events())
    assert [time for time, _key, _payload in events] == [10.0, 10.5, 11.0]
    assert workload.duration == pytest.approx(1.5)


def test_churn_event_kind_validation():
    with pytest.raises(ValueError):
        ChurnEvent(0.0, "explode")


def test_join_schedule_spacing():
    schedule = join_schedule(5, period=3.0, start=1.0)
    times = [event.time for event in schedule]
    assert times == [1.0, 4.0, 7.0, 10.0, 13.0]
    assert all(event.kind == JOIN for event in schedule)
    assert schedule.duration == 13.0


def test_failure_schedule_rate():
    schedule = failure_schedule(10.0, 200.0, random.Random(3))
    assert len(schedule) == 20
    assert all(event.kind == FAIL for event in schedule)
    assert all(0.0 <= event.time <= 200.0 for event in schedule)


def test_failure_schedule_zero_rate_empty():
    assert len(failure_schedule(0.0, 100.0, random.Random(0))) == 0


def test_failure_schedule_short_duration_rounds_to_zero_events():
    # rate * duration / 100 < 0.5 rounds down to an empty schedule instead of
    # injecting a spurious failure into a short window.
    schedule = failure_schedule(2.0, 20.0, random.Random(7))
    assert len(schedule) == 0
    assert schedule.duration == 0.0
    assert list(schedule) == []


def test_schedules_merge():
    merged = join_schedule(2).merged_with(failure_schedule(5.0, 100.0, random.Random(1)))
    kinds = {event.kind for event in merged}
    assert kinds == {JOIN, FAIL}


def test_schedule_events_sorted_once_at_construction():
    schedule = ChurnSchedule(
        [ChurnEvent(5.0, JOIN), ChurnEvent(1.0, FAIL), ChurnEvent(3.0, JOIN)]
    )
    assert [event.time for event in schedule.events] == [1.0, 3.0, 5.0]
    # __iter__ yields the stored (already sorted) list, no per-iteration sort.
    assert list(schedule) == schedule.events


def test_merged_with_keeps_time_order_and_tie_stability():
    joins = ChurnSchedule([ChurnEvent(1.0, JOIN), ChurnEvent(4.0, JOIN)])
    fails = ChurnSchedule([ChurnEvent(0.5, FAIL), ChurnEvent(4.0, FAIL), ChurnEvent(9.0, FAIL)])
    merged = joins.merged_with(fails)
    times = [event.time for event in merged]
    assert times == sorted(times) == [0.5, 1.0, 4.0, 4.0, 9.0]
    # Stable at equal times: the receiver's event precedes the argument's.
    tied = [event.kind for event in merged if event.time == 4.0]
    assert tied == [JOIN, FAIL]
    assert merged.duration == 9.0


def test_query_workload_selectivity():
    workload = QueryWorkload(count=50, selectivity=0.05, key_space=10_000.0, seed=4)
    queries = workload.as_list()
    assert len(queries) == 50
    for lb, ub in queries:
        assert ub - lb == pytest.approx(500.0)
        assert 0.0 <= lb <= ub <= 10_000.0


@settings(max_examples=50, deadline=None)
@given(count=st.integers(min_value=1, max_value=100), seed=st.integers(0, 1000))
def test_property_uniform_keys_always_unique(count, seed):
    keys = uniform_keys(count, 10_000.0, random.Random(seed))
    assert len(set(keys)) == count


@settings(max_examples=50, deadline=None)
@given(rate=st.floats(min_value=0.5, max_value=20.0), duration=st.floats(min_value=10.0, max_value=500.0))
def test_property_failure_schedule_count_matches_rate(rate, duration):
    schedule = failure_schedule(rate, duration, random.Random(0))
    assert len(schedule) == int(round(rate * duration / 100.0))


# --------------------------------------------------------------------------- zipf keys
def test_zipf_keys_unique_sorted_in_bounds():
    from repro.workloads.items import zipf_keys

    keys = zipf_keys(300, 10_000.0, random.Random(7), alpha=1.1)
    assert len(keys) == 300
    assert keys == sorted(set(keys))
    assert all(0.0 < key < 10_000.0 for key in keys)


def test_zipf_keys_concentrate_on_popular_slices():
    from repro.workloads.items import zipf_keys

    keys = zipf_keys(500, 10_000.0, random.Random(8), alpha=1.2)
    first_decile = sum(1 for key in keys if key < 1_000.0)
    assert first_decile > len(keys) * 0.5


def test_zipf_keys_validation():
    from repro.workloads.items import zipf_keys

    with pytest.raises(ValueError):
        zipf_keys(10, 10_000.0, random.Random(0), alpha=0.0)
    with pytest.raises(ValueError):
        zipf_keys(10, 10_000.0, random.Random(0), bins=0)


def test_generate_keys_dispatches_by_name():
    from repro.workloads.items import generate_keys

    uniform = generate_keys("uniform", 20, 10_000.0, random.Random(1))
    zipf = generate_keys("zipf", 20, 10_000.0, random.Random(1), alpha=1.5)
    assert len(uniform) == len(zipf) == 20
    with pytest.raises(ValueError, match="unknown key distribution"):
        generate_keys("gaussian", 10, 10_000.0, random.Random(0))


# --------------------------------------------------------------------------- burst churn
def test_flash_crowd_schedule_burst_spacing():
    from repro.workloads.churn import flash_crowd_schedule

    schedule = flash_crowd_schedule(5, at=10.0, spacing=0.1)
    times = [event.time for event in schedule]
    assert times == [10.0, 10.1, 10.2, 10.3, 10.4]
    assert all(event.kind == JOIN for event in schedule)
    with pytest.raises(ValueError):
        flash_crowd_schedule(3, at=0.0, spacing=-1.0)


def test_burst_schedules_merge_with_joins():
    from repro.workloads.churn import flash_crowd_schedule

    merged = join_schedule(3, period=2.0).merged_with(
        flash_crowd_schedule(2, at=1.0)
    ).merged_with(ChurnSchedule([ChurnEvent(9.0, FAIL)]))
    kinds = [event.kind for event in merged]
    assert kinds.count(JOIN) == 5 and kinds.count(FAIL) == 1
    assert [event.time for event in merged] == sorted(event.time for event in merged)


def test_correlated_failure_schedule_simultaneous():
    # A correlated shot is ChurnSpec(correlated_failures=n): n peers fail at one instant.
    from repro.harness.experiment import ClusterExperiment
    from repro.harness.phases import ChurnSpec, PhaseSpec, WorkloadSpec
    from repro.index.config import default_config

    experiment = ClusterExperiment(default_config(seed=7))
    phases = (
        PhaseSpec(name="build", arrivals=9, workload=WorkloadSpec(items=60), settle=15.0),
        PhaseSpec(name="outage", churn=ChurnSpec(correlated_failures=4)),
    )
    _results, _outcomes, victims = experiment.run_phases(phases, total_peers=10)
    failed = experiment.index.history.history().of_kind("peer_failed")
    assert len(victims) == 4
    assert sorted(op.peer for op in failed) == sorted(victims)
    assert len({op.time for op in failed}) == 1


# --------------------------------------------------------------------------- query rng injection
def test_query_workload_uses_injected_rng():
    stream_a = random.Random(99)
    stream_b = random.Random(99)
    first = QueryWorkload(5, 0.01, 10_000.0, rng=stream_a).as_list()
    second = QueryWorkload(5, 0.01, 10_000.0, rng=stream_b).as_list()
    assert first == second
    # The injected stream takes precedence over the fallback seed.
    assert first != QueryWorkload(5, 0.01, 10_000.0, seed=0).as_list()
