"""Tests for the experiment harness and (tiny-scale) figure reproductions."""

import pytest

from repro.harness.experiment import ClusterExperiment
from repro.harness.figures import (
    FigureResult,
    ablation_availability,
    figure_19,
    figure_21,
    figure_22,
)
from repro.harness.phases import ChurnSpec, PhaseSpec, WorkloadSpec
from repro.index.config import default_config


def built_experiment(seed=101, peers=8, items=50):
    """A deployment after its build phase: staggered arrivals, item stream, 15 s settle."""
    experiment = ClusterExperiment(default_config(seed=seed))
    build = PhaseSpec(
        name="build", arrivals=peers - 1, workload=WorkloadSpec(items=items), settle=15.0
    )
    experiment.run_phases((build,), total_peers=peers)
    return experiment


def test_build_creates_ring_and_stores_all_items():
    experiment = built_experiment()
    index = experiment.index
    assert len(index.ring_members()) >= 3
    assert index.total_stored_items() == len(experiment.inserted_keys)


def test_run_query_outcome_fields():
    experiment = built_experiment(seed=102)
    keys = experiment.inserted_keys
    outcome = experiment.run_query(keys[3], keys[20])
    assert outcome.complete
    assert outcome.hops >= 1
    assert outcome.keys == experiment.expected_keys(keys[3], keys[20])
    assert outcome.record is not None


def test_inject_failures_kills_ring_members():
    # Failures enter a run through a phase's ChurnSpec, the one failure path.
    experiment = built_experiment(seed=103)
    before = len(experiment.index.ring_members())
    failures = PhaseSpec(
        name="failures", churn=ChurnSpec(failure_rate_per_100s=20.0, failure_window=50.0)
    )
    experiment.run_phases((failures,), total_peers=8)
    injected = len(experiment.index.history.history().of_kind("peer_failed"))
    assert injected >= before / 10
    assert len(experiment.index.ring_members()) <= before


def test_delete_items_forces_merges():
    experiment = built_experiment(seed=104)
    keys = experiment.inserted_keys
    experiment.delete_items(keys[: int(len(keys) * 0.8)], rate=4.0)
    experiment.settle(25.0)
    assert experiment.index.metrics.count("merge") >= 1


# --------------------------------------------------------------------------- figure smoke tests
def test_figure_result_table_and_series():
    result = FigureResult(
        figure="F", description="d", headers=["x", "y"], rows=[(1, 2.0), (3, 4.0)]
    )
    assert "F: d" in result.as_table()
    assert result.series() == {1: 2.0, 3: 4.0}


def test_figure_19_shape_tiny():
    result = figure_19(succ_lengths=(2, 6), peers=9, items=55, seed=201)
    series_naive = {row[0]: row[1] for row in result.rows}
    series_pepper = {row[0]: row[2] for row in result.rows}
    assert set(series_naive) == {2, 6}
    # PEPPER pays more than naive, and grows with the successor-list length.
    assert series_pepper[2] > series_naive[2]
    assert series_pepper[6] > series_pepper[2]


def test_figure_21_scan_matches_naive_tiny():
    result = figure_21(hop_targets=(1, 3), peers=9, items=55, queries_per_target=2, seed=202)
    assert result.rows
    for _hops, scan_time, naive_time in result.rows:
        assert scan_time == pytest.approx(naive_time, rel=2.0, abs=0.05)


def test_figure_22_safe_leave_much_slower_than_naive_tiny():
    result = figure_22(succ_lengths=(4,), peers=8, items=50, seed=203)
    (_length, merge_time, safe_leave, naive_leave), = result.rows
    assert merge_time > naive_leave
    assert safe_leave > naive_leave
    assert naive_leave < 0.01


def test_ablation_availability_tiny():
    result = ablation_availability(peers=8, items=45, seed=204)
    rows = {row[0]: row for row in result.rows}
    assert rows["pepper"][2] == 0  # no lost items with the paper's protocols
