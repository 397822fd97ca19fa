"""Tests for the phased scenario lifecycle (build -> settle -> stress).

Four contracts are pinned down here:

* **Phases are the spec.**  ``run_spec`` validates a spec's ``phases`` and
  runs exactly them, in order.
* **Start conditions.**  ``start_quiescence`` waits out the split cascade,
  firing exactly once; a wait it cannot finish degrades to a timed-out start
  instead of hanging.
* **Per-phase accounting.**  Event/RPC deltas across a scenario's phases sum
  to the scenario totals.
* **Registry shape.**  The scale cells are phased (build -> settle -> stress)
  and the stress phase always starts from a fully built ring.
"""

from __future__ import annotations

import json

import pytest

from repro.harness.phases import ChurnSpec, PhaseSpec, QueryMixSpec, WorkloadSpec, validate_phases
from repro.harness.scenarios import ScenarioSpec, build_experiment, get_scenario, run_spec

TINY = ScenarioSpec(
    name="phase-tiny",
    peers=6,
    phases=(
        PhaseSpec(
            name="build",
            arrivals=5,
            arrival_period=1.0,
            workload=WorkloadSpec(items=40, insert_rate=4.0),
            settle=10.0,
        ),
        PhaseSpec(name="queries", queries=QueryMixSpec(count=3)),
    ),
)

# A small split-cascade cell: free peers arrive as a crowd and a fast item
# stream pulls them into the ring through splits.  The build phase ends while
# the cascade is still running (the stream outpaces the split protocol), so
# the quiescence gate does real, observable waiting.
CASCADE = ScenarioSpec(
    name="phase-cascade",
    peers=30,
    phases=(
        PhaseSpec(
            name="build",
            arrivals=1,
            arrival_period=1.0,
            churn=ChurnSpec(flash_crowd_peers=28, flash_crowd_at=1.0, flash_crowd_spacing=0.05),
            workload=WorkloadSpec(items=240, insert_rate=240.0),
            settle=0.5,
        ),
        PhaseSpec(name="settle", start_quiescence=6.0, start_timeout=300.0, settle=1.0),
        PhaseSpec(
            name="stress",
            churn=ChurnSpec(failure_rate_per_100s=8.0, failure_window=30.0),
            queries=QueryMixSpec(count=3),
            settle=5.0,
        ),
    ),
)


# --------------------------------------------------------------------------- validation
def test_explicit_phases_returned_verbatim_and_validated():
    result = run_spec(TINY, seed=0)
    assert [p["phase"] for p in result.phases] == [phase.name for phase in TINY.phases]
    with pytest.raises(ValueError, match="duplicate phase name"):
        run_spec(TINY.with_(phases=(PhaseSpec(name="a"), PhaseSpec(name="a"))))
    with pytest.raises(ValueError, match="start_quiescence"):
        PhaseSpec(name="x", start_quiescence=0.0).validate()
    with pytest.raises(ValueError, match="settle"):
        PhaseSpec(name="x", settle=-1.0).validate()
    validate_phases(CASCADE.phases)  # the registry shape itself is valid


@pytest.mark.parametrize(
    "phase, message",
    [
        pytest.param(PhaseSpec(name="x", workload=WorkloadSpec(items=-5)), "items",
                     id="negative_items"),
        pytest.param(PhaseSpec(name="x", workload=WorkloadSpec(insert_rate=0.0)), "insert_rate",
                     id="zero_insert_rate"),
        pytest.param(PhaseSpec(name="x", workload=WorkloadSpec(distribution="bogus")),
                     "distribution", id="unknown_distribution"),
        pytest.param(PhaseSpec(name="x", churn=ChurnSpec(failure_rate_per_100s=-1.0)),
                     "failure_rate_per_100s", id="negative_failure_rate"),
        pytest.param(PhaseSpec(name="x", churn=ChurnSpec(flash_crowd_peers=-1)),
                     "flash_crowd_peers", id="negative_flash_crowd"),
        pytest.param(PhaseSpec(name="x", churn=ChurnSpec(correlated_failures=-1)),
                     "correlated_failures", id="negative_correlated_failures"),
        pytest.param(PhaseSpec(name="x", churn=ChurnSpec(failure_window=-10.0)),
                     "failure_window", id="negative_failure_window"),
        pytest.param(PhaseSpec(name="x", churn=ChurnSpec(failure_window=0.0)),
                     "failure_window", id="zero_failure_window"),
        pytest.param(PhaseSpec(name="x", queries=QueryMixSpec(count=-1)), "count",
                     id="negative_query_count"),
        pytest.param(PhaseSpec(name="x", queries=QueryMixSpec(selectivity=0.0)), "selectivity",
                     id="zero_selectivity"),
        pytest.param(PhaseSpec(name="x", queries=QueryMixSpec(selectivity=1.5)), "selectivity",
                     id="selectivity_above_one"),
    ],
)
def test_validate_phases_rejects_a_bad_bound_sub_spec(phase, message):
    # Unvalidated, each would still run: zero selectivity as queries that all time out, negative
    # items as a negative items_requested, a negative failure window as no
    # failures, an unknown distribution as an error after bootstrap.
    with pytest.raises(ValueError, match=message):
        validate_phases((phase,))
    with pytest.raises(ValueError, match=message):
        run_spec(get_scenario("smoke").with_(phases=(phase,)))


# --------------------------------------------------------------------------- start conditions
def test_quiescence_waits_out_the_split_cascade_and_fires_once():
    result = run_spec(CASCADE, seed=0)
    build, settle, stress = result.phases
    assert settle["start_condition"] == "quiescence"
    assert not settle["start_timed_out"]
    # The cascade was still running when build ended: quiescence did real work.
    assert settle["ring_members_start"] > build["ring_members"]
    assert settle["wait_s"] >= 6.0
    # Fires exactly once: membership does not move again between the gate
    # firing and the stress phase starting (nothing re-armed the wait).
    assert settle["ring_members"] == settle["ring_members_start"]
    assert stress["ring_members_start"] == settle["ring_members"]
    # And the gated pre-stress state is the fully built ring.
    assert settle["ring_members"] == 30


def test_quiescence_detection_is_deterministic():
    first = run_spec(CASCADE, seed=3)
    second = run_spec(CASCADE, seed=3)
    assert [p["wait_s"] for p in first.phases] == [p["wait_s"] for p in second.phases]
    assert first.events_processed == second.events_processed


def test_unreachable_start_condition_times_out_instead_of_hanging():
    spec = CASCADE.with_(
        phases=(
            CASCADE.phases[0],
            # A quiet window longer than the whole wait budget can never be
            # observed: the phase must start anyway, flagged as timed out.
            PhaseSpec(name="impossible", start_quiescence=50.0, start_timeout=5.0),
        )
    )
    result = run_spec(spec, seed=0)
    late = result.phases[1]
    assert late["start_timed_out"]
    assert late["wait_s"] <= 6.0


# --------------------------------------------------------------------------- accounting
def test_per_phase_metrics_sum_to_scenario_totals():
    result = run_spec(CASCADE, seed=2)
    assert sum(p["events_processed"] for p in result.phases) == result.events_processed
    assert sum(p["rpc_calls"] for p in result.phases) == result.rpc_calls
    summed: dict = {}
    for phase in result.phases:
        for method, count in phase["rpc_per_method"].items():
            summed[method] = summed.get(method, 0) + count
    assert summed == result.rpc_per_method
    assert result.phases[-1]["ring_members"] == result.ring_members
    assert result.phases[-1]["free_peers"] == result.free_peers
    assert sum(p["queries_run"] for p in result.phases) == result.queries_run
    json.dumps(result.as_dict())  # the breakdown serialises into BENCH json


def test_phase_wall_and_sim_spans_are_positive_and_ordered():
    result = run_spec(CASCADE, seed=0)
    starts = [p["started_at_s"] for p in result.phases]
    assert starts == sorted(starts)
    for phase in result.phases:
        assert phase["sim_seconds"] >= 0
        assert phase["wall_clock_s"] >= 0
        assert phase["activity_at_s"] == pytest.approx(
            phase["started_at_s"] + phase["wait_s"]
        )


def test_run_phases_on_experiment_returns_outcomes_and_victims():
    spec = TINY.with_(
        peers=10,
        phases=(
            PhaseSpec(name="build", arrivals=9, arrival_period=1.0,
                      workload=WorkloadSpec(items=60, insert_rate=4.0), settle=10.0),
            PhaseSpec(name="outage", churn=ChurnSpec(correlated_failures=2), settle=10.0),
            PhaseSpec(name="queries", queries=QueryMixSpec(count=3)),
        ),
    )
    experiment = build_experiment(spec, seed=1)
    results, outcomes, victims = experiment.run_phases(spec.phases, total_peers=10)
    assert [r.phase for r in results] == ["build", "outage", "queries"]
    assert len(victims) == 2
    assert len(outcomes) == 3
    assert results[1].correlated_failures_injected == 2


# --------------------------------------------------------------------------- registry shape
def test_scale_cells_are_phased_build_settle_stress():
    for name in ("scale_100", "scale_300", "scale_1000", "scale_3000", "scale_5000"):
        spec = get_scenario(name)
        assert [phase.name for phase in spec.phases] == ["build", "settle", "stress"]
        assert spec.phases[1].start_quiescence is not None
        assert spec.peers == int(name.split("_")[1])
        # The failure window lives exclusively in the stress phase.
        assert spec.phases[0].churn.failure_rate_per_100s == 0
        assert spec.phases[2].churn.failure_rate_per_100s > 0


def test_total_items_follows_the_resolved_lifecycle():
    """``items_requested`` sums every phase's item stream."""
    assert TINY.total_items() == 40
    assert CASCADE.total_items() == 240
    two_streams = TINY.with_(
        phases=(
            PhaseSpec(name="one", workload=WorkloadSpec(items=30, insert_rate=4.0)),
            PhaseSpec(name="two", workload=WorkloadSpec(items=20, insert_rate=4.0)),
        )
    )
    assert two_streams.total_items() == 50
