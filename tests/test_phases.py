"""Tests for the phased scenario lifecycle (build -> settle -> stress).

Four contracts are pinned down here:

* **Phases are the spec.**  ``run_spec`` validates a spec's ``phases`` and
  runs exactly them, in order.
* **Start conditions.**  ``start_offset`` delays, ``start_fraction`` gates on
  ring membership under churn, and ``start_quiescence`` waits out the split
  cascade, firing exactly once; every bounded wait degrades to a timed-out
  start instead of hanging.
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
    with pytest.raises(ValueError, match="start_fraction"):
        PhaseSpec(name="x", start_fraction=1.5).validate()
    with pytest.raises(ValueError, match="start_quiescence"):
        PhaseSpec(name="x", start_quiescence=0.0).validate()
    with pytest.raises(ValueError, match="settle"):
        PhaseSpec(name="x", settle=-1.0).validate()
    validate_phases(CASCADE.phases)  # the registry shape itself is valid


# --------------------------------------------------------------------------- start conditions
def test_start_offset_delays_the_phase():
    spec = TINY.with_(
        phases=(
            PhaseSpec(name="build", arrivals=5, arrival_period=1.0,
                      workload=WorkloadSpec(items=40, insert_rate=4.0), settle=10.0),
            PhaseSpec(name="late", start_offset=7.5, duration=0.0),
        )
    )
    result = run_spec(spec, seed=0)
    late = result.phases[1]
    assert late["start_condition"] == "offset"
    assert late["wait_s"] == pytest.approx(7.5)
    assert not late["start_timed_out"]


def test_membership_fraction_triggers_under_churn():
    """The gated phase starts exactly when the crowd has split into the ring."""
    spec = CASCADE.with_(
        phases=(
            CASCADE.phases[0],
            PhaseSpec(name="grown", start_fraction=0.9, start_timeout=300.0, start_poll=0.25),
        )
    )
    result = run_spec(spec, seed=1)
    grown = result.phases[1]
    assert grown["start_condition"] == "membership_fraction"
    assert not grown["start_timed_out"]
    assert grown["ring_members_start"] >= 27  # ceil(0.9 * 30)
    # The build phase alone had not reached the target when it ended, so the
    # fraction gate did real waiting (the condition did not hold trivially).
    assert result.phases[0]["ring_members"] < 27
    assert grown["wait_s"] > 0


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
            PhaseSpec(name="impossible", start_quiescence=50.0, start_timeout=5.0,
                      duration=0.0),
        )
    )
    result = run_spec(spec, seed=0)
    late = result.phases[1]
    assert late["start_timed_out"]
    assert late["wait_s"] <= 6.0


def test_fraction_and_quiescence_share_one_timeout_budget():
    """Composed bounded conditions must not each get a full start_timeout."""
    spec = TINY.with_(
        phases=(
            PhaseSpec(name="build", arrivals=2, arrival_period=1.0,
                      workload=WorkloadSpec(items=20, insert_rate=4.0), settle=5.0),
            # Both conditions unreachable: the combined wait must stay inside
            # ONE start_timeout (plus at most a poll), not two.
            PhaseSpec(name="gated", start_fraction=1.0, start_quiescence=50.0,
                      start_timeout=8.0, start_poll=0.5, duration=0.0),
        )
    )
    result = run_spec(spec, seed=0)
    gated = result.phases[1]
    assert gated["start_timed_out"]
    assert gated["wait_s"] <= 9.0


def test_membership_fraction_timeout_is_bounded():
    spec = TINY.with_(
        phases=(
            PhaseSpec(name="build", arrivals=2, arrival_period=1.0,
                      workload=WorkloadSpec(items=20, insert_rate=4.0), settle=5.0),
            # 6 peers exist in total; a 100% fraction cannot be reached when
            # some stay free, so the gate must give up at the timeout.
            PhaseSpec(name="full", start_fraction=1.0, start_timeout=8.0, start_poll=0.5,
                      duration=0.0),
        )
    )
    result = run_spec(spec, seed=0)
    full = result.phases[1]
    assert full["start_timed_out"]
    assert 8.0 <= full["wait_s"] <= 9.0


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
    adaptive = get_scenario("scale_1000_adaptive")
    assert adaptive.phases == get_scenario("scale_1000").phases
    assert get_scenario("scale_300_adaptive").maintenance.policy == "adaptive"
    assert get_scenario("scale_5000_adaptive").maintenance.policy == "adaptive"


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
