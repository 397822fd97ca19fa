"""The end-state census (:func:`repro.core.census.state_census`)."""

from repro.core.census import state_census
from repro.harness.scenarios import build_experiment, get_scenario, run_spec

ROWS = {
    "replica_copies",
    "replica_copies_unpromotable",
    "replica_copies_past_window_and_period",
    "snapshot_records",
    "snapshot_records_past_window",
    "snapshot_records_past_window_and_period",
    "tombstones_live",
    "tombstones_expired_kept",
}


def test_a_smoke_run_reports_every_census_row():
    state = run_spec(get_scenario("smoke"), 0).state
    assert set(state) == ROWS
    assert state["replica_copies"] > 0
    assert state["replica_copies_unpromotable"] <= state["replica_copies"]
    assert state["snapshot_records_past_window_and_period"] <= state["snapshot_records_past_window"]


def test_the_scale_100_census_holds_nothing_past_the_window_and_a_period():
    """Expiry is final: nothing no lease carried for the window plus one
    refresh period is held at the end (1,161 of 4,355 copies were
    unpromotable, and 94 of 491 snapshot records past the window, while
    expired leases were kept)."""
    spec = get_scenario("scale_100")
    experiment = build_experiment(spec, 0)
    experiment.run_phases(spec.phases, total_peers=spec.peers)
    state = state_census(experiment.index)
    assert state["replica_copies"] > 0
    assert state["replica_copies_past_window_and_period"] == 0
    assert state["snapshot_records_past_window_and_period"] == 0
