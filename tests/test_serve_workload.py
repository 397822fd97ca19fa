"""The open-loop serve workload: schedule generation, specs, BENCH plumbing."""

import random

import pytest

from repro.harness.phases import PhaseSpec, ServeSpec, WorkloadSpec
from repro.harness.runner import aggregate_cells
from repro.harness.scenarios import ScenarioSpec, run_spec
from repro.serve.workload import open_loop_queries, zipf_hotspot_windows


# --------------------------------------------------------------------------- generator
def test_open_loop_schedule_is_deterministic():
    first = open_loop_queries(50.0, 5.0, 1000.0, random.Random(7))
    second = open_loop_queries(50.0, 5.0, 1000.0, random.Random(7))
    assert first == second
    assert first != open_loop_queries(50.0, 5.0, 1000.0, random.Random(8))


def test_open_loop_schedule_respects_bounds():
    schedule = open_loop_queries(80.0, 5.0, 1000.0, random.Random(3), selectivity=0.05)
    assert schedule, "~400 expected arrivals cannot be empty"
    previous = 0.0
    for query in schedule:
        assert previous < query.at <= 5.0
        previous = query.at
        assert 0.0 <= query.lb < query.ub <= 1000.0
        assert query.ub - query.lb == pytest.approx(50.0)  # key_space * selectivity


def test_open_loop_arrivals_are_zipf_skewed_by_rank():
    schedule = open_loop_queries(
        300.0, 10.0, 1000.0, random.Random(11), hotspots=8, alpha=1.1
    )
    by_rank = [0] * 8
    for query in schedule:
        by_rank[query.hotspot] += 1
    # Rank 0 dominates and the tail ranks see far less traffic.
    assert by_rank[0] == max(by_rank)
    assert by_rank[0] > 3 * min(by_rank)
    assert sum(by_rank) == len(schedule)


def test_open_loop_generator_rejects_bad_settings():
    rng = random.Random(1)
    with pytest.raises(ValueError):
        open_loop_queries(0.0, 5.0, 1000.0, rng)
    with pytest.raises(ValueError):
        open_loop_queries(10.0, -1.0, 1000.0, rng)
    with pytest.raises(ValueError):
        zipf_hotspot_windows(0, 1000.0, 20.0, rng)
    with pytest.raises(ValueError):
        zipf_hotspot_windows(4, 1000.0, 0.0, rng)


# --------------------------------------------------------------------------- specs
def test_serve_spec_validation():
    ServeSpec().validate()
    for bad in (
        ServeSpec(arrival_rate=0.0),
        ServeSpec(duration=-1.0),
        ServeSpec(routing="telepathy"),
        ServeSpec(selectivity=0.0),
    ):
        with pytest.raises(ValueError):
            bad.validate()


# --------------------------------------------------------------------------- end to end
SERVE_TINY = ScenarioSpec(
    name="serve-tiny-cell",
    peers=6,
    phases=(
        PhaseSpec(
            name="build",
            arrivals=5,
            arrival_period=1.0,
            workload=WorkloadSpec(items=40, insert_rate=4.0),
            settle=10.0,
        ),
        PhaseSpec(
            name="serve",
            serve=ServeSpec(arrival_rate=10.0, duration=4.0, routing="replica_lb"),
        ),
    ),
)


def test_run_spec_executes_serve_phase_and_reports_latency():
    result = run_spec(SERVE_TINY, seed=3)
    assert result.serve_queries > 0
    # No churn during the serve window: every open-loop query is exact.
    assert result.serve_correct == result.serve_queries
    latency = result.query_latency
    assert latency["count"] == float(result.serve_queries)
    assert 0.0 < latency["p50"] <= latency["p95"] <= latency["p99"]
    assert latency["mean"] > 0.0
    assert result.serve_load_variance >= 0.0
    serve_phase = result.phases[-1]
    assert serve_phase["phase"] == "serve"
    assert serve_phase["queries_run"] == result.serve_queries


# --------------------------------------------------------------------------- aggregation
def _fake_cell(seed, p50, p99, variance):
    return {
        "scenario": "serve_fake",
        "seed": seed,
        "serve_load_variance": variance,
        "query_latency": {
            "count": 100.0,
            "mean": (p50 + p99) / 2,
            "p50": p50,
            "p95": p99,
            "p99": p99,
        },
    }


def test_aggregate_cells_summarises_latency_block_and_load_variance():
    aggregate = aggregate_cells([_fake_cell(0, 0.01, 0.05, 4.0), _fake_cell(1, 0.03, 0.07, 2.0)])
    entry = aggregate["serve_fake"]
    assert entry["serve_load_variance"]["mean"] == pytest.approx(3.0)
    assert entry["query_latency"]["p50"]["mean"] == pytest.approx(0.02)
    assert entry["query_latency"]["p99"]["max"] == pytest.approx(0.07)
    assert entry["query_latency"]["count"]["min"] == 100.0


def test_aggregate_cells_omits_latency_when_any_cell_lacks_it():
    bare = {"scenario": "serve_fake", "seed": 2, "serve_load_variance": 1.0}
    aggregate = aggregate_cells([_fake_cell(0, 0.01, 0.05, 4.0), bare])
    assert "query_latency" not in aggregate["serve_fake"]
