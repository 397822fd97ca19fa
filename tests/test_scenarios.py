"""Tests for the scenario registry, spec resolution and the cell runner."""

import json

import pytest

from repro.cli import _parse_seeds
from repro.harness.figures import FigureResult
from repro.harness.runner import (
    _cells_summary,
    aggregate_cells,
    known_names,
    run_cells,
    run_named,
    write_bench,
)
from repro.harness.scenarios import (
    ChurnSpec,
    LatencySpec,
    PhaseSpec,
    QueryMixSpec,
    ScenarioSpec,
    WorkloadSpec,
    get_scenario,
    get_suite,
    register,
    run_spec,
    scenario_names,
    suite_names,
)
from repro.sim.network import LanWanLatency, UniformLatency


TINY = ScenarioSpec(
    name="tiny-test-cell",
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

PROTOCOL_FLAGS = (
    "consistent_insert",
    "use_scan_range",
    "safe_leave",
    "extra_hop_replication",
    "proactive_nudge",
)


# --------------------------------------------------------------------------- registry basics
def test_builtin_scenarios_registered():
    names = scenario_names()
    for expected in (
        "paper_default",
        "smoke",
        "zipf_hotspot",
        "flash_crowd",
        "churn_heavy",
        "correlated_failures",
        "scale_100",
        "scale_300",
        "scale_1000",
    ):
        assert expected in names
    # One event engine: no cell exists only to name another one.
    assert len(names) == 30
    assert not [name for name in names if name.endswith("_wheel")]


def test_scale_sweep_suite_composition():
    assert "scale_sweep" in suite_names()
    suite = get_suite("scale_sweep")
    assert suite.scenarios == (
        "scale_100",
        "scale_100_adaptive",
        "scale_300",
        "scale_300_adaptive",
        "scale_1000",
        "scale_1000_adaptive",
    )
    assert suite.bench_name == "scale"
    deep = get_suite("scale_sweep_deep")
    assert deep.scenarios == (
        "scale_3000",
        "scale_5000",
        "scale_5000_adaptive",
        "scale_5000_rebalance",
    )
    assert deep.bench_name == "scale_deep"


def test_unknown_scenario_raises_with_known_names():
    with pytest.raises(KeyError, match="paper_default"):
        get_scenario("no_such_scenario")


def test_duplicate_registration_rejected():
    spec = get_scenario("smoke")
    with pytest.raises(ValueError, match="already registered"):
        register(spec)
    register(spec, replace_existing=True)  # idempotent escape hatch


def test_runner_known_names_cover_figures():
    names = known_names()
    assert "scale_sweep" in names
    assert "figure_19" in names


# --------------------------------------------------------------------------- spec resolution
def test_spec_resolves_protocol_selection():
    pepper = TINY.with_(protocols="pepper").index_config()
    naive = TINY.with_(protocols="naive").index_config()
    assert pepper.consistent_insert and pepper.use_scan_range
    assert not naive.consistent_insert and not naive.use_scan_range
    with pytest.raises(ValueError):
        TINY.with_(protocols="bogus").index_config()


def test_spec_config_overrides_apply():
    spec = TINY.with_(config={"successor_list_length": 7, "stabilization_period": 9.0})
    config = spec.index_config(seed=5)
    assert config.successor_list_length == 7
    assert config.stabilization_period == 9.0
    assert config.seed == 5


def test_spec_config_overrides_apply_after_protocols():
    """A ``config`` flag overrides the protocol selection: one flag off, four on."""
    pepper = TINY.with_(protocols="pepper", config={"use_scan_range": False}).index_config()
    assert not pepper.use_scan_range
    assert all(getattr(pepper, flag) for flag in PROTOCOL_FLAGS if flag != "use_scan_range")
    naive = TINY.with_(protocols="naive", config={"safe_leave": True}).index_config()
    assert naive.safe_leave
    assert not any(getattr(naive, flag) for flag in PROTOCOL_FLAGS if flag != "safe_leave")


def test_wan_scenarios_and_suite_registered():
    for expected in ("scale_100_wan", "scale_300_wan", "scale_1000_wan"):
        assert expected in scenario_names()
    suite = get_suite("scale_sweep_wan")
    assert suite.scenarios == ("scale_100_wan", "scale_300_wan", "scale_1000_wan")
    assert suite.bench_name == "scale_wan"


def test_latency_spec_resolves_into_network_config():
    spec = TINY.with_(
        latency=LatencySpec(
            model="lan_wan",
            params={"sites": 3, "wan_low": 0.04, "wan_high": 0.09},
        )
    )
    config = spec.index_config()
    model = config.network.latency_model
    assert isinstance(model, LanWanLatency)
    assert model.sites == 3
    assert (model.wan.low, model.wan.high) == (0.04, 0.09)
    # The default spec leaves the network untouched (legacy uniform bounds).
    assert TINY.index_config().network.latency_model is None
    with pytest.raises(ValueError, match="unknown latency model"):
        TINY.with_(latency=LatencySpec(model="bogus")).index_config()


def test_latency_spec_uniform_model():
    spec = TINY.with_(latency=LatencySpec(model="uniform", params={"low": 0.001, "high": 0.002}))
    model = spec.index_config().network.latency_model
    assert isinstance(model, UniformLatency)
    assert (model.low, model.high) == (0.001, 0.002)


def test_flash_crowd_spec_merges_into_build_schedule():
    build = PhaseSpec(
        name="build",
        arrivals=2,
        arrival_period=1.0,
        churn=ChurnSpec(flash_crowd_peers=4, flash_crowd_at=2.0),
        workload=WorkloadSpec(items=40, insert_rate=4.0),
        settle=5.0,
    )
    result = run_spec(TINY.with_(phases=(build,)), seed=0)
    # 1 bootstrap + 2 staggered arrivals + 4 crowd joins, nobody fails.
    assert result.ring_members + result.free_peers == 7


# --------------------------------------------------------------------------- execution
def test_run_spec_produces_complete_result():
    result = run_spec(TINY, seed=0)
    assert result.scenario == "tiny-test-cell"
    assert result.ring_members >= 3
    assert result.items_stored == 40
    assert result.queries_run == 3
    assert result.queries_complete == 3
    assert result.events_processed > 0
    assert result.wall_clock_s > 0
    assert "route_hops" in result.metrics
    payload = result.as_dict()
    json.dumps(payload)  # JSON-serialisable end to end


def test_run_spec_is_deterministic_per_seed():
    first = run_spec(TINY, seed=3)
    second = run_spec(TINY, seed=3)
    assert first.events_processed == second.events_processed
    assert first.sim_time_s == second.sim_time_s
    assert first.metrics == second.metrics
    different = run_spec(TINY, seed=4)
    assert different.events_processed != first.events_processed


def test_correlated_failures_phase_kills_members():
    spec = TINY.with_(
        name="tiny-corr",
        peers=10,
        phases=(
            PhaseSpec(name="build", arrivals=9, arrival_period=1.0,
                      workload=WorkloadSpec(items=60, insert_rate=4.0), settle=10.0),
            PhaseSpec(name="outage", churn=ChurnSpec(correlated_failures=2), settle=10.0),
        ),
    )
    result = run_spec(spec, seed=1)
    assert result.correlated_failures_injected == 2


def test_run_spec_wan_records_site_diagnostics():
    spec = TINY.with_(
        name="tiny-wan",
        latency=LatencySpec(model="lan_wan", params={"sites": 3}),
    )
    result = run_spec(spec, seed=0)
    # RPCs are attributed to originating sites and sum to the RPC total.
    assert result.per_site_rpcs
    assert all(key.startswith("site") for key in result.per_site_rpcs)
    assert sum(result.per_site_rpcs.values()) == result.rpc_calls
    # Cross-site latency stats are summarised and histogrammed.
    assert "net_latency_cross_site" in result.metrics
    assert result.metrics["net_latency_cross_site"]["mean"] >= 0.02
    assert "net_latency_intra_site" in result.metrics
    assert result.metrics["net_latency_intra_site"]["mean"] <= 0.003
    assert "net_latency_cross_site" in result.latency_histograms
    histogram = result.latency_histograms["net_latency_cross_site"]
    assert sum(histogram.values()) == result.metrics["net_latency_cross_site"]["count"]
    json.dumps(result.as_dict())


def test_run_spec_lan_results_carry_no_site_diagnostics():
    result = run_spec(TINY, seed=0)
    assert result.per_site_rpcs == {}
    assert result.latency_histograms == {}
    assert "net_latency_cross_site" not in result.metrics


# --------------------------------------------------------------------------- runner + BENCH emission
def test_run_cells_serial_and_bench_write(tmp_path):
    cells = run_cells(["smoke"], seeds=[0, 1], processes=1)
    assert [cell["seed"] for cell in cells] == [0, 1]
    path = write_bench("unit", {"results": cells}, out_dir=tmp_path)
    document = json.loads(path.read_text())
    assert document["bench"] == "unit"
    assert len(document["results"]) == 2
    assert document["environment"]["python"]


def test_run_named_scenario_writes_bench_json(tmp_path):
    payload = run_named("smoke", seeds=[0], out_dir=str(tmp_path))
    assert (tmp_path / "BENCH_smoke.json").exists()
    assert payload["summary"]["cells"] == 1


def test_run_named_unknown_name_raises():
    with pytest.raises(KeyError):
        run_named("definitely_not_registered", out_dir=None)


# --------------------------------------------------------------------------- multi-seed aggregation
def test_cells_summary_reports_both_throughput_views():
    cells = [
        {"wall_clock_s": 2.0, "events_processed": 1000},
        {"wall_clock_s": 2.0, "events_processed": 1000},
    ]
    # Two cells that ran concurrently: 4 s of per-cell clock, 2 s of real time.
    summary = _cells_summary(cells, elapsed_s=2.0)
    assert summary["total_wall_clock_s"] == 4.0
    assert summary["events_per_cell_wall_s"] == 500
    assert summary["elapsed_wall_clock_s"] == 2.0
    assert summary["events_per_wall_s"] == 1000  # real pool throughput
    # Without a measured elapsed time only the per-cell view is reported.
    assert "events_per_wall_s" not in _cells_summary(cells)


def test_aggregate_cells_per_scenario_stats():
    def cell(scenario, seed, wall):
        return {
            "scenario": scenario,
            "seed": seed,
            "wall_clock_s": wall,
            "events_processed": 100 * (seed + 1),
            "events_per_wall_s": 10.0,
            "rpc_calls": 50,
            "rpc_timeouts": seed,
            "messages_sent": 200,
            "query_mean_hops": 2.0 * (seed + 1),
        }

    cells = [cell("a", 0, 1.0), cell("a", 1, 3.0), cell("b", 0, 2.0)]
    aggregates = aggregate_cells(cells)
    assert set(aggregates) == {"a", "b"}
    assert aggregates["a"]["seeds"] == [0, 1]
    assert aggregates["a"]["wall_clock_s"] == {
        "mean": 2.0, "p95": 3.0, "min": 1.0, "max": 3.0,
    }
    assert aggregates["a"]["query_mean_hops"]["mean"] == pytest.approx(3.0)
    assert aggregates["b"]["seeds"] == [0]
    assert aggregates["b"]["wall_clock_s"]["p95"] == 2.0


def test_run_named_multi_seed_envelope(tmp_path):
    payload = run_named("smoke", seeds=[0, 1], processes=1, out_dir=str(tmp_path))
    assert payload["seeds"] == [0, 1]
    aggregate = payload["aggregates"]["smoke"]
    assert aggregate["seeds"] == [0, 1]
    for measurement in ("wall_clock_s", "events_processed", "rpc_calls"):
        stats = aggregate[measurement]
        assert set(stats) == {"mean", "p95", "min", "max"}
        assert stats["min"] <= stats["mean"] <= stats["max"]
        assert stats["min"] <= stats["p95"] <= stats["max"]
    document = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert document["aggregates"]["smoke"]["seeds"] == [0, 1]


def test_run_named_figure_honours_seeds_and_offsets(monkeypatch):
    from repro.harness import figures

    calls = []

    def fake_figure(seed=7):
        calls.append(seed)
        return FigureResult(
            figure="Fake",
            description="stub for seed-offset testing",
            headers=["x", "y"],
            rows=[(1, float(seed))],
        )

    monkeypatch.setitem(figures.ALL_FIGURES, "fake_figure", fake_figure)
    payload = run_named("fake_figure", seeds=[0, 2], processes=1, out_dir=None)
    # Offsets are applied on top of the figure's default seed.
    assert calls == [7, 9]
    assert payload["seeds"] == [7, 9]
    assert [cell["seed_offset"] for cell in payload["results"]] == [0, 2]
    # Matching rows are averaged across the seed runs.
    assert payload["aggregates"]["rows"] == [[1, 8.0]]
    assert payload["summary"]["figure_runs"] == 2


def test_run_named_figure_single_seed_keeps_historical_shape(monkeypatch):
    from repro.harness import figures

    calls = []

    def fake_figure(seed=19):
        calls.append(seed)
        return FigureResult(figure="Fake", description="", headers=["x"], rows=[(1,)])

    monkeypatch.setitem(figures.ALL_FIGURES, "fake_figure", fake_figure)
    payload = run_named("fake_figure", out_dir=None)
    assert calls == [19]  # seeds=[0] resolves to the figure's own default seed
    assert len(payload["results"]) == 1
    assert "aggregates" not in payload


# --------------------------------------------------------------------------- CLI seed parsing
def test_parse_seeds_accepts_lists_commas_and_ranges():
    assert _parse_seeds(["0"]) == [0]
    assert _parse_seeds(["0", "1", "2"]) == [0, 1, 2]
    assert _parse_seeds(["0,1,2"]) == [0, 1, 2]
    assert _parse_seeds(["0..4"]) == [0, 1, 2, 3, 4]
    assert _parse_seeds(["0..1", "5,7"]) == [0, 1, 5, 7]


def test_parse_seeds_rejects_garbage():
    with pytest.raises(SystemExit):
        _parse_seeds(["zebra"])
    with pytest.raises(SystemExit):
        _parse_seeds(["4..1"])
    with pytest.raises(SystemExit):
        _parse_seeds([","])
