"""Tier-1 smoke test of the benchmark: the ``--quick`` sizing through the real code path.

One quick suite run (every workload, untraced and traced, each in its own
child process) is shared by the assertions below; the determinism check runs
the workloads a second time in this process and compares the simulated side.
"""

from __future__ import annotations

import ast
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import catalogue
from perfbench.compare import compare
from perfbench.compare import main as compare_main

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _perfbench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "perfbench", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    """Results of ``python -m perfbench --quick --trace --seed 0`` plus its output directory."""
    out_dir = tmp_path_factory.mktemp("perfbench")
    done = _perfbench("--quick", "--trace", "--seed", "0", "--out", str(out_dir / "results.json"),
                      "--out-dir", str(out_dir))
    assert done.returncode == 0, done.stderr
    return json.loads((out_dir / "results.json").read_text()), out_dir, done.stdout


def test_every_workload_emits_every_declared_metric(suite):
    results, _out_dir, stdout = suite
    assert [run["workload"] for run in results["runs"]] == list(catalogue.WORKLOADS)
    for run in results["runs"]:
        assert set(run["metrics"]) == set(catalogue.BY_NAME)
        for name, value in run["metrics"].items():
            metric = catalogue.BY_NAME[name]
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
            assert value is None or isinstance(value, (int, float)), (name, value)
            if run["workload"] not in metric.workloads:
                assert value is None, (run["workload"], name)
            if metric.tier == "end_to_end":
                assert value, (run["workload"], name)  # defined everywhere, never 0
            assert f"{name} " in stdout  # printed by name
        assert run["ops_attempted"] >= 1
        assert run["ops_failed"] == sum(k["failed"] for k in run["ops_by_kind"].values())
    for field in ("commit", "python", "platform", "nproc", "REPRO_ENGINE", "src_loc", "calibration_s"):
        assert field in results["environment"]


def test_traced_run_matches_untraced_and_accounts_for_its_window(suite):
    results, out_dir, _stdout = suite
    for run in results["runs"]:
        # with_trace() records any simulated-side difference, and a folded
        # self-time total off the traced window by more than 5%, as a problem.
        assert run["problems"] == [], run["problems"]
        assert run["metrics"]["harness.trace_overhead"] > 1.0
        trace = json.loads((out_dir / f"trace_{run['workload']}.json").read_text())
        names = {span["name"] for span in trace["spans"]}
        assert {"setup", "window"} <= names
        assert sum(trace["self_s_by_layer"].values()) == pytest.approx(trace["profiled_window_s"], rel=0.05)
    engine = next(run for run in results["runs"] if run["workload"] == catalogue.ENGINE_RPC)
    hot_path = sum(engine["metrics"][f"{layer}.self_s"]
                   for layer in ("sim.engine", "sim.network", "transport.endpoint"))
    assert hot_path > 0.8 * sum(v for k, v in engine["metrics"].items() if k.endswith("self_s"))
    mixed = json.loads((out_dir / f"trace_{catalogue.MIXED}.json").read_text())
    query = next(span for span in mixed["spans"] if span["name"] == "query" and span["end"])
    children = [span for span in mixed["spans"] if span.get("parent") == "query"
                and all(span[key] == query[key] for key in ("ring", "window", "op"))]
    assert [span["name"] for span in children] == ["route", "scan"]
    assert query["due"] <= children[0]["start"] <= children[0]["end"] == children[1]["start"]


def test_second_run_repeats_the_simulated_side_exactly(suite):
    from perfbench.hostclock import HostClock
    from perfbench.runner import run_once

    results, _out_dir, _stdout = suite
    for first in results["runs"]:
        with HostClock() as clock:
            second = run_once(first["workload"], 0, first["seconds"], True, False, None, clock, 0.0)
        for metric in catalogue.METRICS:
            if metric.clock == "sim":
                assert second["metrics"][metric.name] == first["metrics"][metric.name], metric.name
        for field in ("ops_attempted", "ops_failed", "ops_by_kind", "rpc_per_method"):
            assert second[field] == first[field]


def test_pipeline_form_prints_the_contract_line():
    done = _perfbench("--workload", catalogue.SERVE, "--seed", "3", "--quick", "--trace", "0")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1
    assert list(line["metrics"]) == [metric.name for metric in catalogue.END_TO_END]
    assert all(entry["value"] > 0 for entry in line["metrics"].values())


def test_benchmark_json_is_the_catalogue():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared == catalogue.benchmark_json()
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in declared["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in declared["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])


def test_compare_flags_a_regression(suite, tmp_path, capsys):
    results, out_dir, _stdout = suite
    assert {row["status"] for row in compare(results, results)} == {"ok"}
    slower = json.loads(json.dumps(results))
    slower["environment"]["commit"] = "another"
    slower["runs"][0]["metrics"]["wall_s"] *= 1.5
    slower["runs"][3]["ops_failed"] += 1
    (tmp_path / "slower.json").write_text(json.dumps(slower))
    assert compare_main([str(out_dir / "results.json"), str(tmp_path / "slower.json")]) == 1
    worse = [line.split()[:2] for line in capsys.readouterr().out.splitlines()
             if line.endswith("  worse")]
    assert worse == [[catalogue.ENGINE_RPC, "wall_s"], [catalogue.MIXED, "ops_failed_share"]]


def test_without_the_source_tree_the_benchmark_refuses(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _perfbench("--workload", catalogue.ENGINE_RPC, "--seed", "0", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def test_only_public_names_are_imported_from_repro():
    # Mirrors tests/test_import_boundary.py: walk the AST of every benchmark module.
    modules = sorted(BENCH_DIR.glob("*.py"))
    assert len(modules) >= 8
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "repro":
                names = node.module.split(".") + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [part for alias in node.names if alias.name.split(".")[0] == "repro"
                         for part in alias.name.split(".")]
            else:
                continue
            private = [name for name in names if name.startswith("_")]
            assert not private, f"{path.name}:{node.lineno} imports {private}"
