"""``repro-run`` CLI and runner surfaces: listing, profiling, snapshot flags.

These exercise the thin orchestration layer above :func:`run_spec` -- the
paths a scenario result travels between the registry and the BENCH envelope:

* ``--list`` renders every registry section (suites, scenarios, figures)
  with the per-scenario transport column;
* ``--profile`` runs serially under cProfile and writes the per-scenario
  report next to the BENCH file;
* ``--snapshot-dir`` / ``--no-warm-start`` thread through ``run_named`` /
  ``run_cells`` / ``run_cell`` into :func:`run_spec`, and the BENCH envelope
  records the cache directory and how many cells resumed.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.harness.runner import run_cells, run_named


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_TRANSPORT", raising=False)


# ------------------------------------------------------------------ --list
def test_list_renders_every_registry_section(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for section in ("suites:", "scenarios:", "figures:"):
        assert section in out
    # The scenario table carries the transport column and known rows.
    assert "transport" in out and "engine" not in out
    assert "smoke" in out and "scale_300" in out


def test_bare_invocation_lists_and_unknown_name_fails(capsys):
    assert main([]) == 0  # no scenario -> the listing, not an error
    for gone in ("no_such_scenario", "engine_bench"):
        assert main([gone]) == 2
        assert f"unknown scenario {gone!r}" in capsys.readouterr().err


def test_engine_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["smoke", "--engine", "heap"])
    assert exit_info.value.code == 2  # argparse: unrecognized arguments
    assert "--engine" in capsys.readouterr().err


# ------------------------------------------------------------------ --profile
def test_profile_writes_per_scenario_report(tmp_path, capsys):
    assert main(["smoke", "--profile", "--out-dir", str(tmp_path)]) == 0
    report = tmp_path / "PROFILE_smoke.txt"
    assert report.exists()
    text = report.read_text()
    assert "cumulative" in text  # the sort column header made it to disk
    assert (tmp_path / "BENCH_smoke.json").exists()


def test_profile_rejected_for_figures(tmp_path, capsys):
    assert main(["figure_19", "--profile", "--out-dir", str(tmp_path)]) == 2
    assert "not figures" in capsys.readouterr().err


# ------------------------------------------------------------------ snapshot flags
def test_snapshot_dir_flag_caches_and_resumes(tmp_path, capsys):
    cache = tmp_path / "snapshots"
    args = ["smoke", "--snapshot-dir", str(cache), "--out-dir", str(tmp_path)]
    assert main(args) == 0
    bench = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert bench["snapshot_dir"] == str(cache)
    assert bench["warm_started_cells"] == 0  # first run: nothing to resume
    assert list(cache.glob("*.snap.gz"))

    capsys.readouterr()  # drop the cold run's output
    assert main(args) == 0  # second run resumes from the capture
    assert "(warm start)" in capsys.readouterr().out  # visible on the cell line
    bench = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert bench["warm_started_cells"] == 1
    assert bench["results"][0]["warm_start"] is True


def test_no_warm_start_flag_forces_cold(tmp_path):
    cache = tmp_path / "snapshots"
    base = ["smoke", "--snapshot-dir", str(cache), "--out-dir", str(tmp_path)]
    assert main(base) == 0  # populate the cache
    assert main(base + ["--no-warm-start"]) == 0
    bench = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert bench["warm_started_cells"] == 0
    assert bench["results"][0]["warm_start"] is False


def test_snapshot_dir_rejected_for_figures(tmp_path, capsys):
    assert main(["figure_19", "--snapshot-dir", str(tmp_path)]) == 2
    assert "not figures" in capsys.readouterr().err


def test_run_cells_shares_one_cache_across_seeds(tmp_path):
    """The seed cross product writes one keyed file per cell into a shared
    directory, and a rerun of the whole product resumes every cell."""
    cache = str(tmp_path)
    cold = run_cells(["smoke"], seeds=(0, 1), processes=1, snapshot_dir=cache)
    assert [cell["warm_start"] for cell in cold] == [False, False]
    assert len(list(Path(cache).glob("*.snap.gz"))) == 2  # one per seed
    warm = run_cells(["smoke"], seeds=(0, 1), processes=1, snapshot_dir=cache)
    assert [cell["warm_start"] for cell in warm] == [True, True]
    for cold_cell, warm_cell in zip(cold, warm):
        assert warm_cell["events_processed"] == cold_cell["events_processed"]


def test_run_named_snapshot_metadata_without_dir(tmp_path):
    """No --snapshot-dir: the envelope carries no snapshot keys at all."""
    payload = run_named("smoke", out_dir=str(tmp_path))
    assert "snapshot_dir" not in payload
    assert "warm_started_cells" not in payload
