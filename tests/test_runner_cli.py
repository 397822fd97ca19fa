"""``repro-run`` CLI and runner surfaces: listing, figure options, removed flags.

These exercise the thin orchestration layer above :func:`run_spec` -- the
paths a scenario result travels between the registry and the BENCH envelope:

* ``--list`` renders every registry section (suites, scenarios, figures)
  with the per-scenario transport column;
* ``--transport`` applies to scenarios and suites, not figures;
* a seed listed twice is rejected before anything runs;
* the snapshot selectors are gone from every layer, so a cell has one
  execution path (``test_snapshot_surface_is_gone``).
"""

from __future__ import annotations

import dataclasses
import importlib

import pytest

from repro.cli import _parse_seeds, main
from repro.harness.phases import PhaseSpec
from repro.harness.runner import run_cell, run_cells, run_named
from repro.harness.scenarios import ScenarioSpec, get_scenario, run_spec


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


def test_profile_flag_is_gone(tmp_path, capsys):
    # Layer-by-layer time is perfbench --trace's job, not the runner's.
    with pytest.raises(SystemExit) as exit_info:
        main(["smoke", "--profile", "--out-dir", str(tmp_path)])
    assert exit_info.value.code == 2  # argparse: unrecognized arguments
    assert "--profile" in capsys.readouterr().err
    with pytest.raises(TypeError):
        run_named("smoke", out_dir=None, profile_dir=str(tmp_path))


# ------------------------------------------------------------------ figures
def test_profile_rejected_for_figures(tmp_path, capsys):
    # A figure rejects --profile as every run does: the flag no longer exists.
    with pytest.raises(SystemExit) as exit_info:
        main(["figure_19", "--profile", "--out-dir", str(tmp_path)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --profile" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())  # no figure ran, no BENCH file


def test_transport_rejected_for_figures(tmp_path, capsys):
    assert main(["figure_19", "--transport", "sim", "--out-dir", str(tmp_path)]) == 2
    assert "not figures" in capsys.readouterr().err


def test_a_repeated_seed_is_rejected(tmp_path, capsys):
    """``0..2,1`` names seed 1 twice: it would run twice and weigh twice in
    every mean.  Nothing runs and nothing is written."""
    assert _parse_seeds(["0..2,1"]) == [0, 1, 2, 1]
    with pytest.raises(ValueError, match="more than once: 1$"):
        run_named("smoke", seeds=[0, 1, 2, 1], out_dir=str(tmp_path))
    with pytest.raises(ValueError, match="more than once: 0, 2$"):
        run_named("figure_19", seeds=[2, 0, 2, 0], out_dir=str(tmp_path))
    assert main(["smoke", "--seeds", "0..2,1", "--out-dir", str(tmp_path)]) == 2
    assert "seeds listed more than once: 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# ------------------------------------------------------------------ snapshot flags
def test_snapshot_surface_is_gone(tmp_path, capsys):
    for flag in (["--snapshot-dir", str(tmp_path)], ["--no-warm-start"]):
        with pytest.raises(SystemExit) as exit_info:
            main(["smoke", *flag])
        assert exit_info.value.code == 2  # argparse: unrecognized arguments
        assert flag[0] in capsys.readouterr().err
    for gone in ({"snapshot_dir": str(tmp_path)}, {"warm_start": False}):
        with pytest.raises(TypeError):
            run_spec(get_scenario("smoke"), seed=0, **gone)
        with pytest.raises(TypeError):
            run_cells(["smoke"], processes=1, **gone)
        with pytest.raises(TypeError):
            run_named("smoke", out_dir=None, **gone)
    with pytest.raises(ValueError):  # slots 4-5 are not silently ignored
        run_cell(("smoke", 0, None, str(tmp_path), False))
    assert "warm_start" not in {field.name for field in dataclasses.fields(ScenarioSpec)}
    assert "snapshot" not in {field.name for field in dataclasses.fields(PhaseSpec)}
    with pytest.raises(ImportError):
        importlib.import_module("repro.snapshot")

    # One plain run: neither the cell dict nor the envelope carries a
    # snapshot key, and the listing does not advertise one.
    payload = run_named("smoke", out_dir=None)
    assert "warm_start" not in payload["results"][0]
    assert "snapshot_dir" not in payload and "warm_started_cells" not in payload
    assert main(["--list"]) == 0
    listing = capsys.readouterr().out.lower()
    assert "warm" not in listing and "snapshot" not in listing
