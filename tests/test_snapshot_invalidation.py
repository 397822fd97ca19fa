"""Stale-snapshot invalidation: edits rebuild, corruption never crashes.

Three layers of defence are pinned here:

* **keying** -- any spec edit that shapes the pre-boundary world changes the
  build hash, so the old file is simply never looked up again (a later run
  captures the new world alongside it); identity knobs (seed,
  ``warm_start``) are normalised out of the hash: the seed lives in the
  filename instead;
* **the paranoid loader** -- a truncated, corrupted, version-bumped or
  key-mismatched file loads as ``None`` and the scenario silently rebuilds
  cold (and re-captures over the bad file);
* **the restore guard** -- a snapshot that decodes fine but disagrees with
  the world the spec builds (e.g. the periodic-loop inventory changed)
  raises :class:`SnapshotRestoreError` internally and the run falls back to
  cold, never crashing and never producing a half-restored world.
"""

from __future__ import annotations

import gzip
import json
from dataclasses import replace

import pytest

from repro.harness.scenarios import get_scenario, run_spec, snapshot_boundary
from repro.snapshot import (
    FORMAT_VERSION,
    SNAPSHOT_SUFFIX,
    build_hash,
    load_snapshot,
    save_snapshot,
    snapshot_path,
)


def _smoke():
    return get_scenario("smoke")


def _pre_phases(spec):
    phases = spec.resolved_phases()
    return phases[: snapshot_boundary(phases) + 1]


# ------------------------------------------------------------------ build hash
def test_spec_edits_change_the_hash():
    spec = _smoke()
    base = build_hash(spec, _pre_phases(spec))
    assert base == build_hash(spec, _pre_phases(spec))  # deterministic
    edits = [
        spec.with_(peers=spec.peers + 1),
        spec.with_(workload=replace(spec.workload, items=spec.workload.items + 5)),
        spec.with_(description="edited"),
    ]
    for edited in edits:
        assert build_hash(edited, _pre_phases(spec)) != base


def test_pre_phase_edits_change_the_hash():
    spec = _smoke()
    pre = _pre_phases(spec)
    longer = list(pre)
    longer[-1] = replace(longer[-1], settle=longer[-1].settle + 1.0)
    assert build_hash(spec, longer) != build_hash(spec, pre)


def test_identity_knobs_do_not_change_the_hash():
    """seed/warm_start select a *file*, not a build: same hash."""
    spec = _smoke()
    pre = _pre_phases(spec)
    base = build_hash(spec, pre)
    assert build_hash(spec.with_(seed=99), pre) == base
    assert build_hash(spec.with_(warm_start=False), pre) == base


def test_post_boundary_edits_keep_the_cache(tmp_path):
    """Editing only the phase *after* the boundary -- the one being iterated
    on -- keeps the snapshot valid: that is the workflow the cache exists
    for.  The hash covers the spec minus its phase list plus the pre-boundary
    phases, so the post-boundary tail is free to change."""
    spec = _smoke()
    cold = run_spec(spec, seed=0, snapshot_dir=str(tmp_path))
    phases = list(spec.resolved_phases())
    mix = replace(phases[-1].queries, count=phases[-1].queries.count + 3)
    phases[-1] = replace(phases[-1], queries=mix)
    edited = spec.with_(phases=tuple(phases))
    assert build_hash(edited, _pre_phases(edited)) == build_hash(spec, _pre_phases(spec))
    rerun = run_spec(edited, seed=0, snapshot_dir=str(tmp_path))
    assert rerun.warm_start  # resumed from the *unedited* spec's capture
    assert rerun.queries_run == cold.queries_run + 3
    assert len(list(tmp_path.glob(f"*{SNAPSHOT_SUFFIX}"))) == 1


def test_spec_edit_rebuilds_instead_of_resuming(tmp_path):
    spec = _smoke()
    run_spec(spec, seed=0, snapshot_dir=str(tmp_path))
    assert len(list(tmp_path.glob(f"*{SNAPSHOT_SUFFIX}"))) == 1
    edited = spec.with_(workload=replace(spec.workload, items=spec.workload.items + 1))
    rerun = run_spec(edited, seed=0, snapshot_dir=str(tmp_path))
    # The stale file was ignored, a cold build ran, and the *new* key's
    # snapshot now sits alongside the old one.
    assert not rerun.warm_start
    assert rerun.items_stored == spec.workload.items + 1
    assert len(list(tmp_path.glob(f"*{SNAPSHOT_SUFFIX}"))) == 2
    assert run_spec(edited, seed=0, snapshot_dir=str(tmp_path)).warm_start


# ------------------------------------------------------------------ the loader
@pytest.fixture
def written(tmp_path):
    """A real captured smoke snapshot plus its lookup key, on disk."""
    spec = _smoke()
    run_spec(spec, seed=0, snapshot_dir=str(tmp_path))
    key = build_hash(spec, _pre_phases(spec))
    path = snapshot_path(tmp_path, spec.name, key, 0)
    assert path.exists()
    return path, key


def test_loader_round_trips(written):
    path, key = written
    state = load_snapshot(path, key, 0)
    assert state is not None and state["peers"]


def test_loader_rejects_wrong_identity(written):
    path, key = written
    assert load_snapshot(path, "0" * 16, 0) is None
    assert load_snapshot(path, key, 1) is None
    assert load_snapshot(path.with_name("absent" + SNAPSHOT_SUFFIX), key, 0) is None


def test_loader_rejects_version_mismatch(written, tmp_path):
    path, key = written
    state = load_snapshot(path, key, 0)
    save_snapshot(path, key, 0, state)
    raw = json.loads(gzip.decompress(path.read_bytes()))
    raw["format_version"] = FORMAT_VERSION + 1
    path.write_bytes(gzip.compress(json.dumps(raw).encode()))
    assert load_snapshot(path, key, 0) is None


@pytest.mark.parametrize(
    "corruption",
    [
        lambda raw: raw[: len(raw) // 2],  # truncated mid-stream
        lambda raw: b"not gzip at all",
        lambda raw: gzip.compress(b"{not json"),
        lambda raw: gzip.compress(b'["a list, not an envelope"]'),
        lambda raw: b"",
    ],
    ids=["truncated", "not-gzip", "bad-json", "wrong-shape", "empty"],
)
def test_loader_survives_corruption(written, corruption):
    path, key = written
    path.write_bytes(corruption(path.read_bytes()))
    assert load_snapshot(path, key, 0) is None


def test_corrupted_file_rebuilds_cold_and_recaptures(written, tmp_path):
    path, key = written
    path.write_bytes(path.read_bytes()[:100])  # torn file
    rerun = run_spec(_smoke(), seed=0, snapshot_dir=str(tmp_path))
    assert not rerun.warm_start  # fell back cold, no crash
    # ... and the cold run re-captured a healthy file over the torn one.
    assert load_snapshot(path, key, 0) is not None
    assert run_spec(_smoke(), seed=0, snapshot_dir=str(tmp_path)).warm_start


# ------------------------------------------------------------------ restore guard
def test_structural_mismatch_falls_back_cold(written, tmp_path):
    """A snapshot whose loop inventory disagrees with the built world is
    rejected by the restorer (SnapshotRestoreError), not half-applied."""
    path, key = written
    state = load_snapshot(path, key, 0)
    state["loops"] = state["loops"][:-1]  # drop one armed loop
    save_snapshot(path, key, 0, state)
    rerun = run_spec(_smoke(), seed=0, snapshot_dir=str(tmp_path))
    assert not rerun.warm_start
    assert rerun.items_stored == _smoke().workload.items  # the cold run is intact
