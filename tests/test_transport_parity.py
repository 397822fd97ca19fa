"""Sim transport parity: the transport layer changes no observable behaviour.

Protocol layers talk to the substrate through :mod:`repro.transport` --
``Endpoint`` messaging and the ``clock`` / ``network`` / ``rngs`` of the
record :func:`~repro.transport.api.make_transport` returns -- instead of
``sim.network``/``sim.node`` directly.  On ``sim`` that record is the
discrete-event engine and its Network, built in one pinned order (the
clock, then the seeded streams, then the network drawing its stream), so
every scheduled event lands on the same ``(time, seq)`` key as before the
layer existed: *bit-identical event traces*.

These tests pin that promise against end states frozen from the pre-refactor
tree (commit da01b0f): membership, item counts, per-method RPC profiles,
message totals and the exact number of executed events, per scenario x seed.
The smoke matrix runs in tier-1; the heavier ``scale_300`` acceptance matrix
(seeds 0..2) runs under ``REPRO_PARITY_FULL=1`` (the CI ``parity`` job).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.harness.runner import run_cell
from tests.data.refreeze import pinned

DATA = Path(__file__).parent / "data"


def _load(name: str) -> dict:
    return json.loads((DATA / name).read_text())


def _frozen_cells(name: str):
    """``(scenario, seed, frozen_state)`` triples from a baseline file."""
    for key, state in sorted(_load(name).items()):
        scenario, _, seed = key.rpartition("@")
        yield scenario, int(seed), state


def _assert_matches_frozen(scenario: str, seed: int, frozen: dict) -> None:
    cell = run_cell((scenario, seed))
    assert cell["transport"] == "sim"
    live = pinned(cell, frozen)
    assert live == frozen, (
        f"{scenario}[seed={seed}]: the sim transport diverged from the frozen trace\n"
        f"  frozen: {frozen}\n  live:   {live}"
    )


@pytest.mark.parametrize(
    "scenario,seed,frozen",
    list(_frozen_cells("transport_refactor_baseline_smoke.json")),
    ids=lambda value: value if isinstance(value, str) else None,
)
def test_smoke_matches_pre_refactor_trace(scenario, seed, frozen):
    _assert_matches_frozen(scenario, seed, frozen)


FULL_MATRIX = bool(os.environ.get("REPRO_PARITY_FULL"))


@pytest.mark.skipif(
    not FULL_MATRIX, reason="set REPRO_PARITY_FULL=1 for the scale_300 matrix"
)
@pytest.mark.parametrize(
    "scenario,seed,frozen",
    list(_frozen_cells("transport_refactor_baseline_scale300.json")),
    ids=lambda value: value if isinstance(value, str) else None,
)
def test_scale_300_matches_pre_refactor_trace(scenario, seed, frozen):
    _assert_matches_frozen(scenario, seed, frozen)
