"""SimTransport parity: the transport refactor changed zero observable behaviour.

PR "one contract, two transports" moved the RPC surface out of the simulator
core: protocol layers now talk to :class:`repro.transport.api.Transport`
instead of ``sim.network``/``sim.node`` directly, and :class:`SimTransport`
adapts the existing discrete-event Network underneath.  The refactor's promise
is *bit-identical event traces* -- the adapter constructs clock, RNG streams
and network in exactly the pre-refactor order, so every scheduled event lands
on the same ``(time, seq)`` key as before.

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
        f"{scenario}[seed={seed}]: SimTransport diverged from the pre-refactor trace\n"
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
