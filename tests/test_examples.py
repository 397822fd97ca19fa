"""The runnable walkthroughs under ``examples/`` keep running."""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

from repro.harness import scenarios

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


@pytest.fixture(autouse=True)
def private_registry(monkeypatch):
    """Examples register their own cells; keep them out of the shared registry."""
    monkeypatch.setattr(scenarios, "_SCENARIOS", dict(scenarios._SCENARIOS))


@pytest.mark.parametrize(
    "script", ["correctness_demo.py", "digital_library.py", "jbi_tracking.py", "quickstart.py"]
)
def test_example_runs(script, capsys):
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    assert capsys.readouterr().out


@pytest.mark.xfail(
    strict=True,
    reason=(
        "an acknowledged insert is lost inside the replication window: item 8622.814 "
        "is stored on peer013 at t=226.30 and peer013 fails at t=230.36, within one "
        "4 s replication refresh, before the item was ever pushed to a replica"
    ),
)
def test_jbi_tracking_loses_no_object(capsys):
    main = runpy.run_path(str(EXAMPLES / "jbi_tracking.py"))["main"]
    assert main() == []
