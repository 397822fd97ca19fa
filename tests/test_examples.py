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


def test_jbi_tracking_loses_no_object(capsys):
    main = runpy.run_path(str(EXAMPLES / "jbi_tracking.py"))["main"]
    assert main() == []
