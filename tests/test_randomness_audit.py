"""Audit: every source of randomness flows through seeded streams.

Scenario cells must be reproducible seed-by-seed (the multiprocessing runner
depends on it), which dies the moment any protocol or workload module calls a
module-level ``random`` function (those share interpreter-global state).  The
only approved uses are ``random.Random`` (constructing an isolated, seeded
generator) and type annotations; everything else must take an rng argument or
pull a named stream from :class:`repro.sim.randomness.RngStreams`.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

APPROVED_ATTRIBUTES = {"Random"}  # random.Random(seed) is the seeded-stream primitive


def _module_paths():
    return sorted(SRC_ROOT.rglob("*.py"))


def _violations(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        # random.<function>(...) on the module object
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "random"
            and node.attr not in APPROVED_ATTRIBUTES
        ):
            found.append(f"{path.relative_to(SRC_ROOT)}:{node.lineno} random.{node.attr}")
        # from random import <module-level function>
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            for alias in node.names:
                if alias.name not in APPROVED_ATTRIBUTES:
                    found.append(
                        f"{path.relative_to(SRC_ROOT)}:{node.lineno} "
                        f"from random import {alias.name}"
                    )
    return found


def test_source_tree_is_scanned():
    paths = _module_paths()
    assert len(paths) > 30, "audit should see the whole package"


@pytest.mark.parametrize("path", _module_paths(), ids=lambda p: str(p.relative_to(SRC_ROOT)))
def test_no_bare_random_calls(path):
    assert _violations(path) == []


def _cell_under_hash_seed(hash_seed: str) -> dict:
    """``scale_100`` seed 0 (joins, splits, failures, routes) in a fresh interpreter."""
    script = (
        "import json; from repro.harness.runner import run_cell; "
        "cell = run_cell(('scale_100', 0)); "
        "print(json.dumps({k: cell[k] for k in ('events_processed', 'rpc_per_method')}))"
    )
    env = {
        **os.environ,
        "PYTHONHASHSEED": hash_seed,
        "PYTHONPATH": str(SRC_ROOT.parent),
    }
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_a_churn_cell_does_not_depend_on_the_string_hash_seed():
    """No order may come from iterating a ``set``/``dict`` of addresses: two
    interpreters with different ``PYTHONHASHSEED`` must run the same trace
    (perfbench's traced and untraced children differ in exactly that)."""
    assert _cell_under_hash_seed("1") == _cell_under_hash_seed("2")
