"""The census's list of unreached functions (``tests/data/unreached.txt``) stays exact.

``tests/data/census.py`` makes the runs and compares; CI's ``census`` job
runs it.  The list's checks need no run, only an AST walk of ``src/repro``: the
list is sorted with no duplicates, and every entry names a function that
exists and says why it stays.  A deleted function left on the list fails here.

The census's own machinery is checked too: every kind of def maps its code
object's ``(file, first line, name)`` to the function the AST walk found, and
the hook counts a child process however it exits.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.histories import History
from repro.harness import metrics
from repro.harness.experiment import ClusterExperiment
from repro.index.peer import IndexPeer
from repro.transport.asyncio_transport import AsyncioClock
from repro.workloads import churn
from tests.data.census import LISTING, ROOT, SRC, functions, hooked_env, read_census, read_listing


def test_the_list_is_sorted_without_duplicates():
    names = [line.partition("#")[0].strip() for line in LISTING.read_text().splitlines()]
    assert names == sorted(set(names))


def test_every_entry_names_a_function_in_src():
    defined = {name for name, _lines in functions().values()}
    assert [name for name in read_listing() if name not in defined] == []


def test_every_entry_has_a_reason():
    assert [name for name, reason in read_listing().items() if not reason] == []


def _nested(function, name):
    """The code object of the def ``name`` nested in ``function``."""
    return next(const for const in function.__code__.co_consts
                if getattr(const, "co_name", None) == name)


@pytest.mark.parametrize("code, qualname", [
    pytest.param(churn.failure_schedule.__code__,
                 "repro/workloads/churn.py:failure_schedule", id="module_function"),
    pytest.param(metrics.Metrics.record.__code__,
                 "repro/harness/metrics.py:Metrics.record", id="method"),
    pytest.param(IndexPeer.in_ring.fget.__code__,
                 "repro/index/peer.py:IndexPeer.in_ring", id="property"),
    pytest.param(ClusterExperiment._draw_victim.__code__,
                 "repro/harness/experiment.py:ClusterExperiment._draw_victim", id="staticmethod"),
    pytest.param(History._prefix.__func__.__code__,
                 "repro/core/histories.py:History._prefix", id="classmethod"),
    pytest.param(_nested(AsyncioClock.run_until, "_on_trigger"),
                 "repro/transport/asyncio_transport.py:AsyncioClock.run_until.<locals>._on_trigger",
                 id="nested_function"),
    pytest.param(_nested(AsyncioClock.run_until, "_wait"),
                 "repro/transport/asyncio_transport.py:AsyncioClock.run_until.<locals>._wait",
                 id="nested_async_function"),
    pytest.param(vars(sys.modules["repro.harness"])["__getattr__"].__code__,
                 "repro/harness/__init__.py:__getattr__", id="module_getattr"),
])
def test_a_code_object_maps_to_its_census_entry(code, qualname):
    path = Path(code.co_filename).resolve().relative_to(SRC.resolve()).as_posix()
    name, _lines = functions()[(path, code.co_firstlineno, code.co_name)]
    assert name == qualname


@pytest.mark.parametrize("exit_call", ["", "import os; os._exit(0)"], ids=["returns", "os_exit"])
def test_the_hook_counts_a_child_process(tmp_path, exit_call):
    # A pool worker leaves through os._exit, which skips atexit.
    script = f"from repro.workloads.churn import join_schedule; join_schedule(2, period=1.0); {exit_call}"
    subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=hooked_env(tmp_path), check=True)
    ran = read_census(tmp_path)
    code = churn.join_schedule.__code__
    assert ("repro/workloads/churn.py", code.co_firstlineno, "join_schedule") in ran
    assert all(name != "failure_schedule" for _path, _line, name in ran)
