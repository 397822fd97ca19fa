"""A run builds no reference cycles, so pausing the cyclic collector defers no garbage.

``Simulator.run`` pauses the collector while it runs (``docs/ARCHITECTURE.md``,
"Contract: the event engine", *Memory*).  That is free only if what a run
drops, reference counting frees.  Each cell here runs its phases with the
collector off while the test holds the deployment; a ``DEBUG_SAVEALL``
collection afterwards must then find nothing unreachable.  ``churn_heavy`` and
``correlated_failures`` fail peers, whose killed processes each used to stay
in a cycle through the traceback of the interrupt that ended them.  An error
a process catches (a timed-out RPC) used to stay in one through its own
traceback, which held the process's frame.
"""

import collections
import gc
import traceback

import pytest

from repro.harness.scenarios import build_experiment, get_scenario
from repro.sim.engine import Simulator


@pytest.fixture
def collector_off():
    """Start from a collected heap with the collector off; restore it after."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


@pytest.mark.parametrize("name", ["smoke", "churn_heavy", "correlated_failures"])
def test_a_run_leaves_no_cyclic_garbage(collector_off, name):
    spec = get_scenario(name)
    experiment = build_experiment(spec, spec.seed)
    experiment.run_phases(spec.phases, total_peers=spec.peers)
    gc.set_debug(gc.DEBUG_SAVEALL)
    unreachable = gc.collect()
    kinds = collections.Counter(type(obj).__name__ for obj in gc.garbage)
    assert unreachable == 0, f"{name} left {unreachable} objects in cycles: {kinds.most_common(5)}"
    assert experiment.index.sim.events_processed > 0  # held until here, and it ran


def _run_a_process_that_catches_an_error() -> Simulator:
    sim = Simulator()
    failing = sim.event()

    def waiter():
        try:
            yield failing
        except ValueError:
            pass  # caught, and the process returns in the same resume

    def failer():
        yield sim.timeout(1.0)
        failing.fail(ValueError("timed out"))

    sim.process(waiter())
    sim.process(failer())
    sim.run()
    return sim  # the event and the error are dropped here


def test_an_error_a_process_catches_leaves_no_cyclic_garbage(collector_off):
    sim = _run_a_process_that_catches_an_error()
    gc.set_debug(gc.DEBUG_SAVEALL)
    unreachable = gc.collect()
    kinds = collections.Counter(type(obj).__name__ for obj in gc.garbage)
    assert unreachable == 0, f"a caught error left {unreachable} objects in cycles: {kinds.most_common(5)}"
    assert sim.now == 1.0  # held until here, and it ran


def test_an_error_no_process_catches_keeps_the_line_it_started_on():
    sim = Simulator()
    failing = sim.event()

    def waiter():
        yield failing  # the error is thrown in here and not caught

    def caller():
        return (yield sim.process(waiter()))

    def failer():
        yield sim.timeout(1.0)
        failing.fail(ValueError("timed out"))

    sim.process(failer())
    with pytest.raises(ValueError) as raised:
        sim.run_process(caller())
    frames = traceback.extract_tb(raised.value.__traceback__)
    assert [(frame.name, frame.line) for frame in frames if frame.name == "waiter"] == [
        ("waiter", "yield failing  # the error is thrown in here and not caught")
    ]
    assert "caller" in {frame.name for frame in frames}
