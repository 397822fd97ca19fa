"""A run builds no reference cycles, so pausing the cyclic collector defers no garbage.

``Simulator.run`` pauses the collector while it runs (``docs/ARCHITECTURE.md``,
"Contract: the event engine", *Memory*).  That is free only if what a run
drops, reference counting frees.  Each cell here runs its phases with the
collector off while the test holds the deployment; a ``DEBUG_SAVEALL``
collection afterwards must then find nothing unreachable.  ``churn_heavy`` and
``correlated_failures`` fail peers, whose killed processes each used to stay
in a cycle through the traceback of the interrupt that ended them.
"""

import collections
import gc

import pytest

from repro.harness.scenarios import build_experiment, get_scenario


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
