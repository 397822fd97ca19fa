"""Unit tests for the back-off cadence (:mod:`repro.maintenance`).

The controller is a deterministic state machine, so its back-off / tighten
transitions and bounds are pinned down exactly, as is how
:meth:`~repro.transport.endpoint.Endpoint.every` consults a callable period.
"""

import pytest

from repro.maintenance import AdaptiveCadence
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.randomness import RngStreams
from repro.transport import Endpoint


# --------------------------------------------------------------------------- the cadence controller
def test_adaptive_cadence_backs_off_after_threshold_successes():
    cadence = AdaptiveCadence(8.0, growth=2.0, max_factor=4.0, success_threshold=2)
    assert cadence.interval() == 8.0
    cadence.note_success()
    assert cadence.interval() == 8.0  # one success is below the threshold
    cadence.note_success()
    assert cadence.interval() == 16.0
    cadence.note_success()
    cadence.note_success()
    assert cadence.interval() == 32.0


def test_adaptive_cadence_is_bounded_by_max_factor():
    cadence = AdaptiveCadence(8.0, growth=2.0, max_factor=4.0, success_threshold=1)
    for _ in range(10):
        cadence.note_success()
    assert cadence.interval() == 32.0  # 8.0 * 4


def test_adaptive_cadence_tightens_to_base_on_failure_and_change():
    cadence = AdaptiveCadence(8.0, success_threshold=1)
    cadence.note_success()
    assert cadence.interval() > 8.0
    cadence.note_failure()
    assert cadence.interval() == 8.0
    cadence.note_success()
    assert cadence.interval() > 8.0
    cadence.note_change()
    assert cadence.interval() == 8.0


def test_adaptive_cadence_failure_resets_the_success_streak():
    cadence = AdaptiveCadence(8.0, success_threshold=2)
    cadence.note_success()
    cadence.note_failure()
    cadence.note_success()  # streak restarted: still one success short
    assert cadence.interval() == 8.0


def test_adaptive_cadence_rejects_nonsense_parameters():
    with pytest.raises(ValueError):
        AdaptiveCadence(0.0)
    with pytest.raises(ValueError):
        AdaptiveCadence(8.0, growth=1.0)
    with pytest.raises(ValueError):
        AdaptiveCadence(8.0, max_factor=0.5)
    with pytest.raises(ValueError):
        AdaptiveCadence(8.0, success_threshold=0)


# --------------------------------------------------------------------------- Node.every with callable periods
def test_node_every_accepts_a_callable_period():
    sim = Simulator()
    rngs = RngStreams(3)
    network = Network(sim, rngs.stream("network"))
    node = Endpoint(sim, network, "n1")
    cadence = AdaptiveCadence(1.0, growth=2.0, max_factor=4.0, success_threshold=1)
    ticks = []

    def action():
        ticks.append(sim.now)
        cadence.note_success()  # every round doubles the next interval

    node.every(cadence.interval, action, name="test-loop")
    sim.run(until=16.0)
    # Rounds at 1, then +2, +4, +4 (capped), ... -> 1, 3, 7, 11, 15.
    assert ticks == [1.0, 3.0, 7.0, 11.0, 15.0]


def test_node_every_float_period_unchanged():
    sim = Simulator()
    rngs = RngStreams(3)
    network = Network(sim, rngs.stream("network"))
    node = Endpoint(sim, network, "n1")
    ticks = []
    node.every(2.0, lambda: ticks.append(sim.now), name="fixed-loop")
    sim.run(until=7.0)
    assert ticks == [2.0, 4.0, 6.0]
