"""The discrete-event transport: the seeded simulator behind the contract.

A *thin* adapter by design: it composes the engine
(:func:`~repro.sim.engine.make_simulator`) with the
:class:`~repro.sim.network.Network` in exactly the order the pre-transport
composition root did, consuming the same RNG streams in the same sequence.
That makes a ``SimTransport`` deployment event-trace bit-identical to the
pre-refactor stack, which the frozen-seed parity suite
(``tests/test_transport_parity.py``) pins.
"""

from __future__ import annotations

from repro.sim.engine import make_simulator
from repro.sim.network import Network
from repro.sim.randomness import RngStreams
from repro.transport.api import Transport


class SimTransport(Transport):
    """Clock = discrete-event engine; message plane = simulated network."""

    name = "sim"

    def __init__(self, config, metrics=None):
        # Construction order matters for parity: the engine first, then the
        # seeded streams, then the network pulling its "network" stream --
        # the exact sequence the pre-transport PRingIndex used.
        self.clock = make_simulator()
        self.rngs = RngStreams(config.seed)
        self.network = Network(
            self.clock, self.rngs.stream("network"), config.network, metrics=metrics
        )

    def shutdown(self) -> None:
        """Nothing to release: the simulator holds no external resources."""
