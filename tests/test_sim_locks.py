"""Unit tests for the simulated read/write locks."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.locks import RWLock
from repro.sim.engine import SimulationError


@pytest.fixture
def sim():
    return Simulator()


def test_multiple_readers_share_the_lock(sim):
    lock = RWLock(sim)
    granted = []

    def reader(label):
        yield lock.acquire_read()
        granted.append((label, sim.now))
        yield sim.timeout(5.0)
        lock.release_read()

    sim.process(reader("r1"))
    sim.process(reader("r2"))
    sim.run()
    assert [label for label, _ in granted] == ["r1", "r2"]
    assert all(time == 0.0 for _, time in granted)


def test_writer_excludes_readers(sim):
    lock = RWLock(sim)
    order = []

    def writer():
        yield lock.acquire_write()
        order.append(("w", sim.now))
        yield sim.timeout(3.0)
        lock.release_write()

    def reader():
        yield sim.timeout(1.0)
        yield lock.acquire_read()
        order.append(("r", sim.now))
        lock.release_read()

    sim.process(writer())
    sim.process(reader())
    sim.run()
    assert order == [("w", 0.0), ("r", 3.0)]


def test_writer_waits_for_all_readers(sim):
    lock = RWLock(sim)
    events = []

    def reader(delay):
        yield lock.acquire_read()
        yield sim.timeout(delay)
        lock.release_read()
        events.append(("release", sim.now))

    def writer():
        yield sim.timeout(0.5)
        yield lock.acquire_write()
        events.append(("write", sim.now))
        lock.release_write()

    sim.process(reader(2.0))
    sim.process(reader(4.0))
    sim.process(writer())
    sim.run()
    assert events[-1] == ("write", 4.0)


def test_fifo_queued_writer_blocks_later_readers(sim):
    lock = RWLock(sim)
    order = []

    def first_reader():
        yield lock.acquire_read()
        yield sim.timeout(2.0)
        lock.release_read()

    def writer():
        yield sim.timeout(0.5)
        yield lock.acquire_write()
        order.append(("writer", sim.now))
        yield sim.timeout(1.0)
        lock.release_write()

    def late_reader():
        yield sim.timeout(1.0)
        yield lock.acquire_read()
        order.append(("late_reader", sim.now))
        lock.release_read()

    sim.process(first_reader())
    sim.process(writer())
    sim.process(late_reader())
    sim.run()
    assert order == [("writer", 2.0), ("late_reader", 3.0)]


def test_release_without_hold_raises(sim):
    lock = RWLock(sim)
    with pytest.raises(SimulationError):
        lock.release_read()
    with pytest.raises(SimulationError):
        lock.release_write()


def test_lock_state_inspection(sim):
    lock = RWLock(sim, name="inspect")

    def proc():
        yield lock.acquire_write()
        assert lock.write_held
        assert lock.locked
        lock.release_write()
        yield lock.acquire_read()
        assert lock.readers == 1
        assert not lock.write_held
        lock.release_read()
        assert not lock.locked

    sim.run_process(proc())


def test_waiting_counter(sim):
    lock = RWLock(sim)

    def holder():
        yield lock.acquire_write()
        yield sim.timeout(5.0)
        lock.release_write()

    def waiter():
        yield sim.timeout(1.0)
        yield lock.acquire_read()
        lock.release_read()

    sim.process(holder())
    sim.process(waiter())
    sim.run(until=2.0)
    assert lock.waiting == 1
    sim.run()
    assert lock.waiting == 0


def test_a_drained_queue_is_dropped(sim):
    """The queue is built on a contention and dropped once it drains, so a
    lock that queued once holds no empty deque for the rest of the run."""
    lock = RWLock(sim)

    def holder(acquire, release, hold):
        yield acquire()
        yield sim.timeout(hold)
        release()

    sim.process(holder(lock.acquire_write, lock.release_write, 2.0))
    sim.process(holder(lock.acquire_read, lock.release_read, 1.0))
    sim.process(holder(lock.acquire_write, lock.release_write, 1.0))
    sim.run(until=1.0)
    assert lock.waiting == 2
    sim.run()
    assert not lock.locked and lock._waiters is None
