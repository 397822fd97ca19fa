"""Unit tests for the seeded RNG streams."""

from repro.sim.randomness import RngStreams


def test_same_seed_same_stream_sequence():
    first = RngStreams(42).stream("network")
    second = RngStreams(42).stream("network")
    assert [first.random() for _ in range(5)] == [second.random() for _ in range(5)]


def test_different_names_are_independent():
    streams = RngStreams(42)
    a = [streams.stream("a").random() for _ in range(5)]
    b = [streams.stream("b").random() for _ in range(5)]
    assert a != b


def test_stream_is_cached():
    streams = RngStreams(1)
    assert streams.stream("x") is streams.stream("x")


def test_creation_order_does_not_matter():
    forward = RngStreams(9)
    backward = RngStreams(9)
    forward.stream("first")
    value_forward = forward.stream("second").random()
    backward.stream("second")  # created first this time
    value_backward = RngStreams(9).stream("second").random()
    assert value_forward == value_backward

