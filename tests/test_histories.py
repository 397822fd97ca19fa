"""Unit and property-based tests for histories of operations."""

from hypothesis import given, settings, strategies as st

from repro.core.histories import History, HistoryRecorder, Operation
from repro.sim.engine import Simulator


def test_recorder_assigns_monotonic_ids_and_times():
    sim = Simulator()
    recorder = HistoryRecorder(sim)
    recorder.record("a", peer="p1")
    sim.schedule(1.0, lambda _: None)
    sim.run()
    recorder.record("b", peer="p2", extra=1)
    first, second = recorder.history()
    assert first.op_id < second.op_id
    assert first.time <= second.time
    assert second.get("extra") == 1
    assert recorder.count("a") == 1


def test_history_sorted_by_time_then_id():
    ops = [
        Operation(2, "b", 1.0, None),
        Operation(1, "a", 1.0, None),
        Operation(3, "c", 0.5, None),
    ]
    history = History(ops)
    assert [op.kind for op in history] == ["c", "a", "b"]


def test_of_kind_and_last_of_kind():
    history = History(
        [
            Operation(1, "x", 0.0, "p"),
            Operation(2, "y", 1.0, "p"),
            Operation(3, "x", 2.0, "q"),
        ]
    )
    assert [op.op_id for op in history.of_kind("x")] == [1, 3]
    assert history.of_kind("x")[-1].op_id == 3
    assert history.of_kind("missing") == []


def test_happened_before_is_strict():
    early = Operation(1, "x", 0.0, None)
    late = Operation(2, "y", 1.0, None)
    history = History([early, late])
    assert history.happened_before(early, late)
    assert not history.happened_before(late, early)
    assert not history.happened_before(early, early)


def test_truncate_returns_prefix():
    ops = [Operation(i, "op", float(i), None) for i in range(5)]
    history = History(ops)
    truncated = history.truncate(ops[2])
    assert len(truncated) == 3
    assert truncated.operations[-1].op_id == 2


# --------------------------------------------------------------------------- properties
operation_lists = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=100, allow_nan=False),
        st.sampled_from(["a", "b", "c"]),
    ),
    max_size=50,
)


@settings(max_examples=100, deadline=None)
@given(operation_lists)
def test_property_happened_before_is_a_strict_total_order(raw):
    ops = [Operation(i, kind, time, None) for i, (time, kind) in enumerate(raw)]
    history = History(ops)
    ordered = history.operations
    for i, first in enumerate(ordered):
        for second in ordered[i + 1 :]:
            assert history.happened_before(first, second)
            assert not history.happened_before(second, first)


@settings(max_examples=100, deadline=None)
@given(operation_lists)
def test_property_truncation_is_prefix_closed(raw):
    ops = [Operation(i, kind, time, None) for i, (time, kind) in enumerate(raw)]
    history = History(ops)
    if not len(history):
        return
    pivot = history.operations[len(history) // 2]
    truncated = history.truncate(pivot)
    for op in truncated:
        assert not history.happened_before(pivot, op)
    assert pivot in truncated.operations


class _Clock:
    now = 0.0


attr_dicts = st.dictionaries(
    st.sampled_from(["skv", "reason", "hops", "range"]),
    st.one_of(
        st.none(),
        st.integers(-5, 5),
        st.floats(allow_nan=False),
        st.sampled_from(["split", "bootstrap"]),
        st.tuples(st.floats(0, 1), st.floats(0, 1), st.booleans()),
    ),
    max_size=3,
)
record_calls = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.5, 2.0]),  # clock advance before the call
        st.sampled_from(["item_stored", "item_removed", "route"]),
        st.sampled_from([None, "p1", "p2"]),
        attr_dicts,
    ),
    max_size=40,
)


@settings(max_examples=100, deadline=None)
@given(record_calls, st.integers(0, 40))
def test_property_recorder_snapshot_equals_a_hand_built_history(calls, cut):
    clock = _Clock()
    recorder = HistoryRecorder(clock)
    expected = []
    earlier = None
    for i, (advance, kind, peer, attrs) in enumerate(calls):
        if i == cut:
            earlier = recorder.history()
        clock.now += advance
        recorder.record(kind, peer=peer, **attrs)
        expected.append(Operation(i + 1, kind, clock.now, peer, dict(attrs)))
    snapshot, reference = recorder.history(), History(expected)

    assert len(snapshot) == len(reference) == len(expected)
    assert list(snapshot) == list(reference) == expected
    assert [snapshot.operations[i] for i in range(len(expected))] == expected
    if expected:
        assert snapshot.operations[-1] == reference.operations[-1] == expected[-1]
        pivot = expected[len(expected) // 2]
        assert list(snapshot.truncate(pivot)) == list(reference.truncate(pivot))
    for kinds in (("item_stored",), ("item_removed", "route"), ("missing",)):
        assert snapshot.of_kind(*kinds) == reference.of_kind(*kinds)
        assert list(snapshot.rows(*kinds)) == [
            (op.kind, op.time, op.peer, op.attrs) for op in reference.of_kind(*kinds)
        ]
        assert recorder.count(kinds[0]) == len(reference.of_kind(kinds[0]))
    if earlier is not None:  # a snapshot does not see records made after it
        assert list(earlier) == expected[:cut]
