"""Unit and property-based tests for histories of operations."""

from hypothesis import given, settings, strategies as st

from repro.core.histories import History, HistoryRecorder, Operation
from repro.sim.engine import Simulator


def test_recorder_assigns_monotonic_ids_and_times():
    sim = Simulator()
    recorder = HistoryRecorder(sim)
    first = recorder.record("a", peer="p1")
    sim.schedule(1.0, lambda _: None)
    sim.run()
    second = recorder.record("b", peer="p2", extra=1)
    assert first.op_id < second.op_id
    assert first.time <= second.time
    assert second.get("extra") == 1
    assert recorder.count("a") == 1


def test_recorder_can_be_disabled():
    recorder = HistoryRecorder()
    recorder.enabled = False
    assert recorder.record("a") is None
    assert len(recorder.history()) == 0


def test_recorder_clear():
    recorder = HistoryRecorder()
    recorder.record("a")
    recorder.clear()
    assert len(recorder.history()) == 0


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
    assert history.last_of_kind("x").op_id == 3
    assert history.last_of_kind("missing") is None


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


def test_between_window():
    ops = [Operation(i, "op", float(i), None) for i in range(10)]
    history = History(ops)
    window = history.between(2.0, 5.0)
    assert [op.op_id for op in window] == [2, 3, 4, 5]


def test_filter_predicate():
    ops = [Operation(i, "op", float(i), "p" if i % 2 else "q") for i in range(6)]
    history = History(ops)
    only_p = history.filter(lambda op: op.peer == "p")
    assert all(op.peer == "p" for op in only_p)
    assert len(only_p) == 3


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
