"""Unit and property-based tests for items and the sorted item store."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datastore.items import Item, ItemStore, items_from_wire, items_to_wire
from repro.datastore.ranges import CircularRange


def test_item_wire_round_trip():
    item = Item(12.5, payload={"name": "object"})
    assert Item.from_wire(item.to_wire()) == item
    assert items_from_wire(items_to_wire([item])) == [item]


def test_add_and_len():
    store = ItemStore()
    assert store.add(Item(1.0))
    assert store.add(Item(2.0))
    assert not store.add(Item(1.0))  # duplicate key rejected
    assert len(store) == 2
    assert 1.0 in store
    assert 3.0 not in store


def test_remove_returns_item():
    store = ItemStore([Item(1.0, "a"), Item(2.0, "b")])
    removed = store.remove(1.0)
    assert removed.payload == "a"
    assert store.remove(1.0) is None
    assert store.keys() == [2.0]


def test_iteration_is_sorted():
    store = ItemStore([Item(3.0), Item(1.0), Item(2.0)])
    assert [item.skv for item in store] == [1.0, 2.0, 3.0]
    assert store.keys() == [1.0, 2.0, 3.0]


def test_items_in_interval_half_open():
    store = ItemStore([Item(float(k), payload=k) for k in range(1, 11)])
    selected = store.interval_wire(3.0, 7.0)
    assert selected == [{"skv": float(k), "payload": k} for k in (4, 5, 6, 7)]
    assert store.interval_wire(7.0, 3.0) == []


def test_items_in_wrapping_range():
    store = ItemStore([Item(float(k)) for k in (5, 50, 500, 5000, 9500)])
    crange = CircularRange(9000.0, 100.0)
    assert [item.skv for item in store.items_in_range(crange)] == [5.0, 50.0, 9500.0]


def test_items_in_full_range():
    store = ItemStore([Item(1.0), Item(2.0)])
    assert len(store.items_in_range(CircularRange(0, 0, full=True))) == 2


def test_clear():
    store = ItemStore([Item(1.0)])
    store.clear()
    assert len(store) == 0


# --------------------------------------------------------------------------- properties
key_lists = st.lists(
    st.floats(min_value=0.0, max_value=10_000.0, allow_nan=False, allow_infinity=False),
    unique=True,
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(keys=key_lists)
def test_property_keys_always_sorted(keys):
    store = ItemStore(Item(key) for key in keys)
    assert store.keys() == sorted(keys)


@settings(max_examples=150, deadline=None)
@given(keys=key_lists, lo=st.floats(0, 10_000), hi=st.floats(0, 10_000))
def test_property_interval_query_matches_filter(keys, lo, hi):
    store = ItemStore(Item(key) for key in keys)
    if lo > hi:
        lo, hi = hi, lo
    result = {entry["skv"] for entry in store.interval_wire(lo, hi)}
    assert result == {key for key in keys if lo < key <= hi}


@settings(max_examples=150, deadline=None)
@given(keys=key_lists)
def test_property_add_remove_round_trip(keys):
    store = ItemStore()
    for key in keys:
        store.add(Item(key))
    for key in keys:
        assert store.remove(key) is not None
    assert len(store) == 0


KEY_SPACE = 10_000.0
# Eighths: every clockwise distance below is exact, so the rescan's float
# subtraction and the arc queries' comparisons cannot disagree by rounding.
grid_key = st.integers(0, 79_999).map(lambda n: n / 8)


def _clockwise_distance(key, base):
    """The rescan the arc queries replaced: one full turn when ``key == base``."""
    return key - base if key > base else KEY_SPACE - base + key


@settings(max_examples=300, deadline=None)
@given(keys=st.lists(grid_key, unique=True, max_size=40), low=grid_key, high=grid_key,
       on_keys=st.booleans())
def test_property_arc_queries_match_the_clockwise_distance_rescan(keys, low, high, on_keys):
    if on_keys and keys:
        low, high = keys[0], keys[-1]  # boundaries that coincide with stored keys
    store = ItemStore(Item(key) for key in keys)
    own = _clockwise_distance(high, low)
    on_arc = [key for key in sorted(keys) if _clockwise_distance(key, low) <= own]
    off_arc = [key for key in sorted(keys) if _clockwise_distance(key, low) > own]
    clockwise = sorted(on_arc, key=lambda key: _clockwise_distance(key, low))
    assert [item.skv for item in store.arc_items(low, high)] == clockwise
    assert store.arc_keys(low, high) == clockwise
    assert [item.skv for item in store.off_arc_items(low, high)] == off_arc
    assert store.any_off_arc(low, high) == bool(off_arc)


@settings(max_examples=300, deadline=None)
@given(keys=st.lists(grid_key, unique=True, max_size=40), low=grid_key, high=grid_key,
       shape=st.sampled_from(["drawn", "on_keys", "empty", "full"]))
def test_property_range_query_matches_the_contains_filter(keys, low, high, shape):
    if shape == "on_keys" and keys:
        low, high = keys[0], keys[-1]  # boundaries that coincide with stored keys
    elif shape == "empty":
        high = low
    crange = CircularRange(low, high, full=shape == "full")
    store = ItemStore(Item(key) for key in keys)
    expected = [key for key in sorted(keys) if crange.contains(key)]
    assert [item.skv for item in store.items_in_range(crange)] == expected


def test_range_with_equal_ends_is_empty_unlike_the_arc():
    store = ItemStore(Item(key) for key in (1.0, 5.0, 9.0))
    assert store.items_in_range(CircularRange(5.0, 5.0)) == []
    assert len(store.items_in_range(CircularRange(5.0, 5.0, full=True))) == 3


def test_arc_with_equal_ends_is_the_whole_circle():
    store = ItemStore(Item(key) for key in (1.0, 5.0, 9.0))
    assert [item.skv for item in store.arc_items(5.0, 5.0)] == [9.0, 1.0, 5.0]
    assert store.off_arc_items(5.0, 5.0) == []
    assert not store.any_off_arc(5.0, 5.0)


@pytest.mark.parametrize("keys, low, high", [
    pytest.param((1.0, 5.0, 9.0), 7.0, 3.0, id="wrapping"),
    pytest.param((1.0, 5.0, 9.0), 5.0, 5.0, id="full"),
    pytest.param((1.0, 5.0, 9.0), 6.0, 8.0, id="empty"),
    pytest.param((), 6.0, 8.0, id="empty_store"),
])
def test_arc_keys_are_the_keys_of_the_arc_items(keys, low, high):
    store = ItemStore(Item(key) for key in keys)
    items = store.arc_items(low, high)
    on_arc, payloads = store.arc_columns(low, high)
    assert on_arc == store.arc_keys(low, high) == [item.skv for item in items]
    assert payloads == [item.payload for item in items]


# --------------------------------------------------------------------------- the columns against a dict of items
small_key = st.integers(0, 24).map(lambda n: n / 2)
store_steps = st.lists(
    st.one_of(
        st.tuples(st.just("add"), small_key, st.integers(0, 3)),
        st.tuples(st.just("put"), small_key, st.integers(0, 3)),
        st.tuples(st.just("remove"), small_key, st.just(0)),
        st.tuples(st.just("clear"), st.just(0.0), st.just(0)),
    ),
    max_size=60,
)


def _pairs(items):
    return [(item.skv, item.payload) for item in items]


def _assert_store_matches(store, model, version, low, high):
    """Every read of ``store`` equals the same read of the dict-of-Item ``model``."""
    ordered = sorted(model)
    expected = [(key, model[key].payload) for key in ordered]
    assert store.version == version
    assert len(store) == len(model)
    assert store.keys() == ordered
    assert _pairs(store) == expected
    assert _pairs(store.all_items()) == expected
    assert store.to_wire() == [{"skv": key, "payload": payload} for key, payload in expected]
    for key in {n / 2 for n in range(25)}:
        assert (key in store) == (key in model)
        got = store.get(key)
        assert (got is None) == (key not in model)
        if got is not None:
            assert (got.skv, got.payload) == (key, model[key].payload)
    lo, hi = min(low, high), max(low, high)
    inside = [(k, p) for k, p in expected if lo < k <= hi]
    assert store.interval_wire(lo, hi) == [{"skv": k, "payload": p} for k, p in inside]
    for crange in (CircularRange(low, high), CircularRange(low, high, full=True)):
        contained = [(k, p) for k, p in expected if crange.contains(k)]
        assert _pairs(store.items_in_range(crange)) == contained
        assert store.range_keys(crange) == [k for k, _p in contained]
    own = _clockwise_distance(high, low)
    clockwise = sorted(
        (pair for pair in expected if _clockwise_distance(pair[0], low) <= own),
        key=lambda pair: _clockwise_distance(pair[0], low),
    )
    off_arc = [pair for pair in expected if _clockwise_distance(pair[0], low) > own]
    assert _pairs(store.arc_items(low, high)) == clockwise
    assert store.arc_keys(low, high) == [k for k, _p in clockwise]
    assert store.arc_columns(low, high) == ([k for k, _p in clockwise], [p for _k, p in clockwise])
    assert _pairs(store.off_arc_items(low, high)) == off_arc
    assert store.any_off_arc(low, high) == bool(off_arc)


@settings(max_examples=300, deadline=None)
@given(steps=store_steps, low=small_key, high=small_key)
def test_property_columnar_store_matches_a_dict_of_items(steps, low, high):
    store = ItemStore()
    model = {}  # skv -> Item: the layout the columns replaced
    version = 0
    for op, key, payload in steps:
        if op in ("add", "put"):
            added = store.add(Item(key, payload)) if op == "add" else store.put(key, payload)
            assert added == (key not in model)
            if added:
                model[key] = Item(key, payload)
                version += 1
        elif op == "remove":
            removed = store.remove(key)
            held = model.pop(key, None)
            assert (removed is None) == (held is None)
            if held is not None:
                assert (removed.skv, removed.payload) == (held.skv, held.payload)
                version += 1
        else:
            store.clear()
            model.clear()
            version += 1
        _assert_store_matches(store, model, version, low, high)
