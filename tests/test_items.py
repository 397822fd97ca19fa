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
    store = ItemStore([Item(float(k)) for k in range(1, 11)])
    selected = store.items_in_interval(3.0, 7.0)
    assert [item.skv for item in selected] == [4.0, 5.0, 6.0, 7.0]
    assert store.items_in_interval(7.0, 3.0) == []


def test_items_in_wrapping_range():
    store = ItemStore([Item(float(k)) for k in (5, 50, 500, 5000, 9500)])
    crange = CircularRange(9000.0, 100.0)
    assert [item.skv for item in store.items_in_range(crange)] == [5.0, 50.0, 9500.0]


def test_items_in_full_range():
    store = ItemStore([Item(1.0), Item(2.0)])
    assert len(store.items_in_range(CircularRange(0, 0, full=True))) == 2


def test_split_lower_half():
    store = ItemStore([Item(float(k)) for k in range(1, 8)])
    split_key, lower = store.split_lower_half()
    assert split_key == 4.0
    assert [item.skv for item in lower] == [1.0, 2.0, 3.0, 4.0]


def test_split_lower_half_requires_two_items():
    with pytest.raises(ValueError):
        ItemStore([Item(1.0)]).split_lower_half()


def test_take_lowest_removes_items():
    store = ItemStore([Item(float(k)) for k in range(1, 6)])
    taken = store.take_lowest(2)
    assert [item.skv for item in taken] == [1.0, 2.0]
    assert store.keys() == [3.0, 4.0, 5.0]


def test_remove_interval():
    store = ItemStore([Item(float(k)) for k in range(1, 8)])
    removed = store.remove_interval(2.0, 5.0)
    assert [item.skv for item in removed] == [3.0, 4.0, 5.0]
    assert store.keys() == [1.0, 2.0, 6.0, 7.0]


def test_remove_outside_range():
    store = ItemStore([Item(float(k)) for k in range(1, 8)])
    removed = store.remove_outside_range(CircularRange(2.0, 5.0))
    assert sorted(item.skv for item in removed) == [1.0, 2.0, 6.0, 7.0]
    assert store.keys() == [3.0, 4.0, 5.0]


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
    result = {item.skv for item in store.items_in_interval(lo, hi)}
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


@settings(max_examples=100, deadline=None)
@given(keys=key_lists)
def test_property_split_preserves_items(keys):
    if len(keys) < 2:
        return
    store = ItemStore(Item(key) for key in keys)
    split_key, lower = store.split_lower_half()
    lower_keys = {item.skv for item in lower}
    assert lower_keys == {key for key in keys if key <= split_key}
    assert split_key in lower_keys


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
    on_arc = store.arc_keys(low, high)
    assert on_arc == [item.skv for item in items]
    assert store.items_at(on_arc) == items
