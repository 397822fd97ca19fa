"""Unit and property-based tests for circular range arithmetic."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datastore.ranges import (
    CircularRange,
    segments_cover_interval,
    segments_overlap,
)

KEY_SPACE = 10_000.0


# --------------------------------------------------------------------------- contains
def test_plain_range_contains_half_open():
    crange = CircularRange(10.0, 20.0)
    assert not crange.contains(10.0)
    assert crange.contains(10.5)
    assert crange.contains(20.0)
    assert not crange.contains(20.5)


def test_wrapping_range_contains():
    crange = CircularRange(9_000.0, 100.0)
    assert crange.contains(9_500.0)
    assert crange.contains(50.0)
    assert crange.contains(100.0)
    assert not crange.contains(9_000.0)
    assert not crange.contains(5_000.0)


def test_full_range_contains_everything():
    crange = CircularRange(5.0, 5.0, full=True)
    assert crange.contains(0.0)
    assert crange.contains(5.0)
    assert crange.contains(9_999.0)


def test_degenerate_range_is_empty():
    crange = CircularRange(5.0, 5.0)
    assert not crange.contains(5.0)
    assert not crange.contains(5.1)
    assert crange.intersect_interval(0.0, 10.0) == []


def test_wraps_and_span():
    assert CircularRange(9_000.0, 100.0).wraps()
    assert not CircularRange(1.0, 2.0).wraps()
    assert CircularRange(9_000.0, 100.0).span(KEY_SPACE) == pytest.approx(1_100.0)
    assert CircularRange(0.0, 0.0, full=True).span(KEY_SPACE) == KEY_SPACE


# --------------------------------------------------------------------------- intersection
def test_intersect_non_wrapping():
    crange = CircularRange(100.0, 200.0)
    assert crange.intersect_interval(150.0, 300.0) == [(150.0, 200.0)]
    assert crange.intersect_interval(0.0, 150.0) == [(100.0, 150.0)]
    assert crange.intersect_interval(300.0, 400.0) == []


def test_intersect_full_range_returns_query():
    crange = CircularRange(0.0, 0.0, full=True)
    assert crange.intersect_interval(5.0, 10.0) == [(5.0, 10.0)]


def test_intersect_wrapping_range_two_segments():
    crange = CircularRange(9_000.0, 500.0)
    segments = crange.intersect_interval(100.0, 9_500.0)
    assert sorted(segments) == [(100.0, 500.0), (9_000.0, 9_500.0)]


def test_intersect_empty_query():
    crange = CircularRange(0.0, 100.0)
    assert crange.intersect_interval(50.0, 50.0) == []


def test_intersect_rejects_wrapping_query():
    with pytest.raises(ValueError):
        CircularRange(0.0, 100.0).intersect_interval(200.0, 100.0)


# --------------------------------------------------------------------------- split / bounds
def test_split_at_divides_range():
    lower, upper = CircularRange(100.0, 200.0).split_at(150.0)
    assert lower == CircularRange(100.0, 150.0)
    assert upper == CircularRange(150.0, 200.0)


def test_split_at_rejects_boundary_keys():
    with pytest.raises(ValueError):
        CircularRange(100.0, 200.0).split_at(200.0)
    with pytest.raises(ValueError):
        CircularRange(100.0, 200.0).split_at(99.0)


def test_tuple_round_trip():
    crange = CircularRange(9_000.0, 100.0)
    assert CircularRange.from_tuple(crange.as_tuple()) == crange


# --------------------------------------------------------------------------- segment helpers
def test_segments_cover_interval_exact():
    assert segments_cover_interval([(0.0, 5.0), (5.0, 10.0)], 0.0, 10.0)


def test_segments_cover_interval_with_overlap():
    assert segments_cover_interval([(0.0, 6.0), (4.0, 10.0)], 0.0, 10.0)


def test_segments_with_gap_do_not_cover():
    assert not segments_cover_interval([(0.0, 4.0), (5.0, 10.0)], 0.0, 10.0)


def test_segments_cover_empty_interval():
    assert segments_cover_interval([], 5.0, 5.0)


def test_segments_overlap_detection():
    assert segments_overlap((0.0, 5.0), (4.0, 6.0))
    assert not segments_overlap((0.0, 5.0), (5.0, 6.0))


# --------------------------------------------------------------------------- properties
keys = st.floats(min_value=0.0, max_value=KEY_SPACE, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(low=keys, high=keys, key=keys)
def test_property_contains_matches_arc_membership(low, high, key):
    """contains() agrees with the clockwise-arc definition of (low, high]."""
    crange = CircularRange(low, high)
    if low == high:
        expected = False  # the empty arc (x, x]
    elif low < high:
        expected = low < key <= high
    else:
        expected = key > low or key <= high
    assert crange.contains(key) == expected


@settings(max_examples=200, deadline=None)
@given(low=keys, high=keys, lb=keys, ub=keys, probe=keys)
def test_property_intersection_is_conjunction(low, high, lb, ub, probe):
    """A key is in the intersection segments iff it is in both operands."""
    if lb > ub:
        lb, ub = ub, lb
    crange = CircularRange(low, high)
    segments = crange.intersect_interval(lb, ub)
    in_segments = any(lo < probe <= hi for lo, hi in segments)
    expected = crange.contains(probe) and lb < probe <= ub
    assert in_segments == expected


@settings(max_examples=200, deadline=None)
@given(
    segments=st.lists(st.tuples(keys, keys), max_size=8),
    lb=keys,
    ub=keys,
)
def test_property_coverage_implies_no_uncovered_point(segments, lb, ub):
    """If coverage is reported, probing midpoints of the interval finds a segment."""
    if lb > ub:
        lb, ub = ub, lb
    if ub - lb < 1e-6:
        return  # degenerate interval: coverage is trivially true within tolerance
    normalised = [(min(a, b), max(a, b)) for a, b in segments]
    if segments_cover_interval(normalised, lb, ub) and ub > lb:
        for fraction in (0.25, 0.5, 0.75):
            probe = lb + (ub - lb) * fraction
            if probe == lb:
                continue
            assert any(lo < probe <= hi + 1e-9 for lo, hi in normalised)


@settings(max_examples=200, deadline=None)
@given(low=keys, high=keys, key=keys)
def test_property_split_partitions_range(low, high, key):
    """Splitting a range yields two disjoint pieces whose union is the original."""
    crange = CircularRange(low, high)
    if not crange.contains(key) or key == high or low == high:
        return
    lower, upper = crange.split_at(key)
    for probe in (low, high, key, (low + high) / 2.0):
        in_original = crange.contains(probe)
        in_pieces = lower.contains(probe) or upper.contains(probe)
        assert in_original == in_pieces
        assert not (lower.contains(probe) and upper.contains(probe))
