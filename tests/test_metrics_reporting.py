"""Tests for the metrics collector and text reporting."""

import pytest

from repro.harness.metrics import Metrics, nearest_rank
from repro.harness.reporting import format_table


def test_record_and_basic_stats():
    metrics = Metrics()
    for value in (1.0, 2.0, 3.0, 4.0):
        metrics.record("latency", value)
    assert metrics.count("latency") == 4
    assert metrics.mean("latency") == pytest.approx(2.5)
    assert metrics.values("latency") == [1.0, 2.0, 3.0, 4.0]


def test_empty_series_returns_none():
    metrics = Metrics()
    assert metrics.mean("missing") is None
    assert metrics.summary("missing") is None
    assert metrics.count("missing") == 0


def test_summary_statistics():
    metrics = Metrics()
    for value in range(1, 101):
        metrics.record("x", float(value))
    summary = metrics.summary("x")
    assert summary.count == 100
    assert summary.minimum == 1.0
    assert summary.maximum == 100.0
    assert summary.mean == pytest.approx(50.5)
    assert 45.0 <= summary.p50 <= 56.0
    assert 90.0 <= summary.p95 <= 100.0
    assert set(summary.as_dict()) == {"count", "mean", "min", "max", "p50", "p95"}


def test_summary_p50_is_the_nearest_rank_median():
    # One percentile convention: an even-sized series takes the lower middle.
    metrics = Metrics()
    for value in (2.0, 1.0):
        metrics.record("x", value)
    assert metrics.summary("x").p50 == nearest_rank([1.0, 2.0], 0.5) == 1.0


def test_percentile_bounds():
    # nearest_rank is the one percentile: metric summaries and BENCH aggregates.
    ordered = sorted((5.0, 1.0, 3.0))
    assert nearest_rank(ordered, 0.0) == 1.0
    assert nearest_rank(ordered, 1.0) == 5.0


def test_histogram_buckets_and_labels():
    metrics = Metrics()
    for value in (0.0005, 0.001, 0.002, 0.05, 0.5):
        metrics.record("latency", value)
    histogram = metrics.histogram("latency", (0.001, 0.01, 0.1))
    assert list(histogram) == ["<=0.001", "<=0.01", "<=0.1", ">0.1"]
    # Edges are inclusive: 0.001 lands in the first bucket.
    assert histogram == {"<=0.001": 2, "<=0.01": 1, "<=0.1": 1, ">0.1": 1}


def test_histogram_empty_series_is_empty_dict():
    assert Metrics().histogram("missing", (1.0, 2.0)) == {}


def test_format_table_alignment_and_floats():
    table = format_table(["name", "value"], [["insertSucc", 0.12345], ["leave", 1234.5]])
    lines = table.splitlines()
    assert len(lines) == 4
    assert "insertSucc" in lines[2]
    assert "0.1234" in table or "0.1235" in table
    assert "1.23e+03" in table or "1230" in table


def test_format_table_handles_empty_rows():
    table = format_table(["a", "b"], [])
    assert "a" in table and "b" in table
