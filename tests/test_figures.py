"""The paper's evaluation figures and ablations, each run as ``repro-run <name> --seeds 0``.

Every test runs one ``ALL_FIGURES`` entry through :func:`run_named`, checks
its rows against the committed ``BENCH_<name>.json`` at the repository root
(a frozen baseline: ``tests/data/refreeze.py`` rewrites it and prints which
rows moved), then checks the comparison the paper draws.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.harness.runner import run_named
from tests.data.refreeze import figure_rows

ROOT = Path(__file__).resolve().parents[1]


def run_figure(name: str, out_dir: Path) -> list:
    """The rows ``repro-run <name> --seeds 0`` writes, checked against the committed file."""
    payload = run_named(name, seeds=[0], processes=1, out_dir=str(out_dir))
    rows = payload["results"][0]["rows"]
    committed = json.loads((ROOT / f"BENCH_{name}.json").read_text())["results"][0]["rows"]
    assert figure_rows(rows) == figure_rows(committed), (
        f"BENCH_{name}.json rows moved; re-freeze with tests/data/refreeze.py"
    )
    return rows


def test_figure_19_insertsucc_vs_successor_list_length(tmp_path):
    # Paper: naive insertSucc is flat (~0.06 s); PEPPER sits above it
    # (~0.2-0.25 s) and grows slowly with the successor-list length.
    rows = run_figure("figure_19", tmp_path)
    naive = {row[0]: row[1] for row in rows}
    pepper = {row[0]: row[2] for row in rows}
    # PEPPER is always at least as expensive as the naive insert.
    assert all(pepper[length] >= naive[length] for length in naive)
    # ... and the cost grows with the successor-list length.
    assert pepper[8] > pepper[2]
    # ... while the naive baseline stays essentially flat.
    assert naive[8] <= naive[2] * 3


def test_figure_20_insertsucc_vs_stabilization_period(tmp_path):
    # Paper: naive insertSucc does not depend on the stabilization period;
    # PEPPER grows only mildly with it thanks to the proactive nudges.
    rows = run_figure("figure_20", tmp_path)
    naive = {row[0]: row[1] for row in rows}
    pepper = {row[0]: row[2] for row in rows}
    assert all(pepper[period] >= naive[period] for period in naive)
    # Thanks to proactive nudging, quadrupling the stabilization period must
    # not blow the PEPPER insertSucc up proportionally (stays within ~4x of the
    # fastest setting rather than growing by the period ratio).
    assert pepper[8.0] <= max(pepper[2.0] * 4, pepper[2.0] + 1.0)


def test_figure_21_scanrange_vs_naive_scan(tmp_path):
    # Paper: scanRange adds essentially no overhead over the application-level
    # scan, and the elapsed time grows only slightly with the hop count.
    rows = run_figure("figure_21", tmp_path)
    assert rows, "the figure should produce at least one hop bucket"
    for hops, scan_time, naive_time in rows:
        # "practically no overhead to using scanRange" -- allow generous slack
        # for the per-bucket averaging noise of a single run.
        assert scan_time <= naive_time * 3 + 0.02, (hops, scan_time, naive_time)
    # Longer scans should not be cheaper than the shortest ones.
    first_hops, first_scan, _ = rows[0]
    last_hops, last_scan, _ = rows[-1]
    if last_hops > first_hops:
        assert last_scan >= first_scan * 0.5


def test_figure_22_leave_and_merge_overhead(tmp_path):
    # Paper (log scale): the leave and the merge cost on the order of 100 ms
    # and vary little with the list length; the naive leave costs ~1 ms.
    rows = run_figure("figure_22", tmp_path)
    for length, merge_time, safe_leave, naive_leave in rows:
        # The availability-preserving protocols are orders of magnitude more
        # expensive than the naive leave, which is (near) instantaneous.
        assert naive_leave < 0.01, (length, naive_leave)
        assert safe_leave > naive_leave, (length, safe_leave, naive_leave)
        assert merge_time >= safe_leave, (length, merge_time, safe_leave)


def test_figure_23_insertsucc_under_failures(tmp_path):
    # Paper: PEPPER insertSucc degrades gracefully with the failure rate, from
    # ~0.2 s with no failures to ~1.2 s at rate 10 per 100 s.
    rows = run_figure("figure_23", tmp_path)
    series = {row[0]: row[1] for row in rows}
    samples = {row[0]: row[2] for row in rows}
    assert all(count > 0 for count in samples.values()), "every rate needs insertSucc samples"
    # Failures must not make insertSucc meaningfully *faster* (within noise --
    # only a handful of inserts land inside each failure window)...
    assert series[12.0] >= series[0.0] * 0.5
    # ...and never catastrophically slower (the paper's worst case stays ~6x
    # the fail-free cost; allow an order of magnitude plus a constant here).
    assert series[12.0] <= series[0.0] * 50 + 5.0


def test_ablation_query_correctness_under_churn(tmp_path):
    # Section 4.2: the naive scan can miss live items while splits, merges and
    # ring reorganisation overlap a query; scanRange provably cannot.
    rows = {row[0]: row for row in run_figure("ablation_query_correctness", tmp_path)}
    scan_strategy = rows["scan"]
    assert scan_strategy[1] > 0, "the scanRange run must actually execute queries"
    # Theorem 3: scanRange never returns an incorrect result.
    assert scan_strategy[2] == 0
    # The naive strategy executed the same number of queries (violations are
    # workload dependent and may legitimately be zero in a lucky run).
    assert rows["naive"][1] > 0


def test_ablation_item_availability_after_merges(tmp_path):
    # Section 5 (the Figure 17 argument): with the naive leave and no extra-hop
    # replication a merge followed by one failure can lose items; with the
    # paper's protocols nothing is lost.
    rows = {row[0]: row for row in run_figure("ablation_availability", tmp_path)}
    assert rows["pepper"][1] >= 1, "the workload must force at least one merge"
    # The paper's protocols never lose an item.
    assert rows["pepper"][2] == 0
    # The naive baseline merged as well; whether it lost items is scenario
    # dependent, but it must never do *better* than the paper's protocols.
    assert rows["naive"][2] >= rows["pepper"][2]
