"""``repro-run``: execute registry scenarios, suites and figures.

Examples::

    repro-run --list                 # everything runnable, with descriptions
    repro-run smoke                  # one scenario cell, writes BENCH_smoke.json
    repro-run scale_sweep            # 100..1000-peer suite -> BENCH_scale.json
    repro-run figure_19              # a paper-figure reproduction
    repro-run churn_heavy --seeds 0,1,2 --processes 3
    repro-run scale_sweep --seeds 0..4   # 5 seeds/cell; BENCH carries mean/p95
    repro-run scale_100_wan          # the scale cell under 4-site LAN/WAN latency
    repro-run localhost_20           # same protocols over real asyncio UDP sockets
    repro-run localhost_20 --transport sim   # transport override on any cell

Where a cell's time goes, layer by layer, is ``python -m perfbench --trace``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional


def _parse_seeds(tokens: List[str]) -> List[int]:
    """Seed lists in any of the accepted spellings: '0 1 2', '0,1,2', '0..4'."""
    seeds: List[int] = []
    for token in tokens:
        for part in token.split(","):
            part = part.strip()
            if part == "":
                continue
            try:
                if ".." in part:
                    low, _, high = part.partition("..")
                    first, last = int(low), int(high)
                    if last < first:
                        raise ValueError
                    seeds.extend(range(first, last + 1))
                else:
                    seeds.append(int(part))
            except ValueError:
                raise SystemExit(
                    f"invalid --seeds value {part!r}; expected e.g. '0', '0,1,2' or '0..4'"
                )
    if not seeds:
        raise SystemExit("--seeds selected no seeds")
    return seeds


def _print_listing() -> None:
    from repro.harness.figures import ALL_FIGURES
    from repro.harness.scenarios import (
        get_scenario,
        get_suite,
        scenario_names,
        suite_names,
    )

    print("suites:")
    for name in suite_names():
        suite = get_suite(name)
        print(f"  {name:24s} {suite.description} [{', '.join(suite.scenarios)}]")
    print("scenarios:")
    print(f"  {'name':24s} {'peers':>5s}  {'transport':9s} description")
    for name in scenario_names():
        spec = get_scenario(name)
        transport = spec.config.get("transport", "sim")
        print(f"  {name:24s} {spec.peers:5d}  {transport:9s} {spec.description}")
    print("figures:")
    for name in sorted(ALL_FIGURES):
        print(f"  {name:24s} {ALL_FIGURES[name].__doc__.strip().splitlines()[0]}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-run",
        description="run a registered scenario / suite / figure and emit BENCH_<name>.json",
    )
    parser.add_argument("scenario", nargs="?", help="name from the registry (see --list)")
    parser.add_argument("--list", action="store_true", help="list runnable names and exit")
    parser.add_argument(
        "--seeds",
        nargs="+",
        default=["0"],
        help="seeds as a list, comma list or range: '0 1 2', '0,1,2', '0..4' (default: 0)",
    )
    parser.add_argument(
        "--processes",
        type=int,
        default=None,
        help="worker processes for multi-cell runs (default: min(cells, cores))",
    )
    parser.add_argument("--out-dir", default=".", help="directory for BENCH_<name>.json")
    parser.add_argument("--no-json", action="store_true", help="print only, write nothing")
    parser.add_argument(
        "--transport",
        choices=("sim", "asyncio"),
        default=None,
        help="override the transport of every cell: 'sim' (discrete-event) or "
        "'asyncio' (real UDP sockets on localhost, wall-clock time)",
    )
    args = parser.parse_args(argv)

    if args.list or args.scenario is None:
        _print_listing()
        return 0

    out_dir = None if args.no_json else args.out_dir
    from repro.harness.runner import known_names, run_named

    if args.scenario not in known_names():
        print(f"unknown scenario {args.scenario!r}; try: repro-run --list", file=sys.stderr)
        return 2
    try:
        payload = run_named(
            args.scenario,
            seeds=_parse_seeds(args.seeds),
            processes=args.processes,
            out_dir=out_dir,
            transport=args.transport,
        )
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    print(json.dumps(payload["summary"], indent=2))
    for cell in payload["results"]:
        if "scenario" in cell:
            print(
                f"{cell['scenario']}[seed={cell['seed']}]: "
                f"wall={cell['wall_clock_s']:.2f}s sim={cell['sim_time_s']:.0f}s "
                f"events={cell['events_processed']} "
                f"({cell['events_per_wall_s']:.0f}/s) ring={cell['ring_members']} "
                f"items={cell['items_stored']}/{cell['items_requested']} "
                f"reachable={cell.get('items_reachable', '?')}"
            )
            latency = cell.get("query_latency") or {}
            if latency:
                serve = (
                    f" serve={cell['serve_correct']}/{cell['serve_queries']} correct "
                    f"load_var={cell['serve_load_variance']:.2f}"
                    if cell.get("serve_queries")
                    else ""
                )
                print(
                    f"  queries: n={latency['count']:.0f} "
                    f"p50={latency['p50'] * 1000:.1f}ms p99={latency['p99'] * 1000:.1f}ms "
                    f"mean={latency['mean'] * 1000:.1f}ms{serve}"
                )
            for phase in cell.get("phases", ()):
                timed_out = " START-TIMEOUT" if phase["start_timed_out"] else ""
                print(
                    f"  {phase['phase']}: {phase['start_condition']} "
                    f"wait={phase['wait_s']:.1f}s sim={phase['sim_seconds']:.1f}s "
                    f"ring={phase['ring_members_start']}->{phase['ring_members']} "
                    f"rpcs={phase['rpc_calls']}{timed_out}"
                )
        elif "figure" in cell:
            from repro.harness.reporting import format_table

            print(f"{cell['figure']}: {cell['description']} [seed={cell.get('seed', '?')}]")
            print(format_table(cell["headers"], cell["rows"]))
    aggregates = payload.get("aggregates", {})
    if "rows" in aggregates:
        # A multi-seed figure run: print the seed-averaged rows.
        from repro.harness.reporting import format_table

        print(f"mean over seeds {payload['seeds']}:")
        print(format_table(aggregates["headers"], aggregates["rows"]))
    else:
        for scenario, stats in aggregates.items():
            wall = stats["wall_clock_s"]
            latency = ""
            if "query_latency" in stats:
                block = stats["query_latency"]
                latency = (
                    f" q_p50={block['p50']['mean'] * 1000:.1f}ms"
                    f" q_p99={block['p99']['mean'] * 1000:.1f}ms"
                )
            if "serve_load_variance" in stats:
                latency += f" load_var={stats['serve_load_variance']['mean']:.2f}"
            print(
                f"{scenario} x{len(stats['seeds'])} seeds: "
                f"wall mean={wall['mean']:.2f}s p95={wall['p95']:.2f}s "
                f"rpcs mean={stats['rpc_calls']['mean']:.0f}{latency}"
            )
    return 0


if __name__ == "__main__":  # pragma: no cover - module execution convenience
    raise SystemExit(main())
