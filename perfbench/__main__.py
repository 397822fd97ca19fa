"""Command line of the benchmark.

``python -m perfbench --seed 0 --out results.json``
    Run the four workloads one after another, each in its own fresh child
    process, print every metric by name with its unit and write the results.
    ``--workload NAME`` runs one; ``--trace`` adds the traced run; ``--seed``
    takes a comma-separated list to make a set of runs; ``--quick`` is the
    seconds-scale sizing the smoke test uses.

``python -m perfbench --workload NAME --seed N --seconds S --trace 0|1``
    The pipeline's form.  The last line of standard output is one JSON object
    ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
    with ``--trace 0``, the per-layer metrics with ``--trace 1``.

``python -m perfbench compare A.json B.json``
    Compare two result files metric by metric against the declared bounds.

``python -m perfbench --update``
    Regenerate ``BENCHMARK.json`` from the catalogue (the only way the
    benchmark ever writes that file).

The benchmark measures the ``src/`` tree beside it: that directory is put at
the head of ``sys.path``, so an installed copy of ``repro`` is never measured
by accident.  It writes only to ``--out`` and ``--out-dir`` (default
``.perfbench_out`` beside ``src/``, which ``.gitignore`` names).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Iterable, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if SRC.is_dir() and str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from perfbench.catalogue import (  # noqa: E402 - after the path set-up above
    END_TO_END,
    METRICS,
    PER_LAYER,
    RUN_SECONDS,
    WORKLOADS,
    Metric,
    benchmark_json,
)
from perfbench.env import environment  # noqa: E402

# A pipeline run must end within 180 s whatever happens; its children share this budget.
_BUDGET_S = 170.0
_CHILD_TIMEOUT_S = 900.0  # any other run: per child


# --------------------------------------------------------------------------- child side
def _child_main(argv: List[str]) -> int:
    from perfbench.hostclock import HostClock

    parser = argparse.ArgumentParser(prog="perfbench child")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)
    with HostClock() as clock:
        with clock.measure() as importing:  # importing repro is part of every set-up
            from perfbench.runner import run_once
        result = run_once(args.workload, args.seed, args.seconds, args.quick, args.traced,
                          args.out_dir, clock, importing.s)
    print(json.dumps(result))
    return 0


# --------------------------------------------------------------------------- parent side
def run_child(workload: str, seed: int, seconds: float, quick: bool, traced: bool,
              out_dir: Path, timeout: float) -> dict:
    """One workload run in a fresh process; raises if the child fails or overruns."""
    command = [sys.executable, "-m", "perfbench", "child", "--workload", workload,
               "--seed", str(seed), "--seconds", repr(seconds), "--out-dir", str(out_dir)]
    command += ["--quick"] * quick + ["--traced"] * traced
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=timeout, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def with_trace(untraced: dict, traced: dict) -> dict:
    """The untraced result plus the traced run's self-times, overhead and equality check."""
    result = dict(untraced)
    metrics = dict(untraced["metrics"])
    problems = list(untraced["problems"]) + list(traced["problems"])
    for metric in METRICS:
        if metric.traced:
            metrics[metric.name] = traced["metrics"][metric.name]
        elif metric.clock == "sim" and traced["metrics"][metric.name] != metrics[metric.name]:
            problems.append(f"tracing moved {metric.name}: {metrics[metric.name]!r} -> "
                            f"{traced['metrics'][metric.name]!r}")
    for field in ("ops_attempted", "ops_failed", "ops_by_kind", "rpc_per_method"):
        if traced[field] != untraced[field]:
            problems.append(f"tracing moved {field}")
    # The run's first window, the one profiled, in raw seconds on both sides: the
    # interpreter runs every instruction slower while a profiler is set, the host
    # clock's loop included, so the traced run's corrected seconds are deflated.
    metrics["harness.trace_overhead"] = traced["window_raw_s"][0] / untraced["window_raw_s"][0]
    result.update(metrics=metrics, problems=problems, traced=True)
    return result


def _format(value: Optional[float]) -> str:
    if value is None:
        return "null"
    if isinstance(value, int) or float(value).is_integer() and abs(value) >= 1000:
        return f"{int(value):d}"
    return f"{value:.4f}"


def print_result(result: dict, metrics: Iterable[Metric]) -> None:
    """Every metric by name, with its unit and clock."""
    workload = result["workload"]
    print(f"# {workload} seed={result['seed']} engine={result['engine']} "
          f"sizing={json.dumps(result['sizing'])}")
    for metric in metrics:
        value = result["metrics"][metric.name]
        print(f"{workload:<16} {metric.name:<30} {_format(value):>14} {metric.unit:<6} {metric.clock}")
    by_kind = ", ".join(f"{kind} {c['failed']}/{c['attempted']}"
                        for kind, c in result["ops_by_kind"].items())
    print(f"{workload:<16} {'ops_failed/ops_attempted':<30} "
          f"{result['ops_failed']:>6d}/{result['ops_attempted']:<7d} ({by_kind})")
    for problem in result["problems"]:
        print(f"{workload:<16} PROBLEM: {problem}")


def contract_line(result: dict, trace: bool) -> str:
    """The pipeline's result object for one workload run."""
    metrics = {}
    for metric in (PER_LAYER if trace else END_TO_END):
        value = result["metrics"][metric.name]
        # The pipeline's line admits no null: a per-layer metric a workload does
        # not define reads 0 there (the --out file keeps the null).
        metrics[metric.name] = {"value": 0 if value is None else value, "unit": metric.unit}
    return json.dumps({
        "correct": not result["problems"],
        "attempted": result["ops_attempted"],
        "failed": result["ops_failed"],
        "metrics": metrics,
    })


def _run_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS), help="run one workload (default: all)")
    parser.add_argument("--seed", default="0", help="seed, or a comma-separated list of seeds")
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                        help="seconds of work the timed window is sized for")
    parser.add_argument("--trace", nargs="?", const=1, default=0, type=int, choices=(0, 1),
                        help="also make the traced run")
    parser.add_argument("--quick", action="store_true", help="smoke-test sizing")
    parser.add_argument("--out", type=Path, help="write the results here as JSON")
    parser.add_argument("--out-dir", type=Path, default=ROOT / ".perfbench_out",
                        help="directory for trace_<workload>.json")
    parser.add_argument("--update", action="store_true", help="rewrite BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    if args.update:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
        return 0
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no src/repro beside {Path(__file__).parent}; nothing to measure",
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    seeds = [int(seed) for seed in args.seed.split(",")]
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    pipeline = bool(args.workload) and len(seeds) == 1

    def timeout() -> float:
        # The pipeline's invocation shares one budget between its children.
        return _BUDGET_S - (time.perf_counter() - started) if pipeline else _CHILD_TIMEOUT_S

    runs = []
    for seed in seeds:
        for workload in workloads:
            result = run_child(workload, seed, args.seconds, args.quick, False, args.out_dir, timeout())
            if args.trace:
                traced = run_child(workload, seed, args.seconds, args.quick, True, args.out_dir, timeout())
                result = with_trace(result, traced)
            print_result(result, METRICS if args.trace or not pipeline else END_TO_END)
            runs.append(result)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        body = {"environment": environment(), "run_seconds": args.seconds, "quick": args.quick,
                "total_s": time.perf_counter() - started, "runs": runs}
        args.out.write_text(json.dumps(body, indent=1) + "\n")
    if pipeline:
        print(contract_line(runs[0], bool(args.trace)))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["child"]:
        return _child_main(argv[1:])
    if argv[:1] == ["compare"]:
        from perfbench.compare import main as compare_main

        return compare_main(argv[1:])
    try:
        return _run_main(argv)
    except subprocess.TimeoutExpired as error:
        print(f"perfbench: a workload run overran its time budget: {error}", file=sys.stderr)
    except subprocess.CalledProcessError as error:
        print(f"perfbench: a workload run failed: {error}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
