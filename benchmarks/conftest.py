"""Shared helpers for the benchmark suite.

Every benchmark reproduces one of the paper's evaluation figures (or one of the
correctness/availability ablations).  Figures are resolved *by name* through
the harness registry (``repro.harness.figures.ALL_FIGURES`` -- the same lookup
``repro-run figure_19`` uses), executed once inside ``pytest-benchmark``'s
timer, printed as the series the paper plots, and emitted as
``BENCH_<name>.json`` -- into a pytest temp directory, so a test run leaves the
checkout as it found it; pass ``--bench-json-dir .`` to rewrite the tracked
files at the repo root.  The simulated deployments are slightly smaller than
the paper's 30-peer testbed so the whole suite finishes in a few minutes; pass
``--paper-scale`` to run at the paper's size.
"""

from __future__ import annotations

import time

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--paper-scale",
        action="store_true",
        default=False,
        help="run the figure reproductions at the paper's deployment size (slower)",
    )
    parser.addoption(
        "--bench-json-dir",
        default=None,
        help="directory for BENCH_<figure>.json files (default: a pytest temp directory)",
    )


@pytest.fixture(scope="session")
def figure_scale(request):
    """Deployment sizes used by the figure benchmarks."""
    if request.config.getoption("--paper-scale"):
        return {"peers": 30, "items": 180, "queries_per_target": 5}
    return {"peers": 14, "items": 90, "queries_per_target": 3}


@pytest.fixture(scope="session")
def bench_json_dir(request, tmp_path_factory):
    return request.config.getoption("--bench-json-dir") or str(tmp_path_factory.mktemp("bench"))


def run_figure(benchmark, figure_name, bench_dir, **kwargs):
    """Run the named registry figure once under the benchmark timer."""
    from repro.harness.figures import ALL_FIGURES
    from repro.harness.runner import write_bench

    figure_function = ALL_FIGURES[figure_name]
    started = time.perf_counter()
    result = benchmark.pedantic(lambda: figure_function(**kwargs), rounds=1, iterations=1)
    wall = time.perf_counter() - started
    print()
    print(result.as_table())
    if result.notes:
        print(f"note: {result.notes}")
    write_bench(
        figure_name,
        {
            "summary": {"wall_clock_s": round(wall, 3), "parameters": _plain(kwargs)},
            "results": [result.as_dict()],
        },
        out_dir=bench_dir,
    )
    return result


def _plain(kwargs):
    return {key: list(value) if isinstance(value, tuple) else value for key, value in kwargs.items()}
