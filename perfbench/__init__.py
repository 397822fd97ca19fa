"""perfbench: the repository's one benchmark.

Four workloads (``engine_rpc``, ``churn_1000``, ``serve_zipf_1000``,
``mixed_300``), named end-to-end and per-layer metrics, failure accounting by
the paper's own definitions, and a traced run.  ``README.md`` in this
directory is the catalogue; ``python -m perfbench --help`` is the entry point.

The package drives ``repro`` only through public names (no underscore-prefixed
import; ``test_perfbench_smoke.py`` enforces that), so the benchmark keeps
working across refactors that hold the public surface listed in the README.
"""
