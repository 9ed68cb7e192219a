"""Tracked microbenchmarks for the functional simulation hot paths.

The suite times the layers the hot-path optimisation work targets — the
SECDED codec (scalar and vectorized batch), the functional backing
store, the event-engine dispatch loop, the synthetic trace generator,
one end-to-end ``rwow-rde`` run, and the time-series sampler's
overhead on that run — and emits a seed- and git-stamped
``BENCH_perf.json`` (including the regression sentinel's pinned
``metrics_fingerprint`` section) so revisions stay comparable.

Entry points: the ``repro perf`` CLI command and the thin wrappers in
``benchmarks/perf/``.  See docs/PERFORMANCE.md for the workflow.
"""

from repro.perf.microbench import BenchReport, time_call
from repro.perf.suites import (
    PR6_BASELINE,
    PRE_PR_BASELINE,
    SCHEMA_VERSION,
    TIMESERIES_OVERHEAD_CEILING,
    bench_batch_codec,
    bench_codec,
    bench_end_to_end,
    bench_engine_dispatch,
    bench_storage,
    bench_timeseries,
    bench_trace_gen,
    check_payload,
    format_payload,
    run_suite,
)

__all__ = [
    "BenchReport",
    "PR6_BASELINE",
    "PRE_PR_BASELINE",
    "SCHEMA_VERSION",
    "TIMESERIES_OVERHEAD_CEILING",
    "bench_batch_codec",
    "bench_codec",
    "bench_end_to_end",
    "bench_engine_dispatch",
    "bench_storage",
    "bench_timeseries",
    "bench_trace_gen",
    "check_payload",
    "format_payload",
    "run_suite",
    "time_call",
]
