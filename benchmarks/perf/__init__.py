"""Same-process perf gates that whole-run benchmarking does not cover.

``bench_codec_gate`` holds the SECDED codec's fast paths to floors over
their in-process references; ``bench_timeseries_gate`` holds the
time-series sampler's overhead under a ceiling.  Both are plain pytest
tests at full budgets (``python -m pytest benchmarks/perf -q``).  Host
cost of whole simulations, split by layer, is measured by
``perfbench/run.py`` (see docs/PERFORMANCE.md).
"""
