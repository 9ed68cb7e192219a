"""Determinism and schema tests for the perf microbenchmark suite.

The contract: everything except the measured timing values is a pure
function of ``(seed, smoke)``.  Two same-seed invocations must agree on
the JSON schema, the benchmark names and configs, and the metric *keys*
— only the timing values may differ between runs.
"""

import json

import pytest

from repro import cli
from repro.ecc import batch
from repro.perf import (
    PR6_BASELINE,
    PRE_PR_BASELINE,
    SCHEMA_VERSION,
    check_payload,
    run_suite,
)
from repro.perf.microbench import paired_ratio

#: Top-level keys of the BENCH_perf.json payload, in any order.
TOP_LEVEL_KEYS = {
    "schema", "suite", "seed", "smoke", "code_version",
    "baseline", "baseline_pr6", "benchmarks", "speedups",
    "metrics_fingerprint",
}

BENCHMARK_NAMES = [
    "codec", "batch_codec", "storage", "engine",
    "trace_gen", "end_to_end", "timeseries",
]


def _run_cli_json(capsys, seed: int) -> dict:
    rc = cli.main(["perf", "--json", "--smoke", "--seed", str(seed)])
    assert rc == 0
    return json.loads(capsys.readouterr().out)


def _shape(payload: dict) -> dict:
    """Everything that must be identical across same-seed runs."""
    return {
        "schema": payload["schema"],
        "suite": payload["suite"],
        "seed": payload["seed"],
        "smoke": payload["smoke"],
        "baseline": payload["baseline"],
        "benchmarks": [
            {
                "name": bench["name"],
                "config": bench["config"],
                "metric_keys": sorted(bench["metrics"]),
            }
            for bench in payload["benchmarks"]
        ],
        "speedup_keys": sorted(payload["speedups"]),
        # The fingerprint carries no timings — it must be value-identical
        # across same-seed runs, not just shape-identical.
        "metrics_fingerprint": payload["metrics_fingerprint"],
    }


def test_perf_cli_json_is_deterministic_modulo_timings(capsys):
    first = _run_cli_json(capsys, seed=3)
    second = _run_cli_json(capsys, seed=3)
    assert _shape(first) == _shape(second)


def test_perf_payload_schema(capsys):
    payload = _run_cli_json(capsys, seed=3)
    assert set(payload) == TOP_LEVEL_KEYS
    assert payload["schema"] == SCHEMA_VERSION
    assert payload["suite"] == "perf"
    assert payload["seed"] == 3
    assert payload["smoke"] is True
    assert isinstance(payload["code_version"], str) and payload["code_version"]
    assert payload["baseline"] == PRE_PR_BASELINE
    assert payload["baseline_pr6"] == PR6_BASELINE
    assert [b["name"] for b in payload["benchmarks"]] == BENCHMARK_NAMES
    by_name = {b["name"]: b for b in payload["benchmarks"]}
    for bench in payload["benchmarks"]:
        assert set(bench) == {"name", "config", "metrics"}
        assert bench["config"], bench["name"]
        for metric, value in bench["metrics"].items():
            assert isinstance(value, (int, float)), (bench["name"], metric)
    end_to_end = by_name["end_to_end"]["config"]
    assert end_to_end["system"] == "rwow-rde"
    assert end_to_end["workload"] == "canneal"
    assert end_to_end["seed"] == 3
    # The batch report declares which path it measured; on numpy builds
    # it must carry the gated vectorization ratios.
    batch_codec = by_name["batch_codec"]
    assert batch_codec["config"]["numpy"] is batch.HAS_NUMPY
    if batch.HAS_NUMPY:
        assert batch_codec["metrics"]["encode_vs_scalar"] > 0
        assert "batch_codec.encode_vs_scalar" in payload["speedups"]
    else:
        assert "encode_vs_scalar" not in batch_codec["metrics"]
        assert "batch_codec.encode_vs_scalar" not in payload["speedups"]
    # Smoke budgets never mix with the full-budget pre-PR/PR6 ratios.
    assert all("vs_pre_pr" not in key for key in payload["speedups"])
    assert all("vs_pr6" not in key for key in payload["speedups"])
    # Smoke suites pin only the smoke-budget legs (the full ones need
    # full-budget runs); the reference configs match the suite seed.
    fingerprint = payload["metrics_fingerprint"]
    assert set(fingerprint) == {"smoke", "frontend_smoke"}
    assert fingerprint["smoke"]["config"]["seed"] == 3
    assert fingerprint["smoke"]["config"]["front_end"] == "none"
    assert fingerprint["smoke"]["metrics"]["engine.sim_ticks"] > 0
    frontend_leg = fingerprint["frontend_smoke"]
    assert frontend_leg["config"]["front_end"] == "dram"
    assert frontend_leg["config"]["seed"] == 3
    assert frontend_leg["metrics"]["frontend.reads"] > 0
    assert frontend_leg["metrics"]["frontend.fills"] > 0


def test_run_suite_passes_its_own_regression_gate():
    payload = run_suite(seed=3, smoke=True)
    assert check_payload(payload) == []


def test_check_payload_flags_gross_regressions():
    bad = {
        "speedups": {
            "codec.encode_vs_reference": 0.5,
            "codec.decode_vs_reference": 9.0,
        },
        "benchmarks": [
            {"name": "codec", "metrics": {"encode_us": 0.0}},
        ],
    }
    failures = check_payload(bad)
    assert any("codec.encode_vs_reference" in f for f in failures)
    assert any("non-positive" in f for f in failures)


def test_check_payload_reports_missing_metrics():
    failures = check_payload({"speedups": {}, "benchmarks": []})
    assert len(failures) == 2
    assert all("missing" in f for f in failures)


def test_check_payload_gates_batch_codec_on_numpy_builds():
    base = {
        "speedups": {
            "codec.encode_vs_reference": 2.0,
            "codec.decode_vs_reference": 5.0,
        },
    }
    slow = dict(base, benchmarks=[{
        "name": "batch_codec",
        "config": {"numpy": True},
        "metrics": {"encode_vs_scalar": 1.5, "decode_vs_scalar": 30.0},
    }])
    failures = check_payload(slow)
    assert any("5x vectorization floor" in f for f in failures)
    missing = dict(base, benchmarks=[{
        "name": "batch_codec",
        "config": {"numpy": True},
        "metrics": {"scalar_encode_us": 1.0},
    }])
    failures = check_payload(missing)
    assert any("missing metric" in f for f in failures)
    # Scalar-only builds carry no ratios and are never gated.
    scalar = dict(base, benchmarks=[{
        "name": "batch_codec",
        "config": {"numpy": False},
        "metrics": {"scalar_encode_us": 1.0, "scalar_decode_us": 3.0},
    }])
    assert check_payload(scalar) == []


def test_check_payload_gates_sampling_overhead_at_full_budget():
    payload = {
        "smoke": False,
        "speedups": {
            "codec.encode_vs_reference": 2.0,
            "codec.decode_vs_reference": 5.0,
        },
        "benchmarks": [
            {"name": "timeseries", "metrics": {"overhead_ratio": 1.5}},
        ],
    }
    failures = check_payload(payload)
    assert any("overhead_ratio" in f for f in failures)
    # Smoke runs are too short for a stable ratio — never gated.
    payload["smoke"] = True
    assert check_payload(payload) == []


def test_paired_ratio_alternates_order_and_takes_the_median():
    now = [0.0]
    calls = []
    costs = {
        # Untimed warmup first, then one call per pair.
        "off": iter([9.0, 1.0, 1.0, 2.0]),
        "on": iter([9.0, 1.1, 1.5, 2.2]),
    }

    def side(name):
        def run():
            calls.append(name)
            now[0] += next(costs[name])
        return run

    ratio, best_off, best_on = paired_ratio(
        side("off"), side("on"), pairs=3, clock=lambda: now[0]
    )
    assert calls == ["off", "on", "off", "on", "on", "off", "off", "on"]
    # Per-pair ratios 1.1, 1.5, 1.1: the outlier pair does not move it.
    assert ratio == pytest.approx(1.1)
    assert (best_off, best_on) == (1.0, pytest.approx(1.1))
    with pytest.raises(ValueError):
        paired_ratio(side("off"), side("on"), pairs=0)
