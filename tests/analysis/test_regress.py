"""Tests for the cross-run regression sentinel."""

import json
from pathlib import Path

import pytest

from repro.analysis import regress
from repro.analysis.regress import (
    compare_fingerprints,
    fingerprint_from_result,
    format_comparison,
    load_baseline,
    selftest,
    update_baseline,
)


@pytest.fixture(scope="module")
def smoke_fingerprint():
    return regress.collect_fingerprint(smoke=True)


def test_fingerprint_is_deterministic(smoke_fingerprint):
    again = regress.collect_fingerprint(smoke=True)
    assert json.dumps(smoke_fingerprint, sort_keys=True) == json.dumps(
        again, sort_keys=True
    )


def test_fingerprint_pins_engine_and_memory_counters(smoke_fingerprint):
    metrics = smoke_fingerprint["metrics"]
    for name in (
        "engine.events_dispatched",
        "engine.sim_ticks",
        "reads.completed",
        "writes.completed",
        "read.latency_ns.count",
        "read.latency_ns.p95",
        "irlp_average",
    ):
        assert name in metrics, name
    assert metrics["engine.sim_ticks"] > 0
    config = smoke_fingerprint["config"]
    assert config["system"] == "rwow-rde"
    assert config["sample_every_ticks"] is not None


def test_clean_compare_has_no_breaches(smoke_fingerprint):
    assert compare_fingerprints(smoke_fingerprint, smoke_fingerprint) == []


def test_compare_flags_planted_regressions(smoke_fingerprint):
    planted = json.loads(json.dumps(smoke_fingerprint))
    planted["metrics"]["reads.completed"] += 1
    planted["metrics"]["irlp_average"] *= 1.5
    breaches = compare_fingerprints(planted, smoke_fingerprint)
    assert any(b.startswith("reads.completed:") for b in breaches)
    assert any(b.startswith("irlp_average:") for b in breaches)
    report = format_comparison(planted, smoke_fingerprint, breaches)
    assert "BREACH" in report
    assert report.count("ok") >= 5


def test_compare_flags_config_and_coverage_drift(smoke_fingerprint):
    other = json.loads(json.dumps(smoke_fingerprint))
    other["config"]["seed"] = 99
    assert any(
        "config mismatch" in b
        for b in compare_fingerprints(other, smoke_fingerprint)
    )
    shrunk = json.loads(json.dumps(smoke_fingerprint))
    del shrunk["metrics"]["rollbacks"]
    assert any(
        "missing from baseline" in b
        for b in compare_fingerprints(shrunk, smoke_fingerprint)
    )
    assert any(
        "missing from current" in b
        for b in compare_fingerprints(smoke_fingerprint, shrunk)
    )


def test_float_tolerance_band_absorbs_rounding(smoke_fingerprint):
    wiggled = json.loads(json.dumps(smoke_fingerprint))
    wiggled["metrics"]["irlp_average"] *= 1.0 + 1e-9
    assert compare_fingerprints(smoke_fingerprint, wiggled) == []


def test_selftest_passes_on_real_fingerprint(smoke_fingerprint):
    assert selftest(smoke_fingerprint) == []


def test_selftest_detects_a_broken_comparator(smoke_fingerprint, monkeypatch):
    """If the comparator goes blind, the selftest must say so."""
    monkeypatch.setattr(
        regress, "compare_fingerprints", lambda *a, **k: []
    )
    failures = selftest(smoke_fingerprint)
    assert failures


def test_fingerprint_requires_collected_metrics():
    from repro.core.systems import make_system
    from repro.sim.simulator import SimulationParams, simulate

    plain = simulate(
        make_system("baseline"), "canneal",
        SimulationParams(instructions_per_core=1_000, n_cores=2),
    )
    with pytest.raises(ValueError, match="collect_metrics"):
        fingerprint_from_result(plain, smoke=True)


def test_baseline_file_round_trip(tmp_path, monkeypatch, smoke_fingerprint):
    # A file that carries more than the fingerprints (the shape of the
    # retired perf-suite payload) loads and re-pins in place.
    path = tmp_path / "fingerprints.json"
    path.write_text(json.dumps({"schema": 1, "suite": "perf"}))
    monkeypatch.setattr(
        regress, "collect_fingerprints",
        lambda seed=7: {"smoke": smoke_fingerprint},
    )
    pinned = update_baseline(path)
    assert pinned["smoke"] == smoke_fingerprint
    payload = json.loads(path.read_text())
    # Existing suite keys survive the re-pin.
    assert payload["suite"] == "perf"
    assert load_baseline(path, smoke=True) == smoke_fingerprint
    with pytest.raises(ValueError, match="lacks 'full'"):
        load_baseline(path, smoke=False)


def test_load_baseline_explains_missing_section(tmp_path):
    path = tmp_path / "fingerprints.json"
    path.write_text(json.dumps({"schema": 1}))
    with pytest.raises(ValueError, match="metrics_fingerprint"):
        load_baseline(path, smoke=True)


def test_committed_fingerprints_match_fresh_runs():
    """All four committed legs, full budgets included, reproduce exactly."""
    path = Path(__file__).resolve().parents[2] / regress.BASELINE_PATH
    committed = json.loads(path.read_text())["metrics_fingerprint"]
    fresh = regress.collect_fingerprints(regress.FINGERPRINT_SEED)
    assert set(committed) == set(fresh) == {
        "smoke", "full", "frontend_smoke", "frontend_full",
    }
    for leg, pinned in committed.items():
        assert compare_fingerprints(pinned, fresh[leg]) == [], leg
    full = committed["full"]["metrics"]
    assert full["engine.events_dispatched"] == 6150
    assert full["engine.sim_ticks"] == 364931
