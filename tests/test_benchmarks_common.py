"""Regression tests for the benchmark harness (benchmarks/common.py) and
the perf gates' timing helpers (benchmarks/perf/common.py).

Most importantly: the process-wide figure-sweep memo must be keyed on the
sweep parameters — the old fixed ``"figures"`` key returned a stale sweep
after ``SWEEP_PARAMS`` changed.
"""

import pytest

import benchmarks.common as common
from benchmarks.perf.common import paired_ratio, time_call
from repro.sim.simulator import SimulationParams
from repro.telemetry import RunProfile


def test_figure_sweep_memo_keyed_on_params(monkeypatch):
    calls = []
    monkeypatch.setattr(common, "_SWEEP_CACHE", {})
    monkeypatch.setattr(
        common,
        "run_grid",
        lambda workloads, systems=None, params=None: (
            calls.append(params) or [f"sweep-{len(calls)}"]
        ),
    )
    first = common.figure_sweep()
    assert common.figure_sweep() is first   # memo hit, no second run
    assert len(calls) == 1

    # Changing the run scale must produce a fresh sweep, not the memo.
    monkeypatch.setattr(
        common, "SWEEP_PARAMS", SimulationParams(target_requests=123)
    )
    second = common.figure_sweep()
    assert len(calls) == 2
    assert second is not first
    assert calls[1].target_requests == 123

    # And going back to the original params restores the original sweep
    # without re-running it.
    monkeypatch.setattr(
        common, "SWEEP_PARAMS", SimulationParams(target_requests=4_000)
    )
    assert common.figure_sweep() is first
    assert len(calls) == 2


def test_memo_key_distinguishes_params():
    a = common._sweep_memo_key(["w"], SimulationParams(target_requests=100))
    b = common._sweep_memo_key(["w"], SimulationParams(target_requests=200))
    c = common._sweep_memo_key(["w2"], SimulationParams(target_requests=100))
    assert len({a, b, c}) == 3
    assert a == common._sweep_memo_key(["w"], SimulationParams(target_requests=100))


def test_sweep_jobs_count_env(monkeypatch):
    monkeypatch.setenv("REPRO_SWEEP_JOBS", "3")
    assert common.sweep_jobs_count() == 3
    monkeypatch.setenv("REPRO_SWEEP_JOBS", "0")
    assert common.sweep_jobs_count() == 1
    monkeypatch.delenv("REPRO_SWEEP_JOBS")
    assert common.sweep_jobs_count() >= 1


def test_sweep_cache_env_switches(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_SWEEP_NO_CACHE", "1")
    assert common.sweep_cache() is None
    monkeypatch.delenv("REPRO_SWEEP_NO_CACHE")
    monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR", str(tmp_path))
    cache = common.sweep_cache()
    assert cache is not None
    assert str(cache.directory) == str(tmp_path)


def test_write_report_keeps_wall_clock_out_of_the_file(
    monkeypatch, tmp_path, capsys
):
    monkeypatch.setattr(common, "_RESULTS_DIR", str(tmp_path))
    profile = RunProfile(events_dispatched=1200, wall_seconds=0.5)
    path = common.write_report("demo", "a table", runs=[profile])
    assert open(path).read() == "a table\n"
    out = capsys.readouterr().out
    assert "a table" in out
    assert "telemetry: 1 runs; engine: 1200 events" in out


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


def test_timing_helpers_reject_empty_budgets():
    calls = []
    with pytest.raises(ValueError, match="pairs"):
        paired_ratio(lambda: calls.append(1), lambda: calls.append(2), pairs=0)
    with pytest.raises(ValueError, match="repeats"):
        time_call(lambda: calls.append(3), repeats=0)
    assert calls == []  # rejected before any warmup call
    assert time_call(lambda: calls.append(4), repeats=2) >= 0.0
    assert calls == [4, 4, 4]  # one untimed warmup, then two timed calls
