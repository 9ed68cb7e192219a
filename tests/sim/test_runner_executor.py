"""Executor tests: parallel/serial determinism and cache behaviour.

The test tagged ``sweep_cache`` doubles as CI's cache-correctness guard:
CI points ``REPRO_SWEEP_CACHE_DIR`` at a shared directory, runs the suite
once cold, then reruns the tagged test with ``REPRO_EXPECT_CACHE_HIT=1``
and the test asserts every job was served from disk.
"""

import json
import os

import pytest

from repro.sim.results_io import result_to_dict
from repro.sim.runner import (
    ResultCache,
    SweepJob,
    SweepRunner,
    merged_metrics,
    merged_timeseries,
    run_jobs,
    run_pairs,
)
from repro.sim.simulator import SimulationParams

FAST = SimulationParams(instructions_per_core=2_000, n_cores=2)

#: Same sweep with observability on: embedded metrics + sampling.
OBSERVED = SimulationParams(
    instructions_per_core=2_000, n_cores=2,
    collect_metrics=True, sample_every_ticks=500,
)


def _jobs(params=FAST):
    return [
        SweepJob.build(workload, system, params)
        for workload in ("MP2", "MP3")
        for system in ("baseline", "rwow-rde")
    ]


def _payloads(results):
    return [result_to_dict(result) for result in results]


def test_parallel_results_bit_identical_to_serial():
    serial = run_jobs(_jobs(), jobs=1)
    parallel = run_jobs(_jobs(), jobs=4)
    assert _payloads(serial) == _payloads(parallel)
    # Sanity: the runs are real simulations, not empty shells.
    assert all(r.memory.reads_completed > 0 for r in serial)
    # And every job got its own decorrelated seed.
    assert len({r.seed for r in serial}) == len(serial)


def test_parallel_merged_metrics_byte_identical_to_serial():
    """The cross-worker merge is deterministic: a parallel sweep's merged
    registry dump and keyed time-series bundle serialise byte-for-byte
    the same as the serial run's."""
    serial = run_jobs(_jobs(OBSERVED), jobs=1)
    parallel = run_jobs(_jobs(OBSERVED), jobs=4)

    serial_metrics = merged_metrics(serial)
    parallel_metrics = merged_metrics(parallel)
    assert serial_metrics is not None
    assert json.dumps(serial_metrics, sort_keys=True) == json.dumps(
        parallel_metrics, sort_keys=True
    )
    # Merged counters really aggregate across runs.
    assert serial_metrics["reads.completed"]["value"] == sum(
        r.memory.reads_completed for r in serial
    )

    serial_series = merged_timeseries(serial)
    parallel_series = merged_timeseries(parallel)
    assert list(serial_series) == sorted(serial_series)
    assert len(serial_series) == 4
    assert json.dumps(serial_series, sort_keys=True) == json.dumps(
        parallel_series, sort_keys=True
    )
    # Full persisted payloads (now carrying metrics/timeseries sections)
    # stay bit-identical too.
    assert _payloads(serial) == _payloads(parallel)


def test_merged_metrics_none_without_collection():
    results = run_jobs(_jobs(), jobs=1)
    assert merged_metrics(results) is None
    assert merged_timeseries(results) == {}


def test_merged_timeseries_disambiguates_repeated_pairs():
    results = run_pairs(
        [("MP2", "baseline"), ("MP2", "baseline")], OBSERVED
    )
    labels = list(merged_timeseries(results))
    assert labels == ["MP2/baseline", "MP2/baseline#2"]


def test_observed_results_round_trip_through_cache(tmp_path):
    cache = ResultCache(tmp_path)
    cold = run_jobs(_jobs(OBSERVED), jobs=1, cache=cache)
    warm_runner = SweepRunner(jobs=1, cache=cache)
    warm = warm_runner.run(_jobs(OBSERVED))
    assert warm_runner.cached_jobs == 4
    assert all(r.metrics is not None for r in warm)
    assert all(r.timeseries is not None for r in warm)
    assert _payloads(cold) == _payloads(warm)
    # Observability params are part of the cache key: the plain sweep
    # must not be served from the observed sweep's entries.
    plain_runner = SweepRunner(jobs=1, cache=cache)
    plain_runner.run(_jobs())
    assert plain_runner.cached_jobs == 0


def test_results_come_back_in_job_order():
    results = run_jobs(_jobs(), jobs=4)
    expected = [
        (workload, system)
        for workload in ("MP2", "MP3")
        for system in ("baseline", "rwow-rde")
    ]
    assert [(r.workload_name, r.system_name) for r in results] == expected


def test_warm_cache_serves_identical_results(tmp_path):
    cache = ResultCache(tmp_path)
    cold = run_jobs(_jobs(), jobs=1, cache=cache)
    assert cache.stats.writes == 4

    warm_runner = SweepRunner(jobs=1, cache=cache)
    warm = warm_runner.run(_jobs())
    assert warm_runner.cached_jobs == 4
    assert warm_runner.executed_jobs == 0
    assert _payloads(cold) == _payloads(warm)
    # Cached results still carry engine cost for telemetry summaries.
    assert warm_runner.profile.events_dispatched > 0


def test_corrupted_cache_entry_is_recomputed(tmp_path):
    cache = ResultCache(tmp_path)
    cold = run_jobs(_jobs(), jobs=1, cache=cache)

    # Truncate one entry and tamper with another.
    jobs = _jobs()
    truncated = cache.path_for(jobs[0].cache_key())
    truncated.write_text(truncated.read_text()[:25])
    tampered = cache.path_for(jobs[1].cache_key())
    entry = json.loads(tampered.read_text())
    entry["result"]["instructions"] += 1
    tampered.write_text(json.dumps(entry))

    runner = SweepRunner(jobs=1, cache=cache)
    recovered = runner.run(_jobs())
    assert cache.stats.corrupt == 2
    assert runner.executed_jobs == 2 and runner.cached_jobs == 2
    assert _payloads(recovered) == _payloads(cold)


def test_run_pairs_accepts_names_and_preserves_order(tmp_path):
    results = run_pairs(
        [("MP2", "baseline"), ("MP2", "rwow-rde")],
        FAST,
        cache=ResultCache(tmp_path),
    )
    assert [r.system_name for r in results] == ["baseline", "rwow-rde"]


def test_progress_callback_sees_every_job(tmp_path):
    seen = []
    cache = ResultCache(tmp_path)
    run_jobs(_jobs(), jobs=1, cache=cache, progress=seen.append)
    assert len(seen) == 4
    assert all(p.source == "run" for p in seen)
    assert [p.completed for p in seen] == [1, 2, 3, 4]
    seen.clear()
    run_jobs(_jobs(), jobs=1, cache=cache, progress=seen.append)
    assert [p.source for p in seen] == ["cache"] * 4
    assert "cache" in seen[0].describe()


def test_rejects_bad_jobs_count():
    with pytest.raises(ValueError):
        SweepRunner(jobs=0)


@pytest.mark.sweep_cache
def test_tagged_sweep_served_from_cache(tmp_path):
    """CI cache guard: second pytest invocation must be all cache hits."""
    cache_dir = os.environ.get("REPRO_SWEEP_CACHE_DIR") or str(
        tmp_path / "sweep-cache"
    )
    cache = ResultCache(cache_dir)
    runner = SweepRunner(jobs=1, cache=cache)
    results = runner.run(_jobs())
    assert len(results) == 4
    assert all(r.memory.reads_completed > 0 for r in results)
    if os.environ.get("REPRO_EXPECT_CACHE_HIT"):
        assert runner.cached_jobs == 4, (
            "expected warm cache, but jobs were re-simulated: "
            f"{cache.stats}"
        )
        assert runner.executed_jobs == 0


def test_failed_job_raises_job_execution_error(tmp_path, monkeypatch):
    """One error contract: a job that raises in a worker process comes
    back as JobExecutionError with its traceback, and the sweep leaves
    no worker process and no temporary store behind."""
    import dataclasses
    import multiprocessing
    import tempfile

    from repro.sim.runner import JobExecutionError
    from repro.trace.workloads import get_workload

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    silent = dataclasses.replace(get_workload("MP3"), rpki=0.0, wpki=0.0)
    jobs = [
        SweepJob.build("MP2", "baseline", FAST),
        SweepJob.build(silent, "baseline", FAST),
    ]
    with pytest.raises(JobExecutionError, match="performs no memory accesses"):
        run_jobs(jobs, jobs=2)
    assert multiprocessing.active_children() == []
    assert list(tmp_path.iterdir()) == []


def test_parallel_sweep_forks_one_process_per_worker():
    """Four jobs on two workers fork exactly two processes, not one per
    job: benchmarks probe speed inside "the next N forked processes"."""
    state = {"counting": True, "forks": 0}

    def count_fork():
        if state["counting"]:
            state["forks"] += 1

    # A fork hook cannot be unregistered; it goes quiet after the sweep.
    os.register_at_fork(before=count_fork)
    try:
        results = run_jobs(_jobs(), jobs=2)
    finally:
        state["counting"] = False
    assert len(results) == 4
    assert state["forks"] == 2
