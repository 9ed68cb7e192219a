"""Isolated-job execution and the runner's timeout/retry policy."""

from __future__ import annotations

import os
import time

import pytest

from repro.sim.results_io import results_digest
from repro.sim.runner import (
    JobCrashedError,
    JobExecutionError,
    JobTimeoutError,
    SweepRunner,
    run_job_isolated,
    run_jobs,
)
from repro.sim.runner.jobs import SweepJob
from repro.sim.simulator import SimulationParams, simulate

TINY = SimulationParams(target_requests=120, n_cores=2, seed=7)


def tiny_job(system="baseline"):
    return SweepJob.build("MP3", system, TINY)


def _hang(job):  # pragma: no cover - killed by the timeout
    time.sleep(60)


def _die(job):  # pragma: no cover - child exits before reporting
    os._exit(3)


def _raise(job):
    raise ValueError("deliberately broken job")


def test_isolated_result_is_bit_identical_to_inline():
    job = tiny_job()
    inline = simulate(job.system, job.workload, job.params)
    isolated = run_job_isolated(job, timeout=300.0)
    assert results_digest([isolated]) == results_digest([inline])


def test_hung_job_times_out_quickly():
    started = time.monotonic()
    with pytest.raises(JobTimeoutError):
        run_job_isolated(tiny_job(), timeout=0.3, execute=_hang)
    assert time.monotonic() - started < 30.0


def test_dead_child_raises_crashed():
    with pytest.raises(JobCrashedError):
        run_job_isolated(tiny_job(), timeout=30.0, execute=_die)


def test_child_exception_carries_its_traceback():
    with pytest.raises(JobExecutionError) as excinfo:
        run_job_isolated(tiny_job(), timeout=30.0, execute=_raise)
    assert not isinstance(excinfo.value, (JobTimeoutError, JobCrashedError))
    assert "deliberately broken job" in str(excinfo.value)
    assert "ValueError" in str(excinfo.value)


def test_guarded_sweep_is_bit_identical_to_plain():
    jobs = [tiny_job("baseline"), tiny_job("rwow-rde")]
    plain = run_jobs(jobs, jobs=1)
    guarded_serial = run_jobs(jobs, jobs=1, timeout=300.0)
    guarded_parallel = run_jobs(jobs, jobs=2, timeout=300.0)
    reference = results_digest(plain)
    assert results_digest(guarded_serial) == reference
    assert results_digest(guarded_parallel) == reference


def test_retries_recover_from_transient_failures(monkeypatch):
    """``retries`` is the policy's attempt budget: two failed attempts
    wait out its backoff, the third succeeds with the unchanged result."""
    from repro.sim.campaign import worker

    calls = []

    def flaky(job):
        calls.append(job)
        if len(calls) <= 2:
            raise JobExecutionError("transient infrastructure failure")
        return simulate(job.system, job.workload, job.params)

    monkeypatch.setattr(worker, "default_execute", flaky)
    job = tiny_job()
    results = SweepRunner(jobs=1, retries=2).run([job])
    assert len(results) == 1 and len(calls) == 3
    assert results_digest(results) == results_digest(
        [simulate(job.system, job.workload, job.params)]
    )


def test_exhausted_retries_raise(monkeypatch):
    from repro.sim.campaign import worker

    calls = []

    def always_broken(job):
        calls.append(job)
        raise ValueError("permanently broken")

    monkeypatch.setattr(worker, "default_execute", always_broken)
    runner = SweepRunner(jobs=1, retries=1)
    with pytest.raises(JobExecutionError, match="permanently broken") as excinfo:
        runner.run([tiny_job()])
    assert "after 2 attempt(s)" in str(excinfo.value)
    assert len(calls) == 2


def test_guard_knob_validation():
    with pytest.raises(ValueError):
        SweepRunner(timeout=0.0)
    with pytest.raises(ValueError):
        SweepRunner(timeout=-1.0)
    with pytest.raises(ValueError):
        SweepRunner(retries=-1)
