"""Sweep executor: every sweep is a campaign drained by local workers.

:class:`SweepRunner` has one path.  Jobs that miss the result cache go
into a :class:`~repro.sim.campaign.CampaignStore`, which
:class:`~repro.sim.campaign.Worker`\\ s drain, and the runner reads
their results back, in job order, from the cache they write.  By
default the store is a throwaway SQLite file in a temporary directory
(with a cache beside it when the caller passes none); a durable run is
the same path over a store the caller owns.  Guarantees:

* **Bit-identical to serial.**  Job seeds are derived, not drawn, so the
  ``results_io`` payload of every result is the same for any worker
  count, attempt or resume (only wall-clock profile fields differ).
* **Workers are processes.**  ``jobs > 1`` forks up to ``jobs`` local
  worker processes, never threads: a thread that forks a job's child can
  hand it a lock another thread holds, and the child hangs.
* **One failure policy.**  ``timeout`` and ``retries`` are the store's
  :class:`~repro.sim.campaign.LeasePolicy`; a job out of attempts
  raises :class:`JobExecutionError` carrying its traceback.
* **Telemetry survives the workers.**  Cache entries carry each run's
  :class:`~repro.telemetry.RunProfile`; the runner merges them into
  :attr:`SweepRunner.profile`.
"""

from __future__ import annotations

import multiprocessing
import tempfile
from dataclasses import dataclass
from multiprocessing.connection import wait
from pathlib import Path
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple, Union

from repro.core.config import SystemConfig
from repro.sim.metrics import SimulationResult
from repro.sim.runner.cache import ResultCache
from repro.sim.runner.isolate import JobCrashedError, JobExecutionError
from repro.sim.runner.jobs import SweepJob, content_hash
from repro.sim.simulator import SimulationParams
from repro.telemetry import RunProfile, merge_dumps
from repro.trace.workloads import WorkloadProfile

if TYPE_CHECKING:
    from repro.sim.campaign.lease import LeasePolicy
    from repro.sim.campaign.store import CampaignStore

#: How often an idle local worker, and the collecting caller, poll the store.
POLL_SECONDS = 0.05


@dataclass(frozen=True)
class SweepProgress:
    """One completed job, as reported to the progress callback."""

    completed: int       #: jobs finished so far (cached + executed)
    total: int
    workload: str
    system: str
    source: str          #: ``"cache"`` or ``"run"``
    seconds: float       #: wall time of the job's simulation

    def describe(self) -> str:
        line = (
            f"[{self.completed:>{len(str(self.total))}}/{self.total}] "
            f"{self.workload} x {self.system}: {self.source}"
        )
        if self.source == "run":
            line += f" ({self.seconds:.1f} s)"
        return line


ProgressCallback = Callable[[SweepProgress], None]

#: (workload, system) with optional per-pair overrides when system is a name.
WorkloadLike = Union[str, WorkloadProfile]
SystemLike = Union[str, SystemConfig]


def default_campaign_name(jobs: Sequence[SweepJob]) -> str:
    """Deterministic name for an unnamed durable run: the job-list hash."""
    return "c-" + content_hash([job.cache_key() for job in jobs])[:12]


def _local_worker(
    store_path: str, cache_dir: str, campaign: str, policy: "LeasePolicy"
) -> None:
    """Entry point of one local worker process: drain ``campaign``, exit."""
    from repro.sim.campaign.store import CampaignStore
    from repro.sim.campaign.worker import Worker

    store = CampaignStore(store_path, policy=policy)
    Worker(store, ResultCache(cache_dir)).run(
        campaign, once=True, poll_seconds=POLL_SECONDS
    )


class SweepRunner:
    """Runs sweep jobs as a campaign drained by local workers."""

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        progress: Optional[ProgressCallback] = None,
        timeout: Optional[float] = None,
        retries: int = 0,
    ):
        # The campaign package is built on this module, so it loads on use.
        from repro.sim.campaign.lease import LeasePolicy

        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.jobs = jobs
        self.cache = cache
        self.progress = progress
        #: Policy of the throwaway store: ``timeout`` caps each job's wall
        #: clock (the job then runs in its own killable process) and
        #: ``retries`` extra attempts wait out the policy's backoff.
        self.policy = LeasePolicy(
            job_timeout=timeout, max_attempts=retries + 1
        )
        #: Merged engine profiles of every job this runner completed
        #: (cache hits contribute the recorded cost of the original run).
        self.profile = RunProfile()
        self.cached_jobs = 0
        self.executed_jobs = 0

    # ------------------------------------------------------------------
    def run(
        self,
        sweep_jobs: Sequence[SweepJob],
        store: Optional["CampaignStore"] = None,
        campaign: Optional[str] = None,
    ) -> List[SimulationResult]:
        """Run every job; results are returned in job order.

        With ``store`` the run is durable: all jobs are submitted
        (idempotently) as ``campaign``, by default named by the job-list
        hash, and the store's own policy governs timeouts and retries.
        A rerun after a crash computes only what the cache lacks, and
        jobs leased by other live workers are waited for.  A durable run
        needs ``cache``: the store records which jobs are done, the cache
        keeps what they produced.
        """
        results: List[Optional[SimulationResult]] = [None] * len(sweep_jobs)
        for index, job in enumerate(sweep_jobs):
            cached = (
                self.cache.get(job.cache_key()) if self.cache is not None else None
            )
            if cached is not None:
                results[index] = cached
                self._account(cached, job, "cache", results)
        missing = [index for index, r in enumerate(results) if r is None]
        if missing and store is not None:
            if self.cache is None:
                raise ValueError("a durable run needs a result cache")
            name = campaign or default_campaign_name(sweep_jobs)
            every = range(len(results))
            self._drain(store, self.cache, name, sweep_jobs, every, results)
        elif missing:
            from repro.sim.campaign.store import CampaignStore

            with tempfile.TemporaryDirectory(prefix="repro-sweep-") as workdir:
                store = CampaignStore(
                    Path(workdir) / "campaign.sqlite", policy=self.policy
                )
                cache = self.cache
                if cache is None:
                    cache = ResultCache(Path(workdir) / "results")
                try:
                    self._drain(store, cache, "sweep", sweep_jobs, missing, results)
                finally:
                    store.close()
        return [r for r in results if r is not None]

    # ------------------------------------------------------------------
    def _drain(
        self,
        store: "CampaignStore",
        cache: ResultCache,
        campaign: str,
        sweep_jobs: Sequence[SweepJob],
        slots: Sequence[int],
        results: List[Optional[SimulationResult]],
    ) -> None:
        """Submit ``sweep_jobs[slots]`` as ``campaign``, drain it, collect.

        ``slots[i]`` is the job index of the campaign's ``i``-th job.
        """
        from repro.sim.campaign.worker import Worker

        store.submit(campaign, [sweep_jobs[index] for index in slots])
        for row in store.jobs_in_order(campaign):
            # Done, yet the cache lost the result: the cache wins.
            if row["state"] == "done" and results[slots[row["job_index"]]] is None:
                store.requeue(campaign, row["job_index"])
        # Workers write the results and this instance reads them back, so
        # the caller's cache counts only the sweep's own lookups.
        reader = ResultCache(cache.directory)

        def collect() -> None:
            for row in store.jobs_in_order(campaign):
                index = slots[row["job_index"]]
                if row["state"] != "done" or results[index] is not None:
                    continue
                result = reader.get(str(row["key"]))
                if result is not None:
                    results[index] = result
                    if self.cache is not None:
                        self.cache.stats.writes += 1  # a worker's write
                    self._account(result, sweep_jobs[index], "run", results)

        workers = min(self.jobs, sum(results[index] is None for index in slots))
        if workers == 1:
            # Inline, so a profiler around the sweep sees the simulations.
            Worker(store, ResultCache(cache.directory)).run(
                campaign, once=True, poll_seconds=POLL_SECONDS, after_job=collect
            )
        else:
            # Local workers are processes, never threads: a Worker thread
            # that isolates a job forks while another thread may hold a
            # lock (SQLite's, the allocator's), and the child inherits it
            # held.  Two Worker threads hung about one twelve-job sweep in
            # fifteen that way; forked worker processes, none in 200.  Each
            # opens its own store connection, and the caller's is closed
            # first, because an SQLite connection must not cross a fork.
            store.close()
            args = (str(store.path), str(cache.directory), campaign, store.policy)
            live = [
                multiprocessing.Process(target=_local_worker, args=args)
                for _ in range(workers)
            ]
            try:
                for proc in live:
                    proc.start()
                while live:
                    wait([proc.sentinel for proc in live], POLL_SECONDS)
                    collect()
                    live = [proc for proc in live if proc.is_alive()]
            finally:
                for proc in live:
                    if proc.is_alive():
                        proc.terminate()
                        proc.join()
        collect()
        unfinished = [index for index in slots if results[index] is None]
        if unfinished:
            row = store.job(campaign, list(slots).index(unfinished[0]))
            label = sweep_jobs[unfinished[0]].describe()
            if row["state"] == "failed":
                raise JobExecutionError(
                    f"job {label} dead-lettered after {row['attempts']} "
                    f"attempt(s):\n{row['error']}"
                )
            raise JobCrashedError(
                f"job {label} is still {row['state']} but every local "
                "worker has exited"
            )

    # ------------------------------------------------------------------
    def _account(
        self,
        result: SimulationResult,
        job: SweepJob,
        source: str,
        results: List[Optional[SimulationResult]],
    ) -> None:
        if source == "cache":
            self.cached_jobs += 1
        else:
            self.executed_jobs += 1
        if result.profile is not None:
            self.profile.merge(result.profile)
        if self.progress is not None:
            self.progress(
                SweepProgress(
                    completed=sum(r is not None for r in results),
                    total=len(results),
                    workload=job.workload.name,
                    system=job.system.name,
                    source=source,
                    seconds=(
                        result.profile.wall_seconds
                        if result.profile is not None
                        else 0.0
                    ),
                )
            )


# ----------------------------------------------------------------------
# Cross-worker aggregation
# ----------------------------------------------------------------------
def merged_metrics(results: Sequence[SimulationResult]) -> Optional[dict]:
    """Sweep-wide metrics dump merged across every collected result.

    Results arrive from :meth:`SweepRunner.run` in job order and
    :func:`~repro.telemetry.registry.merge_dumps` is order-insensitive in
    its serialised form, so serial and parallel sweeps of the same jobs
    merge to byte-identical JSON.  ``None`` when no result embedded
    metrics (``collect_metrics`` off).
    """
    dumps = [r.metrics for r in results if r.metrics is not None]
    if not dumps:
        return None
    return merge_dumps(dumps)


def merged_timeseries(results: Sequence[SimulationResult]) -> dict:
    """Per-run time series keyed ``"<workload>/<system>"``, sorted.

    Series from distinct runs share no time axis, so the merge is a
    keyed collection rather than a sum; repeated (workload, system)
    pairs — e.g. parameter ablations — get a ``#<n>`` suffix in job
    order, keeping labels unique and deterministic.
    """
    labelled: dict = {}
    for result in results:
        if result.timeseries is None:
            continue
        label = f"{result.workload_name}/{result.system_name}"
        if label in labelled:
            n = 2
            while f"{label}#{n}" in labelled:
                n += 1
            label = f"{label}#{n}"
        labelled[label] = result.timeseries
    return {label: labelled[label] for label in sorted(labelled)}


# ----------------------------------------------------------------------
# Convenience entry points
# ----------------------------------------------------------------------
def run_jobs(
    sweep_jobs: Sequence[SweepJob],
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressCallback] = None,
    timeout: Optional[float] = None,
    retries: int = 0,
) -> List[SimulationResult]:
    """Run pre-built jobs; results in job order."""
    return SweepRunner(
        jobs=jobs,
        cache=cache,
        progress=progress,
        timeout=timeout,
        retries=retries,
    ).run(sweep_jobs)


def run_pairs(
    pairs: Sequence[Tuple[WorkloadLike, SystemLike]],
    params: Optional[SimulationParams] = None,
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressCallback] = None,
    timeout: Optional[float] = None,
    retries: int = 0,
    store: Optional["CampaignStore"] = None,
) -> List[SimulationResult]:
    """Run arbitrary (workload, system) pairs; results in pair order.

    The generic entry point for benchmarks whose sweeps are not plain
    workload x system grids (timing sweeps, rollback-rate ablations):
    callers build each pair's :class:`SystemConfig` themselves and index
    the flat result list positionally.  ``store`` makes the run durable
    (see :meth:`SweepRunner.run`).
    """
    sweep_jobs = [
        SweepJob.build(workload, system, params) for workload, system in pairs
    ]
    return SweepRunner(
        jobs=jobs,
        cache=cache,
        progress=progress,
        timeout=timeout,
        retries=retries,
    ).run(sweep_jobs, store=store)
