"""Shared machinery for the figure/table benchmarks.

The four main figures (8-11) plot the same 12-workload x 6-system sweep
from different angles, so the sweep is memoised process-wide — keyed by
the content hash of its parameters, so editing ``SWEEP_PARAMS`` (or
monkeypatching it in a test) can never return a stale sweep.  All
simulation runs go through :mod:`repro.sim.runner`: local worker
processes drain them (``REPRO_SWEEP_JOBS``, default: all cores), and
they are served from the on-disk result cache under
``benchmarks/results/cache/`` (disable with ``REPRO_SWEEP_NO_CACHE=1``;
relocate with ``REPRO_SWEEP_CACHE_DIR``).  Every benchmark writes its report to
``benchmarks/results/<name>.txt`` (and prints it, visible with
``pytest -s``); EXPERIMENTS.md captures one reference output per
experiment.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.config import SystemConfig
from repro.sim.experiment import SystemComparison, sweep_workloads
from repro.sim.metrics import SimulationResult
from repro.sim.results_io import atomic_write_text
from repro.sim.runner import ResultCache, content_hash
from repro.sim.runner import run_pairs as _runner_run_pairs
from repro.sim.simulator import SimulationParams
from repro.telemetry import RunProfile
from repro.trace.workloads import (
    FIGURE_MP_NAMES,
    FIGURE_MT_NAMES,
    WorkloadProfile,
)

#: Workloads plotted in Figures 8-11 (six PARSEC + six SPEC mixes).
FIGURE_WORKLOADS: List[str] = FIGURE_MT_NAMES + FIGURE_MP_NAMES

#: Run scale for the benchmarks: large enough for steady-state drains,
#: small enough that the whole harness finishes in minutes.
SWEEP_PARAMS = SimulationParams(target_requests=4_000)

_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
_SWEEP_CACHE: Dict[str, List[SystemComparison]] = {}


def sweep_jobs_count() -> int:
    """Worker processes for benchmark sweeps (``REPRO_SWEEP_JOBS`` wins)."""
    env = os.environ.get("REPRO_SWEEP_JOBS", "").strip()
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def sweep_cache() -> Optional[ResultCache]:
    """The shared on-disk result cache (``None`` when disabled)."""
    if os.environ.get("REPRO_SWEEP_NO_CACHE"):
        return None
    directory = os.environ.get(
        "REPRO_SWEEP_CACHE_DIR", os.path.join(_RESULTS_DIR, "cache")
    )
    return ResultCache(directory)


def campaign_store():
    """Durable-campaign opt-in: ``REPRO_CAMPAIGN_DIR`` names a directory
    holding the SQLite job store; unset (the default), each sweep runs
    over a throwaway store."""
    directory = os.environ.get("REPRO_CAMPAIGN_DIR", "").strip()
    if not directory:
        return None
    from repro.sim.campaign import CampaignStore

    return CampaignStore(os.path.join(directory, "campaign.sqlite"))


def run_pairs(
    pairs: Sequence[Tuple[Union[str, WorkloadProfile], Union[str, SystemConfig]]],
    params: Optional[SimulationParams] = None,
) -> List[SimulationResult]:
    """Run (workload, system) pairs through the shared runner + cache.

    The entry point for benchmarks whose sweeps are not plain grids
    (timing sweeps, rollback ablations): results come back in pair order.
    With ``REPRO_CAMPAIGN_DIR`` set, the run is durable: progress
    persists in the SQLite store, a crashed benchmark run resumes where
    it stopped, and the results are byte-identical (each job's seed
    derives from its content).  A durable run needs the result cache.
    """
    return _runner_run_pairs(
        pairs,
        params if params is not None else SWEEP_PARAMS,
        jobs=sweep_jobs_count(),
        cache=sweep_cache(),
        store=campaign_store(),
    )


def run_grid(
    workloads: Iterable[Union[str, WorkloadProfile]],
    systems: Optional[Sequence[str]] = None,
    params: Optional[SimulationParams] = None,
) -> List[SystemComparison]:
    """Workloads x systems sweep through the shared runner + cache."""
    return sweep_workloads(
        workloads,
        systems,
        params if params is not None else SWEEP_PARAMS,
        jobs=sweep_jobs_count(),
        cache=sweep_cache(),
    )


def _sweep_memo_key(
    workloads: Sequence[str], params: SimulationParams
) -> str:
    """In-process memo key: the sweep's full parameter content hash."""
    return content_hash({"workloads": list(workloads), "params": params})


def figure_sweep() -> List[SystemComparison]:
    """The memoised 12-workload x 6-system sweep behind Figures 8-11.

    Memoised per (workloads, params) content hash — changing
    ``SWEEP_PARAMS`` (e.g. ``target_requests``) yields a fresh sweep, not
    the stale one recorded under a fixed key.
    """
    key = _sweep_memo_key(FIGURE_WORKLOADS, SWEEP_PARAMS)
    if key not in _SWEEP_CACHE:
        _SWEEP_CACHE[key] = run_grid(FIGURE_WORKLOADS, params=SWEEP_PARAMS)
    return _SWEEP_CACHE[key]


def telemetry_summary(runs: Iterable[object]) -> str:
    """Merged engine-profile line for a batch of simulation runs.

    Accepts any mix of :class:`~repro.sim.metrics.SimulationResult`,
    :class:`~repro.sim.experiment.SystemComparison` and bare
    :class:`~repro.telemetry.RunProfile` items; merges the per-run
    profiles (events dispatched, wall seconds) into one line.  The line
    is wall-clock, so :func:`write_report` prints it but keeps it out of
    the committed report; host cost is measured by ``perfbench/run.py``.
    Results served from the sweep cache contribute the recorded cost of
    the run that originally produced them.
    """
    merged = RunProfile()
    count = 0
    for item in runs:
        if isinstance(item, SystemComparison):
            profiles = [r.profile for r in item.results.values()]
        elif isinstance(item, RunProfile):
            profiles = [item]
        else:
            profiles = [getattr(item, "profile", None)]
        for profile in profiles:
            if profile is not None:
                merged.merge(profile)
                count += 1
    if count == 0:
        return "telemetry: no engine profiles recorded"
    return f"telemetry: {count} runs; {merged.summary()}"


def write_report(
    name: str, text: str, runs: Optional[Iterable[object]] = None
) -> str:
    """Persist a benchmark's report (atomically); returns the path.

    The file holds only what the simulations determine, so regenerating
    a report leaves it diff-clean.  When ``runs`` is given, the merged
    :func:`telemetry_summary` line follows the printed report on stdout
    (visible with ``pytest -s``) and is not written to the file.
    """
    path = os.path.join(_RESULTS_DIR, f"{name}.txt")
    atomic_write_text(path, text + "\n")
    print()
    print(text)
    if runs is not None:
        print()
        print(telemetry_summary(runs))
    return path


def mt_mp_average_rows(values_by_workload: Dict[str, float]) -> Dict[str, float]:
    """Append Average(MT) / Average(MP) entries like the paper's figures."""
    mt = [values_by_workload[w] for w in FIGURE_MT_NAMES if w in values_by_workload]
    mp = [values_by_workload[w] for w in FIGURE_MP_NAMES if w in values_by_workload]
    extended = dict(values_by_workload)
    if mt:
        extended["Average(MT)"] = sum(mt) / len(mt)
    if mp:
        extended["Average(MP)"] = sum(mp) / len(mp)
    return extended
