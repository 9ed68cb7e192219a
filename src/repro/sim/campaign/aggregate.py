"""Streaming campaign aggregation over the content-addressed cache.

The store records *which* jobs are done; the :class:`ResultCache` holds
*what* they produced, keyed by the same content hash.  Aggregation is
therefore a pure read: collect whatever results exist (in submission
order), merge their metrics/time-series with the runner's own order-
insensitive mergers, and report progress — over a finished campaign the
merge is byte-identical to a serial ``run_pairs`` of the same pairs,
because each job's payload is a pure function of its content-derived
seed no matter which worker, host or attempt computed it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.campaign.lease import LeasePolicy
from repro.sim.campaign.store import CampaignStore
from repro.sim.metrics import SimulationResult
from repro.sim.runner.cache import ResultCache
from repro.sim.runner.executor import (
    SweepRunner,
    SystemLike,
    WorkloadLike,
    default_campaign_name,
    merged_metrics,
    merged_timeseries,
)
from repro.sim.runner.jobs import SweepJob
from repro.sim.simulator import SimulationParams


def submit_pairs(
    store: CampaignStore,
    pairs: Sequence[Tuple[WorkloadLike, SystemLike]],
    params: Optional[SimulationParams] = None,
    campaign: Optional[str] = None,
) -> str:
    """Build jobs exactly like ``run_pairs`` would and enqueue them.

    Returns the campaign name.  Using the same ``SweepJob.build`` calls
    as the one-shot path is what makes the determinism contract testable:
    the durable campaign and the serial sweep run literally the same jobs.
    """
    jobs = [
        SweepJob.build(workload, system, params) for workload, system in pairs
    ]
    name = campaign or default_campaign_name(jobs)
    store.submit(name, jobs)
    return name


def collect_results(
    store: CampaignStore, cache: ResultCache, campaign: str
) -> List[Optional[SimulationResult]]:
    """Results in submission order; ``None`` holes where nothing exists."""
    return [
        cache.get(str(row["key"])) for row in store.jobs_in_order(campaign)
    ]


def merged_partial(
    store: CampaignStore, cache: ResultCache, campaign: str
) -> Dict[str, object]:
    """Merged metrics/time-series over whatever is done *so far*.

    The streaming view behind the status endpoint: as workers complete
    jobs the merge grows monotonically toward the full-campaign merge,
    and on a finished campaign it equals the serial one byte for byte.
    """
    slots = collect_results(store, cache, campaign)
    present = [result for result in slots if result is not None]
    counts = store.counts(campaign)
    return {
        "campaign": campaign,
        "total": counts["total"],
        "merged_over": len(present),
        "merged_metrics": merged_metrics(present),
        "merged_timeseries": merged_timeseries(present),
    }


def campaign_progress(
    store: CampaignStore, campaign: str
) -> Dict[str, object]:
    """Status-endpoint summary: counts, progress fraction, dead letters."""
    counts = store.counts(campaign)
    total = counts["total"]
    return {
        "campaign": campaign,
        "counts": {k: counts[k] for k in ("queued", "leased", "done", "failed")},
        "total": total,
        "progress": (counts["done"] / total) if total else 0.0,
        "dead_letters": [
            {
                "job_index": row["job_index"],
                "workload": row["workload"],
                "system": row["system"],
                "attempts": row["attempts"],
                "error": row["error"],
            }
            for row in store.dead_letters(campaign)
        ],
    }


def resume_campaign(
    store: CampaignStore,
    cache: ResultCache,
    campaign: str,
    reset_dead_letters: bool = False,
) -> List[SimulationResult]:
    """Finish a partially-run campaign in-process and return its results.

    The campaign's own jobs go through the sweep runner over ``store``:
    it reclaims expired leases, requeues done-but-resultless jobs (store/
    cache disagreement after corruption) and computes only what the
    cache lacks.  ``reset_dead_letters`` first gives dead letters a fresh
    attempt budget; without it a dead letter raises.
    """
    if reset_dead_letters:
        for row in store.dead_letters(campaign):
            store.requeue(campaign, int(row["job_index"]))
    return SweepRunner(cache=cache).run(
        store.load_jobs(campaign), store=store, campaign=campaign
    )


def run_pairs_durable(
    pairs: Sequence[Tuple[WorkloadLike, SystemLike]],
    params: Optional[SimulationParams] = None,
    *,
    store: CampaignStore,
    cache: ResultCache,
    campaign: Optional[str] = None,
) -> List[SimulationResult]:
    """Durable drop-in for ``run_pairs``: the same runner over ``store``.

    A crash at any point loses nothing: rerunning resubmits the identical
    campaign (a no-op), reclaims stale leases and computes only the holes.
    """
    sweep_jobs = [
        SweepJob.build(workload, system, params) for workload, system in pairs
    ]
    return SweepRunner(cache=cache).run(
        sweep_jobs, store=store, campaign=campaign
    )


__all__ = [
    "LeasePolicy",
    "default_campaign_name",
    "submit_pairs",
    "collect_results",
    "merged_partial",
    "campaign_progress",
    "resume_campaign",
    "run_pairs_durable",
]
