"""Durable sweep campaigns: SQLite job queue, leased workers, HTTP status.

Every sweep is a campaign: :class:`~repro.sim.runner.SweepRunner` puts
its :class:`~repro.sim.runner.jobs.SweepJob`\\ s in a SQLite store (WAL
mode, one row per job) — a throwaway one, or a durable one the caller
names — and workers pull them under lease, heartbeat while running, and
retry or dead-letter failures.  Workers are local processes (never
threads: a thread that forks a job's child can hand it a lock another
thread holds), ``repro worker`` subprocesses, or other hosts sharing the
store directory.  Completed payloads land in the content-addressed
:class:`ResultCache`, so a resumed or multi-worker campaign merges to
byte-identical results against a serial ``run_pairs`` of the same pairs.

Public surface::

    from repro.sim.campaign import (
        CampaignStore, LeasePolicy, LeasedJob, StoreCorruptError,
        Worker, run_worker, parse_inject,
        StatusServer, CampaignService, STATUS_SCHEMA,
        collect_results, merged_partial, campaign_progress,
        submit_pairs, run_pairs_durable, resume_campaign,
    )

See docs/CAMPAIGNS.md for the queue states, lease protocol and resume
semantics.
"""

from repro.sim.campaign.aggregate import (
    campaign_progress,
    collect_results,
    merged_partial,
    resume_campaign,
    run_pairs_durable,
    submit_pairs,
)
from repro.sim.campaign.lease import LeasePolicy
from repro.sim.campaign.store import (
    JOB_STATES,
    CampaignStore,
    LeasedJob,
    StoreCorruptError,
)
from repro.sim.campaign.worker import Worker, parse_inject, run_worker

_SERVICE_EXPORTS = ("STATUS_SCHEMA", "CampaignService", "StatusServer")


def __getattr__(name):
    # Every sweep imports this package, and the service's http.server
    # would add about 2 MB to each sweep worker; load it on first use.
    if name in _SERVICE_EXPORTS:
        from repro.sim.campaign import service

        return getattr(service, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "JOB_STATES",
    "CampaignStore",
    "LeasedJob",
    "StoreCorruptError",
    "LeasePolicy",
    "Worker",
    "run_worker",
    "parse_inject",
    "STATUS_SCHEMA",
    "StatusServer",
    "CampaignService",
    "collect_results",
    "merged_partial",
    "campaign_progress",
    "submit_pairs",
    "run_pairs_durable",
    "resume_campaign",
]
