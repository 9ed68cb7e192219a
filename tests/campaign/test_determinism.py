"""The determinism contract: every execution topology, one byte stream.

``results_digest`` (SHA-256 over the canonical serialised result list)
is the oracle: the serial one-shot runner, a durable single worker, two
concurrent workers and an interrupted-then-resumed campaign must all
produce the identical digest, because each job's seed is a pure function
of its content — never of who ran it, where, or on which attempt.

These tests run real (tiny) simulations; they are the in-process half of
the story whose cross-process half lives in test_faults.py.
"""

from __future__ import annotations

import threading

import pytest

from repro.sim.campaign import (
    CampaignStore,
    Worker,
    collect_results,
    merged_partial,
    resume_campaign,
    run_pairs_durable,
    submit_pairs,
)
from repro.sim.results_io import results_digest
from repro.sim.runner import run_pairs
from repro.sim.runner.cache import ResultCache
from repro.sim.runner.executor import merged_metrics

from tests.campaign.conftest import FAST_POLICY, TINY

pytestmark = pytest.mark.campaign

PAIRS = [
    ("MP3", "baseline"),
    ("MP3", "rwow-rde"),
    ("MP2", "baseline"),
    ("MP2", "rwow-rde"),
]


@pytest.fixture(scope="module")
def serial_reference():
    """The one-shot serial sweep every durable topology must match."""
    results = run_pairs(PAIRS, TINY, jobs=1)
    return results, results_digest(results)


def fresh(tmp_path, name):
    store = CampaignStore(tmp_path / f"{name}.sqlite", policy=FAST_POLICY)
    cache = ResultCache(tmp_path / f"{name}-cache")
    return store, cache


def test_durable_single_worker_matches_serial(tmp_path, serial_reference):
    _, reference = serial_reference
    store, cache = fresh(tmp_path, "single")
    results = run_pairs_durable(PAIRS, TINY, store=store, cache=cache)
    assert results_digest(results) == reference
    store.close()


def test_two_concurrent_workers_match_serial(tmp_path, serial_reference):
    _, reference = serial_reference
    store, cache = fresh(tmp_path, "pair")
    campaign = submit_pairs(store, PAIRS, TINY, campaign="pair")

    workers = [
        Worker(store, cache, worker_id=f"w{i}") for i in range(2)
    ]
    threads = [
        threading.Thread(
            target=w.run, kwargs={"campaign": campaign, "once": True}
        )
        for w in workers
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
        assert not thread.is_alive()

    assert store.all_done(campaign)
    # Both workers actually shared the load or one drained everything —
    # either way the merge below is order- and ownership-insensitive.
    assert sum(w.completed for w in workers) == len(PAIRS)
    slots = collect_results(store, cache, campaign)
    assert all(r is not None for r in slots)
    assert results_digest(slots) == reference
    store.close()


def test_interrupted_campaign_resumes_byte_identical(
    tmp_path, serial_reference
):
    serial_results, reference = serial_reference
    store, cache = fresh(tmp_path, "resume")
    campaign = submit_pairs(store, PAIRS, TINY, campaign="resume")

    # First worker completes one job and "dies" (we just stop driving it).
    first = Worker(store, cache, worker_id="casualty")
    leased = store.lease("casualty", campaign)
    assert first.run_one(leased) is True
    abandoned = store.lease("casualty", campaign)  # leased, never finished
    assert abandoned is not None
    store.expire_leases(now=abandoned.lease_expires + 1.0)

    # A different process-equivalent resumes: only the holes compute.
    results = resume_campaign(store, cache, campaign)
    assert results_digest(results) == reference
    # The one completed job came from cache, not recomputation.
    rescuer_counts = store.counts(campaign)
    assert rescuer_counts["done"] == len(PAIRS)

    # And the streaming merge over the finished campaign equals the
    # serial merge of the reference results.
    merged = merged_partial(store, cache, campaign)
    assert merged["merged_over"] == len(PAIRS)
    assert merged["merged_metrics"] == merged_metrics(serial_results)
    store.close()


def test_rerunning_a_finished_campaign_is_pure_cache(
    tmp_path, serial_reference
):
    _, reference = serial_reference
    store, cache = fresh(tmp_path, "rerun")
    first = run_pairs_durable(
        PAIRS, TINY, store=store, cache=cache, campaign="rerun"
    )
    assert results_digest(first) == reference
    hits_before = cache.stats.hits
    again = run_pairs_durable(
        PAIRS, TINY, store=store, cache=cache, campaign="rerun"
    )
    assert results_digest(again) == reference
    # Nothing re-simulated: the second pass only read the cache.
    assert cache.stats.hits > hits_before
    store.close()
