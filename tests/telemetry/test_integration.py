"""End-to-end telemetry tests: a short traced run of the full system.

The golden-file test freezes the exact RoW/WoW/rollback decision sequence
of a small ``rwow-rde`` run.  The stream is deterministic by construction
(integer-tick engine, one seeded RNG per generator, no str-hash salt), so
any diff means a behavioural change in the scheduler — regenerate the
golden only after confirming the change is intended::

    PYTHONPATH=src python -c "
    from tests.telemetry.test_integration import regenerate_golden
    regenerate_golden()"
"""

from pathlib import Path

from repro.core.systems import make_front_end, make_system
from repro.sim.simulator import SimulationParams, simulate
from repro.telemetry import EventType, ListSink, Telemetry

GOLDEN_PATH = Path(__file__).parent / "golden_rwow_events.txt"

#: Scheduler-decision event types captured by the golden file.
DECISION_TYPES = {
    EventType.ROW_ATTEMPT,
    EventType.ROW_SERVE,
    EventType.ROW_DECLINE,
    EventType.WOW_OPEN,
    EventType.WOW_JOIN,
    EventType.WOW_CLOSE,
    EventType.ROLLBACK,
}

_CACHE = {}


def _traced_run():
    """One short traced rwow-rde run (memoised across tests)."""
    if not _CACHE:
        sink = ListSink()
        telemetry = Telemetry.recording([sink])
        params = SimulationParams(target_requests=200, n_cores=8, seed=1)
        result = simulate(make_system("rwow-rde"), "canneal", params, telemetry)
        _CACHE.update(result=result, telemetry=telemetry, events=sink.events)
    return _CACHE


def _decision_lines(events):
    return [
        f"{e.tick} {e.type.value} req={e.req_id} reason={e.reason or '-'}"
        for e in events
        if e.type in DECISION_TYPES
    ]


def regenerate_golden() -> None:
    """Refresh the golden file after an intended scheduler change."""
    lines = _decision_lines(_traced_run()["events"])
    GOLDEN_PATH.write_text("\n".join(lines) + "\n")


def test_rwow_event_sequence_matches_golden():
    lines = _decision_lines(_traced_run()["events"])
    golden = GOLDEN_PATH.read_text().splitlines()
    assert lines == golden


def test_event_stream_covers_all_decision_kinds():
    kinds = {e.type for e in _traced_run()["events"]}
    assert DECISION_TYPES <= kinds
    assert EventType.REQUEST_ENQUEUE in kinds
    assert EventType.REQUEST_COMPLETE in kinds
    assert EventType.CHIP_RESERVE in kinds


def test_metrics_agree_with_result_stats():
    run = _traced_run()
    stats = run["result"].memory
    metrics = run["telemetry"].metrics
    assert stats.row_reads > 0 and stats.verify_count > 0
    assert metrics.value("row.reads") == stats.row_reads
    assert metrics.value("row.overlap_reads") == stats.row_normal_overlap_reads
    assert metrics.value("verifications") == stats.verify_count
    assert metrics.value("wow.member_writes") == stats.wow_member_writes
    assert metrics.value("wow.groups") == stats.wow_groups
    assert metrics.value("rollbacks") == stats.rollbacks
    assert metrics.value("reads.completed") == stats.reads_completed
    assert metrics.value("reads.forwarded") == stats.forwarded_reads
    assert metrics.value("reads.delayed_by_write") == stats.reads_delayed_by_write
    # MemoryStats counts a write when it is accepted (submit time); the
    # registry's writes.completed counts actual completions, so it can
    # only lag by the writes still queued or in flight at sim end.
    assert metrics.value("requests.write.enqueued") == stats.writes_completed
    assert 0 < metrics.value("writes.completed") <= stats.writes_completed
    assert metrics.value("drain.entries") == stats.drain_entries

    # The DRAM tier's five counters, from a run with the tier built.
    telemetry = Telemetry.disabled()
    params = SimulationParams(
        target_requests=200, n_cores=2, seed=1, front_end=make_front_end("dram")
    )
    tier = simulate(make_system("rwow-rde"), "canneal", params, telemetry)
    scoreboard, metrics = tier.frontend, telemetry.metrics
    assert scoreboard["fills"] > 0
    assert metrics.value("frontend.hits") == (
        scoreboard["read_hits"] + scoreboard["write_hits"]
    )
    assert metrics.value("frontend.misses") == (
        scoreboard["read_misses"] + scoreboard["write_misses"]
    )
    assert metrics.value("frontend.mshr_coalesced") == scoreboard["coalesced"]
    assert metrics.value("frontend.fills") == scoreboard["fills"]
    assert metrics.value("frontend.write_backs") == scoreboard["write_backs"]


def test_decline_reasons_partition_attempts():
    metrics = _traced_run()["telemetry"].metrics
    attempts = metrics.value("row.attempts")
    windows = metrics.value("row.windows")
    declined = sum(
        metrics.value(name)
        for name in metrics.names()
        if name.startswith("row.declined.")
    )
    assert attempts > 0
    assert windows + declined == attempts


def test_tracing_does_not_change_results():
    traced = _traced_run()["result"]
    params = SimulationParams(target_requests=200, n_cores=8, seed=1)
    plain = simulate(make_system("rwow-rde"), "canneal", params)
    assert plain.ipc == traced.ipc
    assert plain.memory.row_reads == traced.memory.row_reads
    assert plain.memory.wow_member_writes == traced.memory.wow_member_writes
    assert plain.sim_ticks == traced.sim_ticks
