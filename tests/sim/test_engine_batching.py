"""Engine heap compaction and the batched ``run_until_stop`` drain."""

import pytest

from repro.sim.engine import Engine


# ----------------------------------------------------------------------
# Heap compaction
# ----------------------------------------------------------------------
def test_compaction_fires_when_cancelled_majority_on_big_heap():
    engine = Engine()
    handles = [engine.schedule_at(t, lambda: None) for t in range(100)]
    assert len(engine._queue) == 100
    for handle in handles[:51]:
        handle.cancel()
    # 51 cancelled * 2 > 100: the heap was rebuilt without dead entries.
    assert len(engine._queue) == 49
    assert engine._cancelled == 0
    assert engine.pending() == 49


def test_small_heaps_are_never_compacted():
    engine = Engine()
    handles = [engine.schedule_at(t, lambda: None) for t in range(10)]
    for handle in handles[:9]:
        handle.cancel()
    # Below COMPACT_MIN_QUEUE the dead entries linger until popped.
    assert len(engine._queue) == 10
    assert engine.pending() == 1


def test_compaction_preserves_pop_order_and_counts():
    fired = []
    engine = Engine()
    handles = {}
    # Interleave cancellable and fast-path entries over shuffled ticks.
    ticks = [(t * 37) % 128 for t in range(128)]
    for t in ticks:
        handles[t] = engine.schedule_at(t, lambda t=t: fired.append(t))
        if t % 4 == 0:
            engine.call_at(t, fired.append, t + 1000)
    for t in ticks:
        if t % 3:
            handles[t].cancel()   # 85 of 160 entries: compaction triggers
    # Compaction fired mid-loop: dead entries were physically dropped
    # (only post-compaction cancels may linger, always a sub-majority).
    assert len(engine._queue) < 160
    assert engine._cancelled * 2 <= len(engine._queue)
    expected = []
    for t in sorted(ticks):
        if t % 3 == 0:
            expected.append(t)     # handle scheduled before call_at
        if t % 4 == 0:
            expected.append(t + 1000)
    assert engine.run() == len(expected)
    assert fired == expected
    assert engine.pending() == 0


def test_compaction_during_run_keeps_drain_loop_valid():
    """Cancelling from inside a callback can compact the heap mid-run;
    the in-place rebuild must keep the drain loop's alias valid."""
    fired = []
    engine = Engine()
    victims = [
        engine.schedule_at(100 + t, lambda t=t: fired.append(t))
        for t in range(100)
    ]

    def cull():
        for handle in victims[:80]:
            handle.cancel()

    engine.schedule_at(1, cull)
    engine.run()
    assert fired == list(range(80, 100))


# ----------------------------------------------------------------------
# run_until_stop
# ----------------------------------------------------------------------
def test_run_until_stop_drains_in_time_seq_order():
    fired = []
    engine = Engine()
    engine.call_at(5, fired.append, "a")
    engine.schedule_at(3, lambda: fired.append("b"))
    engine.call_at(3, fired.append, "c")
    engine.call_at(5, fired.append, "d")
    assert engine.run_until_stop() == 4
    assert fired == ["b", "c", "a", "d"]
    assert engine.now == 5


def test_stop_latch_halts_after_current_callback():
    fired = []
    engine = Engine()

    def stopper():
        fired.append("stop")
        engine.request_stop()

    engine.call_at(1, fired.append, "before")
    engine.call_at(2, stopper)
    engine.call_at(3, fired.append, "after")
    assert engine.run_until_stop() == 2
    assert fired == ["before", "stop"]
    # The latch was consumed on exit: the next drain runs normally.
    assert engine.run_until_stop() == 1
    assert fired == ["before", "stop", "after"]


def test_stop_latch_halts_same_tick_batch():
    """The inner same-tick loop must honour the latch too — a stop from
    the last core's finish hook lands mid-batch in real runs."""
    fired = []
    engine = Engine()
    engine.call_at(7, fired.append, 1)
    engine.call_at(7, lambda: (fired.append(2), engine.request_stop()))
    engine.call_at(7, fired.append, 3)
    assert engine.run_until_stop() == 2
    assert fired == [1, 2]
    assert engine.pending() == 1


def test_pre_latched_stop_returns_without_dispatch():
    engine = Engine()
    engine.call_at(1, lambda: None)
    engine.request_stop()
    assert engine.run_until_stop() == 0
    assert engine.pending() == 1
    assert engine.run_until_stop() == 1  # latch did not stick


def test_zero_delay_events_join_the_current_tick_batch():
    fired = []
    engine = Engine()

    def chain(n):
        fired.append(n)
        if n < 4:
            engine.call_after(0, chain, n + 1)

    engine.call_at(10, chain, 0)
    engine.call_at(11, fired.append, "next-tick")
    engine.run_until_stop()
    assert fired == [0, 1, 2, 3, 4, "next-tick"]


def test_cancelled_entries_skipped_in_both_loops():
    fired = []
    engine = Engine()
    dead_outer = engine.schedule_at(1, lambda: fired.append("dead1"))
    engine.call_at(2, fired.append, "live")
    dead_inner = engine.schedule_at(2, lambda: fired.append("dead2"))
    engine.call_at(2, fired.append, "live2")
    dead_outer.cancel()
    dead_inner.cancel()
    assert engine.run_until_stop() == 2
    assert fired == ["live", "live2"]
    assert engine.pending() == 0


def test_max_ticks_fires_offender_then_raises():
    fired = []
    engine = Engine()
    engine.call_at(5, fired.append, "in-budget")
    engine.call_at(50, fired.append, "offender")
    with pytest.raises(RuntimeError, match="exceeded 10 ticks"):
        engine.run_until_stop(max_ticks=10)
    # The event that crossed the budget still fired (matching the
    # simulator's historical stepped loop), then the drain raised.
    assert fired == ["in-budget", "offender"]
    assert engine._stop is False  # finally-block left the latch clean


def test_run_until_stop_matches_stepped_loop_event_count():
    def build(engine, log):
        for t in (3, 3, 7, 7, 7, 9):
            engine.call_at(t, log.append, t)

    stepped_log, batched_log = [], []
    stepped, batched = Engine(), Engine()
    build(stepped, stepped_log)
    build(batched, batched_log)
    while stepped.step():
        pass
    batched.run_until_stop()
    assert batched_log == stepped_log
    assert batched.events_dispatched == stepped.events_dispatched
    assert batched.now == stepped.now


def test_run_until_stop_boundary_hook_fires_once_per_crossing_tick():
    """The hook sees the first event of each tick at or past the boundary
    it last returned, exactly as a per-event check after stepping would."""

    def build(engine, log):
        for t in (0, 0, 3, 5, 5, 6, 12, 12, 13, 20):
            engine.call_at(t, log.append, t)
        handle = engine.schedule_at(15, lambda: log.append("dead"))
        handle.cancel()

    def hook_for(calls, cadence=5):
        def on_boundary(now):
            calls.append(now)
            return (now // cadence + 1) * cadence
        return on_boundary

    stepped_log, stepped_calls = [], []
    stepped = Engine()
    build(stepped, stepped_log)
    hook = hook_for(stepped_calls)
    boundary = 0
    while stepped.step():
        if stepped.now >= boundary:
            boundary = hook(stepped.now)

    batched_log, batched_calls = [], []
    batched = Engine()
    build(batched, batched_log)
    batched.run_until_stop(on_boundary=hook_for(batched_calls))
    assert batched_calls == stepped_calls == [0, 5, 12, 20]
    assert batched_log == stepped_log
    assert batched.events_dispatched == stepped.events_dispatched == 10
