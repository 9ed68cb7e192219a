"""Unit tests for IRLP windows and statistics containers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.metrics import (
    IrlpRecorder,
    MAX_IRLP,
    MemoryStats,
    SimulationResult,
    WriteWindow,
    capped_busy_ticks,
    clipped_activity,
    merge_intervals,
)


# ----------------------------------------------------------------------
# merge_intervals
# ----------------------------------------------------------------------
def test_merge_empty():
    assert merge_intervals([]) == []


def test_merge_disjoint_sorted():
    assert merge_intervals([(0, 5), (10, 15)]) == [(0, 5), (10, 15)]


def test_merge_overlapping():
    assert merge_intervals([(0, 10), (5, 20)]) == [(0, 20)]


def test_merge_touching_intervals_join():
    assert merge_intervals([(0, 10), (10, 20)]) == [(0, 20)]


def test_merge_unsorted_input():
    assert merge_intervals([(10, 12), (0, 3), (2, 5)]) == [(0, 5), (10, 12)]


def test_merge_nested():
    assert merge_intervals([(0, 100), (10, 20), (30, 40)]) == [(0, 100)]


# ----------------------------------------------------------------------
# WriteWindow
# ----------------------------------------------------------------------
def test_single_chip_full_window_irlp_is_one():
    window = WriteWindow(0, 100)
    window.add_activity(3, 0, 100)
    assert window.irlp() == pytest.approx(1.0)


def test_irlp_counts_parallel_chips():
    window = WriteWindow(0, 100)
    for chip in range(4):
        window.add_activity(chip, 0, 100)
    assert window.irlp() == pytest.approx(4.0)


def test_irlp_partial_occupancy():
    window = WriteWindow(0, 100)
    window.add_activity(0, 0, 100)
    window.add_activity(1, 0, 50)
    assert window.irlp() == pytest.approx(1.5)


def test_irlp_clips_activity_to_window():
    window = WriteWindow(50, 150)
    window.add_activity(0, 0, 200)  # extends both sides
    assert window.irlp() == pytest.approx(1.0)


def test_irlp_same_chip_overlaps_not_double_counted():
    window = WriteWindow(0, 100)
    window.add_activity(0, 0, 80)
    window.add_activity(0, 40, 100)
    assert window.irlp() == pytest.approx(1.0)


def test_irlp_instantaneous_count_capped():
    window = WriteWindow(0, 100)
    for chip in range(MAX_IRLP + 3):
        window.add_activity(chip, 0, 100)
    assert window.irlp() == pytest.approx(float(MAX_IRLP))


def test_empty_window_irlp_zero():
    assert WriteWindow(10, 10).irlp() == 0.0


def test_zero_length_activity_ignored():
    window = WriteWindow(0, 100)
    window.add_activity(0, 50, 50)
    assert window.irlp() == 0.0


def test_absorb_initialises_placeholder():
    window = WriteWindow(-1, -1)
    window.absorb(100, 200)
    assert (window.start, window.end) == (100, 200)
    window.absorb(50, 150)
    assert (window.start, window.end) == (50, 200)


def test_extend_grows_end_only():
    window = WriteWindow(10, 20)
    window.extend(15)
    assert window.end == 20
    window.extend(40)
    assert window.end == 40


def test_service_end_tracks_maximum():
    window = WriteWindow(0, 100)
    window.note_service_end(120)
    window.note_service_end(110)
    assert window.service_end == 120
    assert window.busy_end == 120


def test_busy_end_defaults_to_window_end():
    assert WriteWindow(0, 100).busy_end == 100


#: A narrow tick range so intervals overlap often and run out of the span.
_ticks = st.integers(min_value=-5, max_value=45)
#: Any interval (empty and inverted ones included), or one spanning the
#: middle of the range so that nine or ten chips are busy at once.
_interval = st.one_of(
    st.tuples(_ticks, _ticks),
    st.tuples(
        st.integers(min_value=-5, max_value=20),
        st.integers(min_value=20, max_value=45),
    ),
)


@given(
    span=st.one_of(
        st.tuples(_ticks, _ticks),
        st.just((-1, -1)),  # placeholder, defined by the first absorb
    ),
    absorbs=st.lists(_interval, max_size=3),
    #: Intervals of chip i at index i: 1-10 distinct chips, each possibly
    #: busy more than once.
    chip_intervals=st.lists(
        st.lists(_interval, min_size=1, max_size=3), min_size=1, max_size=10
    ),
)
@settings(max_examples=400)
def test_irlp_fast_path_equals_capped_sweep(span, absorbs, chip_intervals):
    """Windows over more than MAX_IRLP chips take the capped sweep; the
    rest must give the sweep's value to the last bit."""
    window = WriteWindow(*span)
    for chip, intervals in enumerate(chip_intervals):
        for start, end in intervals:
            window.add_activity(chip, start, end)
    for start, end in absorbs:
        window.absorb(start, end)
    duration = window.end - window.start
    if duration <= 0:
        assert window.irlp() == 0.0
        return
    per_chip = clipped_activity(window.activities, window.start, window.end)
    swept = capped_busy_ticks(per_chip, window.start, window.end)
    assert window.irlp() == swept / duration
    assert 0.0 <= window.irlp() <= MAX_IRLP


def test_capped_sweep_binds_above_max_irlp_chips():
    per_chip = {chip: [(0, 10)] for chip in range(MAX_IRLP + 2)}
    assert capped_busy_ticks(per_chip, 0, 10) == MAX_IRLP * 10


# ----------------------------------------------------------------------
# IrlpRecorder
# ----------------------------------------------------------------------
def test_recorder_average_over_windows():
    recorder = IrlpRecorder()
    w1 = recorder.open_window(0, 100)
    w1.add_activity(0, 0, 100)
    w2 = recorder.open_window(200, 300)
    w2.add_activity(0, 200, 300)
    w2.add_activity(1, 200, 300)
    w2.add_activity(2, 200, 300)
    assert recorder.average() == pytest.approx(2.0)
    assert recorder.maximum() == pytest.approx(3.0)


def test_recorder_empty_average_is_zero():
    recorder = IrlpRecorder()
    assert recorder.average() == 0.0
    assert recorder.maximum() == 0.0


def test_recorder_retires_sealed_windows_in_creation_order():
    recorder = IrlpRecorder()
    first = recorder.open_window(0, 100)
    first.add_activity(0, 0, 100)
    second = recorder.open_window(50, 150)
    second.add_activity(1, 50, 150)
    second.add_activity(2, 50, 150)
    first.closed = second.closed = True
    first.held = True  # a deferred step still grows it
    recorder.retire()
    assert recorder.live_count == 2  # the sealed second waits behind it
    first.extend(200)
    first.held = False
    recorder.retire()
    assert recorder.live_count == 0
    assert recorder.values() == [0.5, 2.0]
    assert recorder.drain_busy_ticks() == 200
    assert list(recorder.recent) == [first, second]


def test_recorder_recent_keeps_last_windows_opened():
    recorder = IrlpRecorder()
    windows = [recorder.open_window(i, i + 1) for i in range(6)]
    assert list(recorder.recent) == windows[-4:]


def test_drain_busy_ticks_unions_service_spans():
    recorder = IrlpRecorder()
    w1 = recorder.open_window(0, 100)
    w1.note_service_end(150)
    recorder.open_window(120, 200)  # overlaps w1's tail
    assert recorder.drain_busy_ticks() == 200


# ----------------------------------------------------------------------
# MemoryStats
# ----------------------------------------------------------------------
def test_record_read_accumulates_latency():
    stats = MemoryStats()
    stats.record_read(100, delayed=False)
    stats.record_read(300, delayed=True)
    assert stats.reads_completed == 2
    assert stats.mean_read_latency_ticks == pytest.approx(200.0)
    assert stats.read_latency_max == 300
    assert stats.delayed_read_fraction == pytest.approx(0.5)


def test_record_write_histogram_and_silents():
    stats = MemoryStats()
    stats.record_write(0)
    stats.record_write(3)
    stats.record_write(3)
    assert stats.writes_completed == 3
    assert stats.silent_writes == 1
    assert stats.dirty_word_histogram[3] == 2
    assert stats.mean_dirty_words == pytest.approx(2.0)


def test_merge_combines_counters():
    a = MemoryStats()
    b = MemoryStats()
    a.record_read(100, True)
    b.record_read(200, False)
    b.record_write(4)
    b.row_reads = 7
    a.merge(b)
    assert a.reads_completed == 2
    assert a.writes_completed == 1
    assert a.row_reads == 7
    assert a.reads_delayed_by_write == 1
    assert a.dirty_word_histogram[4] == 1


def test_empty_stats_ratios_are_zero():
    stats = MemoryStats()
    assert stats.mean_read_latency_ticks == 0.0
    assert stats.delayed_read_fraction == 0.0
    assert stats.mean_dirty_words == 0.0


# ----------------------------------------------------------------------
# SimulationResult
# ----------------------------------------------------------------------
def _result(**overrides):
    base = dict(
        system_name="baseline",
        workload_name="test",
        sim_ticks=1000,
        instructions=10_000,
        cpu_cycles=5_000,
        memory=MemoryStats(),
        irlp_average=2.4,
        irlp_max=7.0,
        write_service_busy_ticks=10_000,
    )
    base.update(overrides)
    return SimulationResult(**base)


def test_ipc_is_instructions_over_cycles():
    assert _result().ipc == pytest.approx(2.0)


def test_ipc_zero_cycles():
    assert _result(cpu_cycles=0).ipc == 0.0


def test_write_throughput_per_microsecond():
    stats = MemoryStats()
    for _ in range(10):
        stats.record_write(2)
    # 10 writes over 10_000 ticks = 1000 ns = 1 us
    result = _result(memory=stats, write_service_busy_ticks=10_000)
    assert result.write_throughput == pytest.approx(10.0)


def test_write_throughput_zero_busy_time():
    assert _result(write_service_busy_ticks=0).write_throughput == 0.0
