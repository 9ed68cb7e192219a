"""Unit tests for the baseline memory controller."""

import pytest

from repro.memory.request import ServiceClass
from repro.memory.timing import DEFAULT_TIMING

from tests.conftest import harness


def test_single_read_completes(baseline):
    req = baseline.read(0)
    baseline.run()
    assert req.completion > 0
    # Cold read: array read + CAS + burst.
    expected_min = (
        DEFAULT_TIMING.array_read_ticks
        + DEFAULT_TIMING.cycles(DEFAULT_TIMING.tCL)
        + DEFAULT_TIMING.burst_ticks
    )
    assert req.latency >= expected_min


def test_row_hit_read_is_faster(baseline):
    # Same line twice: second read hits the open row.
    first = baseline.read(0)
    baseline.run()
    second = baseline.read(0)
    baseline.run()
    assert second.latency < first.latency
    assert second.latency >= (
        DEFAULT_TIMING.cycles(DEFAULT_TIMING.tCL) + DEFAULT_TIMING.burst_ticks
    )


def test_single_write_completes_with_write_latency(baseline):
    req = baseline.write(0, dirty_mask=0b1)
    baseline.run()
    assert req.completion > 0
    assert req.latency >= DEFAULT_TIMING.array_write_ticks


def test_silent_write_cheap(baseline):
    silent = baseline.write(0, dirty_mask=0)
    baseline.run()
    assert silent.service_class is ServiceClass.SILENT
    assert silent.latency < DEFAULT_TIMING.array_write_ticks


def test_read_priority_over_buffered_write(baseline):
    baseline.write(1, 0b1)
    read = baseline.read(2)
    baseline.run()
    # The read should not wait behind a full write drain: only one write
    # is buffered, well below the watermark, but it may have been issued
    # opportunistically before the read arrived.  The read still finishes
    # long before a serial write+read would suggest if writes had priority.
    assert read.completion > 0


def test_writes_buffered_until_watermark():
    h = harness("baseline")
    wq = h.controller.write_q
    # Fill to just below the high watermark: no drain mode.
    below = int(wq.capacity * 0.8)  # 25 entries: occupancy not > 0.8
    for i in range(below):
        h.write(i, 0b1)
    assert h.controller.stats.drain_entries == 0
    for i in range(100, 104):
        h.write(i, 0b1)
    assert h.controller.stats.drain_entries >= 1
    h.run()
    assert h.all_done()


def test_drain_delays_reads():
    h = harness("baseline")
    for i in range(30):
        h.write(i, 0xFF)
    read = h.read(1000)
    h.run()
    assert read.delayed_by_write
    assert h.controller.stats.reads_delayed_by_write >= 1


def test_baseline_irlp_equals_dirty_count(window_capture):
    h = harness("baseline")
    h.write(0, 0b111)  # 3 dirty words
    h.run()
    windows = [
        w for w in window_capture.of(h.controller.irlp) if w.duration > 0
    ]
    assert len(windows) == 1
    assert windows[0].irlp() == pytest.approx(3.0)


def test_baseline_writes_serialise():
    h = harness("baseline")
    w1 = h.write(0, 0b1)
    w2 = h.write(1, 0b10)  # different chip, but coarse writes block all
    h.run()
    assert w2.start_service >= w1.completion - DEFAULT_TIMING.burst_ticks


def test_stats_count_requests(baseline):
    baseline.read(0)
    baseline.read(1)
    baseline.write(2, 0b11)
    baseline.run()
    assert baseline.controller.stats.reads_completed == 2
    assert baseline.controller.stats.writes_completed == 1
    assert baseline.controller.stats.dirty_word_histogram[2] == 1


def test_queue_capacity_backpressure():
    h = harness("baseline")
    accepted = 0
    for i in range(20):
        try:
            h.read(i)
            accepted += 1
        except OverflowError:
            break
    # Reads issue immediately at tick 0, so a couple leave the queue
    # before it fills; acceptance stays near the configured capacity.
    assert accepted <= h.config.read_queue_capacity + 4
    assert not h.controller.can_accept(h.submitted[0].kind)


def test_controller_idle_after_drain(baseline):
    baseline.read(0)
    baseline.write(1, 0b1)
    baseline.run()
    assert baseline.controller.idle


def test_reads_to_different_banks_overlap():
    h = harness("baseline")
    # Lines in different banks: bank changes every lines_per_row lines.
    lines_per_row = h.config.geometry.lines_per_row
    r1 = h.read(0)
    r2 = h.read(lines_per_row)  # next bank
    h.run()
    # Bank-level parallelism: the two array reads overlap, so the second
    # finishes well before two serial reads would.
    serial = 2 * (r1.latency)
    assert r2.completion < serial


def test_reads_to_same_bank_serialise():
    h = harness("baseline")
    r1 = h.read(0)
    r2 = h.read(1)  # same bank (consecutive columns), different row? no: same row
    r3 = h.read(8 * h.config.geometry.lines_per_row * 123)  # other bank/row
    h.run()
    assert r1.completion > 0 and r2.completion > 0 and r3.completion > 0


def test_write_data_committed_in_functional_mode():
    h = harness("baseline", functional=True)
    from repro.memory.storage import MemoryStorage

    storage = MemoryStorage(keep_pcc=False)
    h.controller.storage = storage
    h.controller.detector.storage = storage
    line_index = 5
    address_line = (line_index * 64 * 4) // 64
    old = storage.read_line(address_line).words
    new = list(old)
    new[2] ^= 0xFFFF
    from repro.memory.request import make_write

    req = make_write(999, line_index * 64 * 4, 0, new_words=tuple(new))
    h.controller.submit(req)
    h.run()
    assert req.dirty_mask == 0b100  # essential-word detection narrowed it
    assert storage.read_line(address_line).words[2] == new[2]


def test_read_forwarded_from_write_queue():
    h = harness("baseline")
    w = h.write(5, 0b1)
    # Fill more writes so w sits buffered while we read it back.
    for i in range(10, 20):
        h.write(i, 0b1)
    r = h.read(5)
    h.run()
    assert h.controller.stats.forwarded_reads >= 1
    assert r.completion > 0


def test_forwarded_read_returns_merged_data():
    from repro.memory.request import make_read, make_write
    from repro.memory.storage import MemoryStorage

    h = harness("baseline", functional=True)
    storage = MemoryStorage(keep_pcc=False)
    h.controller.storage = storage
    h.controller.detector.storage = storage
    line_index = 3
    address = line_index * 64 * 4
    line_address = address // 64
    old = storage.read_line(line_address).words
    new = list(old)
    new[1] ^= 0xBEEF
    write = make_write(500, address, 0, new_words=tuple(new))
    # Pile writes ahead so `write` stays queued when the read arrives.
    for i in range(30, 50):
        h.write(i, 0xFF)
    h.controller.submit(write)
    read = make_read(501, address)
    h.controller.submit(read)
    h.submitted.extend([write, read])
    h.run()
    assert read.data_words is not None
    assert read.data_words[1] == new[1]


def test_row_buffer_hit_rate_tracked():
    h = harness("baseline")
    h.read(0)
    h.run()
    h.read(0)  # same line: open-row hit
    h.run()
    stats = h.controller.stats
    assert stats.row_buffer_misses >= 1
    assert stats.row_buffer_hits >= 1
    assert 0.0 < stats.row_buffer_hit_rate < 1.0
