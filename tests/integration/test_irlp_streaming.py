"""Streaming IRLP accounting: retired windows summarise like a full scan.

Each channel's recorder folds sealed write windows into compact columns
and drops them.  These runs capture every window opened, recompute the
whole-run summaries the way a scan over all windows does, and require the
streamed results to match exactly; they also bound how many windows a
recorder keeps alive.
"""

from typing import List

import pytest

from repro.core.fine import FineWriteEngine
from repro.core.systems import (
    COMPARATOR_SYSTEM_NAMES,
    SYSTEM_NAMES,
    make_front_end,
    make_system,
)
from repro.memory.controller import MemoryController
from repro.sim.metrics import RECENT_WINDOWS, WriteWindow, merge_intervals
from repro.sim.simulator import SimulationParams, SystemSimulator

from tests.conftest import harness


def _run(system_name, workload, requests, window_capture, **params):
    sim = SystemSimulator(
        make_system(system_name),
        workload,
        SimulationParams(
            target_requests=requests,
            seed=7,
            sample_every_ticks=20_000,
            **params,
        ),
    )
    result = sim.run()
    assert window_capture.windows, "the run opened no write windows"
    return sim, result


def _scan_values(controllers, window_capture) -> List[float]:
    return [
        window.irlp()
        for controller in controllers
        for window in window_capture.of(controller.irlp)
        if window.duration > 0
    ]


def _scan_busy_ticks(controllers, window_capture) -> int:
    busy = 0
    for controller in controllers:
        spans = [
            (window.start, window.busy_end)
            for window in window_capture.of(controller.irlp)
            if window.busy_end > window.start
        ]
        busy += sum(end - start for start, end in merge_intervals(spans))
    return busy


def _assert_streaming_matches_scan(sim, result, window_capture) -> None:
    """Recompute the summaries from every captured window, in order."""
    controllers = sim.memory.controllers
    values = _scan_values(controllers, window_capture)
    assert values
    assert result.irlp_average == sum(values) / len(values)
    assert result.irlp_max == max(values)
    assert result.write_service_busy_ticks == _scan_busy_ticks(
        controllers, window_capture
    )
    for controller in controllers:
        opened = window_capture.of(controller.irlp)
        assert list(controller.irlp.recent) == opened[-RECENT_WINDOWS:]


@pytest.mark.parametrize("system_name", SYSTEM_NAMES + COMPARATOR_SYSTEM_NAMES)
def test_streamed_irlp_equals_full_scan(system_name, window_capture):
    sim, result = _run(system_name, "canneal", 3000, window_capture)
    _assert_streaming_matches_scan(sim, result, window_capture)


def test_streamed_irlp_equals_full_scan_behind_dram_tier(window_capture):
    # A 1 MiB tier fills and writes dirty lines back to PCM at this scale;
    # the default 256 MB tier would send no write to the controllers.
    sim, result = _run(
        "rwow-rde",
        "kvstore",
        12_000,
        window_capture,
        front_end=make_front_end("dram", capacity_mb=1),
    )
    assert result.frontend["write_backs"] > 0
    _assert_streaming_matches_scan(sim, result, window_capture)


@pytest.mark.parametrize(
    "system_name, workload, requests",
    [("baseline", "freqmine", 3000), ("rwow-rde", "canneal", 6000)],
)
def test_recorder_retention_is_bounded(
    system_name, workload, requests, window_capture, monkeypatch
):
    """Live windows stay few while the run opens thousands."""
    most_live = 0
    prune = MemoryController._prune_windows

    def observed_prune(self):
        nonlocal most_live
        most_live = max(most_live, self.irlp.live_count)
        prune(self)
        most_live = max(most_live, self.irlp.live_count)

    monkeypatch.setattr(MemoryController, "_prune_windows", observed_prune)
    _sim, _result = _run(system_name, workload, requests, window_capture)
    assert len(window_capture.windows) > 1000
    assert 0 < most_live <= 2 * make_system(system_name).max_inflight_writes


def _row_drain(h) -> None:
    """Single-word writes past the watermark plus a read: RoW windows."""
    for i in range(28):
        h.write(i, 0b1)
    h.read(1000)


def test_window_closed_before_its_pcc_step_is_held(
    window_capture, monkeypatch
):
    """A RoW window can close at its data-step end before its deferred
    PCC step extends it; it must not retire until that step has run."""
    data_ends: List[int] = []
    issue_fine_write = FineWriteEngine.issue_fine_write

    def noting_issue(self, req, decoded, now, window, defer_pcc=False):
        span = issue_fine_write(self, req, decoded, now, window, defer_pcc)
        if defer_pcc:
            data_ends.append(span[1])
        return span

    monkeypatch.setattr(FineWriteEngine, "issue_fine_write", noting_issue)
    probe = harness("row-nr")
    _row_drain(probe)
    probe.run()
    assert data_ends

    # Same run, with a kick queued ahead of each deferred step: the kick
    # prunes (closes) the window at data_end, then the step extends it.
    extended_closed = 0
    extend = WriteWindow.extend

    def noting_extend(self, end):
        nonlocal extended_closed
        if self.closed and end > self.end:
            extended_closed += 1
        extend(self, end)

    monkeypatch.setattr(WriteWindow, "extend", noting_extend)
    h = harness("row-nr")
    before = len(window_capture.windows)
    for tick in data_ends:
        h.engine.schedule_at(tick, h.controller._kick)
    _row_drain(h)
    h.run()
    assert extended_closed > 0
    assert len(window_capture.windows) > before
    controllers = [h.controller]
    values = _scan_values(controllers, window_capture)
    assert h.controller.irlp.values() == values
    assert h.controller.irlp.drain_busy_ticks() == _scan_busy_ticks(
        controllers, window_capture
    )
