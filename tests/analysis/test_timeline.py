"""Unit tests for the occupancy timeline renderer."""

import pytest

from repro.analysis.timeline import (
    event_mark,
    occupancy_summary,
    render_occupancy,
)
from repro.telemetry import EventType, TraceEvent


def _event(kind="write", chip=0, start=0, end=100, reason="", channel=0,
           rank=0):
    return TraceEvent(
        type=EventType.CHIP_RESERVE, tick=start, channel=channel, rank=rank,
        chip=chip, bank=0, start=start, end=end, kind=kind, reason=reason,
    )


def _chip_row(text, name):
    return next(line for line in text.splitlines() if line.startswith(name))


def test_event_marks():
    assert event_mark(_event(kind="write")) == "W"
    assert event_mark(_event(kind="read")) == "R"
    assert event_mark(_event(kind="read", reason="verify")) == "R"
    assert event_mark(_event(kind="write", reason="code-update")) == "c"


def test_render_empty():
    text = render_occupancy([], n_chips=10, title="T")
    assert "T" in text and "no occupancy" in text


def test_render_marks_cells():
    events = [
        _event(kind="write", chip=3, start=0, end=500),
        _event(kind="read", chip=0, start=250, end=500),
    ]
    text = render_occupancy(events, n_chips=10, tick_step=250)
    lines = text.splitlines()
    chip0 = next(l for l in lines if l.startswith("chip 0"))
    chip3 = next(l for l in lines if l.startswith("chip 3"))
    assert chip0.endswith("|.R|")
    assert chip3.endswith("|WW|")


def test_render_precedence_write_over_read():
    events = [
        _event(kind="read", chip=0, start=0, end=250),
        _event(kind="write", chip=0, start=0, end=250),
    ]
    text = render_occupancy(events, n_chips=10, tick_step=250)
    chip0 = next(l for l in text.splitlines() if l.startswith("chip 0"))
    assert "W" in chip0


def _row_labels(text):
    return [
        line.split("|")[0].strip()
        for line in text.splitlines()
        if "|" in line
    ]


def test_render_names_ecc_pcc_for_ten_chips():
    labels = _row_labels(render_occupancy([_event()], n_chips=10))
    assert "ECC" in labels and "PCC" in labels


def test_render_nine_chip_rank():
    labels = _row_labels(render_occupancy([_event()], n_chips=9))
    assert "ECC" in labels and "PCC" not in labels


def test_render_skips_unknown_starts():
    text = render_occupancy([_event(start=-1)], n_chips=10)
    assert "no occupancy" in text


def test_tick_step_validated():
    with pytest.raises(ValueError):
        render_occupancy([_event()], n_chips=10, tick_step=0)


def test_occupancy_summary():
    events = [
        _event(kind="write", chip=1, start=0, end=100),
        _event(kind="read", chip=1, start=100, end=150),
        _event(kind="write", chip=2, start=0, end=50, reason="code-update"),
        # Not a reservation: the matching release is ignored.
        TraceEvent(type=EventType.CHIP_RELEASE, tick=100, chip=1, start=0,
                   end=100, kind="write"),
    ]
    summary = occupancy_summary(events)
    assert summary["per_chip"] == {1: 150, 2: 50}
    assert summary["per_kind"] == {"W": 100, "R": 50, "c": 50}


def test_render_filters_by_channel_and_rank():
    events = [
        _event(kind="write", chip=1, start=0, end=250, reason="code-update"),
        _event(kind="read", chip=3, start=0, end=250, channel=1),
        _event(kind="write", chip=5, start=0, end=250, rank=1),
        TraceEvent(type=EventType.REQUEST_ISSUE, tick=5, channel=0),
    ]
    text = render_occupancy(events, n_chips=10, channel=0, rank=0)
    assert _chip_row(text, "chip 1").endswith("|c|")
    assert _chip_row(text, "chip 3").endswith("|.|")
    assert _chip_row(text, "chip 5").endswith("|.|")
    everything = render_occupancy(events, n_chips=10)
    assert _chip_row(everything, "chip 3").endswith("|R|")
    assert _chip_row(everything, "chip 5").endswith("|W|")
    assert occupancy_summary(events, channel=1)["per_chip"] == {3: 250}
    assert "no occupancy" in render_occupancy(events, n_chips=10, rank=2)


def _traced_controller_write():
    """One write through a real rwow-rde controller with a recording tracer."""
    from repro.core.systems import make_system
    from repro.memory.memsys import make_controller
    from repro.memory.request import make_write
    from repro.sim.engine import Engine
    from repro.telemetry import ListSink, Telemetry

    engine = Engine()
    sink = ListSink()
    controller = make_controller(
        engine, make_system("rwow-rde"), telemetry=Telemetry.recording([sink])
    )
    controller.submit(make_write(1, 0, 0b11))
    engine.run(max_events=10_000)
    return controller, sink.events


def test_renderer_consumes_real_controller_log():
    """A real controller's trace renders W and c cells inside the grid."""
    controller, events = _traced_controller_write()
    text = render_occupancy(
        events, controller.geometry.chips_per_rank, channel=0, rank=0
    )
    rows = [line for line in text.splitlines() if "|" in line]
    assert any("W" in row.split("|")[1] for row in rows)
    # Rotation moves the code words between chips line by line, so look
    # for the code-update mark in any row's cells (the header says "c=").
    assert any("c" in row.split("|")[1] for row in rows)


def test_grid_renders_from_recorded_trace():
    """A real controller's trace: chip rows, code updates and req ids."""
    controller, events = _traced_controller_write()
    text = render_occupancy(events, controller.geometry.chips_per_rank)
    assert "W" in text and "c" in text
    reserves = [e for e in events if e.type is EventType.CHIP_RESERVE]
    assert {e.reason for e in reserves} == {"", "code-update"}
    assert {e.req_id for e in reserves} == {1}
