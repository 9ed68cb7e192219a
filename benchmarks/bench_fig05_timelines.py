"""Figure 5 — RoW and WoW scheduling timelines (micro-scenarios).

Drives the two example scenarios of Figure 5 through a PCMap channel and
checks the qualitative schedule: (b) reads overlap a one-word write and
finish far earlier than the serialised baseline; (d) chip-disjoint writes
consolidate into one window instead of serialising.  Both scenarios run
with a recording tracer; each report carries the chip-by-time grid
rendered from the trace's ``chip.reserve`` events (the same grids
``examples/row_wow_timeline.py`` prints).

These are hand-built micro-scenarios driven straight into a controller
(not workload x system simulations), so they bypass the sweep runner and
its result cache by design.
"""

from repro.analysis.timeline import render_occupancy
from repro.core.systems import make_system
from repro.memory.memsys import make_controller
from repro.memory.request import ServiceClass, make_read, make_write
from repro.memory.timing import DEFAULT_TIMING
from repro.sim.engine import Engine
from repro.telemetry import EventType, ListSink, Telemetry

from benchmarks.common import write_report


def _stride(config):
    return 64 * config.geometry.n_channels


def _traced_controller(system_name):
    """Channel-0 controller whose tracer records into a list sink."""
    engine = Engine()
    config = make_system(system_name)
    sink = ListSink()
    controller = make_controller(
        engine, config, channel_id=0, telemetry=Telemetry.recording([sink])
    )
    return engine, config, controller, sink


def _reservations(sink):
    """Rank 0's traced chip reservations."""
    return [
        e for e in sink.events
        if e.type is EventType.CHIP_RESERVE and e.rank == 0
    ]


def _grid(events, controller, title):
    return render_occupancy(
        events, controller.geometry.chips_per_rank, title=title
    )


def _row_scenario():
    """Write A (word 3) + reads B, C served by reconstruction."""
    engine, config, controller, sink = _traced_controller("row-nr")
    stride = _stride(config)
    for i in range(27):  # push the queue over the drain watermark
        controller.submit(make_write(100 + i, (50 + i) * stride, 0b1000))
    write_a = make_write(1, 10 * stride, 0b1000)
    controller.submit(write_a)
    read_b = make_read(2, 20 * stride)
    read_c = make_read(3, 21 * stride)
    controller.submit(read_b)
    controller.submit(read_c)
    engine.run(max_events=200_000)
    return controller, write_a, read_b, read_c, _reservations(sink)


def _baseline_scenario():
    """The same requests on the baseline: reads wait out the drain."""
    engine = Engine()
    config = make_system("baseline")
    controller = make_controller(engine, config, channel_id=0)
    stride = _stride(config)
    for i in range(27):
        controller.submit(make_write(100 + i, (50 + i) * stride, 0b1000))
    controller.submit(make_write(1, 10 * stride, 0b1000))
    read_b = make_read(2, 20 * stride)
    read_c = make_read(3, 21 * stride)
    controller.submit(read_b)
    controller.submit(read_c)
    engine.run(max_events=200_000)
    return read_b, read_c


def _wow_scenario():
    """Writes A{2,5}, B{3,6}, C{4}: disjoint chips, one window."""
    engine, config, controller, sink = _traced_controller("wow-nr")
    stride = _stride(config)
    writes = {
        "A": make_write(1, 10 * stride, (1 << 2) | (1 << 5)),
        "B": make_write(2, 11 * stride, (1 << 3) | (1 << 6)),
        "C": make_write(3, 12 * stride, 1 << 4),
    }
    for i in range(25):
        controller.submit(make_write(200 + i, (100 + i) * stride, 0b1))
    for write in writes.values():
        controller.submit(write)
    engine.run(max_events=200_000)
    return controller, writes, _reservations(sink)


def test_fig05_row_timeline(benchmark):
    controller, write_a, read_b, read_c, reserved = benchmark.pedantic(
        _row_scenario, rounds=1, iterations=1
    )
    base_b, base_c = _baseline_scenario()
    horizon = max(read_b.completion, read_c.completion) + 2000

    lines = [
        "Figure 5(a)-(b): RoW vs baseline for write A + reads B, C",
        f"  baseline: read B latency {base_b.latency / 10:.0f} ns, "
        f"read C latency {base_c.latency / 10:.0f} ns",
        f"  RoW     : read B latency {read_b.latency / 10:.0f} ns "
        f"({read_b.service_class.value}), read C latency "
        f"{read_c.latency / 10:.0f} ns ({read_c.service_class.value})",
        f"  RoW reads served in parallel with writes: "
        f"{controller.stats.row_reads}",
        f"  engine events dispatched: {controller.engine.events_dispatched}",
        _grid(
            [e for e in reserved if e.end <= horizon],
            controller,
            "Figure 5(b) chip occupancy (rank 0, from the trace):",
        ),
    ]
    write_report("fig05_row_timeline", "\n".join(lines))

    assert controller.stats.row_reads >= 2
    assert read_b.service_class is ServiceClass.ROW_OVERLAP
    # The overlapped reads complete far faster than behind the baseline
    # drain (Figure 5(b) vs 5(a)).
    assert read_b.latency < base_b.latency / 2
    assert read_c.latency < base_c.latency / 2
    # Figure 5(b)'s point, read off the trace: while a data write holds
    # the written chip (word 3's, write A's), a read is reserved on
    # another chip at the same time.
    data_writes = [e for e in reserved if e.kind == "write" and not e.reason]
    written_chip = next(e.chip for e in data_writes if e.req_id == write_a.req_id)
    written = [e for e in data_writes if e.chip == written_chip]
    reads = [
        e for e in reserved
        if e.req_id in (read_b.req_id, read_c.req_id) and e.kind == "read"
    ]
    assert written and reads
    assert any(
        r.chip != w.chip and r.start < w.end and w.start < r.end
        for r in reads
        for w in written
    )


def test_fig05_wow_timeline(benchmark):
    controller, writes, reserved = benchmark.pedantic(
        _wow_scenario, rounds=1, iterations=1
    )
    spans = {
        label: (w.start_service, w.completion) for label, w in writes.items()
    }
    lines = ["Figure 5(c)-(d): WoW consolidation of writes A{2,5}, B{3,6}, C{4}"]
    for label, (start, end) in spans.items():
        lines.append(f"  write {label}: service [{start / 10:.0f}, {end / 10:.0f}] ns")
    lines.append(
        f"  groups formed: {controller.stats.wow_groups}, "
        f"members: {controller.stats.wow_member_writes}"
    )
    lines.append(
        f"  engine events dispatched: {controller.engine.events_dispatched}"
    )
    first = min(start for start, _end in spans.values()) - 1000
    last = max(end for _start, end in spans.values())
    lines.append(_grid(
        [e for e in reserved if first <= e.start <= last],
        controller,
        "Figure 5(d) chip occupancy (rank 0, from the trace):",
    ))
    write_report("fig05_wow_timeline", "\n".join(lines))

    assert controller.stats.wow_groups >= 1
    # Consolidation starts all three data phases together (Figure 5(d));
    # the ECC/PCC updates then serialise on the fixed code chips, which
    # is exactly the NR limitation the paper calls out.
    assert all(
        w.service_class is ServiceClass.WOW_MEMBER for w in writes.values()
    )
    starts = [s for s, _e in spans.values()]
    assert max(starts) - min(starts) < DEFAULT_TIMING.array_write_ticks
    overlap = any(
        a[0] < b[1] and b[0] < a[1]
        for la, a in spans.items()
        for lb, b in spans.items()
        if la != lb
    )
    assert overlap
