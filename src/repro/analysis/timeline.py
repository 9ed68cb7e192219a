"""Chip-occupancy timeline rendering (Figure-5-style ASCII grids).

The tracer is the only record of chip occupancy: with tracing on, every
rank reservation emits one ``chip.reserve`` :class:`~repro.telemetry.TraceEvent`
per reserved chip (``kind``, ``[start, end)``, ``req_id`` and a ``reason``
such as ``code-update``).  This module turns that stream — recorded in
memory with :meth:`repro.telemetry.Telemetry.recording` and a sink, or
loaded back from a JSONL file — into a one-row-per-chip,
one-column-per-time-slice text grid, the visual the paper uses to
explain RoW and WoW (Figure 5).  Every other event type is ignored, and
the optional ``channel``/``rank`` filters pick one rank's chips.
"""

from __future__ import annotations

import html
import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.sim.engine import ticks_to_ns
from repro.telemetry import EventType, TraceEvent

#: Mark precedence when several events cover the same cell (write work is
#: the most interesting, idle the least).
_PRECEDENCE = {"W": 3, "c": 2, "R": 1, ".": 0}


def event_mark(event: TraceEvent) -> str:
    """Grid mark for one reservation: W=data write, c=code update, R=read."""
    if event.reason == "code-update":
        return "c"
    if event.kind == "write":
        return "W"
    return "R"


def _reservations(
    events: Iterable[TraceEvent],
    channel: Optional[int],
    rank: Optional[int],
) -> List[TraceEvent]:
    """The ``chip.reserve`` events with a known, non-empty span.

    ``channel``/``rank`` filter to one resource domain (``None`` keeps
    all, which only makes sense for single-rank harness runs).
    """
    return [
        e for e in events
        if e.type is EventType.CHIP_RESERVE
        and (channel is None or e.channel == channel)
        and (rank is None or e.rank == rank)
        and e.start >= 0 and e.end > e.start
    ]


def render_occupancy(
    events: Iterable[TraceEvent],
    n_chips: int,
    title: str = "",
    tick_step: int = 250,
    chip_names: Optional[Sequence[str]] = None,
    channel: Optional[int] = None,
    rank: Optional[int] = None,
) -> str:
    """Render traced reservations as an ASCII chip-by-time grid.

    ``tick_step`` is the column width in engine ticks (default 25 ns).
    Reservations without a known start (``start < 0``) are skipped.
    """
    if tick_step < 1:
        raise ValueError("tick_step must be >= 1")
    usable = _reservations(events, channel, rank)
    header: List[str] = []
    if title:
        header.append(title)
    if not usable:
        header.append("(no occupancy recorded)")
        return "\n".join(header)

    t0 = min(e.start for e in usable)
    t1 = max(e.end for e in usable)
    columns = max(1, (t1 - t0 + tick_step - 1) // tick_step)
    if chip_names is None:
        chip_names = _default_chip_names(n_chips)
    width = max(len(name) for name in chip_names)

    header.append(
        f"(one column = {ticks_to_ns(tick_step):.0f} ns; "
        "W=data write, c=ECC/PCC update, R=read, .=idle)"
    )
    lines = header
    for chip in range(n_chips):
        row = []
        for col in range(columns):
            window_start = t0 + col * tick_step
            window_end = window_start + tick_step
            mark = "."
            for event in usable:
                if event.chip != chip:
                    continue
                if event.start < window_end and event.end > window_start:
                    candidate = event_mark(event)
                    if _PRECEDENCE[candidate] > _PRECEDENCE[mark]:
                        mark = candidate
            row.append(mark)
        lines.append(f"{chip_names[chip].ljust(width)} |{''.join(row)}|")
    return "\n".join(lines)


def _default_chip_names(n_chips: int) -> List[str]:
    """chip 0..N-3, then ECC and PCC for a 10-chip PCMap rank."""
    if n_chips >= 10:
        names = [f"chip {c}" for c in range(n_chips - 2)]
        names += ["ECC", "PCC"]
        return names
    if n_chips == 9:
        return [f"chip {c}" for c in range(8)] + ["ECC"]
    return [f"chip {c}" for c in range(n_chips)]


def occupancy_summary(
    events: Iterable[TraceEvent],
    channel: Optional[int] = None,
    rank: Optional[int] = None,
) -> dict:
    """Aggregate busy ticks per chip and per mark kind (tests, reports)."""
    per_chip: dict = {}
    per_kind = {"W": 0, "c": 0, "R": 0}
    for event in _reservations(events, channel, rank):
        duration = event.end - event.start
        per_chip[event.chip] = per_chip.get(event.chip, 0) + duration
        per_kind[event_mark(event)] += duration
    return {"per_chip": per_chip, "per_kind": per_kind}


# ----------------------------------------------------------------------
# Inline-SVG chart primitives (self-contained HTML reports)
# ----------------------------------------------------------------------
# Rendering follows the repo's chart conventions: 2px line marks,
# top-rounded bars anchored to the baseline with a 2px surface gap
# between adjacent bars, hairline grid, muted axis text, and native
# ``<title>`` hover tooltips on every mark (hit targets wider than the
# mark itself).  Colors arrive as CSS custom-property references
# (``var(--series-1)``) so the embedding page controls light/dark theming.

@dataclass
class LineSeries:
    """One line on a time-series panel: label, color and (x, y) points."""

    label: str
    color: str
    points: List[Tuple[float, float]]


@dataclass
class BarSeries:
    """One bar per group, for grouped-bar charts."""

    label: str
    color: str
    values: List[float]


def _esc(text: object) -> str:
    return html.escape(str(text), quote=True)


def _nice_upper(value: float) -> float:
    """Smallest 1/2/2.5/5 x 10^k at or above ``value`` (axis headroom)."""
    if value <= 0:
        return 1.0
    exponent = math.floor(math.log10(value))
    base = 10.0 ** exponent
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if value <= mult * base + 1e-12:
            return mult * base
    return 10.0 * base


def _fmt_tick(value: float) -> str:
    if value >= 1000:
        return f"{value:,.0f}"
    if value == int(value):
        return str(int(value))
    return f"{value:g}"


def _grid_and_axes(
    x0: float, y0: float, x1: float, y1: float, upper: float, y_label: str,
    divisions: int = 4,
) -> List[str]:
    """Horizontal gridlines + y tick labels + baseline, as SVG fragments."""
    parts: List[str] = []
    for i in range(divisions + 1):
        value = upper * i / divisions
        y = y1 - (y1 - y0) * i / divisions
        if i > 0:
            parts.append(
                f'<line class="grid" x1="{x0}" y1="{y:.1f}" '
                f'x2="{x1}" y2="{y:.1f}"/>'
            )
        parts.append(
            f'<text class="tick" x="{x0 - 6}" y="{y + 3.5:.1f}" '
            f'text-anchor="end">{_esc(_fmt_tick(value))}</text>'
        )
    parts.append(
        f'<line class="axis" x1="{x0}" y1="{y1}" x2="{x1}" y2="{y1}"/>'
    )
    if y_label:
        parts.append(
            f'<text class="tick" x="{x0 - 6}" y="{y0 - 6}" '
            f'text-anchor="end">{_esc(y_label)}</text>'
        )
    return parts


def svg_line_chart(
    series: Sequence[LineSeries],
    width: int = 640,
    height: int = 220,
    y_label: str = "",
    x_label: str = "",
    x_ticks: int = 5,
) -> str:
    """Multi-series line chart; each series brings its own x values.

    Every vertex carries an oversized invisible hover target with a
    native tooltip, so the panel is inspectable without any scripting.
    """
    pad_l, pad_r, pad_t, pad_b = 56, 12, 16, 34
    x0, y0, x1, y1 = pad_l, pad_t, width - pad_r, height - pad_b
    xs = [x for s in series for x, _ in s.points]
    ys = [y for s in series for _, y in s.points]
    if not xs:
        return (
            f'<svg class="chart" viewBox="0 0 {width} {height}" '
            f'role="img"><text class="tick" x="{width / 2}" '
            f'y="{height / 2}" text-anchor="middle">(no samples)</text></svg>'
        )
    x_min, x_max = min(xs), max(xs)
    x_span = (x_max - x_min) or 1.0
    upper = _nice_upper(max(ys))

    def sx(x: float) -> float:
        return x0 + (x1 - x0) * (x - x_min) / x_span

    def sy(y: float) -> float:
        return y1 - (y1 - y0) * (y / upper)

    parts = [
        f'<svg class="chart" viewBox="0 0 {width} {height}" role="img">',
    ]
    parts += _grid_and_axes(x0, y0, x1, y1, upper, y_label)
    for i in range(x_ticks + 1):
        x_val = x_min + x_span * i / x_ticks
        parts.append(
            f'<text class="tick" x="{sx(x_val):.1f}" y="{y1 + 16}" '
            f'text-anchor="middle">{_esc(_fmt_tick(x_val))}</text>'
        )
    if x_label:
        parts.append(
            f'<text class="tick" x="{(x0 + x1) / 2:.1f}" y="{height - 4}" '
            f'text-anchor="middle">{_esc(x_label)}</text>'
        )
    for s in series:
        coords = " ".join(
            f"{sx(x):.1f},{sy(y):.1f}" for x, y in s.points
        )
        parts.append(
            f'<polyline fill="none" stroke="{s.color}" stroke-width="2" '
            f'stroke-linejoin="round" stroke-linecap="round" '
            f'points="{coords}"/>'
        )
    # Hover layer on top: invisible targets, native tooltips.
    for s in series:
        for x, y in s.points:
            parts.append(
                f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="7" '
                f'fill="transparent"><title>'
                f'{_esc(s.label)} @ {_esc(_fmt_tick(x))}: '
                f'{_esc(_fmt_tick(y))}</title></circle>'
            )
    parts.append("</svg>")
    return "".join(parts)


def _bar_path(x: float, y: float, w: float, h: float, r: float) -> str:
    """Bar with rounded *data end* only, anchored flat on the baseline."""
    r = min(r, w / 2, h)
    return (
        f"M{x:.1f},{y + h:.1f} v{-(h - r):.1f} "
        f"q0,{-r:.1f} {r:.1f},{-r:.1f} h{w - 2 * r:.1f} "
        f"q{r:.1f},0 {r:.1f},{r:.1f} v{h - r:.1f} z"
    )


def svg_grouped_bars(
    groups: Sequence[str],
    series: Sequence[BarSeries],
    width: int = 640,
    height: int = 240,
    y_label: str = "",
    label_series: Optional[str] = None,
) -> str:
    """Grouped vertical bars with a 2px surface gap between bars.

    ``label_series`` names at most one series to direct-label (value text
    above each of its bars); everything else stays tooltip-only.
    """
    pad_l, pad_r, pad_t, pad_b = 56, 12, 20, 40
    x0, y0, x1, y1 = pad_l, pad_t, width - pad_r, height - pad_b
    upper = _nice_upper(max(
        (v for s in series for v in s.values), default=1.0
    ))
    n_groups, n_series = len(groups), len(series)
    group_w = (x1 - x0) / max(1, n_groups)
    gap = 2.0
    bar_w = max(3.0, (group_w * 0.72 - gap * (n_series - 1)) / max(1, n_series))

    def sy(value: float) -> float:
        return y1 - (y1 - y0) * (value / upper)

    parts = [
        f'<svg class="chart" viewBox="0 0 {width} {height}" role="img">',
    ]
    parts += _grid_and_axes(x0, y0, x1, y1, upper, y_label)
    for g, group in enumerate(groups):
        cluster_w = bar_w * n_series + gap * (n_series - 1)
        left = x0 + group_w * g + (group_w - cluster_w) / 2
        for i, s in enumerate(series):
            value = s.values[g]
            bx = left + i * (bar_w + gap)
            by = sy(value)
            bar_h = y1 - by
            if bar_h > 0.5:
                parts.append(
                    f'<path d="{_bar_path(bx, by, bar_w, bar_h, 4)}" '
                    f'fill="{s.color}"/>'
                )
            # Hover target spans the full column height.
            parts.append(
                f'<rect x="{bx - 1:.1f}" y="{y0}" '
                f'width="{bar_w + 2:.1f}" height="{y1 - y0}" '
                f'fill="transparent"><title>'
                f'{_esc(group)} · {_esc(s.label)}: '
                f'{_esc(_fmt_tick(value))}</title></rect>'
            )
            if label_series is not None and s.label == label_series:
                parts.append(
                    f'<text class="direct" x="{bx + bar_w / 2:.1f}" '
                    f'y="{by - 4:.1f}" text-anchor="middle">'
                    f'{_esc(_fmt_tick(value))}</text>'
                )
        parts.append(
            f'<text class="tick" x="{x0 + group_w * (g + 0.5):.1f}" '
            f'y="{y1 + 16}" text-anchor="middle">{_esc(group)}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)
