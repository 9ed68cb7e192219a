"""Result analysis and report formatting for the benchmark harness."""

from repro.analysis.htmlreport import (
    render_report,
    report_params,
    write_report,
)
from repro.analysis.timeline import (
    BarSeries,
    LineSeries,
    occupancy_summary,
    render_occupancy,
    svg_grouped_bars,
    svg_line_chart,
)
from repro.analysis.report import (
    FigureSeries,
    figure_report,
    format_table,
    percent,
    ratio,
    summarize_result,
)

__all__ = [
    "render_report",
    "report_params",
    "write_report",
    "BarSeries",
    "LineSeries",
    "svg_grouped_bars",
    "svg_line_chart",
    "occupancy_summary",
    "render_occupancy",
    "FigureSeries",
    "figure_report",
    "format_table",
    "percent",
    "ratio",
    "summarize_result",
]
