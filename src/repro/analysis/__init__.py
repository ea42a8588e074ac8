"""Analysis and reporting: load balance, paper-style tables."""

from repro.analysis.loadbalance import (
    LoadBalanceReport,
    analyze_run,
    skew_statistics,
)
from repro.analysis.report import (
    ascii_bar_chart,
    fig2_heatmap,
    format_table,
    table1,
    table2,
    table3,
)

__all__ = [
    "LoadBalanceReport",
    "analyze_run",
    "ascii_bar_chart",
    "fig2_heatmap",
    "format_table",
    "skew_statistics",
    "table1",
    "table2",
    "table3",
]
