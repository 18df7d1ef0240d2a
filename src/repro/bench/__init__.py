"""Benchmark harness: the paper's timing protocol and table rendering,
shared by the paper-table modules under ``benchmarks/``."""

from .harness import Measurement, best_of, measure, run_guarded
from .reporting import ReportLog, comparison_row, format_seconds, render_table

__all__ = [
    "Measurement",
    "measure",
    "run_guarded",
    "best_of",
    "render_table",
    "comparison_row",
    "format_seconds",
    "ReportLog",
]
