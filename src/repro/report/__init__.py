"""Reporting: ASCII tables/plots and the experiment registry."""

from repro.report.base import SCHEMA_VERSION, MappingReport, Report
from repro.report.experiments import Experiment, all_experiments, banner, get_experiment
from repro.report.figures import ascii_plot, to_csv
from repro.report.tables import format_kv, format_table

__all__ = [
    "Experiment",
    "MappingReport",
    "Report",
    "SCHEMA_VERSION",
    "all_experiments",
    "ascii_plot",
    "banner",
    "format_kv",
    "format_table",
    "get_experiment",
    "to_csv",
]
