"""Observability: native performance counters -> measured-vs-predicted.

The counters themselves live in the dataflow layer
(:mod:`repro.dataflow.counters`, maintained natively by both schedulers
with no per-cycle callback); this package turns them into a
:class:`ProfileReport` — measured II per compute core cross-checked
against Eq. 4, steady-state throughput, fill/drain latency, bottleneck
attribution — and renders it as text, JSON, or a Chrome trace. Exposed
on the command line as ``repro profile``.
"""

from repro.profiling.chrome import chrome_trace, chrome_trace_json, write_chrome_trace
from repro.profiling.profiler import II_TOLERANCE, INTERVAL_TOLERANCE, core_ii_rows, profile_design
from repro.profiling.report import ProfileReport

__all__ = [
    "II_TOLERANCE",
    "INTERVAL_TOLERANCE",
    "ProfileReport",
    "chrome_trace",
    "chrome_trace_json",
    "core_ii_rows",
    "profile_design",
    "write_chrome_trace",
]
