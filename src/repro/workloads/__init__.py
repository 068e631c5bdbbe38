"""Workload generation and executed traces (the benchmark's Section 6.3)."""

from .generator import WorkloadConfig, WorkloadGenerator
from .trace import Trace, TraceRecord, generate_trace, TIMEOUT_MS
from .imdb_workloads import IMDB_WORKLOADS, imdb_workload, imdb_workload_names

__all__ = [
    "WorkloadConfig", "WorkloadGenerator",
    "Trace", "TraceRecord", "generate_trace", "TIMEOUT_MS",
    "IMDB_WORKLOADS", "imdb_workload", "imdb_workload_names",
]
