"""The per-query trace loop and the per-run join gather loop: the specs of
the corpus engine (:func:`repro.workloads.generate_trace`) and of the
executor's vectorized gather."""

import numpy as np

from repro import perfstats
from repro.executor import execute_plan, simulate_runtime_ms
from repro.optimizer import PlannerConfig, plan_query
from repro.workloads import TIMEOUT_MS, Trace, TraceRecord
from repro.workloads.trace import _random_index_action


def generate_trace_reference(db, queries, planner_config=None, hardware=None,
                             seed=0, timeout_ms=TIMEOUT_MS, index_mode=False):
    """Original per-query plan→execute→simulate loop.

    The corpus engine's :func:`~repro.workloads.generate_trace` must
    reproduce this bit-for-bit: same records, same runtimes, same timeout
    exclusions, same index churn (the RNG stream is consumed identically).
    """
    planner_config = planner_config or PlannerConfig()
    rng = np.random.default_rng(seed)
    created_indexes = []
    trace = Trace(db_name=db.name)
    perfstats.increment("trace.generate.reference")
    try:
        for i, query in enumerate(queries):
            if index_mode and i % 5 == 0:
                _random_index_action(db, rng, created_indexes)
            plan = plan_query(db, query, config=planner_config)
            execute_plan(db, plan)
            runtime = simulate_runtime_ms(db, plan, hardware=hardware, seed=seed)
            if runtime > timeout_ms:
                trace.excluded_timeouts += 1
                continue
            trace.records.append(TraceRecord(
                query=query, plan=plan, runtime_ms=runtime, db_name=db.name,
                indexes=tuple(sorted(db.indexes))))
    finally:
        if index_mode:
            for key in created_indexes:
                db.drop_index(*key)
    return trace


def _gather_parent_positions_reference(order, lo, hi, counts):
    """Original per-run gather loop (the spec of
    ``repro.executor.executor._run_positions``)."""
    total = int(counts.sum())
    parent_positions = np.empty(total, dtype=np.int64)
    cursor = 0
    nonzero = np.nonzero(counts)[0]
    for i in nonzero:
        n = counts[i]
        parent_positions[cursor:cursor + n] = order[lo[i]:hi[i]]
        cursor += n
    return parent_positions
