"""Workload traces: executed queries with plans, cardinalities and runtimes.

A trace is the unit of training data in the paper: for each query it stores
the physical plan (with the optimizer's estimates *and* the actual
cardinalities) plus the measured runtime.  Queries above the timeout are
excluded, as in Section 6.3 (30 s cap).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import perfstats
from ..executor import execute_trace, simulate_runtime_ms_batch
from ..optimizer import PlannerConfig, plan_query

__all__ = ["TraceRecord", "Trace", "generate_trace", "TIMEOUT_MS"]

TIMEOUT_MS = 30_000.0


@dataclass
class TraceRecord:
    """One executed query."""

    query: object
    plan: object              # PlanNode tree, est_* and true_rows annotated
    runtime_ms: float
    db_name: str
    indexes: tuple = ()       # physical design at execution time

    @property
    def n_joins(self):
        return self.query.n_joins


@dataclass
class Trace:
    """All executed queries of one workload on one database."""

    db_name: str
    records: list = field(default_factory=list)
    excluded_timeouts: int = 0

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return Trace(self.db_name, self.records[item], self.excluded_timeouts)
        return self.records[item]

    def runtimes(self):
        return np.array([r.runtime_ms for r in self.records])

    def subset(self, indices):
        return Trace(self.db_name, [self.records[i] for i in indices])

    def filter(self, keep):
        """Trace with only the records for which ``keep(record)`` is true."""
        return Trace(self.db_name, [r for r in self.records if keep(r)])

    def split(self, train_fraction=0.8, seed=0):
        """Shuffled (train, test) split."""
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(self.records))
        cut = int(len(order) * train_fraction)
        return self.subset(order[:cut]), self.subset(order[cut:])

    def sample(self, n, seed=0):
        rng = np.random.default_rng(seed)
        n = min(n, len(self.records))
        return self.subset(rng.choice(len(self.records), size=n, replace=False))

    def total_execution_hours(self):
        """Wall-clock hours the workload 'took' (Fig. 6 lower-right panel)."""
        return float(self.runtimes().sum() / 3.6e6)


def _random_index_action(db, rng, created, max_indexes=6):
    """Index-mode physical design churn: randomly create/drop indexes."""
    if created and rng.random() < 0.25:
        key = created.pop(int(rng.integers(len(created))))
        db.drop_index(*key)
        return
    if len(created) >= max_indexes:
        return
    candidates = []
    for fk in db.schema.foreign_keys:
        candidates.append((fk.child_table, fk.child_column))
    for table_name in db.schema.table_names:
        for col_name, col in db.table(table_name).columns.items():
            if col.dtype.is_numeric and col_name != "id":
                candidates.append((table_name, col_name))
    if not candidates:
        return
    key = candidates[int(rng.integers(len(candidates)))]
    if db.index_on(*key) is None:
        db.create_index(*key)
        created.append(key)


def generate_trace(db, queries, planner_config=None, hardware=None, seed=0,
                   timeout_ms=TIMEOUT_MS, index_mode=False):
    """Plan, execute and time every query; returns a :class:`Trace`.

    With ``index_mode=True`` random indexes are created/dropped throughout
    the run (the benchmark's index workload): successive queries observe
    different physical designs.  Any indexes created are removed afterwards.

    Execution and timing run through the stage-0 corpus engine: plans are
    planned sequentially (physical-design churn observed in order, exactly
    as the per-query loop), then the whole trace executes against one
    :class:`~repro.executor.TraceExecutionContext` (shared scan memos and
    join key indexes) and all latencies are simulated in one batch.  The
    resulting trace — records, runtimes, timeout exclusions — is
    bit-identical to the original per-query plan→execute→simulate loop, a
    test oracle (``tests/oracles/workloads.py``).
    """
    planner_config = planner_config or PlannerConfig()
    rng = np.random.default_rng(seed)
    created_indexes = []
    trace = Trace(db_name=db.name)
    plans, index_snapshots = [], []
    perfstats.increment("trace.generate.batched")
    try:
        for i, query in enumerate(queries):
            if index_mode and i % 5 == 0:
                _random_index_action(db, rng, created_indexes)
            plans.append(plan_query(db, query, config=planner_config))
            # The design each query executed under (execution itself never
            # changes it, so the snapshot at plan time is the one the
            # per-query loop records after execution).
            index_snapshots.append(tuple(sorted(db.indexes)))
        execute_trace(db, plans)
        runtimes = simulate_runtime_ms_batch(db, plans, hardware=hardware,
                                             seed=seed)
        for query, plan, runtime, snapshot in zip(queries, plans, runtimes,
                                                  index_snapshots):
            runtime = float(runtime)
            if runtime > timeout_ms:
                trace.excluded_timeouts += 1
                continue
            trace.records.append(TraceRecord(
                query=query, plan=plan, runtime_ms=runtime, db_name=db.name,
                indexes=snapshot))
    finally:
        if index_mode:
            for key in created_indexes:
                db.drop_index(*key)
    return trace
