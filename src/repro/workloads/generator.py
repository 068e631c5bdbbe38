"""Workload generation (Section 6.3).

Three modes, mirroring the paper's benchmark generator:

* ``standard`` — Select-Project-Aggregate-Join queries with conjunctive
  predicates on numeric and categorical columns (Kipf-et-al style),
* ``complex`` — adds disjunctions, string LIKE patterns, IS (NOT) NULL and
  IN operators (JOB-level complexity),
* ``index`` — standard queries; the trace generator creates random indexes
  while executing the workload (varying physical designs).

Literals are sampled from the actual data so selectivities span the whole
range, which is what makes cardinality estimation non-trivial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sql import (AggregateSpec, Comparison, JoinEdge, PredOp, Query,
                   conjunction, disjunction)
from ..storage import DataType

__all__ = ["WorkloadConfig", "WorkloadGenerator"]

MODES = ("standard", "complex", "index")


@dataclass(frozen=True)
class WorkloadConfig:
    """Knobs of the workload generator."""

    mode: str = "standard"
    min_joins: int = 0
    max_joins: int = 4
    filter_table_prob: float = 0.75
    max_filters_per_table: int = 3
    extra_agg_prob: float = 0.5
    group_by_prob: float = 0.12
    order_by_prob: float = 0.08
    disjunction_prob: float = 0.25    # complex mode only
    string_pred_prob: float = 0.35    # complex mode only
    null_pred_prob: float = 0.15      # complex mode only
    in_pred_prob: float = 0.25        # complex mode only

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown workload mode {self.mode!r}")
        if self.min_joins > self.max_joins:
            raise ValueError("min_joins must be <= max_joins")


class WorkloadGenerator:
    """Generates random logical queries against one database."""

    def __init__(self, db, config=None, seed=0):
        self.db = db
        self.config = config or WorkloadConfig()
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # Literal sampling
    # ------------------------------------------------------------------
    def _sample_value(self, table, column):
        col = self.db.column(table, column)
        valid = col.non_null()
        if valid.size == 0:
            return None
        value = valid[self._rng.integers(valid.size)]
        if col.dictionary is not None:
            return col.dictionary[int(value)]
        return float(value)

    def _numeric_predicate(self, table, column):
        value = self._sample_value(table, column)
        if value is None:
            return None
        op = PredOp(self._rng.choice(["=", "<", "<=", ">", ">="]))
        return Comparison(table, column, op, value)

    def _categorical_predicate(self, table, column):
        value = self._sample_value(table, column)
        if value is None:
            return None
        return Comparison(table, column, PredOp.EQ, value)

    def _in_predicate(self, table, column):
        col = self.db.column(table, column)
        n_values = int(self._rng.integers(2, 9))
        values = [self._sample_value(table, column) for _ in range(n_values)]
        values = sorted({v for v in values if v is not None},
                        key=lambda v: str(v))
        if len(values) < 2:
            return None
        if col.dictionary is None:
            values = [float(v) for v in values]
        return Comparison(table, column, PredOp.IN, values)

    def _like_predicate(self, table, column):
        value = self._sample_value(table, column)
        if not isinstance(value, str) or len(value) < 2:
            return None
        # Build a pattern from a random substring of a real value.
        start = int(self._rng.integers(0, max(len(value) - 1, 1)))
        length = int(self._rng.integers(1, min(4, len(value) - start) + 1))
        fragment = value[start:start + length]
        style = self._rng.random()
        if style < 0.4:
            pattern = f"%{fragment}%"
        elif style < 0.7:
            pattern = f"{value[:1]}%{fragment}%"
        else:
            pattern = f"%{fragment}"
        op = PredOp.LIKE if self._rng.random() < 0.8 else PredOp.NOT_LIKE
        return Comparison(table, column, op, pattern)

    def _null_predicate(self, table, column):
        op = PredOp.IS_NULL if self._rng.random() < 0.5 else PredOp.IS_NOT_NULL
        return Comparison(table, column, op)

    # ------------------------------------------------------------------
    # Predicate assembly
    # ------------------------------------------------------------------
    def _payload_columns(self, table):
        cols = []
        for name, col in self.db.table(table).columns.items():
            if name == "id" or name.endswith("_id"):
                continue
            cols.append((name, col))
        return cols

    def _single_predicate(self, table, name, col):
        cfg = self.config
        complex_mode = cfg.mode == "complex"
        if complex_mode and col.null_frac > 0 and self._rng.random() < cfg.null_pred_prob:
            return self._null_predicate(table, name)
        if col.dtype.is_dictionary:
            if complex_mode and self._rng.random() < cfg.string_pred_prob:
                return self._like_predicate(table, name)
            if complex_mode and self._rng.random() < cfg.in_pred_prob:
                return self._in_predicate(table, name)
            return self._categorical_predicate(table, name)
        if complex_mode and self._rng.random() < cfg.in_pred_prob / 2:
            return self._in_predicate(table, name)
        return self._numeric_predicate(table, name)

    def _table_filter(self, table):
        cfg = self.config
        if self._rng.random() > cfg.filter_table_prob:
            return None
        candidates = self._payload_columns(table)
        if not candidates:
            return None
        n_predicates = int(self._rng.integers(1, cfg.max_filters_per_table + 1))
        predicates = []
        for _ in range(n_predicates):
            name, col = candidates[int(self._rng.integers(len(candidates)))]
            pred = self._single_predicate(table, name, col)
            if pred is not None:
                predicates.append(pred)
        if not predicates:
            return None
        if (cfg.mode == "complex" and len(predicates) >= 2
                and self._rng.random() < cfg.disjunction_prob):
            return disjunction(predicates)
        return conjunction(predicates)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def _aggregates(self, tables):
        aggs = [AggregateSpec("count")]
        if self._rng.random() < self.config.extra_agg_prob:
            numeric = [(t, name) for t in tables
                       for name, col in self._payload_columns(t)
                       if col.dtype.is_numeric]
            if numeric:
                n_extra = int(self._rng.integers(1, 3))
                for _ in range(n_extra):
                    t, c = numeric[int(self._rng.integers(len(numeric)))]
                    func = str(self._rng.choice(["sum", "avg", "min", "max"]))
                    aggs.append(AggregateSpec(func, t, c))
        return tuple(aggs)

    def _group_by(self, tables):
        if self._rng.random() > self.config.group_by_prob:
            return ()
        candidates = [(t, name) for t in tables
                      for name, col in self._payload_columns(t)
                      if col.dtype == DataType.CATEGORICAL
                      or (col.dtype == DataType.INT and col.n_distinct() <= 50)]
        if not candidates:
            return ()
        return (candidates[int(self._rng.integers(len(candidates)))],)

    # ------------------------------------------------------------------
    def generate_query(self):
        cfg = self.config
        table_names = self.db.schema.table_names
        start = table_names[int(self._rng.integers(len(table_names)))]
        target_joins = int(self._rng.integers(cfg.min_joins, cfg.max_joins + 1))
        tables, fks = self.db.schema.connected_subsets(
            start, target_joins + 1, self._rng)
        joins = tuple(JoinEdge.from_foreign_key(fk) for fk in fks)

        filters = {}
        for table in tables:
            predicate = self._table_filter(table)
            if predicate is not None:
                filters[table] = predicate

        group_by = self._group_by(tables)
        order_by = group_by if (group_by and self._rng.random()
                                < cfg.order_by_prob / cfg.group_by_prob) else ()
        return Query(tables=tuple(tables), joins=joins, filters=filters,
                     aggregates=self._aggregates(tables),
                     group_by=group_by, order_by=order_by)

    def generate(self, n):
        """Generate ``n`` queries (a workload)."""
        return [self.generate_query() for _ in range(n)]
