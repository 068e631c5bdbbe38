"""Plan execution: exact intermediate results and cardinalities.

The executor evaluates physical plans against the in-memory data.  Its job in
the reproduction is twofold: produce *true* per-operator cardinalities (the
paper's traces include actual cardinalities) and produce the per-operator
work profile that the runtime simulator converts into a latency.

Intermediate results are represented as aligned row-id vectors per base
table — a factorized representation that makes joins and aggregates cheap
and exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..sql import evaluate_predicate

__all__ = ["Intermediate", "ExecutionResult", "execute_plan", "equi_join"]


@dataclass
class Intermediate:
    """A factorized intermediate result: aligned row ids per base table."""

    row_ids: dict  # table -> np.ndarray of row ids, all equally long

    @property
    def n_rows(self):
        if not self.row_ids:
            return 0
        return len(next(iter(self.row_ids.values())))

    @property
    def tables(self):
        return set(self.row_ids)

    def column_values(self, db, table, column):
        return db.column(table, column).values[self.row_ids[table]]

    def take(self, positions):
        return Intermediate({t: ids[positions] for t, ids in self.row_ids.items()})


@dataclass
class ExecutionResult:
    """Output of executing a plan."""

    rows: object           # aggregate output (list of tuples)
    n_rows: int            # rows produced by the root
    node_profiles: list = field(default_factory=list)  # (node, profile) pairs


def join_sides(left: Intermediate, right: Intermediate, join_edge):
    """Resolve which side carries the FK child / the referenced parent."""
    if join_edge.child_table in left.tables:
        return left, right
    return right, left


def _run_positions(lo, counts):
    """Flat positions of the runs ``lo[i] : lo[i] + counts[i]``, in order.

    The offset arithmetic produces the exact integer sequence the original
    per-run gather loop wrote (a test oracle, ``tests/oracles/workloads.py``).
    """
    total = int(counts.sum())
    starts = np.cumsum(counts) - counts
    offsets = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    return np.repeat(lo, counts) + offsets


def combine_positions(child_side, parent_side, child_positions,
                      parent_positions):
    """Combine both sides' row ids at the matched positions."""
    combined = {}
    for table, ids in child_side.row_ids.items():
        combined[table] = ids[child_positions]
    for table, ids in parent_side.row_ids.items():
        combined[table] = ids[parent_positions]
    return Intermediate(combined)


def match_and_combine(child_side, parent_side, child_keys, sorted_keys,
                      positions):
    """Range-match child keys against a sorted parent view; combine row ids.

    ``sorted_keys``/``positions`` describe the parent side in stable key
    order (NaNs dropped): key ``sorted_keys[i]`` lives at row position
    ``positions[i]`` of the parent intermediate.  This is the shared tail of
    the per-call :func:`equi_join` and the trace engine's memoized join path.
    """
    child_valid = ~np.isnan(child_keys)
    lo = np.searchsorted(sorted_keys, child_keys, side="left")
    hi = np.searchsorted(sorted_keys, child_keys, side="right")
    counts = np.where(child_valid, hi - lo, 0)

    child_positions = np.repeat(np.arange(len(child_keys)), counts)
    parent_positions = positions[_run_positions(lo, counts)]

    return combine_positions(child_side, parent_side, child_positions,
                             parent_positions)


def equi_join(db, left: Intermediate, right: Intermediate, join_edge):
    """Join two intermediates on the edge; returns the combined result."""
    child_side, parent_side = join_sides(left, right, join_edge)
    child_keys = child_side.column_values(db, join_edge.child_table,
                                          join_edge.child_column)
    parent_keys = parent_side.column_values(db, join_edge.parent_table,
                                            join_edge.parent_column)

    # Sort the parent side once, then range-match each child key.
    order = np.argsort(parent_keys, kind="stable")
    sorted_keys = parent_keys[order]
    valid = ~np.isnan(sorted_keys)
    sorted_keys = sorted_keys[valid]
    order = order[valid]

    return match_and_combine(child_side, parent_side, child_keys,
                             sorted_keys, order)


def _group_keys(db, intermediate, group_by):
    """Integer group ids + number of groups for the GROUP BY columns."""
    if not group_by:
        return None, 1
    columns = [intermediate.column_values(db, t, c) for t, c in group_by]
    stacked = np.stack(columns, axis=1)
    # NaN-safe grouping: replace NaN with a sentinel outside the domain.
    stacked = np.where(np.isnan(stacked), -1.0e18, stacked)
    _, group_ids = np.unique(stacked, axis=0, return_inverse=True)
    return group_ids, int(group_ids.max() + 1) if len(group_ids) else 0


def _aggregate_rows(db, intermediate, aggregates, group_by):
    """Compute aggregate output rows (list of tuples)."""
    group_ids, n_groups = _group_keys(db, intermediate, group_by)
    if intermediate.n_rows == 0:
        if group_by:
            return []
        # SQL semantics: COUNT over empty input is 0, other aggs NULL.
        return [tuple(0 if agg.func == "count" else None for agg in aggregates)]

    def agg_value(agg, mask):
        if agg.func == "count" and agg.column is None:
            return int(mask.sum())
        values = intermediate.column_values(db, agg.table, agg.column)[mask]
        values = values[~np.isnan(values)]
        if values.size == 0:
            return 0 if agg.func == "count" else None
        if agg.func == "count":
            return int(values.size)
        if agg.func == "sum":
            return float(values.sum())
        if agg.func == "avg":
            return float(values.mean())
        if agg.func == "min":
            return float(values.min())
        return float(values.max())

    if not group_by:
        full = np.ones(intermediate.n_rows, dtype=bool)
        return [tuple(agg_value(a, full) for a in aggregates)]

    rows = []
    for group in range(n_groups):
        mask = group_ids == group
        key = tuple(intermediate.column_values(db, t, c)[mask][0]
                    for t, c in group_by)
        rows.append(key + tuple(agg_value(a, mask) for a in aggregates))
    return rows


def execute_plan(db, root, ctx=None) -> ExecutionResult:
    """Execute ``root`` against ``db``; annotates ``true_rows`` on every node.

    Without ``ctx`` this is the self-contained per-plan reference: every scan
    re-evaluates its predicate and every join re-sorts its parent keys.  With
    a :class:`~repro.executor.trace_engine.TraceExecutionContext` the scan
    row-id sets and the per-join-edge sorted key views are memoized across
    the plans of a trace (see :func:`~repro.executor.trace_engine.execute_trace`);
    the results are bit-identical either way.
    """
    profiles = []

    def scan(node):
        if ctx is not None:
            return ctx.scan_intermediate(node.table, node.filter_predicate)
        table = db.table(node.table)
        mask = evaluate_predicate(node.filter_predicate, table)
        return Intermediate({node.table: np.nonzero(mask)[0]})

    def join(left, right, edge):
        if ctx is not None:
            return ctx.equi_join(left, right, edge)
        return equi_join(db, left, right, edge)

    def run(node):
        if node.op_name in ("SeqScan", "IndexScan", "ColumnarScan"):
            result = scan(node)
            node.true_rows = float(result.n_rows)
            profiles.append((node, {"input_rows": len(db.table(node.table)),
                                    "output_rows": result.n_rows}))
            return result

        if node.op_name in ("Gather", "Broadcast", "Repartition"):
            result = run(node.children[0])
            node.true_rows = float(result.n_rows)
            profiles.append((node, {"rows": result.n_rows}))
            return result

        if node.is_join:
            left = run(node.children[0])
            right_node = node.children[1]
            if (node.op_name == "NestedLoopJoin" and right_node.is_scan):
                # Indexed inner: logically a filtered scan joined to the outer.
                right = scan(right_node)
                result = join(left, right, node.join)
                # EXPLAIN-ANALYZE semantics: inner rows are per-loop averages.
                loops = max(left.n_rows, 1)
                right_node.true_rows = float(result.n_rows) / loops
                profiles.append((right_node, {"loops": left.n_rows,
                                              "matches": result.n_rows}))
            else:
                right = run(right_node)
                result = join(left, right, node.join)
            node.true_rows = float(result.n_rows)
            profiles.append((node, {
                "left_rows": left.n_rows,
                "right_rows": right_node.true_rows if node.op_name == "NestedLoopJoin"
                else right.n_rows,
                "output_rows": result.n_rows,
            }))
            return result

        if node.op_name in ("Aggregate", "HashAggregate"):
            child = run(node.children[0])
            rows = _aggregate_rows(db, child, node.aggregates, node.group_by)
            node.true_rows = float(len(rows))
            profiles.append((node, {"input_rows": child.n_rows,
                                    "groups": len(rows)}))
            # Aggregates close the pipeline; represent output as empty ids.
            result = Intermediate({})
            result.output_rows = rows
            return result

        if node.op_name == "Sort":
            child = run(node.children[0])
            output = getattr(child, "output_rows", None)
            if output is not None:
                child.output_rows = sorted(
                    output, key=lambda r: tuple(-1e18 if v is None else v
                                                for v in r))
            node.true_rows = node.children[0].true_rows
            profiles.append((node, {"rows": node.true_rows}))
            return child

        raise ValueError(f"executor cannot run operator {node.op_name!r}")

    final = run(root)
    rows = getattr(final, "output_rows", None)
    if rows is None:
        rows = []
    return ExecutionResult(rows=rows, n_rows=int(root.true_rows or 0),
                           node_profiles=profiles)
