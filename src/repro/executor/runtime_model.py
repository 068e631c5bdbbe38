"""Operator-level runtime simulation.

This module substitutes the paper's physical testbed (Postgres v12 on
cloudlab c8220 nodes).  Given an executed plan (true cardinalities filled
in), it produces a latency in milliseconds by summing per-operator costs on
one fixed :class:`~repro.executor.profiles.HardwareProfile`.

Design constraints that preserve the paper's learning problem:

* The latency is a function of exactly the characteristics the transferable
  featurization exposes (operator types, cardinalities, widths, predicate
  structure, table pages, workers, index clustering) — so a zero-shot model
  *can* learn it across databases.
* The function is deliberately non-linear (hash-table cache misses and
  spills, external sorts, parallel startup overheads, regex evaluation
  costs), so the linear "scaled optimizer cost" baseline systematically
  mis-estimates it — as Postgres' abstract costs do in reality.
* Seeded log-normal noise makes runtimes non-deterministic functions of the
  features, bounding the best achievable Q-error away from 1.0.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..sql import BooleanPredicate, Comparison, PredOp
from .profiles import DEFAULT_HARDWARE

__all__ = ["predicate_row_cost_ns", "simulate_runtime_ms",
           "simulate_runtime_ms_batch", "plan_signature", "node_time_us"]


def predicate_row_cost_ns(predicate, hw):
    """CPU nanoseconds to evaluate the predicate tree on one row."""
    if predicate is None:
        return 0.0
    if isinstance(predicate, Comparison):
        op = predicate.op
        if op in (PredOp.IS_NULL, PredOp.IS_NOT_NULL):
            return hw.pred_null_ns
        if op == PredOp.IN:
            return hw.pred_in_base_ns + hw.pred_in_per_value_ns * len(predicate.literal)
        if op in (PredOp.LIKE, PredOp.NOT_LIKE):
            return (hw.pred_like_base_ns
                    + hw.pred_like_per_complexity_ns * predicate.literal_feature)
        if op == PredOp.EQ or op == PredOp.NEQ:
            if isinstance(predicate.literal, str):
                return hw.pred_dict_eq_ns
            return hw.pred_numeric_ns
        return hw.pred_numeric_ns
    if isinstance(predicate, BooleanPredicate):
        child_costs = [predicate_row_cost_ns(c, hw) for c in predicate.children]
        # Short-circuit evaluation: later conjuncts run on fewer rows.
        total = child_costs[0]
        for cost in child_costs[1:]:
            total += 0.55 * cost
        return total
    raise TypeError(f"unknown predicate {type(predicate)!r}")


def _cache_penalty(bytes_touched, hw):
    """Smooth cache-miss multiplier once the working set leaves the cache."""
    if bytes_touched <= hw.cache_bytes:
        return 1.0
    overshoot = np.log2(bytes_touched / hw.cache_bytes + 1.0)
    return 1.0 + hw.cache_miss_factor * min(overshoot, 4.0)


def _scan_us(db, node, hw):
    stats = db.table_stats(node.table)
    input_rows = stats.reltuples
    pages = stats.relpages
    if node.op_name == "ColumnarScan" and node.scanned_columns:
        frac = sum(db.column_stats(node.table, c).width
                   for c in node.scanned_columns) / max(stats.row_width, 1.0)
        pages = max(1.0, pages * min(frac, 1.0))
    io_us = pages * hw.seq_page_us
    row_ns = (hw.tuple_ns
              + hw.width_ns_per_byte * stats.row_width
              + predicate_row_cost_ns(node.filter_predicate, hw))
    cpu_us = input_rows * row_ns / 1000.0
    out_us = max(node.true_rows or 0.0, 0.0) * hw.emit_ns / 1000.0
    total = io_us + cpu_us + out_us
    if node.workers > 1:
        total = total / (node.workers ** hw.parallel_efficiency)
    return total


def _index_scan_us(db, node, hw, loops=1.0):
    stats = db.table_stats(node.table)
    col_stats = db.column_stats(node.table, node.index_column)
    matches_per_loop = max(node.true_rows or 0.0, 0.0)
    descend_us = hw.index_descend_us * np.log2(max(stats.reltuples, 2)) / 8.0
    random_frac = 1.0 - 0.75 * abs(col_stats.correlation)
    fetch_ns = (hw.index_fetch_random_ns * random_frac
                + hw.index_fetch_seq_ns * (1.0 - random_frac))
    residual_ns = predicate_row_cost_ns(node.filter_predicate, hw)
    per_loop_us = descend_us + matches_per_loop * (fetch_ns + residual_ns) / 1000.0
    return loops * per_loop_us


def _hash_join_us(node, hw):
    probe, build = node.children[0], node.children[1]
    build_rows = max(build.true_rows or build.est_rows, 0.0)
    probe_rows = max(probe.true_rows or probe.est_rows, 0.0)
    out_rows = max(node.true_rows or 0.0, 0.0)
    build_bytes = build_rows * max(build.width, 8.0)

    build_us = build_rows * (hw.hash_build_ns
                             + hw.hash_build_ns_per_byte * build.width) / 1000.0
    probe_us = probe_rows * hw.hash_probe_ns / 1000.0
    penalty = _cache_penalty(build_bytes, hw)
    build_us *= penalty
    probe_us *= penalty
    if build_bytes > hw.work_mem_bytes:
        ratio = min(build_bytes / hw.work_mem_bytes, 8.0)
        spill_mult = 1.0 + hw.spill_factor * np.log2(ratio + 1.0)
        io_us = 2.0 * build_bytes / hw.spill_io_bytes_per_us
        build_us = build_us * spill_mult + io_us
        probe_us *= spill_mult
    emit_us = out_rows * (hw.emit_ns + hw.width_ns_per_byte * node.width) / 1000.0
    return build_us + probe_us + emit_us


def _sort_us(node, hw):
    child = node.children[0]
    rows = max(child.true_rows or child.est_rows, 1.0)
    compare_ns = hw.sort_compare_ns + hw.sort_width_ns_per_byte * node.width
    total = rows * np.log2(rows + 2.0) * compare_ns / 1000.0
    if rows * max(node.width, 8.0) > hw.work_mem_bytes:
        total *= hw.external_sort_factor
    return total


def _aggregate_us(node, hw):
    child = node.children[0]
    in_rows = max(child.true_rows or child.est_rows, 0.0)
    groups = max(node.true_rows or 1.0, 1.0)
    n_aggs = max(len(node.aggregates), 1)
    total = in_rows * (hw.agg_row_ns + n_aggs * hw.agg_ns_per_agg) / 1000.0
    if node.op_name == "HashAggregate":
        total += in_rows * hw.hashagg_row_ns / 1000.0
        total *= _cache_penalty(groups * max(node.width, 8.0), hw)
        total += groups * hw.group_emit_ns / 1000.0
    return total


def node_time_us(db, node, hw):
    """Simulated latency contribution of one operator (public hook for the
    distributed runtime extension)."""
    if node.op_name in ("SeqScan", "ColumnarScan"):
        return _scan_us(db, node, hw)
    if node.op_name == "IndexScan":
        return _index_scan_us(db, node, hw)
    if node.op_name == "HashJoin":
        return _hash_join_us(node, hw)
    if node.op_name == "NestedLoopJoin":
        outer, inner = node.children[0], node.children[1]
        outer_rows = max(outer.true_rows or outer.est_rows, 0.0)
        out_rows = max(node.true_rows or 0.0, 0.0)
        total = outer_rows * hw.nl_loop_ns / 1000.0
        total += out_rows * hw.emit_ns / 1000.0
        if inner.op_name == "IndexScan":
            total += _index_scan_us(db, inner, hw, loops=max(outer_rows, 1.0))
        return total
    if node.op_name == "MergeJoin":
        left = max(node.children[0].true_rows or 0.0, 0.0)
        right = max(node.children[1].true_rows or 0.0, 0.0)
        out = max(node.true_rows or 0.0, 0.0)
        return ((left + right) * 100.0 + out * hw.emit_ns) / 1000.0
    if node.op_name == "Sort":
        return _sort_us(node, hw)
    if node.op_name in ("Aggregate", "HashAggregate"):
        return _aggregate_us(node, hw)
    if node.op_name == "Gather":
        rows = max(node.true_rows or 0.0, 0.0)
        return hw.parallel_startup_us + rows * hw.parallel_tuple_ns / 1000.0
    if node.op_name in ("Broadcast", "Repartition"):
        # Handled by the distributed runtime extension; without a cluster
        # context these cost a per-row transfer on the local profile.
        rows = max(node.true_rows or 0.0, 0.0)
        return rows * (hw.emit_ns + hw.width_ns_per_byte * node.width) / 1000.0
    raise ValueError(f"no runtime rule for operator {node.op_name!r}")


def plan_signature(db_name, root):
    """Deterministic signature of a plan for noise seeding."""
    digest = hashlib.sha256()
    digest.update(db_name.encode())
    for node in root.iter_nodes():
        digest.update(node.op_name.encode())
        digest.update(str(node.table).encode())
        digest.update(str(int(node.true_rows or 0)).encode())
        if node.filter_predicate is not None:
            digest.update(node.filter_predicate.describe().encode())
    return int.from_bytes(digest.digest()[:8], "little")


def simulate_runtime_ms(db, root, hardware=None, seed=0, skip_inner_index=True):
    """Simulated latency of an executed plan in milliseconds.

    ``root`` must carry ``true_rows`` annotations (run the executor first).
    Noise is deterministic in ``(database, plan, seed)``, so regenerating a
    trace yields identical runtimes.
    """
    hw = hardware or DEFAULT_HARDWARE
    inner_index_nodes = set()
    if skip_inner_index:
        # Indexed NL inners are charged inside the NestedLoopJoin rule.
        for node in root.iter_nodes():
            if node.op_name == "NestedLoopJoin" and node.children[1].op_name == "IndexScan":
                inner_index_nodes.add(id(node.children[1]))

    total_us = hw.query_overhead_us
    for node in root.iter_nodes():
        if id(node) in inner_index_nodes:
            continue
        total_us += node_time_us(db, node, hw)

    rng = np.random.default_rng((plan_signature(db.name, root) + seed) % (2 ** 63))
    noise = float(np.exp(rng.normal(0.0, hw.noise_sigma)))
    return total_us * noise / 1000.0


def simulate_runtime_ms_batch(db, roots, hardware=None, seed=0,
                              skip_inner_index=True):
    """Simulated latencies of many executed plans (a whole trace).

    ``[simulate_runtime_ms(db, r, ...) for r in roots]`` as a float array of
    length ``len(roots)``.
    """
    return np.array([simulate_runtime_ms(db, root, hardware, seed,
                                         skip_inner_index)
                     for root in roots], dtype=np.float64)
