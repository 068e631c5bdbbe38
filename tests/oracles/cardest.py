"""The original recursive DeepDB annotation and its uncached estimator loops:
the spec of :func:`repro.cardest.annotate_cardinalities` and of the
:class:`~repro.cardest.DataDrivenEstimator` fast paths."""

from functools import partial

import numpy as np

from repro import perfstats
from repro.cardest import DataDrivenEstimator
from repro.cardest.annotate import (_PASSTHROUGH_OPS, CARD_SOURCES,
                                    _simple_cards)
from repro.cardest.spn import UnsupportedPredicate, predicate_to_constraints
from repro.sql import evaluate_predicate


def table_selectivity_reference(estimator, table, predicate):
    """Uncached original: parse constraints and query the SPN."""
    if predicate is None:
        return 1.0
    constraints = predicate_to_constraints(predicate)
    return estimator._spns[table].selectivity(
        constraints, estimator._literal_mapper(table))


def supports_reference(estimator, predicate):
    if predicate is None:
        return True
    try:
        predicate_to_constraints(predicate)
        return True
    except UnsupportedPredicate:
        return False


def scan_rows_reference(estimator, db, table, predicate):
    if not supports_reference(estimator, predicate):
        return estimator._fallback.scan_rows(db, table, predicate)
    rows = db.table_stats(table).reltuples
    return max(rows * table_selectivity_reference(estimator, table,
                                                  predicate), 0.5)


def join_sample_reference(estimator, tables, joins, seed=None):
    """Original per-row sampling loop (one ``lookup_eq`` per sample row)."""
    tables = list(tables)
    rng = (np.random.default_rng(seed) if seed is not None
           else estimator._rng)
    db = estimator.db
    root = max(tables, key=lambda t: len(db.table(t)))
    n_root = len(db.table(root))
    size = min(estimator.sample_size, n_root)
    sample = {root: rng.integers(0, n_root, size=size)}
    weights = np.ones(size, dtype=np.float64)

    adj = estimator._adjacency(tables, joins)
    visited = {root}
    frontier = [root]
    while frontier:
        table = frontier.pop()
        for direction, edge in adj[table]:
            other = (edge.parent_table if direction == "to_parent"
                     else edge.child_table)
            if other in visited:
                continue
            if direction == "to_parent":
                fk = db.column(edge.child_table, edge.child_column)
                refs = fk.values[sample[table]]
                alive = ~np.isnan(refs)
                weights = weights * alive
                sample[other] = np.where(alive, refs, 0).astype(np.int64)
            else:
                index = estimator._fanout_indexes[(edge.child_table,
                                                   edge.child_column)]
                parent_keys = db.column(
                    edge.parent_table, edge.parent_column).values[sample[table]]
                picks = np.zeros(size, dtype=np.int64)
                fanouts = np.zeros(size, dtype=np.float64)
                for i, key in enumerate(parent_keys):
                    if weights[i] == 0.0:
                        continue
                    matches = index.lookup_eq(key)
                    fanouts[i] = len(matches)
                    if len(matches):
                        picks[i] = matches[rng.integers(len(matches))]
                weights = weights * fanouts
                sample[other] = picks
            visited.add(other)
            frontier.append(other)
    return sample, weights, root, size


def join_rows_reference(estimator, db, tables, joins, filters):
    """Original uncached join estimate (per-predicate full-table scans)."""
    tables = list(tables)
    if any(not supports_reference(estimator, filters.get(t)) for t in tables):
        return estimator._fallback.join_rows(db, tables, joins, filters)
    if len(tables) == 1:
        return scan_rows_reference(estimator, db, tables[0],
                                   filters.get(tables[0]))

    sample, weights, root, size = join_sample_reference(estimator, tables,
                                                        joins)
    n_root = len(estimator.db.table(root))
    match = weights.copy()
    for table in tables:
        predicate = filters.get(table)
        if predicate is not None:
            mask = evaluate_predicate(predicate, estimator.db.table(table))
            match = match * mask[sample[table]]

    estimate = match.sum() * n_root / size
    if (match > 0).sum() >= 8:
        return max(float(estimate), 0.5)

    join_size = weights.sum() * n_root / size
    sel = 1.0
    for table in tables:
        sel *= table_selectivity_reference(estimator, table,
                                           filters.get(table))
    return max(float(join_size * sel), 0.5)


def _subtree_query_parts(node):
    """Base tables, join edges and filters below (and including) ``node``."""
    tables = []
    joins = []
    filters = {}
    for sub in node.iter_nodes():
        if sub.is_scan:
            tables.append(sub.table)
            if sub.filter_predicate is not None:
                filters[sub.table] = sub.filter_predicate
        if sub.is_join and sub.join is not None:
            joins.append(sub.join)
    return tables, joins, filters


def _deepdb_cards_reference(db, plan, scan_rows, join_rows):
    """Original recursive DeepDB walk: per-join-node subtree re-walks."""
    cards = {}

    def visit(node):
        for child in node.children:
            visit(child)
        if node.is_scan:
            value = scan_rows(db, node.table, node.filter_predicate)
        elif node.is_join:
            tables, joins, filters = _subtree_query_parts(node)
            value = join_rows(db, set(tables), joins, filters)
        elif node.op_name in _PASSTHROUGH_OPS:
            value = cards[id(node.children[0])]
        elif node.op_name == "Aggregate":
            value = 1.0
        elif node.op_name == "HashAggregate":
            input_rows = cards[id(node.children[0])]
            groups = 1.0
            for table, column in node.group_by:
                groups *= max(db.column_stats(table, column).ndistinct, 1)
            value = max(1.0, min(groups, input_rows))
        else:
            value = float(node.est_rows)
        cards[id(node)] = float(value)

    visit(plan)
    # Nested-loop inner index scans report per-loop rows (as in EXPLAIN);
    # rescale the subquery estimate accordingly.
    for node in plan.iter_nodes():
        if node.op_name == "NestedLoopJoin" and node.children[1].is_scan:
            outer, inner = node.children
            loops = max(cards[id(outer)], 1.0)
            cards[id(inner)] = max(cards[id(node)] / loops, 0.0)
    return cards


def annotate_cardinalities_reference(db, plan, source, estimator=None):
    """Original recursive annotation.

    DeepDB estimates go through the uncached estimator loops above: one
    full-table scan per predicate visit and the per-row sampling loop.
    :func:`~repro.cardest.annotate_cardinalities` must produce bit-identical
    cardinalities from the same estimator state.
    """
    if source not in CARD_SOURCES:
        raise ValueError(f"unknown cardinality source {source!r}")
    if source != "deepdb":
        return _simple_cards(plan, source)

    if estimator is None:
        estimator = DataDrivenEstimator(db)
    perfstats.increment("annotate.reference")
    return _deepdb_cards_reference(db, plan,
                                   partial(scan_rows_reference, estimator),
                                   partial(join_rows_reference, estimator))
