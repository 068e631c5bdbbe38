"""Plan cardinality annotation: fill the ``cardout`` feature per plan node.

The zero-shot model takes intermediate cardinalities as *inputs* (separation
of concerns).  This module computes, for every node of a physical plan, the
cardinality according to a chosen source:

* ``"optimizer"`` — the traditional estimates already on the plan,
* ``"exact"`` — the true cardinalities recorded by the executor,
* ``"deepdb"`` — predictions of a :class:`DataDrivenEstimator`.

:func:`annotate_cardinalities` is the engine's batched fast path: for the
DeepDB source it first primes the estimator with *all* of the plan's scan
predicates in one vectorized pass (masks + SPN selectivities, each evaluated
exactly once and cached), then walks the plan consuming cached lookups and
the vectorized join sampler.  Its cardinalities are bit-identical to the
original recursive visit — per-predicate full-table scans and the per-row
sampling loop — and the batched sampler consumes the same RNG stream; the
test suite asserts both against that visit, kept as a test oracle
(``tests/oracles/cardest.py``).
"""

from __future__ import annotations

from .. import perfstats

__all__ = ["annotate_cardinalities", "CARD_SOURCES"]

CARD_SOURCES = ("optimizer", "exact", "deepdb")

_PASSTHROUGH_OPS = ("Gather", "Broadcast", "Repartition", "Sort")
_SCAN_OPS = ("SeqScan", "IndexScan", "ColumnarScan")
_JOIN_OPS = ("HashJoin", "NestedLoopJoin", "MergeJoin")


def _simple_cards(plan, source):
    """The estimator-free sources: read rows straight off the plan."""
    cards = {}
    if source == "optimizer":
        for node in plan.iter_nodes():
            cards[id(node)] = float(node.est_rows)
    else:  # exact
        for node in plan.iter_nodes():
            rows = node.true_rows if node.true_rows is not None else node.est_rows
            cards[id(node)] = float(rows)
    return cards


def _deepdb_cards_batched(db, plan, estimator):
    """Fast DeepDB walk: cached estimator entry points, subtree query parts
    accumulated bottom-up in the same pass (no re-walk per join node).

    The accumulated (tables, joins, filters) match a per-join-node subtree
    re-walk exactly — same post-order append order, same dict
    insertion order — so estimator calls receive identical arguments and the
    sampler consumes an identical RNG stream.
    """
    cards = {}
    scan_rows, join_rows = estimator.scan_rows, estimator.join_rows
    nested_loops = []

    def visit(node):
        """Annotate the subtree; returns its (tables, joins, filters)."""
        child_parts = [visit(child) for child in node.children]
        if child_parts:
            tables, joins, filters = child_parts[0]
            for more_tables, more_joins, more_filters in child_parts[1:]:
                tables += more_tables
                joins += more_joins
                filters.update(more_filters)
        else:
            tables, joins, filters = [], [], {}

        op_name = node.op_name
        if op_name in _SCAN_OPS:
            tables.append(node.table)
            if node.filter_predicate is not None:
                filters[node.table] = node.filter_predicate
            value = scan_rows(db, node.table, node.filter_predicate)
        elif op_name in _JOIN_OPS:
            if node.join is not None:
                joins.append(node.join)
            value = join_rows(db, set(tables), joins, filters)
            if (op_name == "NestedLoopJoin"
                    and node.children[1].op_name in _SCAN_OPS):
                nested_loops.append(node)
        elif op_name in _PASSTHROUGH_OPS:
            value = cards[id(node.children[0])]
        elif op_name == "Aggregate":
            value = 1.0
        elif op_name == "HashAggregate":
            input_rows = cards[id(node.children[0])]
            groups = 1.0
            for table, column in node.group_by:
                groups *= max(db.column_stats(table, column).ndistinct, 1)
            value = max(1.0, min(groups, input_rows))
        else:
            value = float(node.est_rows)
        cards[id(node)] = float(value)
        return tables, joins, filters

    visit(plan)
    # Nested-loop inner index scans report per-loop rows (as in EXPLAIN):
    # rescale them, over the nodes collected during the walk (post-order
    # matches iter_nodes order) instead of a re-walk.
    for node in nested_loops:
        outer, inner = node.children
        loops = max(cards[id(outer)], 1.0)
        cards[id(inner)] = max(cards[id(node)] / loops, 0.0)
    return cards


def annotate_cardinalities(db, plan, source, estimator=None):
    """Return ``{id(node): cardinality}`` for every node of ``plan``.

    For ``"deepdb"`` an existing :class:`DataDrivenEstimator` for ``db``
    should be passed to avoid rebuilding models per plan; the estimator is
    primed with the plan's predicates up front so every mask / selectivity
    is evaluated once, vectorized, regardless of how many join nodes
    revisit it.
    """
    if source not in CARD_SOURCES:
        raise ValueError(f"unknown cardinality source {source!r}")
    if source != "deepdb":
        return _simple_cards(plan, source)

    if estimator is None:
        from .datadriven import DataDrivenEstimator
        estimator = DataDrivenEstimator(db)
    prime = getattr(estimator, "prime_plan", None)
    if prime is not None:
        prime(db, plan)
    perfstats.increment("annotate.batched")
    return _deepdb_cards_batched(db, plan, estimator)
