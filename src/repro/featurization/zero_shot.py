"""Builder for the zero-shot query-graph encoding (Figure 3).

Translates an annotated physical plan — read as its
:func:`~repro.featurization.plan_token`, the tuples its digest hashes —
into a :class:`QueryGraph`:

* every plan operator becomes a plan node (gray in Fig. 3),
* scans hang their table node (blue) and their predicate tree (red) below
  them; predicate leaves reference attribute nodes (green),
* joins get an equality predicate node over the two join-key attributes,
* aggregate operators get output-column nodes (one per aggregate) whose
  children are the aggregated attributes.

Attribute nodes are shared within a query (one per table.column), as in the
paper's encoding.

:func:`build_query_graphs` (and its single-plan wrapper
:func:`build_query_graph`) is the engine's **vectorized** path: the plan
traversal only collects raw feature values (cardinalities, stats, operator
codes) into per-node-type columns; feature matrices for *all* plans of the
batch are then assembled column-wise in a handful of numpy operations
(``features.*_matrix``), and each graph receives views into the batch's
type-code, edge and level arrays and its feature matrices, from which its
:class:`~repro.featurization.graph.PackedGraph` is assembled without
recomputation.  Its graphs are bit-identical to the
original per-node loop builder, a test oracle
(``tests/oracles/featurization.py``) the suite compares against over all
node types and cardinality sources.
"""

from __future__ import annotations

import numpy as np

from .. import perfstats
from ..sql import PredOp, like_pattern_complexity
from .features import (AGG_INDEX, DTYPE_INDEX, OPERATOR_INDEX, PRED_INDEX,
                       STORAGE_FORMAT_INDEX, attribute_features_matrix,
                       output_features_matrix, plan_features_matrix,
                       predicate_features_matrix, table_features_matrix)
from .fingerprint import plan_token
from .graph import NODE_TYPES, QueryGraph, TYPE_CODES

__all__ = ["build_query_graph", "build_query_graphs"]

_PLAN = TYPE_CODES["plan"]
_PREDICATE = TYPE_CODES["predicate"]
_TABLE = TYPE_CODES["table"]
_ATTRIBUTE = TYPE_CODES["attribute"]
_OUTPUT = TYPE_CODES["output"]
# Predicate tokens carry the operator's value ("=", "IN", ...).
_PRED_INDEX = {op.value: index for op, index in PRED_INDEX.items()}
_EQ_INDEX = PRED_INDEX[PredOp.EQ]
_IN_INDEX = PRED_INDEX[PredOp.IN]
_LIKE_INDEXES = (PRED_INDEX[PredOp.LIKE], PRED_INDEX[PredOp.NOT_LIKE])
_AGG_OPS = ("Aggregate", "HashAggregate")

_SCAN_OPS = ("SeqScan", "IndexScan", "ColumnarScan")
_JOIN_OPS = ("HashJoin", "NestedLoopJoin", "MergeJoin")

# Sentinels for fused cardinality annotation: instead of a per-node list,
# the traversal reads cardinalities straight off the tokens' recorded rows.
_EXACT_CARDS = object()
_OPTIMIZER_CARDS = object()
_CARD_SENTINELS = {"exact": _EXACT_CARDS, "optimizer": _OPTIMIZER_CARDS}

# Upper bound on plans encoded into one shared matrix batch (memory
# retention cap for graphs that outlive their batch).
_MAX_ENCODE_BATCH = 512


def _encode_batch(items, storage_formats, columns, catalog=None):
    """Traverse many plan tokens, appending raw rows to the batch-wide
    columns.

    ``items`` yields ``(database, token, cards)``; one traversal encodes a
    batch spanning databases, with the catalog-statistics memos kept per
    database.

    The one traversal of featurization: it walks :func:`~repro.
    featurization.plan_token` tuples (unpacked by position), never plan
    objects, so a graph depends only on what the plan's digest hashes.
    Only structure is built here — node type codes, longest-path levels and
    edges, each a flat batch-wide list of ints (an edge is two consecutive
    entries, child then parent), so no per-node or per-edge Python object
    outlives the traversal.  Node ids are positions in the batch (the
    traversal reads ``levels`` back by id); :func:`build_query_graphs`
    shifts each graph's edges to local ids afterwards.  Every feature value
    lands in the shared ``columns`` lists and is turned into matrices once
    per batch.  Node and edge creation order is identical to the reference
    builder, so the resulting graphs are bit-identical.  The node builders
    are closures created *once* per batch; per-graph state
    (``attributes``, the card source, the database's statistics and memos)
    lives in enclosing-scope cells that the plan loop rebinds between
    graphs — this is the featurization hot loop.

    Every constant node (table, attribute, predicate, output: no plan
    operator below it) goes through one sink, ``constant``.  Without a
    ``catalog`` it is a node of the graph, as above.  With a
    :class:`~repro.featurization.catalog.ConstantCatalog` it is interned
    there by ``(type, raw row, child ids)`` and the builders return its
    catalog id: graphs then hold plan nodes only, and a plan node's
    constant children become ``constant_edges`` entries ``(catalog id,
    parent)``, after its plan children as in the full graph.  A plan
    node's level then counts its plan children only: the batch places
    plan nodes above the constant nodes it computes (see
    :func:`~repro.featurization.make_batch`).  An attribute's id holds
    for the whole call, not just one graph.
    """
    plan_rows = columns[_PLAN]
    codes, levels, edges = [], [], []
    codes_append, levels_append = codes.append, levels.append
    edges_append = edges.append
    attributes = {}
    exact = fused = next_card = None
    db = column_stats = table_stats_of = attr_stats = table_stats = None
    interned = None  # the database's catalog key table
    # id(database) -> (attribute statistics, table statistics, attribute
    # ids): with a catalog, an attribute's id holds for the whole call.
    memos = {}
    storage_format_of = storage_formats.get

    if catalog is None:
        # Constant nodes are graph nodes: same ids, levels and edge list.
        constant_edges = edges

        def constant(code, row, children):
            columns[code].append(row)
            node = len(levels)
            level = 0
            for child in children:
                if levels[child] >= level:
                    level = levels[child] + 1
            codes_append(code)
            levels_append(level)
            for child in children:
                edges_append(child)
                edges_append(node)
            return node
    else:
        constant_levels, constant_edges = catalog.levels, []
        catalog_codes, catalog_rows = catalog.codes, catalog.rows
        catalog_children = catalog.children

        def constant(code, row, children):
            key = (code, row, children)
            node = interned.get(key)
            if node is None:
                node = len(catalog_codes)
                level = 0
                for child in children:
                    if constant_levels[child] >= level:
                        level = constant_levels[child] + 1
                catalog_codes.append(code)
                constant_levels.append(level)
                catalog_rows.append(row)
                catalog_children.append(children)
                interned[key] = node
            return node
    constant_edges_append = constant_edges.append

    def attribute_node(table, column):
        key = (table, column)
        node = attributes.get(key)
        if node is None:
            raw = attr_stats.get(key)
            if raw is None:
                stats = column_stats(table, column)
                raw = (stats.width, stats.correlation, stats.ndistinct,
                       stats.null_frac, DTYPE_INDEX[stats.dtype])
                attr_stats[key] = raw
            node = attributes[key] = constant(_ATTRIBUTE, raw, ())
        return node

    def table_node(table):
        fmt = storage_format_of(table, "row")
        fmt_index = STORAGE_FORMAT_INDEX.get(fmt)
        if fmt_index is None:
            raise ValueError(f"{fmt!r} is not in list")
        raw = table_stats.get(table)
        if raw is None:
            stats = table_stats_of(table)
            raw = (stats.reltuples, stats.relpages)
            table_stats[table] = raw
        return constant(_TABLE, (raw[0], raw[1], fmt_index), ())

    def predicate_node(token):
        kind = token[0]
        if kind == "C":  # ("C", table, column, op, literal)
            _, table, column, op, literal = token
            attr = attribute_node(table, column)
            op_index = _PRED_INDEX[op]
            # Inlined Comparison.literal_feature (predicate hot loop).
            if op_index == _IN_INDEX:
                literal_feature = float(len(literal))
            elif op_index in _LIKE_INDEXES:
                literal_feature = like_pattern_complexity(literal)
            else:
                literal_feature = 1.0
            return constant(_PREDICATE, (literal_feature, op_index), (attr,))
        if kind == "B":  # ("B", op, children)
            _, op, child_tokens = token
            children = tuple([predicate_node(child)
                              for child in child_tokens])
            return constant(_PREDICATE,
                            (float(len(child_tokens)), _PRED_INDEX[op]),
                            children)
        raise TypeError(f"unknown predicate token {kind!r}")

    def join_predicate_node(join):
        child_table, child_column, parent_table, parent_column = join
        child_attr = attribute_node(child_table, child_column)
        parent_attr = attribute_node(parent_table, parent_column)
        return constant(_PREDICATE, (1.0, _EQ_INDEX),
                        (child_attr, parent_attr))

    def output_node(aggregate):
        func, table, column = aggregate
        attr = None
        if column is not None:
            attr = attribute_node(table, column)
        agg_index = AGG_INDEX.get(func)
        if agg_index is None:
            raise ValueError(f"unknown aggregation {func!r}")
        return constant(_OUTPUT, agg_index, () if attr is None else (attr,))

    def plan_node(token):
        """Encode one plan node's subtree; returns ``(node id, its output
        cardinality)`` — the parent's ``card_prod`` takes the latter."""
        (op_name, table, _, est_rows, true_rows, width, workers, _, _,
         predicate, join, aggregates, group_by, sort_keys,
         child_tokens) = token
        children = []
        card_prod = 1.0
        for child in child_tokens:
            child_id, card = plan_node(child)
            children.append(child_id)
            if card > 1.0:
                card_prod *= card
        # Constant children follow the plan children, as in Fig. 3.
        constants = []
        if op_name in _SCAN_OPS:
            constants.append(table_node(table))
            if predicate is not None:
                constants.append(predicate_node(predicate))
        elif op_name in _JOIN_OPS and join is not None:
            constants.append(join_predicate_node(join))
        elif op_name in _AGG_OPS:
            for aggregate in aggregates:
                constants.append(output_node(aggregate))
            for table, column in group_by:
                constants.append(attribute_node(table, column))
        elif op_name == "Sort":
            for table, column in sort_keys:
                constants.append(attribute_node(table, column))

        # Post-order: a card list yields this node's value after its
        # children consumed theirs.
        card_out = (float(true_rows if exact and true_rows is not None
                          else est_rows)
                    if fused else next_card())
        plan_rows.append((card_out, card_prod, width, workers,
                          OPERATOR_INDEX[op_name]))
        plan_id = len(levels)
        level = -1
        for child in children:
            if levels[child] > level:
                level = levels[child]
        if catalog is None:
            for child in constants:
                if levels[child] > level:
                    level = levels[child]
        codes_append(_PLAN)
        levels_append(level + 1)
        for child in children:
            edges_append(child)
            edges_append(plan_id)
        for child in constants:
            constant_edges_append(child)
            constant_edges_append(plan_id)
        return plan_id, card_out

    metas = []
    ends = (0, 0, 0, 0, 0)
    try:
        for graph_db, token, cards in items:
            # Rebind the per-graph cells; the closures above see the new
            # state.
            if graph_db is not db:
                db = graph_db
                column_stats, table_stats_of = db.column_stats, db.table_stats
                attr_stats, table_stats, db_attributes = memos.setdefault(
                    id(db), ({}, {}, {}))
                if catalog is not None:
                    interned = catalog.table(db)
                    attributes = db_attributes
            if catalog is None:
                attributes = {}  # shared within one graph only
            exact = cards is _EXACT_CARDS
            fused = exact or cards is _OPTIMIZER_CARDS
            if not fused:
                next_card = iter(cards).__next__
            starts = ends
            node_start = len(levels)
            root = plan_node(token)[0]
            ends = tuple([len(rows) for rows in columns])
            # (first node, end of the flat edge list, end of the flat
            # constant-edge list, local root, per-type feature rows
            # [starts, ends)) of this graph.
            metas.append((node_start, len(edges), len(constant_edges),
                          root - node_start, starts, ends))
    finally:
        # The recursive builders reach themselves through their closure
        # cells.  Clearing those cells breaks the cycle, so the closures and
        # everything their cells hold (the row lists, the memos) are freed
        # by reference counting on return instead of waiting for the
        # cyclic collector.
        del plan_node, predicate_node
    return metas, codes, levels, edges, (
        None if catalog is None else constant_edges)


def _as_token(plan):
    """A plan token as is; a plan node tree tokenized."""
    return plan if type(plan) is tuple else plan_token(plan)


def _card_list(plan, cards):
    """Post-order cardinalities: an ``id(node)`` map read along the plan
    node tree (nodes it misses take their ``est_rows``); a sequence as
    is."""
    if isinstance(cards, dict):
        return [cards.get(id(node), node.est_rows)
                for node in plan.iter_nodes()]
    return cards


def _assemble_matrices(columns):
    """Column-wise feature-matrix assembly: one pass per node type."""
    plan_rows, pred_rows, table_rows, attr_rows, output_rows = columns
    matrices = [None] * len(NODE_TYPES)
    if plan_rows:
        card_out, card_prod, width, workers, ops = zip(*plan_rows)
        matrices[_PLAN] = plan_features_matrix(card_out, card_prod, width,
                                               workers, ops)
    if pred_rows:
        literal_features, ops = zip(*pred_rows)
        matrices[_PREDICATE] = predicate_features_matrix(literal_features, ops)
    if table_rows:
        reltuples, relpages, fmts = zip(*table_rows)
        matrices[_TABLE] = table_features_matrix(reltuples, relpages, fmts)
    if attr_rows:
        widths, corrs, ndistincts, null_fracs, dtypes = zip(*attr_rows)
        matrices[_ATTRIBUTE] = attribute_features_matrix(
            widths, corrs, ndistincts, null_fracs, dtypes)
    if output_rows:
        matrices[_OUTPUT] = output_features_matrix(output_rows)
    return matrices


def build_query_graphs(db, plans, card_maps, storage_formats=None,
                       catalog=None):
    """Encode many annotated plans in one vectorized pass.

    ``db`` is the plans' :class:`~repro.storage.Database`, or a list or
    tuple holding each plan's database: a batch spanning databases is
    still one traversal and one matrix assembly.

    ``plans`` holds plan tokens (:func:`~repro.featurization.plan_token`)
    or :class:`~repro.optimizer.PlanNode` trees, which are tokenized first;
    the encoder walks tokens only.  ``card_maps[i]`` gives ``plans[i]``'s
    per-node cardinalities: a sequence in post-order (one value per plan
    node, in :meth:`~repro.optimizer.PlanNode.iter_nodes` order), or, for
    a plan node tree, the ``id(plan_node) -> cardinality`` map
    :func:`~repro.cardest.annotate_cardinalities` returns, read into that
    order.  Alternatively ``card_maps`` may be the string ``"exact"`` or
    ``"optimizer"``: per-node cardinalities are then read directly off the
    tokens' recorded true/estimated rows during the traversal (fused
    annotation — value-identical to building the
    :func:`~repro.cardest.annotate_cardinalities` dict first, without the
    extra plan walk).

    Equivalent to calling :func:`build_query_graph` per plan, but feature
    matrices for the whole batch are assembled column-wise at once, so the
    per-plan cost is the structural traversal only.

    With a :class:`~repro.featurization.catalog.ConstantCatalog`, each
    graph holds its plan nodes only: its constant nodes are interned in
    the catalog and named by the graph's ``constant_edges`` (see
    ``_encode_batch``).  Such graphs are batched with a
    :class:`~repro.featurization.catalog.ConstantStates` of that catalog.
    """
    storage_formats = storage_formats or {}
    plans = list(plans)
    dbs = (list(db) if isinstance(db, (list, tuple))
           else [db] * len(plans))
    if len(dbs) != len(plans):
        raise ValueError(f"{len(dbs)} databases for {len(plans)} plans")
    # Graphs hold views into their batch's matrices (lazy features/packing),
    # so one surviving graph pins its whole batch's arrays.  Encoding in
    # bounded chunks caps that retention at one chunk per graph while
    # keeping the column-wise assembly amortized.
    if len(plans) > _MAX_ENCODE_BATCH:
        if not isinstance(card_maps, str):
            card_maps = list(card_maps)
        graphs = []
        for start in range(0, len(plans), _MAX_ENCODE_BATCH):
            stop = start + _MAX_ENCODE_BATCH
            chunk_cards = (card_maps if isinstance(card_maps, str)
                           else card_maps[start:stop])
            graphs.extend(build_query_graphs(
                dbs[start:stop], plans[start:stop], chunk_cards,
                storage_formats=storage_formats, catalog=catalog))
        return graphs
    if isinstance(card_maps, str):
        sentinel = _CARD_SENTINELS[card_maps]
        items = ((plan_db, _as_token(plan), sentinel)
                 for plan_db, plan in zip(dbs, plans))
    else:
        items = ((plan_db, _as_token(plan), _card_list(plan, cards))
                 for plan_db, plan, cards in zip(dbs, plans, card_maps))
    columns = ([], [], [], [], [])
    metas, codes, levels, edges, constant_edges = _encode_batch(
        items, storage_formats, columns, catalog)
    matrices = _assemble_matrices(columns)
    # Batch-wide arrays; every graph keeps views into them.  Edges count
    # from their graph's first node: subtract it once for the whole batch
    # (from a constant edge's parent only: its child is a catalog id).
    codes = np.array(codes, dtype=np.int64)
    levels = np.array(levels, dtype=np.int64)
    edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    node_bounds = [meta[0] for meta in metas] + [len(codes)]
    node_starts = np.array(node_bounds[:-1], dtype=np.int64)
    edge_bounds = [0] + [meta[1] >> 1 for meta in metas]
    edges -= np.repeat(node_starts, np.diff(edge_bounds))[:, None]
    if constant_edges is not None:
        constant_edges = np.array(constant_edges,
                                  dtype=np.int64).reshape(-1, 2)
        constant_bounds = [0] + [meta[2] >> 1 for meta in metas]
        constant_edges[:, 1] -= np.repeat(node_starts,
                                          np.diff(constant_bounds))
    # Structural invariants (child < parent, single parentless root) hold
    # by construction — children are created before their parent and every
    # non-root node is edged to a parent at creation — so no per-graph
    # check runs here; :meth:`QueryGraph.validate` stays available and the
    # equivalence tests assert bit-identity with the validated reference
    # builder.
    graphs = []
    for index, (node_start, _, _, root, starts, ends) in enumerate(metas):
        node_end, edge_start, edge_end = (node_bounds[index + 1],
                                          edge_bounds[index],
                                          edge_bounds[index + 1])
        graphs.append(QueryGraph(root=root, lazy=(
            codes[node_start:node_end], edges[edge_start:edge_end],
            levels[node_start:node_end], starts, ends, matrices),
            constant_edges=None if constant_edges is None else
            constant_edges[constant_bounds[index]:
                           constant_bounds[index + 1]]))
    perfstats.increment("featurize.vectorized", len(graphs))
    return graphs


def build_query_graph(db, plan, cards, storage_formats=None) -> QueryGraph:
    """Encode an annotated plan (or plan token) as a transferable query
    graph.

    ``cards`` maps ``id(plan_node) -> cardinality`` (see
    :func:`repro.cardest.annotate_cardinalities`) or lists them in
    post-order; the choice of source is how the exact / DeepDB / optimizer
    variants of the paper are realized.  The strings ``"exact"`` /
    ``"optimizer"`` select fused annotation, as in
    :func:`build_query_graphs`.
    """
    card_maps = cards if isinstance(cards, str) else [cards]
    return build_query_graphs(db, [plan], card_maps,
                              storage_formats=storage_formats)[0]
