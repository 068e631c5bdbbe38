"""The original per-node graph builder and loop batcher: the specs of
:func:`repro.featurization.build_query_graphs` and
:func:`repro.featurization.make_batch`."""

import numpy as np

from repro import perfstats
from repro.featurization import (NODE_TYPES, GraphBatch, LevelGroup,
                                 QueryGraph, attribute_features,
                                 output_features, plan_features,
                                 predicate_features, table_features)
from repro.sql import BooleanPredicate, Comparison, PredOp


class _GraphBuilder:
    """Original per-node builder: one feature vector per ``add_node`` call."""

    def __init__(self, db, cards, storage_formats=None):
        self.db = db
        self.cards = cards
        self.graph = QueryGraph()
        self._attributes = {}
        self._storage_formats = storage_formats or {}

    # ------------------------------------------------------------------
    def attribute_node(self, table, column):
        key = (table, column)
        if key not in self._attributes:
            stats = self.db.column_stats(table, column)
            node = self.graph.add_node("attribute", attribute_features(
                width=stats.width, correlation=stats.correlation,
                ndistinct=stats.ndistinct, null_frac=stats.null_frac,
                dtype=stats.dtype))
            self._attributes[key] = node
        return self._attributes[key]

    def table_node(self, table):
        stats = self.db.table_stats(table)
        fmt = self._storage_formats.get(table, "row")
        return self.graph.add_node("table", table_features(
            reltuples=stats.reltuples, relpages=stats.relpages,
            storage_format=fmt))

    def predicate_node(self, predicate, parent_table=None):
        """Encode a predicate tree; returns the root predicate node index."""
        if isinstance(predicate, Comparison):
            attr = self.attribute_node(predicate.table, predicate.column)
            node = self.graph.add_node("predicate", predicate_features(
                predicate.op, predicate.literal_feature))
            self.graph.add_edge(attr, node)
            return node
        if isinstance(predicate, BooleanPredicate):
            children = [self.predicate_node(child)
                        for child in predicate.children]
            node = self.graph.add_node("predicate", predicate_features(
                predicate.op, predicate.literal_feature))
            for child in children:
                self.graph.add_edge(child, node)
            return node
        raise TypeError(f"unknown predicate {type(predicate)!r}")

    def join_predicate_node(self, join):
        """Equality predicate over the two join-key attributes."""
        child_attr = self.attribute_node(join.child_table, join.child_column)
        parent_attr = self.attribute_node(join.parent_table, join.parent_column)
        node = self.graph.add_node("predicate",
                                   predicate_features(PredOp.EQ, 1.0))
        self.graph.add_edge(child_attr, node)
        self.graph.add_edge(parent_attr, node)
        return node

    def output_node(self, aggregate):
        attr = None
        if aggregate.column is not None:
            attr = self.attribute_node(aggregate.table, aggregate.column)
        node = self.graph.add_node("output", output_features(aggregate.func))
        if attr is not None:
            self.graph.add_edge(attr, node)
        return node

    # ------------------------------------------------------------------
    def plan_node(self, node):
        child_plan_ids = [self.plan_node(child) for child in node.children]

        extra_children = []
        if node.is_scan:
            extra_children.append(self.table_node(node.table))
            if node.filter_predicate is not None:
                extra_children.append(self.predicate_node(node.filter_predicate))
        if node.is_join and node.join is not None:
            extra_children.append(self.join_predicate_node(node.join))
        if node.op_name in ("Aggregate", "HashAggregate"):
            for aggregate in node.aggregates:
                extra_children.append(self.output_node(aggregate))
            for table, column in node.group_by:
                extra_children.append(self.attribute_node(table, column))
        if node.op_name == "Sort":
            for table, column in node.sort_keys:
                extra_children.append(self.attribute_node(table, column))

        card_out = self.cards.get(id(node), node.est_rows)
        card_prod = 1.0
        for child in node.children:
            card_prod *= max(self.cards.get(id(child), child.est_rows), 1.0)
        plan_id = self.graph.add_node("plan", plan_features(
            op_name=node.op_name, card_out=card_out, card_prod=card_prod,
            width=node.width, workers=node.workers))
        for child_id in child_plan_ids + extra_children:
            self.graph.add_edge(child_id, plan_id)
        return plan_id


def build_query_graph_reference(db, plan, cards,
                                storage_formats=None) -> QueryGraph:
    """Loop-based construction, kept close to the original per-node
    implementation; :func:`repro.featurization.build_query_graph` must
    produce bit-identical graphs."""
    builder = _GraphBuilder(db, cards, storage_formats)
    root = builder.plan_node(plan)
    builder.graph.root = root
    builder.graph.validate()
    perfstats.increment("featurize.reference")
    return builder.graph


def make_batch_reference(graphs, scalers=None) -> GraphBatch:
    """Loop-based construction, kept close to the original per-node
    implementation; :func:`repro.featurization.make_batch` must produce
    identical batches."""
    if not graphs:
        raise ValueError("cannot batch zero graphs")

    per_type_nodes = {t: [] for t in NODE_TYPES}   # (graph_idx, local_idx)
    for g_idx, graph in enumerate(graphs):
        for local, node_type in enumerate(graph.node_types):
            per_type_nodes[node_type].append((g_idx, local))

    type_offsets, type_counts = {}, {}
    global_of = {}  # (graph_idx, local_idx) -> global id
    cursor = 0
    for node_type in NODE_TYPES:
        type_offsets[node_type] = cursor
        nodes = per_type_nodes[node_type]
        type_counts[node_type] = len(nodes)
        for position, key in enumerate(nodes):
            global_of[key] = cursor + position
        cursor += len(nodes)
    n_nodes = cursor

    features = {}
    init_positions = {}
    for node_type in NODE_TYPES:
        nodes = per_type_nodes[node_type]
        if not nodes:
            continue
        matrix = np.stack([graphs[g].features[i] for g, i in nodes])
        if scalers is not None:
            matrix = scalers.transform(node_type, matrix)
        features[node_type] = matrix
        init_positions[node_type] = np.array(
            [global_of[key] for key in nodes], dtype=np.int64)

    level_of = np.zeros(n_nodes, dtype=np.int64)
    children_global = {}
    for g_idx, graph in enumerate(graphs):
        local_levels = graph.levels()
        for local in range(graph.n_nodes):
            level_of[global_of[(g_idx, local)]] = local_levels[local]
        for child, parent in graph.edges:
            children_global.setdefault(global_of[(g_idx, parent)], []).append(
                global_of[(g_idx, child)])

    max_level = int(level_of.max()) if n_nodes else 0
    node_type_of = np.empty(n_nodes, dtype=object)
    for node_type in NODE_TYPES:
        for key in per_type_nodes[node_type]:
            node_type_of[global_of[key]] = node_type

    # Groups in traversal order; a node's mp position is its row in the
    # concatenation of the groups visited so far.  Children sit at lower
    # levels, so their positions are known when their parent's group is.
    levels = []
    mp_positions = np.empty(n_nodes, dtype=np.int64)
    cursor = 0
    for level in range(max_level + 1):
        groups = []
        at_level = np.nonzero(level_of == level)[0]
        for node_type in NODE_TYPES:
            nodes = np.array([n for n in at_level
                              if node_type_of[n] == node_type], dtype=np.int64)
            if nodes.size == 0:
                continue
            slot_of = {int(n): slot for slot, n in enumerate(nodes)}
            edge_children, edge_slots, edge_starts = [], [], []
            for node in nodes:
                mp_positions[node] = cursor
                cursor += 1
                node_children = children_global.get(int(node), [])
                if node_children:
                    edge_starts.append(len(edge_children))
                for child in node_children:
                    edge_children.append(child)
                    edge_slots.append(slot_of[int(node)])
            groups.append(LevelGroup(
                node_type=node_type,
                node_indices=nodes,
                edge_children=np.array(edge_children, dtype=np.int64),
                edge_parent_slots=np.array(edge_slots, dtype=np.int64),
                child_positions=np.array(
                    [mp_positions[c] for c in edge_children], dtype=np.int64),
                edge_starts=np.array(edge_starts, dtype=np.int64)))
        levels.append(groups)

    roots = np.array([global_of[(g_idx, graph.root)]
                      for g_idx, graph in enumerate(graphs)], dtype=np.int64)
    return GraphBatch(features=features, type_offsets=type_offsets,
                      type_counts=type_counts, init_positions=init_positions,
                      levels=levels, roots=roots, n_nodes=n_nodes,
                      mp_positions=mp_positions,
                      root_positions=mp_positions[roots])
