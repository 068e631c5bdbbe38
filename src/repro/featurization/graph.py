"""Typed query graphs: the data structure behind Figure 3.

A :class:`QueryGraph` holds one query plan encoded as a DAG of typed nodes
(plan operators, predicates, tables, attributes, output columns) with
per-node transferable feature vectors.  Edges point child -> parent in the
direction of the bottom-up message passing; nodes are created children-first
so node indices are already a topological order.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["NODE_TYPES", "QueryGraph", "PackedGraph"]

NODE_TYPES = ("plan", "predicate", "table", "attribute", "output")

TYPE_CODES = {node_type: code for code, node_type in enumerate(NODE_TYPES)}


class PackedGraph(NamedTuple):
    """Array view of a :class:`QueryGraph`, cached for vectorized batching.

    Computed once per graph and reused by every ``make_batch`` call that
    includes the graph (training epochs, repeated evaluations), removing the
    per-node python loops from the batching hot path.  A ``NamedTuple`` so
    construction (once per featurized graph) is a single C call.
    """

    n_nodes: int
    n_edges: int
    type_codes: np.ndarray           # (n,) int64 index into NODE_TYPES
    features_by_code: dict           # code -> (count, dim) matrix, local order
    edges: np.ndarray                # (E, 2) int64 (child, parent)
    levels: np.ndarray               # (n,) int64 longest-path level
    constant_edges: np.ndarray = None  # (C, 2) int64 (catalog id, parent)
                                       # of a served graph; None: full graph


class QueryGraph:
    """One encoded query plan.

    ``node_types`` / ``features`` / ``edges`` are parallel per-node (resp.
    per-edge) lists.  The vectorized builder constructs *lazy* graphs: each
    holds views into its batch's arrays (type codes, ``(E, 2)`` edges,
    levels) plus the batch's per-type feature matrices, and builds each of
    those three lists only when something reads it (scaler fitting, the
    reference batcher, tests, the mutation API).  The hot path reads the
    arrays through :meth:`packed`, and :attr:`n_nodes` / :attr:`n_edges`
    read their lengths, so a graph that is only batched never allocates a
    per-node or per-edge Python object.

    A *served* graph (built against a
    :class:`~repro.featurization.catalog.ConstantCatalog`) holds its plan
    nodes only; ``constant_edges`` lists each plan node's constant
    children as ``(catalog id, parent)`` rows, in child order after the
    plan children its ``edges`` name.
    """

    __slots__ = ("root", "_node_types", "_features", "_edges", "_lazy",
                 "_packed", "constant_edges")

    def __init__(self, node_types=None, features=None, edges=None, root=-1,
                 lazy=None, constant_edges=None):
        # ``lazy``: (type_codes, edges, levels, starts, ends, matrices) —
        # array views of one graph of a batch, and the first / one-past-last
        # row of each node type in the batch-wide ``matrices``.
        self.root = root
        self._lazy = lazy
        self._packed = None
        self.constant_edges = constant_edges
        if lazy is None:
            node_types = [] if node_types is None else node_types
            features = [] if features is None else features
            edges = [] if edges is None else edges
        self._node_types = node_types
        self._features = features
        self._edges = edges

    def __repr__(self):
        return (f"QueryGraph(n_nodes={self.n_nodes}, "
                f"n_edges={self.n_edges}, root={self.root})")

    @property
    def node_types(self):
        """Per-node type names (materialized from codes on first access)."""
        if self._node_types is None:
            self._node_types = [NODE_TYPES[code]
                                for code in self._lazy[0].tolist()]
        return self._node_types

    @property
    def edges(self):
        """Per-edge ``(child, parent)`` tuples (materialized on first
        access)."""
        if self._edges is None:
            self._edges = list(map(tuple, self._lazy[1].tolist()))
        return self._edges

    @property
    def features(self):
        """Per-node feature vectors (materialized on first access).

        Nodes of one type occupy consecutive rows of the batch matrix in
        creation order, so walking the type codes with per-type counters
        (starting at the graph's first row of each type) reproduces each
        node's feature row.
        """
        if self._features is None:
            codes, _, _, starts, _, matrices = self._lazy
            counters = list(starts)
            features = []
            append = features.append
            for code in codes.tolist():
                row = counters[code]
                append(matrices[code][row])
                counters[code] = row + 1
            self._features = features
        return self._features

    @property
    def n_nodes(self):
        types = self._node_types
        return len(types) if types is not None else len(self._lazy[0])

    @property
    def n_edges(self):
        edges = self._edges
        return len(edges) if edges is not None else len(self._lazy[1])

    def packed(self) -> PackedGraph:
        """Cached array form for batching (recomputed if the graph grew).

        A lazy graph's pack is its batch views plus per-type row spans,
        assembled on first use, so featurization never pays for graphs that
        are cached away or filtered before batching.
        """
        cached = self._packed
        if (cached is not None and cached.n_nodes == self.n_nodes
                and cached.n_edges == self.n_edges):
            return cached
        lazy = self._lazy
        if lazy is not None:
            type_codes, edges, levels, starts, ends, matrices = lazy
            # A graph only grows (add_node / add_edge), so equal sizes
            # mean unmutated.
            if (len(type_codes) == self.n_nodes
                    and len(edges) == self.n_edges):
                features_by_code = {}
                for code in range(len(NODE_TYPES)):
                    if ends[code] > starts[code]:
                        features_by_code[code] = \
                            matrices[code][starts[code]:ends[code]]
                self._packed = PackedGraph(
                    n_nodes=len(type_codes), n_edges=len(edges),
                    type_codes=type_codes, features_by_code=features_by_code,
                    edges=edges, levels=levels,
                    constant_edges=self.constant_edges)
                return self._packed
            # The graph was mutated: recompute from its lists below.
        type_codes = np.array([TYPE_CODES[t] for t in self.node_types],
                              dtype=np.int64)
        features_by_code = {}
        for code in range(len(NODE_TYPES)):
            local = np.flatnonzero(type_codes == code)
            if local.size:
                features_by_code[code] = np.stack(
                    [self.features[i] for i in local])
        edges = (np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
                 if self.edges else np.empty((0, 2), dtype=np.int64))
        self._packed = PackedGraph(
            n_nodes=self.n_nodes, n_edges=self.n_edges,
            type_codes=type_codes, features_by_code=features_by_code,
            edges=edges, levels=self.levels())
        return self._packed

    def add_node(self, node_type, feature_vector):
        if node_type not in NODE_TYPES:
            raise ValueError(f"unknown node type {node_type!r}")
        self.node_types.append(node_type)
        self.features.append(np.asarray(feature_vector, dtype=np.float64))
        return len(self.node_types) - 1

    def add_edge(self, child, parent):
        n_nodes = self.n_nodes
        if not (0 <= child < n_nodes) or not (0 <= parent < n_nodes):
            raise IndexError("edge endpoints out of range")
        if child == parent:
            raise ValueError("self edges are not allowed")
        self.edges.append((child, parent))

    def levels(self):
        """Longest-path level per node (leaves=0); children precede parents."""
        level = np.zeros(self.n_nodes, dtype=np.int64)
        for child, parent in sorted(self.edges, key=lambda e: e[1]):
            # Node indices are topological (children created first), so a
            # single pass in parent order suffices.
            level[parent] = max(level[parent], level[child] + 1)
        return level

    def validate(self):
        """Sanity checks used by tests and the builder (vectorized).

        Edges are topological (child < parent), so following parent pointers
        strictly increases the node index and must terminate at a parentless
        node; every node reaches the root if and only if the root is the
        *only* parentless node.  That turns the original reachability sweep
        into two array checks.
        """
        if self.root < 0 or self.root >= self.n_nodes:
            raise ValueError("graph has no valid root")
        has_parent = np.zeros(self.n_nodes, dtype=bool)
        if self.n_edges:
            edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
            if not (edges[:, 0] < edges[:, 1]).all():
                raise ValueError("edges must point from earlier to later nodes "
                                 "(topological construction)")
            has_parent[edges[:, 0]] = True
        orphans = np.flatnonzero(~has_parent)
        if orphans.size != 1 or orphans[0] != self.root:
            raise ValueError("graph has nodes disconnected from the root")
        return True
