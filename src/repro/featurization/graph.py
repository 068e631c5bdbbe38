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


class QueryGraph:
    """One encoded query plan.

    ``node_types`` / ``features`` / ``edges`` are parallel per-node (resp.
    per-edge) containers.  The vectorized builder constructs graphs with
    *lazy* feature rows: per-node vectors are views into the batch-wide
    per-type matrices and are only materialized into a list when something
    actually iterates ``features`` (scaler fitting, the reference batcher,
    tests) — the hot path reads the matrices through :meth:`packed`.
    """

    __slots__ = ("edges", "root", "_packed", "_lazy_packed", "_node_types",
                 "_lazy_codes", "_features", "_lazy_features")

    def __init__(self, node_types=None, features=None, edges=None, root=-1,
                 packed=None, lazy_packed=None, lazy_codes=None,
                 lazy_features=None):
        if node_types is None and lazy_codes is None:
            node_types = []
        self._node_types = node_types
        self._lazy_codes = lazy_codes
        self.edges = [] if edges is None else edges
        self.root = root
        self._packed = packed
        self._lazy_packed = lazy_packed
        self._lazy_features = lazy_features
        if features is None and lazy_features is None:
            features = []
        self._features = features

    def __repr__(self):
        return (f"QueryGraph(n_nodes={self.n_nodes}, "
                f"n_edges={len(self.edges)}, root={self.root})")

    @property
    def node_types(self):
        """Per-node type names (materialized from codes on first access)."""
        if self._node_types is None:
            self._node_types = [NODE_TYPES[code] for code in self._lazy_codes]
        return self._node_types

    @property
    def features(self):
        """Per-node feature vectors (materialized on first access).

        Lazy graphs record only (type codes, per-type start rows, batch
        matrices): nodes of one type occupy consecutive matrix rows in
        creation order, so walking the codes with per-type counters
        reproduces each node's feature row.
        """
        if self._features is None:
            codes, starts, matrices = self._lazy_features
            counters = list(starts)
            features = []
            append = features.append
            for code in codes:
                row = counters[code]
                append(matrices[code][row])
                counters[code] = row + 1
            self._features = features
            self._lazy_features = None
        return self._features

    def packed(self) -> PackedGraph:
        """Cached array form for batching (recomputed if the graph grew).

        Graphs from the vectorized builder carry a *lazy* pack — views into
        the batch-wide arrays plus the per-type row spans — assembled into a
        :class:`PackedGraph` on first use, so featurization never pays for
        graphs that are cached away or filtered before batching.
        """
        cached = self._packed
        if (cached is not None and cached.n_nodes == self.n_nodes
                and cached.n_edges == len(self.edges)):
            return cached
        lazy = self._lazy_packed
        if lazy is not None:
            self._lazy_packed = None
            type_codes, starts, ends, matrices, edges_array, levels = lazy
            if (len(type_codes) == self.n_nodes
                    and len(edges_array) == len(self.edges)):
                features_by_code = {}
                for code in range(len(NODE_TYPES)):
                    if ends[code] > starts[code]:
                        features_by_code[code] = \
                            matrices[code][starts[code]:ends[code]]
                self._packed = PackedGraph(
                    n_nodes=len(type_codes), n_edges=len(edges_array),
                    type_codes=type_codes, features_by_code=features_by_code,
                    edges=edges_array,
                    levels=np.asarray(levels, dtype=np.int64))
                return self._packed
            # The graph was mutated before first packing: recompute below.
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
            n_nodes=self.n_nodes, n_edges=len(self.edges),
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
        if not (0 <= child < len(self.node_types)) \
                or not (0 <= parent < len(self.node_types)):
            raise IndexError("edge endpoints out of range")
        if child == parent:
            raise ValueError("self edges are not allowed")
        self.edges.append((child, parent))

    @property
    def n_nodes(self):
        types = self._node_types
        return len(types if types is not None else self._lazy_codes)

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
        if self.edges:
            edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
            if not (edges[:, 0] < edges[:, 1]).all():
                raise ValueError("edges must point from earlier to later nodes "
                                 "(topological construction)")
            has_parent[edges[:, 0]] = True
        orphans = np.flatnonzero(~has_parent)
        if orphans.size != 1 or orphans[0] != self.root:
            raise ValueError("graph has nodes disconnected from the root")
        return True
