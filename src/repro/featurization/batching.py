"""Batching of query graphs for vectorized message passing.

Multiple :class:`QueryGraph` objects are merged into one disjoint union with
globally renumbered nodes.  The batch precomputes everything the model's
forward pass needs:

* per-node-type feature matrices (scaled) and the global position of every
  node (nodes are grouped by type, so a global hidden-state matrix is the
  concatenation of per-type blocks),
* message-passing *levels*: for each level and node type, the node indices
  at that level plus the edge arrays feeding them (children, parent slots,
  the children's rows in message-passing order and where each parent's run
  of children starts),
* a *message-passing order*: the position every node's updated state takes
  in the concatenation of per-group combiner outputs, which lets the model
  assemble hidden states by gather/concat instead of dense accumulation,
* root indices (one per graph).

``make_batch`` builds all of it in one vectorized pass: an argsort over type
codes assigns global ids, one stable argsort of the ``(level, type)`` keys
gives the message-passing order (groups are the runs of equal keys), edges
are sorted once by their parent's position in that order, and batched
``searchsorted`` calls cut every group's edge range at once.  Each graph
contributes cached :class:`~repro.featurization.graph.PackedGraph` arrays,
so batching costs no per-node python loops and the per-group loop only
slices.  Its batches are identical to the original loop-based
construction (its own per-node traversal for every field), a test oracle
(``tests/oracles/featurization.py``).  :class:`BatchCache` memoizes whole batches by
graph identity for callers that featurize the same graphs repeatedly
(repeated evaluation in ``bench/experiments.py``, ``predict_runtimes`` in
the public API).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .graph import NODE_TYPES

__all__ = ["GraphBatch", "LevelGroup", "make_batch", "BatchCache"]

_N_TYPES = len(NODE_TYPES)


@dataclass
class LevelGroup:
    """Nodes of one (level, node type) cell of the batch."""

    node_type: str
    node_indices: np.ndarray       # global indices of the nodes updated here
    edge_children: np.ndarray      # global indices of their children (a
                                   # served batch: their child_positions)
    edge_parent_slots: np.ndarray  # position of each child's parent inside
                                   # ``node_indices`` (non-decreasing)
    child_positions: np.ndarray    # positions of ``edge_children`` in
                                   # message-passing order
    edge_starts: np.ndarray        # first edge of each parent's run of
                                   # children (``reduceat`` offsets); levels
                                   # are longest-path heights, so in a group
                                   # with edges every node has a run


@dataclass
class GraphBatch:
    """A batched disjoint union of query graphs."""

    features: dict                 # node type -> (n_t, dim_t) matrix
    type_offsets: dict             # node type -> offset in the global matrix
    type_counts: dict
    init_positions: dict           # node type -> global indices of its nodes
    levels: list = field(default_factory=list)  # list[list[LevelGroup]]
    roots: np.ndarray = None
    n_nodes: int = 0
    mp_positions: np.ndarray = None    # global id -> row in the concatenated
                                       # per-group combiner outputs
    root_positions: np.ndarray = None  # mp position of each graph's root
    # Served batches only (see make_batch): the ConstantStates read and
    # written, the catalog ids of the given rows, and the catalog ids and
    # mp positions of the constant nodes computed here.
    states: object = None
    given: np.ndarray = None
    computed: np.ndarray = None
    computed_positions: np.ndarray = None
    _feature_cast: dict = field(default_factory=dict, repr=False)

    @property
    def n_graphs(self):
        return len(self.roots)

    def features_as(self, dtype):
        """Feature matrices cast to ``dtype`` (cached per dtype)."""
        dtype = np.dtype(dtype)
        cached = self._feature_cast.get(dtype)
        if cached is None:
            cached = {t: m.astype(dtype, copy=False)
                      for t, m in self.features.items()}
            self._feature_cast[dtype] = cached
        return cached

    def cast_(self, dtype):
        """Cast feature matrices in place (training batches, done once)."""
        dtype = np.dtype(dtype)
        self.features = {t: m.astype(dtype, copy=False)
                         for t, m in self.features.items()}
        self._feature_cast.clear()
        return self


def _run_bounds(values):
    """Start of every run of equal values in ``values``, then its length."""
    new_run = np.ones(len(values) + 1, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=new_run[1:-1])
    return np.flatnonzero(new_run)


def make_batch(graphs, scalers=None, states=None) -> GraphBatch:
    """Merge graphs into one batch (optionally scaling features).

    ``states`` (a :class:`~repro.featurization.catalog.ConstantStates`)
    batches served graphs, whose constant children are catalog ids: each
    one it holds becomes a *given* row, read from it by the forward pass;
    the others join the batch as nodes (with their unheld descendants),
    computed in the same level-group pass and stored back.  The hidden
    states the forward pass reads are then ``[given rows | nodes in
    message-passing order]``, and every ``child_positions`` entry indexes
    that concatenation.  A served plan node's level counts its plan
    children only, so plan nodes are lifted above the computed constant
    nodes; a warm batch holds plan nodes alone, in as few level groups as
    its plans are deep.  A full graph is the case with no given rows.
    """
    if not graphs:
        raise ValueError("cannot batch zero graphs")

    packs = [graph.packed() for graph in graphs]
    given = computed = None
    n_given = 0
    if states is not None:
        refs = [p.constant_edges[:, 0] for p in packs]
        # The computed constant nodes join as one more pack (no root).
        given, computed, pack = states.resolve(
            np.concatenate(refs) if len(refs) > 1 else refs[0])
        packs.append(pack)
        n_given = len(given)
    offsets = np.zeros(len(packs) + 1, dtype=np.int64)
    np.cumsum([p.n_nodes for p in packs], out=offsets[1:])
    n_nodes = int(offsets[-1])

    # Global ids: grouped by node type (stable argsort keeps (graph, local)
    # order within each type) so hidden states can be assembled by
    # concatenating per-type encoder outputs.
    all_codes = np.concatenate([p.type_codes for p in packs])
    order = np.argsort(all_codes, kind="stable")
    global_of = np.empty(n_nodes, dtype=np.int64)
    global_of[order] = np.arange(n_nodes)
    tcounts = np.bincount(all_codes, minlength=_N_TYPES)
    toffsets = np.zeros(_N_TYPES + 1, dtype=np.int64)
    np.cumsum(tcounts, out=toffsets[1:])

    type_offsets, type_counts = {}, {}
    features, init_positions = {}, {}
    for code, node_type in enumerate(NODE_TYPES):
        type_offsets[node_type] = int(toffsets[code])
        type_counts[node_type] = int(tcounts[code])
        if not tcounts[code]:
            continue
        matrix = np.concatenate(
            [p.features_by_code[code] for p in packs
             if code in p.features_by_code], axis=0)
        if scalers is not None:
            matrix = scalers.transform(node_type, matrix)
        features[node_type] = matrix
        init_positions[node_type] = np.arange(
            toffsets[code], toffsets[code] + tcounts[code], dtype=np.int64)

    # Message-passing order: nodes sorted by their (level, type) key, ties
    # in global-id order (stable sort); groups are the runs of one key and
    # ``mp_positions`` is the inverse permutation.
    node_levels = np.concatenate([p.levels for p in packs])
    if states is not None and len(computed):
        # Served plan nodes' levels count plan children only: lift them
        # above every constant node computed here.
        node_levels[:offsets[-2]] += node_levels[offsets[-2]:].max() + 1
    node_keys = np.empty(n_nodes, dtype=np.int64)
    node_keys[global_of] = node_levels * _N_TYPES + all_codes
    mp_nodes = np.argsort(node_keys, kind="stable")
    mp_positions = np.empty(n_nodes, dtype=np.int64)
    mp_positions[mp_nodes] = np.arange(n_nodes)
    sorted_keys = node_keys[mp_nodes]
    group_bounds = _run_bounds(sorted_keys)

    # Edges as (child's row in the hidden states, parent's global id).
    # Graph edges come first and constant edges after them, so the stable
    # sort below keeps each parent's children in graph order: plan
    # children, then constant children.
    edges = np.concatenate([p.edges for p in packs])
    edges += np.repeat(offsets[:-1], [p.n_edges for p in packs])[:, None]
    edges = global_of[edges]
    child_rows = mp_positions[edges[:, 0]]
    if n_given:
        child_rows += n_given
    parents = edges[:, 1]
    if states is not None:
        constant_edges = np.concatenate([p.constant_edges for p in packs])
        # A catalog id's row: its given row, or its computed node's.
        row_of = np.empty(len(states.catalog), dtype=np.int64)
        row_of[given] = np.arange(n_given, dtype=np.int64)
        computed_positions = mp_positions[global_of[offsets[-2]:]]
        row_of[computed] = computed_positions + n_given
        child_rows = np.concatenate((child_rows,
                                     row_of[constant_edges[:, 0]]))
        parents = np.concatenate((parents, global_of[
            constant_edges[:, 1] + np.repeat(
                offsets[:-1], [len(p.constant_edges) for p in packs])]))

    # Sorted once by their parent's mp position (insertion order within a
    # parent).  A group owns a contiguous mp range, hence a contiguous edge
    # range, and a parent's slot is its offset in that range.
    parent_pos = mp_positions[parents]
    e_order = np.argsort(parent_pos, kind="stable")
    parent_pos = parent_pos[e_order]
    child_positions = child_rows[e_order]
    edge_bounds = np.searchsorted(parent_pos, group_bounds)
    parent_slots = parent_pos - np.repeat(group_bounds[:-1],
                                          edge_bounds[1:] - edge_bounds[:-1])
    # Runs of one parent's children; every group's first edge opens one.
    runs = _run_bounds(parent_pos)
    run_bounds = np.searchsorted(runs, edge_bounds)
    edge_starts = runs[:-1] - np.repeat(edge_bounds[:-1],
                                        run_bounds[1:] - run_bounds[:-1])
    # The training path reads children by global id (full graphs only).
    edge_children = (child_positions if states is not None
                     else edges[e_order, 0])

    levels = []
    nb, eb = group_bounds.tolist(), edge_bounds.tolist()
    rb = run_bounds.tolist()
    for g, key in enumerate(sorted_keys[group_bounds[:-1]].tolist()):
        level, code = divmod(key, _N_TYPES)
        while len(levels) <= level:
            levels.append([])
        lo, hi = eb[g], eb[g + 1]
        levels[level].append(LevelGroup(
            node_type=NODE_TYPES[code],
            node_indices=mp_nodes[nb[g]:nb[g + 1]],
            edge_children=edge_children[lo:hi],
            edge_parent_slots=parent_slots[lo:hi],
            child_positions=child_positions[lo:hi],
            edge_starts=edge_starts[rb[g]:rb[g + 1]]))

    roots_local = np.array([graph.root for graph in graphs], dtype=np.int64)
    roots = global_of[offsets[:len(graphs)] + roots_local]
    batch = GraphBatch(features=features, type_offsets=type_offsets,
                       type_counts=type_counts, init_positions=init_positions,
                       levels=levels, roots=roots, n_nodes=n_nodes,
                       mp_positions=mp_positions,
                       root_positions=mp_positions[roots])
    if states is not None:
        batch.states, batch.given = states, given
        batch.computed = computed
        batch.computed_positions = computed_positions
    return batch


class BatchCache:
    """LRU cache of :class:`GraphBatch` objects keyed on graph identity.

    Callers that featurize the *same* graph objects repeatedly (evaluation
    loops in the benchmark suite, ``predict_runtimes``) get the batch back
    without re-running construction.  Entries hold strong references to
    their graphs, so an ``id()`` key can never be recycled while cached;
    the cache is bounded (LRU eviction) to keep that retention small.

    :meth:`get_chunks` serves chunked callers: it remembers which cached
    chunk starts at a given graph, so a list that grew, shrank or shifted
    around a previously seen subsequence re-uses the cached chunk instead of
    re-batching everything from the new chunk boundaries.
    """

    def __init__(self, max_entries=64):
        self.max_entries = int(max_entries)
        self._entries = OrderedDict()
        self._chunk_heads = {}    # (id(first graph), id(scalers)) -> key
        self.hits = 0
        self.misses = 0

    def _key(self, graphs, scalers):
        # Size fields in the key catch graphs mutated after caching (same
        # staleness guard as QueryGraph.packed()).
        return (tuple([(id(g), g.n_nodes, g.n_edges) for g in graphs]),
                id(scalers))

    def get(self, graphs, scalers=None):
        graphs = list(graphs)
        key = self._key(graphs, scalers)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[2]
        self.misses += 1
        batch = make_batch(graphs, scalers)
        self._entries[key] = (graphs, scalers, batch)
        if graphs:
            self._chunk_heads[(id(graphs[0]), id(scalers))] = key
        while len(self._entries) > self.max_entries:
            evicted_key, entry = self._entries.popitem(last=False)
            head_key = (id(entry[0][0]), id(entry[1])) if entry[0] else None
            if head_key is not None \
                    and self._chunk_heads.get(head_key) == evicted_key:
                del self._chunk_heads[head_key]
        return batch

    def get_chunks(self, graphs, scalers=None, batch_size=256):
        """Batches covering ``graphs`` in order, at most ``batch_size`` each.

        Chunk boundaries prefer previously cached chunks: at each position,
        if the upcoming graphs reproduce a chunk that was cached starting at
        this graph, that chunk is re-used — so calling with a longer, shorter
        or differently assembled list still hits for every unchanged
        subsequence instead of re-batching on shifted boundaries.
        """
        graphs = list(graphs)
        batches = []
        position, n = 0, len(graphs)
        while position < n:
            hint = self._chunk_heads.get((id(graphs[position]), id(scalers)))
            if hint is not None and hint in self._entries:
                length = len(hint[0])
                if (0 < length <= batch_size and length <= n - position
                        and self._key(graphs[position:position + length],
                                      scalers) == hint):
                    batches.append(self.get(graphs[position:position + length],
                                            scalers))
                    position += length
                    continue
            chunk = graphs[position:position + batch_size]
            batches.append(self.get(chunk, scalers))
            position += len(chunk)
        return batches

    def stats(self):
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self._entries)}

    def clear(self):
        """Drop all cached batches (and the pinned graph references)."""
        self._entries.clear()
        self._chunk_heads.clear()
