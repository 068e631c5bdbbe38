"""Constant nodes of served plans: the catalog and the per-model states.

Table, attribute, predicate, join-predicate and output nodes take their
features only from the database catalog and the predicate's shape (Fig. 3),
so under a fixed model their hidden states are constants of the database.
Only plan operators carry a plan's cardinalities.

* :class:`ConstantCatalog` interns every *constant node* (a node whose
  subtree holds no plan operator) by its featurized content: its type, its
  raw feature row and the catalog ids of its children, in child order.  A
  comparison's key therefore holds its literal *feature* (IN length, LIKE
  complexity), never the literal, and a table's key holds its storage
  format.  Equal keys mean equal features over equal children, hence equal
  hidden states.  Ids are dense and assigned in traversal order, children
  before parents, so they never depend on set or dict order and sorting ids
  sorts nodes topologically.  Each database's nodes are interned in their
  own key table; all share one id space, so a micro-batch spanning
  databases gathers its rows with one index.
* :class:`ConstantStates` keeps the updated hidden states one model has
  computed, keyed by catalog id.  :func:`~repro.featurization.make_batch`
  asks it which constant children of a batch's plan nodes it already holds
  (given rows) and adds the others, with their uncomputed descendants, as
  nodes of the same batch; the forward pass stores their states back.

:data:`CATALOG_CAP` bounds a catalog.  Its owner checks it between
micro-batches and, past it, calls :meth:`ConstantCatalog.reset`, which
starts a new epoch: every :class:`ConstantStates` of an older epoch drops
its rows at its next use, and the owner drops the graphs it cached (they
name catalog ids of the old epoch).
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .. import perfstats
from .graph import PackedGraph
from .zero_shot import _assemble_matrices

__all__ = ["CATALOG_CAP", "ConstantCatalog", "ConstantStates"]

# Nodes a catalog holds before its owner resets it.  A 12 s perfbench
# serve_fresh run (fresh plans over four unseen databases) interns ~9,900,
# mostly distinct boolean predicates; the states of a full catalog take
# 8 MB per model at 64 float32 hidden units.
CATALOG_CAP = 1 << 15

_NO_EDGES = np.empty((0, 2), dtype=np.int64)
_NO_IDS = np.empty(0, dtype=np.int64)
_NO_EDGES.flags.writeable = _NO_IDS.flags.writeable = False
# The pack of a batch that computes no constant node.
_NO_NODES = PackedGraph(n_nodes=0, n_edges=0, type_codes=_NO_IDS,
                        features_by_code={}, edges=_NO_EDGES, levels=_NO_IDS,
                        constant_edges=_NO_EDGES)


def _unique(values):
    """Sorted distinct ``values`` (``np.unique`` costs ~5x more on the
    few hundred ids of a micro-batch)."""
    values = np.sort(values)
    keep = np.empty(len(values), dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


class ConstantCatalog:
    """Interned constant nodes, one key table per database, one id space.

    Per id: the node type code (``codes``), its longest-path level inside
    its own subtree (``levels``), its raw feature row in the column layout
    the featurizer assembles matrices from (``rows``) and its children's
    ids in child order (``children``).  The traversal
    (``featurization/zero_shot.py``) interns nodes; nothing else adds them.
    """

    def __init__(self):
        self.epoch = 0
        self._tables = {}
        self.codes, self.levels, self.rows, self.children = [], [], [], []

    def __len__(self):
        return len(self.codes)

    def full(self):
        """True once the catalog holds :data:`CATALOG_CAP` nodes."""
        return len(self.codes) >= CATALOG_CAP

    def table(self, db):
        """The key table (content key -> id) of ``db``'s nodes."""
        table = self._tables.get(db.name)
        if table is None:
            table = self._tables[db.name] = {}
        return table

    def reset(self):
        """Forget every node and start a new epoch (states of older epochs
        drop their rows at their next use)."""
        self._tables = {}
        self.codes, self.levels, self.rows, self.children = [], [], [], []
        self.epoch += 1
        perfstats.increment("featurize.catalog.reset")

    def pack(self, ids, edges):
        """The nodes ``ids`` (ascending) as one rootless
        :class:`~repro.featurization.graph.PackedGraph`: their type codes,
        levels and raw feature matrices, and ``edges`` as its constant
        edges (``(child id, position in ids)`` rows)."""
        columns = ([], [], [], [], [])
        codes, levels, rows = self.codes, self.levels, self.rows
        for node in ids:
            columns[codes[node]].append(rows[node])
        return PackedGraph(
            n_nodes=len(ids), n_edges=0,
            type_codes=np.array([codes[node] for node in ids],
                                dtype=np.int64),
            features_by_code={
                code: matrix for code, matrix in enumerate(
                    _assemble_matrices(columns)) if matrix is not None},
            edges=_NO_EDGES,
            levels=np.array([levels[node] for node in ids], dtype=np.int64),
            constant_edges=edges)


class ConstantStates:
    """Updated hidden states of catalog nodes under one model.

    ``states[i]`` is node ``i``'s updated state where ``known[i]``.  Rows
    belong to the catalog's epoch they were computed in and are dropped
    when the catalog moved on.  One per served model (a route): a promote
    starts an empty one.
    """

    def __init__(self, catalog):
        self.catalog = catalog
        self.epoch = catalog.epoch
        self._clear(0)

    def _clear(self, size):
        self.states = None
        # One buffer, two views: numpy for the batch's vectorized reads,
        # the bytearray for the closure walk's per-node reads.
        self._known = bytearray(size)
        self.known = np.frombuffer(self._known, dtype=bool)

    def resolve(self, refs):
        """Split the constant nodes ``refs`` (catalog ids) name into rows
        to reuse and nodes to compute.

        Returns ``(given, computed, pack)``: the sorted ids whose stored
        states the batch reads, the sorted ids it computes (every node of
        ``refs`` not stored, with its unstored descendants) and those
        nodes as a :meth:`ConstantCatalog.pack`.  Counts
        ``serve.constant_nodes.reused`` (given) and
        ``serve.constant_nodes.computed`` once each per call.
        """
        catalog = self.catalog
        size = len(catalog)
        if self.epoch != catalog.epoch:
            self.epoch = catalog.epoch
            self._clear(size)
        elif len(self._known) < size:
            grown = bytearray(max(size, 2 * len(self._known)))
            grown[:len(self._known)] = self._known
            self._known = grown
            self.known = np.frombuffer(grown, dtype=bool)
        known, held_bytes = self.known, self._known
        need = _unique(refs)
        held = known[need]
        given = need[held]
        computed = []
        edges = _NO_EDGES
        if len(given) < len(need):
            children = catalog.children
            missing = need[~held].tolist()
            closure = set(missing)
            while missing:
                for child in children[missing.pop()]:
                    if child not in closure and not held_bytes[child]:
                        closure.add(child)
                        missing.append(child)
            computed = sorted(closure)  # children first: ids are topological
            counts = [len(children[node]) for node in computed]
            child_ids = np.fromiter(
                chain.from_iterable(children[node] for node in computed),
                dtype=np.int64, count=sum(counts))
            if len(child_ids):
                edges = np.stack((child_ids, np.repeat(
                    np.arange(len(computed), dtype=np.int64), counts)), 1)
                stored = child_ids[known[child_ids]]
                if len(stored):
                    given = _unique(np.concatenate((given, stored)))
        perfstats.increment("serve.constant_nodes.reused", len(given))
        perfstats.increment("serve.constant_nodes.computed", len(computed))
        if not computed:
            return given, _NO_IDS, _NO_NODES
        return (given, np.array(computed, dtype=np.int64),
                catalog.pack(computed, edges))

    def store(self, ids, rows):
        """Keep the updated states ``rows`` of the catalog nodes ``ids``."""
        if not len(ids):
            return
        states = self.states
        if states is None or len(states) < len(self.known):
            grown = np.empty((len(self.known), rows.shape[1]),
                             dtype=rows.dtype)
            if states is not None:
                grown[:len(states)] = states
            states = self.states = grown
        states[ids] = rows
        self.known[ids] = True
