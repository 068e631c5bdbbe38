"""Data-driven cardinality estimation (the DeepDB stand-in).

Learned from the data only — no query executions — as required for zero-shot
compatibility (Table 2 of the paper).  Two cooperating components:

* per-table **SPNs** (:mod:`repro.cardest.spn`) for single-table conjunctive
  selectivities,
* per-FK-edge **fanout indexes** enabling correlated *join sampling*: a
  Horvitz-Thompson estimator walks the query's join tree, expanding child
  edges by sampling one child per match and weighting by the true fanout.
  Per-table predicates are then evaluated exactly on the sampled rows.

Like DeepDB, the estimator does not support disjunctions or string patterns;
those fall back to the traditional optimizer estimator (the fallback the
paper recommends in Section 3.4).  Training takes seconds — "usually in the
order of minutes" at paper scale — and can be refreshed cheaply after
updates (Fig. 8).

The estimator is the hot core of plan annotation, so the public entry points
run a **batched fast path** that is bit-identical to the recursive original:

* filter masks, SPN selectivities, scan estimates and parsed constraint
  sets are memoized per ``(table, predicate)`` in bounded LRU caches — a
  plan whose join nodes revisit the same scan predicates evaluates each of
  them exactly once (``prime_plan`` does that up front in one pass),
* the 1:N hop of :meth:`join_sample` resolves all fanouts with one batched
  ``searchsorted`` probe (:meth:`repro.storage.Index.eq_bounds_batch`) and
  draws all child picks with one array-``integers`` call, which numpy's
  ``Generator`` evaluates element-wise in order — consuming the *same RNG
  stream* as the original per-row loop, so estimates match bit-for-bit.

The original loop implementations are test oracles
(``tests/oracles/cardest.py``) that the equivalence tests compare against.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..sql import evaluate_predicate
from ..storage import Index
from .base import CardinalityEstimator
from .spn import UnsupportedPredicate, learn_spn, predicate_to_constraints
from .traditional import TraditionalEstimator

__all__ = ["DataDrivenEstimator", "spn_input_arrays"]

_UNSUPPORTED = object()  # cached marker for unsupported predicates
_SCAN_OPS = ("SeqScan", "IndexScan", "ColumnarScan")
_JOIN_OPS = ("HashJoin", "NestedLoopJoin", "MergeJoin")


def _default_store():
    """The env-configured artifact store, if any (lazy import: the bench
    package imports ``cardest`` transitively, so resolving it at call time
    avoids the cycle)."""
    from ..bench.store import store_from_env
    return store_from_env()


def spn_input_arrays(table):
    """The per-column float64 arrays SPN learning consumes for ``table``.

    Dictionary-encoded columns map negative codes (NULLs) to NaN.  The one
    canonical preparation — the estimator, the perf harness and the
    equivalence tests must all learn from identically prepared inputs.
    """
    arrays = {}
    for name, col in table.columns.items():
        values = col.values.astype(np.float64)
        if col.dictionary is not None:
            values = np.where(col.values < 0, np.nan, values)
        arrays[name] = values
    return arrays


class _PredicateCache:
    """Bounded FIFO cache keyed on ``(table, id(predicate))``.

    Entries pin the predicate object, so an ``id()`` can never be recycled
    while its entry lives (the same retention discipline as ``BatchCache``);
    the bound keeps that retention small.  Eviction is insertion-ordered
    (no per-hit reordering — this sits in the annotation hot loop, and one
    trace's working set fits the bound comfortably).
    """

    def __init__(self, max_entries=2048):
        self.max_entries = int(max_entries)
        self._entries = OrderedDict()

    def get(self, table, predicate):
        entry = self._entries.get((table, id(predicate)))
        if entry is None:
            return None
        return entry[1]

    def put(self, table, predicate, value):
        self._entries[(table, id(predicate))] = (predicate, value)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def clear(self):
        self._entries.clear()


class DataDrivenEstimator(CardinalityEstimator):
    """DeepDB-style estimator: SPNs + correlated join samples.

    **Persistence:** with ``REPRO_ARTIFACT_DIR`` set (or an explicit
    ``store=``), construction and :meth:`refresh` persist each table's SPN
    in the artifact store and hydrate instead of relearning when the
    table's content fingerprint matches — this costs one content-hash pass
    over each table at build time and writes under the store directory.
    Pass ``store=False`` to force purely in-memory learning regardless of
    the environment.
    """

    name = "deepdb"

    def __init__(self, db, sample_size=1024, seed=0, max_spn_rows=20_000,
                 fallback=None, store=None):
        self.db = db
        self.sample_size = int(sample_size)
        self._rng = np.random.default_rng(seed)
        self._fallback = fallback or TraditionalEstimator()
        # store=None: use the env-configured store; store=False: force none.
        if store is None:
            store = _default_store()
        self._store = store or None
        self._seed = seed
        self._max_spn_rows = max_spn_rows
        self._spns = {}
        self._fanout_indexes = {}
        self._constraints_cache = _PredicateCache()
        self._selectivity_cache = _PredicateCache()
        self._scan_cache = _PredicateCache()
        self._mask_cache = _PredicateCache(max_entries=512)
        self._table_sizes = {}
        self._build(max_spn_rows, seed)

    # ------------------------------------------------------------------
    # Training (data only, no queries)
    # ------------------------------------------------------------------
    def _build(self, max_spn_rows, seed):
        """Learn (or hydrate) the per-table SPNs and per-FK fanout indexes.

        With an artifact store attached (explicit ``store=`` or
        ``REPRO_ARTIFACT_DIR``), each table's SPN is persisted under the
        learning configuration's content key and validated against the
        table's *content fingerprint*, so a later session — or a refresh on
        unchanged data — hydrates from disk instead of relearning; any data
        change misses the fingerprint check and relearns.
        """
        store = self._store
        for table_name in self.db.schema.table_names:
            table = self.db.table(table_name)
            spn = store_key = fingerprint = None
            if store is not None:
                fingerprint = table.content_fingerprint()
                store_key = store.key("spn", self.db.name, table_name,
                                      seed, max_spn_rows)
                spn = store.load("spn", store_key, fingerprint=fingerprint)
            if spn is None:
                spn = learn_spn(spn_input_arrays(table), seed=seed,
                                max_rows=max_spn_rows)
                if store is not None:
                    store.save("spn", store_key, spn, fingerprint=fingerprint)
            self._spns[table_name] = spn
        for fk in self.db.schema.foreign_keys:
            key = (fk.child_table, fk.child_column)
            column = self.db.column(*key)
            self._fanout_indexes[key] = Index(*key, column.values)

    def refresh(self, seed=None):
        """Relearn from the current data (cheap; used after updates).

        Rebuilds under the constructor's learning configuration (same
        ``max_spn_rows``, and the same seed unless one is given), so on
        unchanged data a store-backed estimator hydrates the exact SPNs it
        saved instead of relearning under a different config.
        """
        self._spns.clear()
        self._fanout_indexes.clear()
        self.clear_caches()
        self._build(self._max_spn_rows,
                    self._seed if seed is None else seed)

    def clear_caches(self):
        """Drop memoized predicate evaluations (data changed, or timing)."""
        self._constraints_cache.clear()
        self._selectivity_cache.clear()
        self._scan_cache.clear()
        self._mask_cache.clear()
        self._table_sizes.clear()

    def _table_size(self, table):
        size = self._table_sizes.get(table)
        if size is None:
            size = len(self.db.table(table))
            self._table_sizes[table] = size
        return size

    # ------------------------------------------------------------------
    # Single-table estimates
    # ------------------------------------------------------------------
    def _literal_mapper(self, table):
        def mapper(node, literal):
            if isinstance(literal, (int, float)):
                return float(literal)
            column = self.db.column(table, node.column)
            if column.dictionary is None:
                return None
            code = column.dictionary_index.get(literal)
            return None if code is None else float(code)
        return mapper

    def _constraints(self, predicate):
        """Memoized ``predicate_to_constraints`` (unsupported cached too)."""
        cached = self._constraints_cache.get(None, predicate)
        if cached is None:
            try:
                cached = predicate_to_constraints(predicate)
            except UnsupportedPredicate:
                cached = _UNSUPPORTED
            self._constraints_cache.put(None, predicate, cached)
        return cached

    def table_selectivity(self, table, predicate):
        """SPN selectivity of a conjunctive predicate on one table (cached)."""
        if predicate is None:
            return 1.0
        cached = self._selectivity_cache.get(table, predicate)
        if cached is None:
            constraints = self._constraints(predicate)
            if constraints is _UNSUPPORTED:
                raise UnsupportedPredicate(
                    "predicate is not SPN-compatible (check supports())")
            cached = self._spns[table].selectivity(
                constraints, self._literal_mapper(table))
            self._selectivity_cache.put(table, predicate, cached)
        return cached

    def supports(self, predicate):
        if predicate is None:
            return True
        return self._constraints(predicate) is not _UNSUPPORTED

    def scan_rows(self, db, table, predicate):
        if not self.supports(predicate):
            return self._fallback.scan_rows(db, table, predicate)
        cacheable = db is self.db and predicate is not None
        if cacheable:
            cached = self._scan_cache.get(table, predicate)
            if cached is not None:
                return cached
        rows = db.table_stats(table).reltuples
        estimate = max(rows * self.table_selectivity(table, predicate), 0.5)
        if cacheable:
            self._scan_cache.put(table, predicate, estimate)
        return estimate

    # ------------------------------------------------------------------
    # Join estimates via correlated sampling
    # ------------------------------------------------------------------
    def _adjacency(self, tables, joins):
        adj = {t: [] for t in tables}
        for edge in joins:
            adj[edge.child_table].append(("to_parent", edge))
            adj[edge.parent_table].append(("to_child", edge))
        return adj

    def _filter_mask(self, table, predicate):
        """Cached row mask of ``predicate`` over the full table."""
        if predicate is None:
            return None
        cached = self._mask_cache.get(table, predicate)
        if cached is None:
            cached = evaluate_predicate(predicate, self.db.table(table))
            self._mask_cache.put(table, predicate, cached)
        return cached

    def prime_plan(self, db, plan):
        """Evaluate all of a plan's scan predicates in one batched pass.

        Every distinct ``(table, filter_predicate)`` pair below ``plan`` gets
        its SPN selectivity — and, when the plan joins, its full-table row
        mask — computed once (vectorized over the column arrays) and cached,
        so the per-node estimates during annotation become pure lookups
        instead of one recursive visit re-scanning rows per predicate.
        Consumes no RNG, hence does not perturb the sampling stream.
        """
        if db is not self.db:
            return
        filtered_scans = []
        has_join = False
        for node in plan.iter_nodes():
            op_name = node.op_name
            if op_name in _SCAN_OPS:
                if node.filter_predicate is not None:
                    filtered_scans.append(node)
            elif op_name in _JOIN_OPS:
                has_join = True
        for node in filtered_scans:
            if self.supports(node.filter_predicate):
                self.table_selectivity(node.table, node.filter_predicate)
                if has_join:
                    self._filter_mask(node.table, node.filter_predicate)

    def join_sample(self, tables, joins, seed=None):
        """Correlated sample of the join: (row_ids per table, weights, root).

        Weights are Horvitz-Thompson inverse-probability factors so that
        ``sum(weights) * |root| / sample_size`` estimates the unfiltered
        join cardinality.  The 1:N hop is vectorized (one batched index
        probe, one array draw) but consumes the RNG stream exactly as a
        per-row ``lookup_eq`` loop would.
        """
        tables = list(tables)
        rng = (np.random.default_rng(seed) if seed is not None else self._rng)
        table_size = self._table_size
        root = max(tables, key=table_size)
        n_root = table_size(root)
        size = min(self.sample_size, n_root)
        sample = {root: rng.integers(0, n_root, size=size)}
        weights = np.ones(size, dtype=np.float64)

        adj = self._adjacency(tables, joins)
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
                    # N:1 hop: the parent row is determined by the FK value.
                    fk = self.db.column(edge.child_table, edge.child_column)
                    refs = fk.values[sample[table]]
                    alive = ~np.isnan(refs)
                    weights = weights * alive
                    sample[other] = np.where(alive, refs, 0).astype(np.int64)
                else:
                    # 1:N hop: sample one child per row, weight by fanout.
                    # All equality probes happen in one searchsorted batch;
                    # rows skipped by the per-row loop (dead weight or no
                    # match) draw nothing, and the array draw visits the
                    # remaining rows in index order — the exact stream the
                    # per-row ``rng.integers`` calls would consume.
                    index = self._fanout_indexes[(edge.child_table,
                                                  edge.child_column)]
                    parent_keys = self.db.column(
                        edge.parent_table, edge.parent_column).values[sample[table]]
                    left, right, row_ids = index.eq_bounds_batch(parent_keys)
                    counts = right - left
                    alive = weights != 0.0
                    fanouts = np.where(alive, counts, 0).astype(np.float64)
                    picks = np.zeros(size, dtype=np.int64)
                    drawing = np.flatnonzero(alive & (counts > 0))
                    if drawing.size:
                        offsets = rng.integers(counts[drawing])
                        picks[drawing] = row_ids[left[drawing] + offsets]
                    weights = weights * fanouts
                    sample[other] = picks
                visited.add(other)
                frontier.append(other)
        return sample, weights, root, size

    def join_rows(self, db, tables, joins, filters):
        tables = list(tables)
        if any(not self.supports(filters.get(t)) for t in tables):
            return self._fallback.join_rows(db, tables, joins, filters)
        if len(tables) == 1:
            return self.scan_rows(db, tables[0], filters.get(tables[0]))

        sample, weights, root, size = self.join_sample(tables, joins)
        n_root = self._table_size(root)
        match = weights.copy()
        for table in tables:
            mask = self._filter_mask(table, filters.get(table))
            if mask is not None:
                match = match * mask[sample[table]]

        estimate = match.sum() * n_root / size
        if (match > 0).sum() >= 8:
            return max(float(estimate), 0.5)

        # Too few sample matches: combine the unfiltered join estimate with
        # SPN per-table selectivities (independence across tables).
        join_size = weights.sum() * n_root / size
        sel = 1.0
        for table in tables:
            sel *= self.table_selectivity(table, filters.get(table))
        return max(float(join_size * sel), 0.5)
