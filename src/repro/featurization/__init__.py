"""Transferable query featurization: typed graphs, Table-1 features, batching
and scalers for the zero-shot model.

The package runs a two-stage fast path, each stage bit-identical to its
original loop implementation (test oracles in
``tests/oracles/featurization.py``):

* **Graph construction** — :func:`build_query_graphs` encodes whole batches
  of plans with column-wise feature-matrix assembly (the per-plan cost is
  the structural traversal only).  The traversal walks plan tokens
  (:func:`plan_token`: plan node trees are tokenized first), the tuples a
  plan's digest hashes and a fleet ships.  Its graphs are array-backed: type
  codes, edges and levels are views into the batch's arrays, and a
  graph's ``edges`` / ``node_types`` / ``features`` lists are built only
  when read.
* **Batching** — :func:`make_batch` merges graphs vectorized over cached
  :class:`PackedGraph` arrays.

Caching contract (two complementary layers):

* :class:`FeaturizationCache` is keyed on *content*: a 16-byte
  :func:`plan_fingerprint` over the plan tree (operators, estimates, true
  rows, predicates incl. literals, joins, aggregates, sort/group keys), the
  cardinality source, the database fingerprint (name + row counts) and the
  storage-format map, hashed as their marshal-v2 encoding (content only:
  equal in any process and under any hash seed; numpy scalars count as
  their Python values).  The token hashed is the token encoded, so a
  graph depends only on what its key covers, by construction;
  :func:`~repro.core.featurize_records` tokenizes each plan at most once,
  reusing the token of a key it hashed, and accepts tokens in place of
  plans (:func:`plan_from_token` inverts one where DeepDB annotation needs
  plan objects).  Equal-but-distinct plans hit; any change that could
  alter the encoding misses.  DeepDB estimates are sampling-based, so the
  cache pins the first annotation for a given fingerprint.
* :class:`BatchCache` is keyed on *identity* ``(id, n_nodes, n_edges)`` of
  the graph objects in a chunk: it serves repeated ``make_batch`` calls on
  graphs the caller retained (or that the fingerprint cache keeps stable),
  and refuses stale hits when a graph grew after caching.  Chunked callers
  (``predict_runtimes``) go through :meth:`BatchCache.get_chunks`, which
  re-uses previously cached chunk boundaries even when the surrounding
  graph list changed.

Database mutations are visible to the fingerprint layer only through row
counts; callers editing values in place must ``clear()`` the caches (same
rule as the estimator caches).

Serving adds a third layer, the *constant-node catalog*
(:mod:`repro.featurization.catalog`).  Table, attribute, predicate and
output nodes hold no plan operator below them, so under a fixed model
their hidden states are constants of the database.  A
:class:`~repro.featurization.catalog.ConstantCatalog` (one per serving
core, a key table per database, one id space) interns each by its
featurized content, ``(type, raw feature row, child ids)``: a comparison
keys its literal *feature* (IN length, LIKE complexity), never the
literal, and a table its storage format.  :func:`build_query_graphs` and
:func:`~repro.core.featurize_records` given the catalog return *served*
graphs: plan nodes only, with ``constant_edges`` naming catalog ids.
Each served model keeps a
:class:`~repro.featurization.catalog.ConstantStates` of the updated
states it computed, keyed by catalog id: :func:`make_batch` reads the
rows it holds and adds the first-seen nodes to the same batch, and the
forward pass stores them.  Lifetime: the states live as long as their
route (a promote starts an empty set); the catalog lives as long as its
core, bounded by ``CATALOG_CAP`` nodes: past it the core resets the
catalog before the next batch, which starts a new epoch (every
``ConstantStates`` drops its rows at its next use) and clears the
featurization cache whose graphs name the old ids.  Interned ids assume
what the featurization cache assumes: a database's statistics change only
with its row counts.  Training, scaler fitting and offline evaluation
keep full graphs.
"""

from .graph import NODE_TYPES, PackedGraph, QueryGraph
from .features import (FEATURE_DIMS, PLAN_NUMERIC_DIMS, plan_features,
                       predicate_features, table_features, attribute_features,
                       output_features)
from .zero_shot import build_query_graph, build_query_graphs
from .fingerprint import (FeaturizationCache, database_digest,
                          plan_fingerprint, plan_from_token, plan_token,
                          records_fingerprint)
from .scalers import StandardScaler, FeatureScalers, TargetScaler
from .batching import BatchCache, GraphBatch, LevelGroup, make_batch

__all__ = [
    "NODE_TYPES", "PackedGraph", "QueryGraph",
    "FEATURE_DIMS", "PLAN_NUMERIC_DIMS", "plan_features", "predicate_features",
    "table_features", "attribute_features", "output_features",
    "build_query_graph", "build_query_graphs",
    "FeaturizationCache", "database_digest", "plan_fingerprint",
    "plan_from_token", "plan_token", "records_fingerprint",
    "StandardScaler", "FeatureScalers", "TargetScaler",
    "BatchCache", "GraphBatch", "LevelGroup", "make_batch",
]
