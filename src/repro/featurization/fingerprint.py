"""Structural plan fingerprints and the content-keyed featurization cache.

``BatchCache`` (batching layer) memoizes by *object identity* — it can only
help when the caller holds on to the very same ``QueryGraph`` objects.  One
layer up, repeated workloads and the benchmark suite's per-cardinality-mode
evaluations re-featurize plans that are *equal but distinct*: re-planned
queries, re-generated traces, plans shipped from another process.  This
module closes that gap:

* :func:`plan_fingerprint` hashes everything featurization reads — the plan
  tree (operators, estimates, true rows, widths, workers), predicate
  structure *and* literals (literals feed the cardinality estimators even
  though they never enter the features), join edges, aggregates, group-by /
  sort keys, the cardinality source, the database fingerprint and the
  storage-format map — into a 16-byte BLAKE2 digest.
* :class:`FeaturizationCache` maps fingerprints to built ``QueryGraph``
  objects, so re-featurizing an equal plan is one hash + one dict lookup
  instead of annotation + graph construction.

The canonical token (:func:`plan_token`, nested tuples of plain values)
is more than the digest's input.  It is the featurizer's input:
:func:`~repro.featurization.build_query_graphs` walks tokens, never plan
objects, so a graph depends only on what its digest hashes, by
construction.  Its marshal-v2 bytes are the fleet's wire format: a router
ships the bytes it hashed at submit, and workers featurize the decoded
tuples.  :func:`plan_from_token` is its inverse, for the consumers that
need plan objects (DeepDB annotation, the analytical fallback).

Contract: two calls with equal fingerprints would produce graphs with
identical features **except** for the ``"deepdb"`` source, whose estimates
are sampling-based — there the cache pins the *first* annotation (a feature,
not a bug: repeated evaluations of one workload should see one consistent
encoding).  Database content changes are visible only through
:meth:`~repro.storage.Database.fingerprint` (name + per-table row counts);
in-place value mutations that keep row counts require an explicit
``clear()``, same as the estimator caches.

Digest encoding: the hashed bytes are ``marshal.dumps(payload, 2)`` of the
canonical token tuple, not its ``repr``, which cost several times more.
Marshal *version 2* is the contract, because it writes content only:

* every ``str`` by value, with no "interned" flag — versions 3 and later
  mark interned strings differently, so a literal built at runtime and an
  equal interned one would hash apart;
* no back-references — versions 3 and later emit a reference to an object
  already written, which depends on object identity, not content;
* floats as their exact 8 bytes, ints, ``None`` and bools by type and value.

So equal tokens give equal bytes in any process, whatever the hash seed.
Numpy scalars are the one trap: ``marshal`` does not reject them but
writes their raw buffer as a bytes object, so ``np.int64(0)`` and
``np.float64(0.0)`` would encode alike and ``np.float64(2.0)`` unlike
``2.0``.  The token builders therefore replace a numpy estimate, width,
worker count or literal by its ``.item()`` value, behind one exact-type
check per plan node that plain plans always pass; a numpy value and the
equal Python value share a digest.

:func:`database_digest` still hashes ``repr``: registry manifests persist
it, and it runs once per database, not per plan.
"""

from __future__ import annotations

import marshal
from collections import OrderedDict
from hashlib import blake2b

import numpy as np

from ..optimizer.plan import PlanNode
from ..sql import (AggregateSpec, BooleanPredicate, Comparison, JoinEdge,
                   PredOp)

__all__ = ["plan_fingerprint", "records_fingerprint", "database_digest",
           "plan_token", "plan_from_token", "token_digest",
           "FeaturizationCache"]


# Literal types marshal writes by value (the common case, kept fast).
_PLAIN_LITERALS = frozenset((str, int, float, type(None)))


def _plain(value):
    """A numpy scalar's Python value (``.item()``); other values as is."""
    return value.item() if isinstance(value, np.generic) else value


def _predicate_token(predicate):
    if predicate is None:
        return None
    if isinstance(predicate, Comparison):
        literal = predicate.literal
        if type(literal) not in _PLAIN_LITERALS:
            literal = (tuple([_plain(item) for item in literal])
                       if isinstance(literal, (list, tuple))
                       else _plain(literal))
        # ``op._value_`` is ``op.value`` without the enum property call.
        return ("C", predicate.table, predicate.column, predicate.op._value_,
                literal)
    if isinstance(predicate, BooleanPredicate):
        return ("B", predicate.op._value_,
                tuple([_predicate_token(child)
                       for child in predicate.children]))
    raise TypeError(f"unknown predicate {type(predicate)!r}")


def plan_token(node):
    """The plan's canonical token: nested tuples of plain values.

    One node's token is ``(op_name, table, index_column, est_rows,
    true_rows, width, workers, storage_format, scanned_columns, predicate,
    join, aggregates, group_by, sort_keys, children)``: a predicate is
    ``("C", table, column, op value, literal)`` or ``("B", op value,
    children)``, a join the four key names, an aggregate ``(func, table,
    column)``, and ``children`` the child tokens.  Empty slots are ``()``
    (``None`` for a missing predicate or join).  It covers every plan field
    the featurizer reads, and the featurizer reads nothing else:
    :func:`~repro.featurization.build_query_graphs` walks tokens, not plan
    nodes.  :func:`plan_from_token` inverts it.
    """
    join, predicate = node.join, node.filter_predicate
    aggregates, children = node.aggregates, node.children
    est_rows, true_rows = node.est_rows, node.true_rows
    width, workers = node.width, node.workers
    if not (type(est_rows) is float and type(width) is float
            and type(workers) is int
            and (true_rows is None or type(true_rows) is float)):
        est_rows, true_rows = _plain(est_rows), _plain(true_rows)
        width, workers = _plain(width), _plain(workers)
    # Empty child, aggregate and predicate slots skip the comprehension or
    # call; ``()`` is the same object ``tuple([])`` returns.
    return (
        node.op_name, node.table, node.index_column,
        est_rows, true_rows, width, workers,
        node.storage_format, tuple(node.scanned_columns),
        None if predicate is None else _predicate_token(predicate),
        (None if join is None else (join.child_table, join.child_column,
                                    join.parent_table, join.parent_column)),
        (tuple([(agg.func, agg.table, agg.column) for agg in aggregates])
         if aggregates else ()),
        tuple(node.group_by), tuple(node.sort_keys),
        (tuple([plan_token(child) for child in children])
         if children else ()),
    )


_PRED_OPS = {op.value: op for op in PredOp}


def _predicate_from_token(token):
    if token[0] == "C":
        _, table, column, op, literal = token
        return Comparison(table, column, _PRED_OPS[op], literal)
    _, op, children = token
    return BooleanPredicate(_PRED_OPS[op], tuple(
        [_predicate_from_token(child) for child in children]))


def plan_from_token(token, est_cost=0.0):
    """Rebuild a :class:`~repro.optimizer.PlanNode` tree from its token.

    The inverse of :func:`plan_token`: ``plan_token(plan_from_token(t)) ==
    t``.  Costs are not part of the token, so every node's ``est_cost`` /
    ``est_self_cost`` is 0 except the root's ``est_cost``, which is
    ``est_cost`` (what the analytical fallback reads).  An IN literal comes
    back as a tuple and numpy values as their Python values, as the token
    holds them.  Only consumers that need plan objects call this: DeepDB
    annotation and the analytical fallback.
    """
    (op_name, table, index_column, est_rows, true_rows, width, workers,
     storage_format, scanned_columns, predicate, join, aggregates,
     group_by, sort_keys, children) = token
    return PlanNode(
        op_name,
        children=[plan_from_token(child) for child in children],
        table=table,
        filter_predicate=(None if predicate is None
                          else _predicate_from_token(predicate)),
        index_column=index_column,
        join=None if join is None else JoinEdge(*join),
        aggregates=tuple([AggregateSpec(*aggregate)
                          for aggregate in aggregates]),
        group_by=group_by, sort_keys=sort_keys, workers=workers,
        est_rows=est_rows, width=width, est_cost=est_cost,
        true_rows=true_rows, scanned_columns=scanned_columns,
        storage_format=storage_format)


# The marshal-v2 head of a 2-tuple: its type code and element count.
_PAIR_HEAD = b"(" + (2).to_bytes(4, "little")

# (db_fingerprint, cards, sf_token) -> blake2b state after the digest
# input's constant head; cleared whole when full.
_prefix_states = {}
_MAX_PREFIX_STATES = 256


def _digest(db_fingerprint, cards, sf_token, plan):
    """``blake2b(marshal.dumps(((db_fingerprint, cards, sf_token),
    plan token), 2))``."""
    return token_digest(db_fingerprint, cards, sf_token,
                        marshal.dumps(plan_token(plan), 2))


def token_digest(db_fingerprint, cards, sf_token, data):
    """:func:`_digest` of a plan whose token's marshal-v2 bytes are
    ``data``.

    Marshal v2 writes a tuple as its head and then each element's own
    encoding, so the input's start, ``_PAIR_HEAD`` + the prefix's bytes, is
    the same for every plan against one database, card source and
    storage-format map: its hash state is computed once and copied per
    plan.
    """
    prefix = (db_fingerprint, cards, sf_token)
    state = _prefix_states.get(prefix)
    if state is None:
        if len(_prefix_states) >= _MAX_PREFIX_STATES:
            _prefix_states.clear()
        state = blake2b(_PAIR_HEAD + marshal.dumps(prefix, 2),
                        digest_size=16)
        _prefix_states[prefix] = state
    state = state.copy()
    state.update(data)
    return state.digest()


def plan_fingerprint(db, plan, cards, storage_formats=None,
                     db_fingerprint=None):
    """16-byte content digest of (plan, cardinality source, database).

    Equal plans — same structure, estimates, recorded true rows, predicates
    with literals — against the same database state and card source collide
    deliberately; any featurization-relevant difference changes the digest.
    The hashed bytes are the marshal-v2 encoding of the canonical token
    (module docstring): strings by value whether interned or built at
    runtime, floats as their exact 8 bytes, no identity-dependent
    back-references, so digests agree across processes and hash seeds.  A
    numpy-scalar estimate or literal is hashed as its ``.item()`` value.
    Digests changed value when the encoding moved from ``repr`` to marshal,
    so artifacts stored under an older digest miss once.  Identical to the
    digests
    :meth:`FeaturizationCache.key` produces (both go through the same
    helper), so it can be used to probe or pre-seed a cache.

    ``db_fingerprint`` lets callers that fingerprint many plans against one
    database (the serving result cache, batch featurization) amortize the
    per-table row-count walk of :meth:`~repro.storage.Database.fingerprint`.
    """
    sf_token = (tuple(sorted(storage_formats.items()))
                if storage_formats else None)
    if db_fingerprint is None:
        db_fingerprint = db.fingerprint()
    return _digest(db_fingerprint, cards, sf_token, plan)


def database_digest(db_or_fingerprint):
    """16-byte digest of a database fingerprint (name + per-table row counts).

    The compact routing key of the serving layer: model deployments record
    the digests of the databases they were trained on (or validated
    against), and the predictor routes each request's database to a
    compatible deployment by digest equality.  Accepts either a
    :class:`~repro.storage.Database` or the tuple its ``fingerprint()``
    returns.
    """
    fingerprint = (db_or_fingerprint.fingerprint()
                   if hasattr(db_or_fingerprint, "fingerprint")
                   else db_or_fingerprint)
    return blake2b(repr(fingerprint).encode(), digest_size=16).digest()


def records_fingerprint(records, dbs, cards, storage_formats=None,
                        key_cache=None):
    """16-byte content digest of an ordered trace-record sequence.

    Concatenates the per-plan :func:`plan_fingerprint` digests (so order
    matters — graph lists are positional) and hashes them once more.  Two
    equal-but-distinct traces (re-generated workloads, unpickled copies)
    collide deliberately; any change to a plan, a database's row counts, or
    the cardinality source changes the digest.  Used to key the benchmark
    suite's graph lists and the disk artifact store.

    ``key_cache`` may be a :class:`FeaturizationCache`, whose per-plan-object
    digest memo makes warm re-fingerprinting two dict probes per record.
    """
    db_fingerprints = {}
    pieces = bytearray()
    for record in records:
        db = dbs[record.db_name]
        fingerprint = db_fingerprints.get(record.db_name)
        if fingerprint is None:
            fingerprint = db.fingerprint()
            db_fingerprints[record.db_name] = fingerprint
        if key_cache is not None:
            pieces += key_cache.key(db, record.plan, cards, storage_formats,
                                    db_fingerprint=fingerprint)
        else:
            sf_token = (tuple(sorted(storage_formats.items()))
                        if storage_formats else None)
            pieces += _digest(fingerprint, cards, sf_token, record.plan)
    return blake2b(bytes(pieces), digest_size=16).digest()


class FeaturizationCache:
    """Bounded LRU from plan fingerprints to featurized ``QueryGraph``s.

    Unlike ``BatchCache`` there is nothing to pin: keys are content digests,
    so they can never be aliased by object reuse.  Cached graphs carry their
    ``PackedGraph`` arrays, and because repeated lookups return the *same*
    graph objects, a downstream identity-keyed ``BatchCache`` hits too —
    warm re-featurization of a whole trace is pure lookups end to end.
    """

    def __init__(self, max_entries=4096):
        self.max_entries = int(max_entries)
        self._entries = OrderedDict()
        # id(plan) -> (plan, {(db_fp, cards, sf_token): digest}).  Plans are
        # immutable once executed (a mutated variant is a new plan object),
        # so hashing each object's content once is sound; entries pin the
        # plan so ids cannot be recycled, and the memo is bounded.
        self._key_memo = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self):
        return len(self._entries)

    def key(self, db, plan, cards, storage_formats=None, db_fingerprint=None):
        """Cache key for (plan, card source, db): a content digest.

        Per-plan-object digests are memoized — warm lookups cost two dict
        probes instead of a re-hash.  ``db_fingerprint`` lets batch callers
        amortize the database fingerprint across a whole trace.
        """
        return self.key_token(db, plan, cards, storage_formats,
                              db_fingerprint)[0]

    def key_token(self, db, plan, cards, storage_formats=None,
                  db_fingerprint=None):
        """``(key, token)``: :meth:`key`, and the :func:`plan_token` this
        call hashed (``None`` when the digest was memoized), so a caller
        that goes on to featurize the plan does not tokenize it twice.
        ``plan`` may be a token already."""
        entry = self._key_memo.get(id(plan))
        if entry is None or entry[0] is not plan:
            entry = (plan, {})
            self._key_memo[id(plan)] = entry
            while len(self._key_memo) > 4 * self.max_entries:
                self._key_memo.popitem(last=False)
        if db_fingerprint is None:
            db_fingerprint = db.fingerprint()
        sf_token = (tuple(sorted(storage_formats.items()))
                    if storage_formats else None)
        context = (db_fingerprint, cards, sf_token)
        digest = entry[1].get(context)
        token = None
        if digest is None:
            token = plan if type(plan) is tuple else plan_token(plan)
            digest = token_digest(db_fingerprint, cards, sf_token,
                                  marshal.dumps(token, 2))
            entry[1][context] = digest
        return digest, token

    def get(self, key):
        graph = self._entries.get(key)
        if graph is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return graph

    def put(self, key, graph):
        self._entries[key] = graph
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def stats(self):
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self._entries)}

    def clear(self):
        self._entries.clear()
