"""Equivalence and caching tests for the featurization pipeline engine.

Three contracts from the engine rebuild:

* the vectorized graph builder is bit-identical to the loop reference for
  every node type and every cardinality source,
* the batched DeepDB annotation is bit-identical to the original recursive
  visit — including consuming the exact same RNG stream,
* the fingerprint cache hits on equal-but-distinct plans and misses on any
  featurization-relevant mutation, and plan digests hash content only
  (interned or not, any process, any hash seed; numpy scalars as their
  Python values).
"""

import copy
import dataclasses
import marshal
import os
import subprocess
import sys
from hashlib import blake2b
from pathlib import Path

import numpy as np
import pytest

import repro.core.api as api
import repro.featurization.fingerprint as fingerprint
from repro.cardest import (CARD_SOURCES, DataDrivenEstimator,
                           annotate_cardinalities)
from repro.core import EstimatorCache, featurize_records
from repro.executor import execute_plan
from repro.featurization import (BatchCache, FeatureScalers,
                                 FeaturizationCache, build_query_graph,
                                 build_query_graphs, make_batch,
                                 plan_fingerprint)
from repro.datagen import make_benchmark_databases
from repro.optimizer import OPERATOR_NAMES, PlanNode, plan_query
from repro.serving import ServingRecord
from repro.sql import (AggregateSpec, BooleanPredicate, Comparison, JoinEdge,
                       PredOp)
from repro.workloads import WorkloadConfig, WorkloadGenerator, generate_trace

from oracles.cardest import (annotate_cardinalities_reference,
                             join_sample_reference)
from oracles.featurization import (build_query_graph_reference,
                                   make_batch_reference)


@pytest.fixture(scope="module")
def workload(gen_db):
    """Executed plans covering scans, joins, aggregates, sorts, complex
    predicates (LIKE / IN / IS NULL / disjunctions)."""
    queries = []
    for mode, n, seed in (("standard", 12, 3), ("complex", 12, 4)):
        generator = WorkloadGenerator(
            gen_db, WorkloadConfig(mode=mode, max_joins=3,
                                   group_by_prob=0.4, order_by_prob=0.4),
            seed=seed)
        queries.extend(generator.generate(n))
    plans = []
    for query in queries:
        plan = plan_query(gen_db, query)
        execute_plan(gen_db, plan)
        plans.append(plan)
    return plans


def assert_graphs_identical(fast, reference):
    assert fast.node_types == reference.node_types
    assert list(map(tuple, fast.edges)) == list(map(tuple, reference.edges))
    assert fast.root == reference.root
    assert len(fast.features) == len(reference.features)
    for fast_row, reference_row in zip(fast.features, reference.features):
        np.testing.assert_array_equal(np.asarray(fast_row), reference_row)
    np.testing.assert_array_equal(fast.packed().levels, reference.levels())
    packed_fast, packed_reference = fast.packed(), reference.packed()
    np.testing.assert_array_equal(packed_fast.type_codes,
                                  packed_reference.type_codes)
    np.testing.assert_array_equal(packed_fast.edges, packed_reference.edges)
    for code in packed_reference.features_by_code:
        np.testing.assert_array_equal(packed_fast.features_by_code[code],
                                      packed_reference.features_by_code[code])
    fast.validate()


class TestVectorizedFeaturization:
    @pytest.mark.parametrize("source", ["exact", "optimizer", "deepdb"])
    def test_bit_identical_to_reference(self, gen_db, workload, source):
        estimator = (DataDrivenEstimator(gen_db, seed=0)
                     if source == "deepdb" else None)
        card_maps = [annotate_cardinalities(gen_db, plan, source,
                                            estimator=estimator)
                     for plan in workload]
        fast = build_query_graphs(gen_db, workload, card_maps)
        for graph, plan, cards in zip(fast, workload, card_maps):
            reference = build_query_graph_reference(gen_db, plan, cards)
            assert_graphs_identical(graph, reference)

    @pytest.mark.parametrize("source", ["exact", "optimizer"])
    def test_fused_cards_equal_dict_cards(self, gen_db, workload, source):
        card_maps = [annotate_cardinalities(gen_db, plan, source)
                     for plan in workload]
        via_dict = build_query_graphs(gen_db, workload, card_maps)
        fused = build_query_graphs(gen_db, workload, source)
        for a, b in zip(via_dict, fused):
            assert a.node_types == b.node_types
            for row_a, row_b in zip(a.features, b.features):
                np.testing.assert_array_equal(np.asarray(row_a),
                                              np.asarray(row_b))

    def test_all_node_types_covered(self, gen_db, workload):
        graphs = build_query_graphs(gen_db, workload, "exact")
        seen = {t for g in graphs for t in g.node_types}
        assert seen == {"plan", "predicate", "table", "attribute", "output"}

    def test_storage_formats_respected(self, gen_db, workload):
        formats = {gen_db.schema.table_names[0]: "column"}
        fast = build_query_graph(gen_db, workload[0], "exact",
                                 storage_formats=formats)
        cards = annotate_cardinalities(gen_db, workload[0], "exact")
        reference = build_query_graph_reference(gen_db, workload[0], cards,
                                                storage_formats=formats)
        assert_graphs_identical(fast, reference)

    def test_batches_identical_through_both_builders(self, gen_db, workload):
        fast = build_query_graphs(gen_db, workload, "exact")
        card_maps = [annotate_cardinalities(gen_db, plan, "exact")
                     for plan in workload]
        reference = [build_query_graph_reference(gen_db, plan, cards)
                     for plan, cards in zip(workload, card_maps)]
        scalers = FeatureScalers().fit(fast)
        batch_fast = make_batch(fast, scalers)
        batch_reference = make_batch_reference(reference, scalers)
        for node_type in batch_reference.features:
            np.testing.assert_array_equal(batch_fast.features[node_type],
                                          batch_reference.features[node_type])
        np.testing.assert_array_equal(batch_fast.mp_positions,
                                      batch_reference.mp_positions)

    def test_lazy_graph_supports_mutation_api(self, gen_db, workload):
        from repro.featurization import FEATURE_DIMS
        graph = build_query_graph(gen_db, workload[0], "exact")
        n_nodes = graph.n_nodes
        node = graph.add_node("output", np.zeros(FEATURE_DIMS["output"]))
        assert node == n_nodes
        assert graph.node_types[-1] == "output"
        assert graph.packed().n_nodes == n_nodes + 1  # cache invalidated


class TestBatchedAnnotation:
    def test_deepdb_bit_identical_including_rng(self, gen_db, workload):
        """The batched annotation (cached predicates, vectorized sampling)
        must equal the recursive reference per value *and* consume the same
        RNG stream (gradcheck-style equivalence for the whole trace)."""
        fast = DataDrivenEstimator(gen_db, seed=7)
        reference = DataDrivenEstimator(gen_db, seed=7)
        for plan in workload:
            cards_fast = annotate_cardinalities(gen_db, plan, "deepdb",
                                                estimator=fast)
            cards_reference = annotate_cardinalities_reference(
                gen_db, plan, "deepdb", estimator=reference)
            assert cards_fast == cards_reference
        assert fast._rng.bit_generator.state == \
            reference._rng.bit_generator.state

    def test_join_sample_matches_reference(self, gen_db):
        estimator = DataDrivenEstimator(gen_db, seed=0)
        tables = set(gen_db.schema.table_names[:3])
        joins = [fk for fk in gen_db.schema.foreign_keys
                 if {fk.child_table, fk.parent_table} <= tables]
        from repro.sql import JoinEdge
        joins = [JoinEdge.from_foreign_key(fk) for fk in joins]
        sample_fast, weights_fast, root_fast, size_fast = \
            estimator.join_sample(tables, joins, seed=123)
        sample_ref, weights_ref, root_ref, size_ref = \
            join_sample_reference(estimator, tables, joins, seed=123)
        assert root_fast == root_ref and size_fast == size_ref
        np.testing.assert_array_equal(weights_fast, weights_ref)
        for table in sample_ref:
            np.testing.assert_array_equal(sample_fast[table],
                                          sample_ref[table])

    def test_simple_sources_unchanged(self, gen_db, workload):
        for source in ("exact", "optimizer"):
            for plan in workload[:5]:
                assert annotate_cardinalities(gen_db, plan, source) == \
                    annotate_cardinalities_reference(gen_db, plan, source)

    def test_unknown_source_rejected(self, gen_db, workload):
        with pytest.raises(ValueError):
            annotate_cardinalities(gen_db, workload[0], "tarot")


HAND_DB_FINGERPRINT = ("hand", (("customers", 300), ("orders", 1500)))


def hand_plan(s=str, est_rows=1200.0, literal=42):
    """A hand-built plan that sets every field the digest token reads.

    Sort over a hash aggregate over a hash join of a filtered columnar scan
    and an index scan.  ``s`` makes every string (pass a builder that
    concatenates at runtime to get equal strings that are not interned);
    ``est_rows`` is the join's estimate and ``literal`` the ``amount >``
    literal.  Planner output depends on the hash seed, so digest contract
    tests use this plan instead.
    """
    orders, customers = s("orders"), s("customers")
    scan = PlanNode(
        s("ColumnarScan"), table=orders, est_rows=1500.0, width=12.0,
        workers=2, true_rows=1400.0, storage_format=s("column"),
        scanned_columns=(s("amount"), s("status")),
        filter_predicate=BooleanPredicate(PredOp.AND, (
            Comparison(orders, s("amount"), PredOp.GT, literal),
            Comparison(orders, s("status"), PredOp.IN, [s("a"), s("b")]))))
    lookup = PlanNode(
        s("IndexScan"), table=customers, index_column=s("id"),
        est_rows=300.0, width=12.0, true_rows=300.0,
        filter_predicate=Comparison(customers, s("c_name"), PredOp.LIKE,
                                    s("%x%")))
    join = PlanNode(
        s("HashJoin"), children=[scan, lookup], est_rows=est_rows,
        width=24.0, true_rows=1100.0,
        join=JoinEdge(orders, s("customer_id"), customers, s("id")))
    aggregate = PlanNode(
        s("HashAggregate"), children=[join], est_rows=10.0, width=16.0,
        true_rows=9.0,
        aggregates=(AggregateSpec(s("sum"), orders, s("amount")),),
        group_by=((customers, s("c_name")),))
    return PlanNode(s("Sort"), children=[aggregate], est_rows=10.0,
                    width=16.0, true_rows=9.0,
                    sort_keys=((customers, s("c_name")),))


def _runtime_str(text):
    """An equal string built at runtime, hence not interned."""
    return "".join(list(text))


def _hand_digest(plan):
    return plan_fingerprint(None, plan, "exact",
                            db_fingerprint=HAND_DB_FINGERPRINT)


def _edit_predicate(nodes, index, **changes):
    scan = nodes[3]
    children = list(scan.filter_predicate.children)
    children[index] = dataclasses.replace(children[index], **changes)
    scan.filter_predicate = dataclasses.replace(
        scan.filter_predicate, children=tuple(children))


# One edit per token field; ``nodes`` is (sort, aggregate, join, scan,
# lookup) of a fresh hand_plan().
TOKEN_FIELD_EDITS = {
    "op_name": lambda nodes: setattr(nodes[2], "op_name", "MergeJoin"),
    "table": lambda nodes: setattr(nodes[4], "table", "customers2"),
    "index_column": lambda nodes: setattr(nodes[4], "index_column", "key"),
    "est_rows": lambda nodes: setattr(nodes[2], "est_rows",
                                      np.nextafter(1200.0, 2000.0).item()),
    "est_rows_type": lambda nodes: setattr(nodes[0], "est_rows", 10),
    "true_rows": lambda nodes: setattr(nodes[0], "true_rows", 8.0),
    "true_rows_unset": lambda nodes: setattr(nodes[0], "true_rows", None),
    "width": lambda nodes: setattr(nodes[1], "width", 17.0),
    "workers": lambda nodes: setattr(nodes[3], "workers", 3),
    "storage_format": lambda nodes: setattr(nodes[3], "storage_format",
                                            "row"),
    "scanned_columns": lambda nodes: setattr(nodes[3], "scanned_columns",
                                             ("amount",)),
    "filter_predicate": lambda nodes: setattr(nodes[4], "filter_predicate",
                                              None),
    "predicate_table": lambda nodes: _edit_predicate(nodes, 0,
                                                     table="customers"),
    "predicate_column": lambda nodes: _edit_predicate(nodes, 0,
                                                      column="price"),
    "predicate_op": lambda nodes: _edit_predicate(nodes, 0, op=PredOp.GEQ),
    "literal": lambda nodes: _edit_predicate(nodes, 0, literal=43),
    "literal_type": lambda nodes: _edit_predicate(nodes, 0, literal=42.0),
    "in_list": lambda nodes: _edit_predicate(nodes, 1, literal=["a", "c"]),
    "boolean_op": lambda nodes: setattr(
        nodes[3], "filter_predicate",
        dataclasses.replace(nodes[3].filter_predicate, op=PredOp.OR)),
    "join": lambda nodes: setattr(nodes[2], "join", dataclasses.replace(
        nodes[2].join, parent_column="customer_key")),
    "aggregates": lambda nodes: setattr(nodes[1], "aggregates", (
        AggregateSpec("avg", "orders", "amount"),)),
    "group_by": lambda nodes: setattr(nodes[1], "group_by",
                                      (("customers", "id"),)),
    "sort_keys": lambda nodes: setattr(nodes[0], "sort_keys", ()),
    "children": lambda nodes: nodes[2].children.reverse(),
}


class TestFingerprintCache:
    def make_records(self, db, n=8, seed=11):
        queries = WorkloadGenerator(db, WorkloadConfig(max_joins=2),
                                    seed=seed).generate(n)
        return list(generate_trace(db, queries, seed=seed))

    def test_equal_but_distinct_plans_hit(self, gen_db):
        records = self.make_records(gen_db)
        dbs = {gen_db.name: gen_db}
        cache = FeaturizationCache()
        first = featurize_records(records, dbs, cards="exact",
                                  feat_cache=cache)
        clones = copy.deepcopy(records)
        second = featurize_records(clones, dbs, cards="exact",
                                   feat_cache=cache)
        assert cache.hits == len(records)
        assert all(a is b for a, b in zip(first, second))

    def test_mutated_plan_misses(self, gen_db):
        records = self.make_records(gen_db)
        dbs = {gen_db.name: gen_db}
        cache = FeaturizationCache()
        featurize_records(records, dbs, cards="exact", feat_cache=cache)
        mutated = copy.deepcopy(records[0])
        mutated.plan.est_rows += 1.0
        misses_before = cache.misses
        featurize_records([mutated], dbs, cards="exact", feat_cache=cache)
        assert cache.misses == misses_before + 1

    def test_literal_changes_fingerprint(self, gen_db):
        from repro.sql import Comparison, iter_predicate_nodes
        records = self.make_records(gen_db)
        target = next(r for r in records
                      if any(n.filter_predicate is not None
                             for n in r.plan.iter_nodes()))
        clone = copy.deepcopy(target)
        for node in clone.plan.iter_nodes():
            if node.filter_predicate is None:
                continue
            leaf = next(p for p in iter_predicate_nodes(node.filter_predicate)
                        if isinstance(p, Comparison) and p.literal is not None)
            object.__setattr__(leaf, "literal", "zzz-different")
            break
        original = plan_fingerprint(gen_db, target.plan, "exact")
        changed = plan_fingerprint(gen_db, clone.plan, "exact")
        assert original != changed

    def test_different_card_source_misses(self, gen_db):
        records = self.make_records(gen_db)
        dbs = {gen_db.name: gen_db}
        cache = FeaturizationCache()
        featurize_records(records[:2], dbs, cards="exact", feat_cache=cache)
        misses = cache.misses
        featurize_records(records[:2], dbs, cards="optimizer",
                          feat_cache=cache)
        assert cache.misses == misses + 2  # different card source

    def test_deepdb_featurization_pins_first_annotation(self, gen_db):
        records = self.make_records(gen_db)
        dbs = {gen_db.name: gen_db}
        cache = FeaturizationCache()
        estimators = EstimatorCache(seed=0)
        first = featurize_records(records, dbs, cards="deepdb",
                                  estimator_cache=estimators,
                                  feat_cache=cache)
        second = featurize_records(copy.deepcopy(records), dbs,
                                   cards="deepdb",
                                   estimator_cache=estimators,
                                   feat_cache=cache)
        assert all(a is b for a, b in zip(first, second))

    def test_bounded(self, gen_db):
        records = self.make_records(gen_db, n=6)
        cache = FeaturizationCache(max_entries=3)
        featurize_records(records, {gen_db.name: gen_db}, cards="exact",
                          feat_cache=cache)
        assert len(cache) <= 3

    def test_duplicates_survive_eviction(self, gen_db):
        """An intra-batch duplicate must resolve even when its first
        occurrence was already evicted from a tiny cache."""
        records = self.make_records(gen_db, n=6)
        batch = records + [copy.deepcopy(records[0])]
        cache = FeaturizationCache(max_entries=2)
        graphs = featurize_records(batch, {gen_db.name: gen_db},
                                   cards="exact", feat_cache=cache)
        assert all(graph is not None for graph in graphs)
        assert graphs[-1].node_types == graphs[0].node_types

    @pytest.mark.parametrize("cards", CARD_SOURCES)
    @pytest.mark.parametrize("with_formats", [False, True])
    def test_digest_equals_whole_input_hash(self, gen_db, workload, cards,
                                            with_formats):
        """Hashing the constant prefix once and copying its state per plan
        gives the digest of the whole marshal-v2 encoding hashed in one
        go."""
        formats = ({gen_db.schema.table_names[0]: "column"}
                   if with_formats else None)
        sf_token = tuple(sorted(formats.items())) if formats else None
        db_fp = gen_db.fingerprint()
        cache = FeaturizationCache()
        for plan in workload:
            payload = ((db_fp, cards, sf_token), fingerprint.plan_token(plan))
            expected = blake2b(marshal.dumps(payload, 2),
                               digest_size=16).digest()
            for _ in range(2):  # the second call reuses the prefix state
                assert plan_fingerprint(gen_db, plan, cards,
                                        storage_formats=formats) == expected
            assert cache.key(gen_db, plan, cards, formats) == expected

    def test_public_fingerprint_matches_cache_key(self, gen_db):
        records = self.make_records(gen_db, n=2)
        cache = FeaturizationCache()
        assert plan_fingerprint(gen_db, records[0].plan, "exact") == \
            cache.key(gen_db, records[0].plan, "exact")

    # Digest contract: content only, the marshal-v2 encoding of the
    # canonical token (repro.featurization.fingerprint).
    def test_runtime_built_strings_hash_like_interned_ones(self):
        plan, copy_ = hand_plan(), hand_plan(s=_runtime_str)
        assert copy_.children[0].children[0].children[0].table \
            is not plan.children[0].children[0].children[0].table
        assert _hand_digest(copy_) == _hand_digest(plan)

    def test_digests_agree_across_processes_and_hash_seeds(self):
        tests_dir = Path(__file__).resolve().parent
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "from test_engine_fastpath import (_hand_digest, hand_plan, "
                "_runtime_str); "
                "print(_hand_digest(hand_plan()).hex(), "
                "_hand_digest(hand_plan(s=_runtime_str)).hex())")
        src = str(tests_dir.parent / "src")
        expected = _hand_digest(hand_plan()).hex()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            out = subprocess.run(
                [sys.executable, "-c", code, str(tests_dir)], env=env,
                capture_output=True, text=True, check=True).stdout.split()
            assert out == [expected, expected], hash_seed

    @pytest.mark.parametrize("field", sorted(TOKEN_FIELD_EDITS))
    def test_every_token_field_changes_the_digest(self, field):
        base = _hand_digest(hand_plan())
        plan = hand_plan()
        aggregate = plan.children[0]
        join = aggregate.children[0]
        TOKEN_FIELD_EDITS[field]((plan, aggregate, join, *join.children))
        assert _hand_digest(plan) != base

    def test_numpy_scalars_hash_as_their_python_values(self):
        plain = _hand_digest(hand_plan())
        numpy_plan = hand_plan(est_rows=np.float64(1200.0),
                               literal=np.int64(42))
        assert _hand_digest(numpy_plan) == plain
        # marshal would write both as the same 8 raw bytes; as Python
        # values they stay an int and a float.
        assert (_hand_digest(hand_plan(literal=np.int64(0)))
                != _hand_digest(hand_plan(literal=np.float64(0.0))))


def every_kind_plans():
    """Hand-built plans covering every operator, predicate op, literal kind
    (IN lists and tuples, LIKE patterns, NULL tests, numpy scalars),
    aggregate, group-by, sort key, index scan and columnar scan."""
    leaves = (
        Comparison("t", "a", PredOp.EQ, 1),
        Comparison("t", "b", PredOp.NEQ, "x"),
        Comparison("t", "a", PredOp.LT, 2.5),
        Comparison("t", "a", PredOp.LEQ, np.int64(3)),
        Comparison("t", "a", PredOp.GT, np.float64(4.5)),
        Comparison("t", "a", PredOp.GEQ, np.float32(0.25)),
        Comparison("t", "b", PredOp.IN, ["x", "y"]),
        Comparison("t", "a", PredOp.IN, (np.int64(1), 2, 3.5)),
        Comparison("t", "b", PredOp.LIKE, "%ab_"),
        Comparison("t", "b", PredOp.NOT_LIKE, np.str_("a%")),
        Comparison("t", "c", PredOp.IS_NULL),
        Comparison("t", "c", PredOp.IS_NOT_NULL),
    )
    nested = BooleanPredicate(PredOp.OR, (
        BooleanPredicate(PredOp.AND, leaves[:6]),
        BooleanPredicate(PredOp.AND, leaves[6:])))
    seq = PlanNode("SeqScan", table="t", filter_predicate=nested,
                   est_rows=np.float64(40.0), width=np.float32(12.5),
                   workers=np.int64(2), true_rows=np.float64(38.0))
    index = PlanNode("IndexScan", table="u", index_column="id",
                     filter_predicate=leaves[0], est_rows=3, width=8.0,
                     true_rows=None)
    columnar = PlanNode("ColumnarScan", table="v", storage_format="column",
                        scanned_columns=("a", "b"), est_rows=500.0,
                        width=16.0, true_rows=480.0)
    plans = []
    for join_op in ("HashJoin", "NestedLoopJoin", "MergeJoin"):
        plans.append(PlanNode(
            join_op, children=[copy.deepcopy(seq), copy.deepcopy(index)],
            join=JoinEdge("t", "u_id", "u", "id"), est_rows=30.0,
            width=20.0, true_rows=29.0))
    join = plans[0]
    aggregate = PlanNode(
        "HashAggregate", children=[join], est_rows=4.0, width=24.0,
        aggregates=(AggregateSpec("count"), AggregateSpec("sum", "t", "a"),
                    AggregateSpec("avg", "t", "a"),
                    AggregateSpec("min", "u", "id"),
                    AggregateSpec("max", "t", "a")),
        group_by=(("t", "b"), ("u", "id")), true_rows=4.0)
    sort = PlanNode("Sort", children=[aggregate], est_rows=4.0, width=24.0,
                    sort_keys=(("t", "b"), ("u", "id")), true_rows=4.0)
    plans.append(PlanNode("Gather", children=[sort], est_rows=4.0,
                          width=24.0, workers=2))
    plans.append(PlanNode(
        "Aggregate", children=[PlanNode(
            "Broadcast", children=[copy.deepcopy(columnar)], est_rows=500.0,
            width=16.0)],
        aggregates=(AggregateSpec("count"),), est_rows=1.0, width=8.0))
    plans.append(PlanNode("Repartition", children=[columnar],
                          est_rows=500.0, width=16.0))
    return plans


class TestPlanTokens:
    """A plan token is the featurizer's input and the fleet's wire format:
    it has an exact inverse, and graphs built from tokens equal the loop
    reference's."""

    def test_round_trip_on_hand_built_plans(self):
        plans = every_kind_plans()
        ops = {node.op_name for plan in plans for node in plan.iter_nodes()}
        assert ops == set(OPERATOR_NAMES)
        for plan in plans:
            token = fingerprint.plan_token(plan)
            rebuilt = fingerprint.plan_from_token(token, est_cost=7.5)
            assert fingerprint.plan_token(rebuilt) == token
            assert marshal.loads(marshal.dumps(token, 2)) == token
            assert rebuilt.est_cost == 7.5
            assert _hand_digest(rebuilt) == _hand_digest(plan)

    def test_round_trip_on_planner_plans_of_every_benchmark_database(self):
        dbs = make_benchmark_databases(base_rows=200)
        assert len(dbs) == 20
        for db in dbs.values():
            for mode, seed in (("standard", 1), ("complex", 2)):
                queries = WorkloadGenerator(
                    db, WorkloadConfig(mode=mode, max_joins=3,
                                       group_by_prob=0.4, order_by_prob=0.4),
                    seed=seed).generate(4)
                for query in queries:
                    plan = plan_query(db, query)
                    token = fingerprint.plan_token(plan)
                    rebuilt = fingerprint.plan_from_token(token)
                    assert fingerprint.plan_token(rebuilt) == token, db.name

    @pytest.mark.parametrize("source", ["exact", "optimizer", "deepdb"])
    def test_graphs_from_tokens_equal_reference(self, gen_db, workload,
                                                source):
        estimator = (DataDrivenEstimator(gen_db, seed=0)
                     if source == "deepdb" else None)
        card_maps = [annotate_cardinalities(gen_db, plan, source,
                                            estimator=estimator)
                     for plan in workload]
        tokens = [fingerprint.plan_token(plan) for plan in workload]
        card_lists = [[cards[id(node)] for node in plan.iter_nodes()]
                      for plan, cards in zip(workload, card_maps)]
        runs = [build_query_graphs(gen_db, tokens, card_lists)]
        if source != "deepdb":
            runs.append(build_query_graphs(gen_db, tokens, source))
        for fast in runs:
            for graph, plan, cards in zip(fast, workload, card_maps):
                reference = build_query_graph_reference(gen_db, plan, cards)
                assert_graphs_identical(graph, reference)

    @pytest.mark.parametrize("cards", CARD_SOURCES)
    def test_featurize_records_from_tokens_equals_from_plans(
            self, gen_db, cards, monkeypatch):
        """Token records featurize like their plans; only DeepDB rebuilds
        plan objects, and it samples exactly as on the originals."""
        queries = WorkloadGenerator(gen_db, WorkloadConfig(max_joins=2),
                                    seed=11).generate(10)
        records = list(generate_trace(gen_db, queries, seed=11))
        dbs = {gen_db.name: gen_db}
        rebuilt = []
        original = api.plan_from_token

        def counted(token):
            rebuilt.append(token)
            return original(token)

        monkeypatch.setattr(api, "plan_from_token", counted)
        from_plans = featurize_records(records, dbs, cards=cards,
                                       estimator_cache=EstimatorCache(seed=0))
        token_records = [ServingRecord(record.db_name,
                                       fingerprint.plan_token(record.plan))
                         for record in records]
        from_tokens = featurize_records(
            token_records, dbs, cards=cards,
            estimator_cache=EstimatorCache(seed=0))
        for graph, reference in zip(from_tokens, from_plans):
            assert_graphs_identical(graph, reference)
        assert len(rebuilt) == (len(records) if cards == "deepdb" else 0)


class TestEstimatorCacheStaleness:
    def test_rebuilt_database_invalidates(self, gen_db):
        cache = EstimatorCache(sample_size=64, seed=0)
        first = cache.get(gen_db)
        assert cache.get(gen_db) is first  # stable while content unchanged
        # Same name, different content (row counts differ): must rebuild.
        from repro.datagen import generate_database, random_database_spec
        spec = random_database_spec(gen_db.name, seed=78, layout="snowflake",
                                    base_rows=500, n_tables=3, complexity=0.4)
        rebuilt = generate_database(spec)
        assert rebuilt.name == gen_db.name
        second = cache.get(rebuilt)
        assert second is not first
        assert second.db is rebuilt

    def test_grown_database_invalidates(self):
        from repro.datagen import generate_database, random_database_spec
        spec = random_database_spec("growdb", seed=9, layout="star",
                                    base_rows=300, n_tables=3, complexity=0.3)
        db = generate_database(spec)
        cache = EstimatorCache(sample_size=64, seed=0)
        first = cache.get(db)
        table = db.table(db.schema.table_names[0])
        table.append({name: column.values[:1]
                      for name, column in table.columns.items()})
        second = cache.get(db)
        assert second is not first


class TestBatchCacheChunking:
    def _graphs(self, db, n=12, seed=5):
        queries = WorkloadGenerator(db, WorkloadConfig(max_joins=2),
                                    seed=seed).generate(n)
        records = list(generate_trace(db, queries, seed=seed))
        return featurize_records(records, {db.name: db}, cards="exact")

    def test_chunks_stable_across_varying_lists(self, gen_db):
        graphs = self._graphs(gen_db)
        cache = BatchCache(max_entries=16)
        cache.get_chunks(graphs, batch_size=4)
        assert cache.misses == 3 and cache.hits == 0
        # Same list again: all chunks hit.
        cache.get_chunks(graphs, batch_size=4)
        assert cache.hits == 3
        # Extended list: the three known chunks hit, only the tail is new.
        extra = self._graphs(gen_db, n=2, seed=6)
        cache.get_chunks(graphs + extra, batch_size=4)
        assert cache.hits == 6 and cache.misses == 4
        # List starting mid-way: chunks cached from aligned boundaries
        # still serve their subsequences.
        cache.get_chunks(graphs[4:], batch_size=4)
        assert cache.hits == 8

    def test_chunk_reuse_preserves_prediction_order(self, gen_db):
        from repro.core.training import predict_runtimes
        from repro.core.model import ZeroShotModel
        from repro.featurization import FeatureScalers, TargetScaler
        graphs = self._graphs(gen_db)
        model = ZeroShotModel(hidden_dim=16, seed=0).eval()
        scalers = FeatureScalers().fit(graphs)
        target = TargetScaler()
        target.mean, target.std = 0.0, 1.0
        cache = BatchCache(max_entries=16)
        base = predict_runtimes(model, graphs, scalers, target,
                                batch_size=5, batch_cache=cache)
        shifted = predict_runtimes(model, graphs[3:], scalers, target,
                                   batch_size=5, batch_cache=cache)
        np.testing.assert_allclose(shifted, base[3:], rtol=1e-6)

    def test_mutated_graph_not_served_stale(self, gen_db):
        import numpy as np
        from repro.featurization import FEATURE_DIMS
        graphs = self._graphs(gen_db, n=4)
        cache = BatchCache()
        cache.get_chunks(graphs, batch_size=4)
        graphs[0].add_node("output", np.zeros(FEATURE_DIMS["output"]))
        batches = cache.get_chunks(graphs, batch_size=4)
        assert batches[0].n_nodes == sum(g.n_nodes for g in graphs)
