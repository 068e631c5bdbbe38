"""Tests for query graphs, Table-1 features, scalers, and batching."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cardest import annotate_cardinalities
from repro.executor import execute_plan
from repro.featurization import (BatchCache, FEATURE_DIMS, FeatureScalers,
                                 NODE_TYPES, QueryGraph, TargetScaler,
                                 attribute_features, build_query_graph,
                                 build_query_graphs, make_batch, output_features, plan_features,
                                 predicate_features, table_features)
from repro.optimizer import plan_query
from repro.sql import PredOp
from repro.storage import DataType

from oracles.featurization import make_batch_reference


def graph_for(db, query, source="exact"):
    plan = plan_query(db, query)
    execute_plan(db, plan)
    cards = annotate_cardinalities(db, plan, source)
    return build_query_graph(db, plan, cards), plan


class TestFeatureVectors:
    def test_dims_match_builders(self):
        assert len(plan_features("SeqScan", 10, 1, 8, 1)) == FEATURE_DIMS["plan"]
        assert len(predicate_features(PredOp.EQ, 1.0)) == FEATURE_DIMS["predicate"]
        assert len(table_features(100, 10)) == FEATURE_DIMS["table"]
        assert len(attribute_features(8, 0.5, 10, 0.0, DataType.INT)) \
            == FEATURE_DIMS["attribute"]
        assert len(output_features("count")) == FEATURE_DIMS["output"]

    def test_log_transforms(self):
        features = plan_features("SeqScan", np.e - 1, 0, 0, 2)
        assert features[0] == pytest.approx(1.0)
        assert features[3] == 2.0

    def test_opname_one_hot(self):
        a = plan_features("SeqScan", 1, 1, 1, 1)
        b = plan_features("HashJoin", 1, 1, 1, 1)
        assert not np.allclose(a[4:], b[4:])
        assert a[4:].sum() == 1.0

    def test_storage_format(self):
        row = table_features(10, 1, "row")
        col = table_features(10, 1, "column")
        assert not np.allclose(row, col)

    def test_unknown_aggregation_rejected(self):
        with pytest.raises(ValueError):
            output_features("median")


class TestQueryGraphStructure:
    def test_single_table_graph(self, toy_db, simple_count_query):
        graph, plan = graph_for(toy_db, simple_count_query)
        counts = {t: graph.node_types.count(t) for t in NODE_TYPES}
        assert counts["plan"] == plan.n_nodes
        assert counts["table"] == 1
        assert counts["output"] == 1  # COUNT(*)
        assert graph.node_types[graph.root] == "plan"
        graph.validate()

    def test_filter_produces_predicate_and_attribute_nodes(self, toy_db,
                                                           filtered_query):
        graph, _ = graph_for(toy_db, filtered_query)
        counts = {t: graph.node_types.count(t) for t in NODE_TYPES}
        assert counts["predicate"] == 3  # AND + two comparisons
        assert counts["attribute"] == 2  # priority, status

    def test_join_graph_has_join_predicates(self, toy_db, join_query):
        graph, plan = graph_for(toy_db, join_query)
        counts = {t: graph.node_types.count(t) for t in NODE_TYPES}
        n_joins = sum(1 for n in plan.iter_nodes() if n.is_join)
        # one join predicate per join + the customers filter comparison
        assert counts["predicate"] >= n_joins + 1
        assert counts["table"] >= 2  # scans (NL inner shares no table node)

    def test_attribute_nodes_shared(self, toy_db, join_query):
        graph, _ = graph_for(toy_db, join_query)
        # customers.id is used by two join predicates at most once as a node:
        # attribute count must be <= distinct referenced columns.
        attrs = graph.node_types.count("attribute")
        assert attrs <= 7

    def test_cards_flow_into_features(self, toy_db, filtered_query):
        graph_exact, plan = graph_for(toy_db, filtered_query, source="exact")
        graph_opt, _ = graph_for(toy_db, filtered_query, source="optimizer")
        # Find a scan plan node and compare the cardout feature.
        scan_positions = [i for i, t in enumerate(graph_exact.node_types)
                          if t == "plan"]
        diffs = [not np.allclose(graph_exact.features[i][0],
                                 graph_opt.features[i][0])
                 for i in scan_positions]
        assert any(diffs)  # optimizer estimate differs from the exact count

    def test_levels_topological(self, toy_db, join_query):
        graph, _ = graph_for(toy_db, join_query)
        levels = graph.levels()
        for child, parent in graph.edges:
            assert levels[child] < levels[parent]

    def test_graph_validation_errors(self):
        graph = QueryGraph()
        a = graph.add_node("plan", np.zeros(FEATURE_DIMS["plan"]))
        with pytest.raises(ValueError):
            graph.add_node("banana", np.zeros(3))
        with pytest.raises(ValueError):
            graph.add_edge(a, a)
        b = graph.add_node("plan", np.zeros(FEATURE_DIMS["plan"]))
        graph.root = b
        with pytest.raises(ValueError):  # a disconnected from root
            graph.add_edge(b, a)  # wrong direction (topological violation)
            graph.validate()


class TestScalers:
    def test_feature_scalers_standardize(self, toy_db, join_query,
                                         filtered_query):
        graphs = [graph_for(toy_db, join_query)[0],
                  graph_for(toy_db, filtered_query)[0]]
        scalers = FeatureScalers().fit(graphs)
        matrix = np.stack([f for g in graphs
                           for t, f in zip(g.node_types, g.features)
                           if t == "plan"])
        scaled = scalers.transform("plan", matrix)
        np.testing.assert_allclose(scaled.mean(axis=0), 0.0, atol=1e-9)

    def test_fit_equals_per_node_stacking(self, gen_db):
        """Fitting on the graphs' per-type matrices gives the bits of the
        per-node stacking (kept here as the oracle), and leaves the graphs'
        per-node lists unbuilt."""
        from repro.workloads import WorkloadConfig, WorkloadGenerator
        queries = WorkloadGenerator(
            gen_db, WorkloadConfig(mode="complex", max_joins=3,
                                   group_by_prob=0.4, order_by_prob=0.4),
            seed=5).generate(24)
        plans = [plan_query(gen_db, query) for query in queries]
        graphs = build_query_graphs(gen_db, plans, "optimizer")
        oracle_graphs = build_query_graphs(gen_db, plans, "optimizer")
        scalers = FeatureScalers().fit(graphs)
        stacks = {node_type: [] for node_type in NODE_TYPES}
        for graph in oracle_graphs:
            for node_type, features in zip(graph.node_types,
                                           graph.features):
                stacks[node_type].append(features)
        assert set(scalers.scalers) == {t for t, rows in stacks.items()
                                        if rows} == set(NODE_TYPES)
        for node_type, scaler in scalers.scalers.items():
            matrix = np.stack(stacks[node_type])
            std = matrix.std(axis=0)
            std[std < 1e-9] = 1.0
            np.testing.assert_array_equal(scaler.mean, matrix.mean(axis=0))
            np.testing.assert_array_equal(scaler.std, std)
        assert all(graph._node_types is None and graph._features is None
                   for graph in graphs)

    def test_target_scaler_roundtrip(self):
        runtimes = np.array([1.0, 10.0, 100.0, 1000.0])
        scaler = TargetScaler().fit(runtimes)
        scaled = scaler.to_scaled(runtimes)
        np.testing.assert_allclose(scaler.to_runtime_ms(scaled), runtimes,
                                   rtol=1e-9)
        assert abs(scaled.mean()) < 1e-9

    def test_unfitted_scaler_raises(self):
        from repro.featurization import StandardScaler
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.ones((2, 2)))


def assert_same_batch(fast, ref):
    """Field-for-field equality of two batches (every LevelGroup field)."""
    assert fast.n_nodes == ref.n_nodes
    assert fast.type_offsets == ref.type_offsets
    assert fast.type_counts == ref.type_counts
    for node_type in ref.features:
        np.testing.assert_array_equal(fast.features[node_type],
                                      ref.features[node_type])
        np.testing.assert_array_equal(fast.init_positions[node_type],
                                      ref.init_positions[node_type])
    np.testing.assert_array_equal(fast.roots, ref.roots)
    np.testing.assert_array_equal(fast.mp_positions, ref.mp_positions)
    np.testing.assert_array_equal(fast.root_positions, ref.root_positions)
    assert len(fast.levels) == len(ref.levels)
    for fast_groups, ref_groups in zip(fast.levels, ref.levels):
        assert len(fast_groups) == len(ref_groups)
        for fg, rg in zip(fast_groups, ref_groups):
            assert fg.node_type == rg.node_type
            np.testing.assert_array_equal(fg.node_indices, rg.node_indices)
            np.testing.assert_array_equal(fg.edge_children, rg.edge_children)
            np.testing.assert_array_equal(fg.edge_parent_slots,
                                          rg.edge_parent_slots)
            np.testing.assert_array_equal(fg.child_positions,
                                          rg.child_positions)
            np.testing.assert_array_equal(fg.edge_starts, rg.edge_starts)


class TestBatching:
    def test_batch_preserves_node_counts(self, toy_db, join_query,
                                         filtered_query):
        g1, _ = graph_for(toy_db, join_query)
        g2, _ = graph_for(toy_db, filtered_query)
        batch = make_batch([g1, g2])
        assert batch.n_nodes == g1.n_nodes + g2.n_nodes
        assert batch.n_graphs == 2
        total = sum(batch.type_counts.values())
        assert total == batch.n_nodes

    def test_roots_are_plan_nodes(self, toy_db, join_query):
        g, _ = graph_for(toy_db, join_query)
        batch = make_batch([g, g])
        for root in batch.roots:
            # Roots lie inside the "plan" block of global ids.
            offset = batch.type_offsets["plan"]
            assert offset <= root < offset + batch.type_counts["plan"]

    def test_level_edges_reference_lower_levels(self, toy_db, join_query):
        g, _ = graph_for(toy_db, join_query)
        batch = make_batch([g])
        seen = set()
        for level_groups in batch.levels:
            newly = set()
            for group in level_groups:
                for child in group.edge_children:
                    assert int(child) in seen
                newly.update(int(i) for i in group.node_indices)
            seen |= newly
        assert len(seen) == batch.n_nodes

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            make_batch([])

    @settings(max_examples=10, deadline=None)
    @given(sizes=st.lists(st.integers(1, 3), min_size=1, max_size=4))
    def test_batch_group_slots_consistent(self, toy_db, sizes):
        from repro.workloads import WorkloadConfig, WorkloadGenerator
        queries = WorkloadGenerator(toy_db, WorkloadConfig(max_joins=2),
                                    seed=sum(sizes)).generate(len(sizes))
        graphs = [graph_for(toy_db, q)[0] for q in queries]
        batch = make_batch(graphs)
        for level_groups in batch.levels:
            for group in level_groups:
                if group.edge_parent_slots.size:
                    assert group.edge_parent_slots.max() < len(group.node_indices)

    @settings(max_examples=10, deadline=None)
    @given(n_queries=st.integers(1, 5), seed=st.integers(0, 500))
    def test_vectorized_batch_equals_reference(self, toy_db, n_queries, seed):
        """The vectorized construction is bit-identical to the loop-based
        reference implementation on arbitrary workloads."""
        from repro.workloads import WorkloadConfig, WorkloadGenerator
        queries = WorkloadGenerator(toy_db, WorkloadConfig(max_joins=2),
                                    seed=seed).generate(n_queries)
        graphs = [graph_for(toy_db, q)[0] for q in queries]
        scalers = FeatureScalers().fit(graphs)
        assert_same_batch(make_batch(graphs, scalers),
                          make_batch_reference(graphs, scalers))

    @settings(max_examples=15, deadline=None)
    @given(composition=st.lists(st.integers(0, 7), min_size=1, max_size=9))
    def test_random_compositions_equal_reference(self, toy_db, composition):
        """Any composition of a graph pool (one-graph batches, repeats,
        any order) yields the reference's batch, edge_starts included."""
        from repro.workloads import WorkloadConfig, WorkloadGenerator
        queries = WorkloadGenerator(toy_db, WorkloadConfig(max_joins=2),
                                    seed=11).generate(8)
        pool = [graph_for(toy_db, q)[0] for q in queries]
        graphs = [pool[i] for i in composition]
        fast = make_batch(graphs)
        assert_same_batch(fast, make_batch_reference(graphs))
        for level_groups in fast.levels:
            for group in level_groups:
                slots = group.edge_parent_slots
                if not slots.size:
                    assert not group.edge_starts.size
                    continue
                np.testing.assert_array_equal(
                    group.edge_starts,
                    np.flatnonzero(np.r_[True, np.diff(slots) != 0]))

    def test_packed_cache_invalidates_on_growth(self, toy_db,
                                                simple_count_query):
        graph, _ = graph_for(toy_db, simple_count_query)
        first = graph.packed()
        assert graph.packed() is first  # cached
        graph.add_node("output", np.zeros(FEATURE_DIMS["output"]))
        second = graph.packed()
        assert second is not first
        assert second.n_nodes == first.n_nodes + 1


class TestBatchCache:
    def test_cache_hits_on_same_graphs(self, toy_db, join_query):
        graph, _ = graph_for(toy_db, join_query)
        cache = BatchCache(max_entries=4)
        batch1 = cache.get([graph])
        batch2 = cache.get([graph])
        assert batch1 is batch2
        assert cache.hits == 1 and cache.misses == 1

    def test_cache_distinguishes_scalers(self, toy_db, join_query):
        graph, _ = graph_for(toy_db, join_query)
        scalers = FeatureScalers().fit([graph])
        cache = BatchCache()
        assert cache.get([graph]) is not cache.get([graph], scalers)

    def test_cache_distinguishes_graph_lists(self, toy_db, join_query,
                                             filtered_query):
        g1, _ = graph_for(toy_db, join_query)
        g2, _ = graph_for(toy_db, filtered_query)
        cache = BatchCache()
        assert cache.get([g1]) is not cache.get([g1, g2])

    def test_cache_misses_after_graph_mutation(self, toy_db, join_query):
        """A graph that grew after being cached must not serve the stale
        batch (same guard as QueryGraph.packed())."""
        graph, _ = graph_for(toy_db, join_query)
        cache = BatchCache()
        stale = cache.get([graph])
        graph.add_node("output", np.zeros(FEATURE_DIMS["output"]))
        fresh = cache.get([graph])
        assert fresh is not stale
        assert fresh.n_nodes == stale.n_nodes + 1

    def test_cache_eviction_is_bounded(self, toy_db, join_query):
        graph, _ = graph_for(toy_db, join_query)
        cache = BatchCache(max_entries=2)
        for _ in range(5):
            cache.get([graph_for(toy_db, join_query)[0]])
        assert len(cache._entries) <= 2


class TestAllocationGuard:
    def test_featurization_leaves_few_tracked_objects(self, gen_db):
        """Featurizing a plan must leave few GC-tracked allocations behind.

        Every tracked allocation counts towards the collector's generation-0
        threshold, so what featurization leaves behind sets how often a
        serving process pauses for a collection.  The measure is the growth
        of ``gc.get_count()[0]`` per plan over one ``featurize_records``
        call per plan (the serving shape), with the collector paused and
        after one warm pass that refills the free lists ``gc.collect()``
        empties.  On this corpus (48 planned queries, optimizer cards, hash
        seeds 0, 1 and 2) the earlier builder read 117.6 per plan: a
        tuple per edge, per-graph list slices, and the node builders'
        closure cycle, which kept every batch's row tuples alive until the
        next collection.  The array-backed builder reads 5.0.  The bound is
        a third of the earlier figure.
        """
        import gc
        from types import SimpleNamespace

        from repro.core import featurize_records
        from repro.workloads import WorkloadConfig, WorkloadGenerator

        queries = WorkloadGenerator(
            gen_db, WorkloadConfig(mode="complex", max_joins=3),
            seed=21).generate(48)
        records = [SimpleNamespace(db_name=gen_db.name,
                                   plan=plan_query(gen_db, query))
                   for query in queries]
        dbs = {gen_db.name: gen_db}

        def featurize():
            return [featurize_records([record], dbs, cards="optimizer")
                    for record in records]

        gc.collect()
        gc.disable()
        try:
            warm = featurize()
            before = gc.get_count()[0]
            kept = featurize()
            growth = (gc.get_count()[0] - before) / len(records)
        finally:
            gc.enable()
        assert len(warm) == len(kept) == len(records)
        assert growth <= 117.6 / 3, growth
