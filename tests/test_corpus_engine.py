"""Tests for the stage-0 corpus engine.

Every fast path of the corpus engine must be *bit-identical* to its loop
oracle (``tests/oracles``) or per-plan counterpart:

* ``execute_trace`` ≡ per-plan ``execute_plan`` (rows, cardinalities, node
  profiles) across benchmark profiles,
* ``simulate_runtime_ms_batch`` ≡ per-plan ``simulate_runtime_ms``,
* ``generate_trace`` ≡ ``generate_trace_reference`` (records, runtimes,
  timeout exclusions, index churn),
* the vectorized ``equi_join`` gather ≡ the per-run loop spec.

SPN learning and runtime simulation have one implementation each; their
exact outputs are pinned (``TestPinnedOutputs``: SPN digests on a benchmark
database, simulated latencies of hand-built plans that hit every cost rule).
Plus the observability contract of the new per-trace memos (bounded,
counted, clearable) and the artifact-store SPN persistence.
"""

import hashlib

import numpy as np
import pytest

from repro import perfstats
from repro.bench.store import ArtifactStore
from repro.cardest import DataDrivenEstimator
from repro.cardest.spn import _LeafSet, _Sum, learn_spn
from repro.datagen import (generate_database, make_benchmark_database,
                           random_database_spec)
from repro.executor import (TraceExecutionContext, execute_plan, execute_trace,
                            simulate_runtime_ms, simulate_runtime_ms_batch)
from repro.executor.executor import _run_positions
from repro.optimizer import PlannerConfig, plan_query
from repro.storage import Index
from repro.workloads import WorkloadConfig, WorkloadGenerator, generate_trace

from oracles.workloads import (_gather_parent_positions_reference,
                               generate_trace_reference)

# Three benchmark profiles with different schema shapes / layouts.
PROFILES = ("airline", "imdb", "ssb")


def _planned_corpus(db, n=40, seed=0, mode="standard", max_joins=3,
                    planner_kwargs=None):
    queries = WorkloadGenerator(db, WorkloadConfig(max_joins=max_joins,
                                                   mode=mode),
                                seed=seed).generate(n)
    config = PlannerConfig(**(planner_kwargs or {}))
    return [plan_query(db, q, config=config) for q in queries]


def _capture(db, plans, runner):
    """Run ``runner`` over the plans and snapshot everything it annotates."""
    results = runner()
    return [
        {
            "rows": res.rows,
            "n_rows": res.n_rows,
            "profiles": [(id(node), dict(profile))
                         for node, profile in res.node_profiles],
            "true_rows": [node.true_rows for node in plan.iter_nodes()],
        }
        for plan, res in zip(plans, results)
    ]


@pytest.fixture(scope="module", params=PROFILES)
def profile_db(request):
    return make_benchmark_database(request.param, 2500)


class TestExecuteTraceEquivalence:
    def test_matches_per_plan_reference(self, profile_db):
        plans = _planned_corpus(profile_db, n=40)
        reference = _capture(profile_db, plans,
                             lambda: [execute_plan(profile_db, p)
                                      for p in plans])
        fast = _capture(profile_db, plans,
                        lambda: execute_trace(profile_db, plans))
        assert fast == reference

    def test_matches_with_indexed_nested_loops(self):
        spec = random_database_spec("nl_exec", seed=3, layout="snowflake",
                                    base_rows=3000, n_tables=5,
                                    complexity=0.8)
        db = generate_database(spec)
        for fk in db.schema.foreign_keys:
            db.create_index(fk.child_table, fk.child_column)
        plans = _planned_corpus(
            db, n=40, seed=7, mode="complex", max_joins=4,
            planner_kwargs=dict(index_selectivity_threshold=0.5,
                                nested_loop_outer_threshold=1e9,
                                min_parallel_pages=1))
        ops = {node.op_name for plan in plans for node in plan.iter_nodes()}
        assert "NestedLoopJoin" in ops and "IndexScan" in ops
        reference = _capture(db, plans,
                             lambda: [execute_plan(db, p) for p in plans])
        fast = _capture(db, plans, lambda: execute_trace(db, plans))
        assert fast == reference

    def test_shared_context_across_traces(self, profile_db):
        """One context serving two workloads still matches the reference."""
        ctx = TraceExecutionContext(profile_db)
        for seed in (0, 1):
            plans = _planned_corpus(profile_db, n=15, seed=seed)
            reference = _capture(profile_db, plans,
                                 lambda: [execute_plan(profile_db, p)
                                          for p in plans])
            fast = _capture(profile_db, plans,
                            lambda: execute_trace(profile_db, plans, ctx=ctx))
            assert fast == reference

    def test_gather_positions_matches_loop_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(0, 40))
            counts = rng.integers(0, 5, size=n)
            max_count = int(counts.max()) if n else 0
            order = rng.permutation(max(int(counts.sum()) + 10, 1))
            lo = rng.integers(0, max(len(order) - max_count, 1), size=n)
            hi = lo + counts
            expected = _gather_parent_positions_reference(order, lo, hi,
                                                          counts)
            actual = order[_run_positions(lo, counts)]
            np.testing.assert_array_equal(actual, expected)

    def test_index_structural_facts(self):
        dense = Index("t", "id", np.arange(100, dtype=np.float64))
        assert dense.unique_keys and dense.dense_keys
        shuffled = np.random.default_rng(0).permutation(100).astype(float)
        assert Index("t", "id", shuffled).dense_keys
        sparse = Index("t", "k", np.arange(100, dtype=np.float64) * 2.0)
        assert sparse.unique_keys and not sparse.dense_keys
        dup = Index("t", "k", np.array([1.0, 1.0, 2.0]))
        assert not dup.unique_keys and not dup.dense_keys
        keys, rows = dense.sorted_valid()
        np.testing.assert_array_equal(keys, np.arange(100, dtype=float))


class TestTraceMemoObservability:
    def test_counters_and_clear(self, profile_db):
        plans = _planned_corpus(profile_db, n=20)
        ctx = TraceExecutionContext(profile_db)
        perfstats.reset()
        execute_trace(profile_db, plans, ctx=ctx)
        counters = perfstats.snapshot()
        assert counters.get("execute.trace.plans", 0) == len(plans)
        assert counters.get("execute.scan_cache.miss", 0) > 0
        stats = ctx.stats()
        assert stats["scan_entries"] > 0
        assert stats["join_indexes"] >= 0
        # Re-running the same plans through the same context is all hits.
        perfstats.reset()
        execute_trace(profile_db, plans, ctx=ctx)
        counters = perfstats.snapshot()
        assert counters.get("execute.scan_cache.miss", 0) == 0
        assert counters.get("execute.scan_cache.hit", 0) > 0
        ctx.clear()
        assert ctx.stats() == {"scan_entries": 0, "join_indexes": 0,
                               "fk_domain_entries": 0}

    def test_scan_cache_bound_evicts(self, profile_db):
        plans = _planned_corpus(profile_db, n=25)
        ctx = TraceExecutionContext(profile_db, max_scan_entries=2)
        perfstats.reset()
        reference = _capture(profile_db, plans,
                             lambda: [execute_plan(profile_db, p)
                                      for p in plans])
        fast = _capture(profile_db, plans,
                        lambda: execute_trace(profile_db, plans, ctx=ctx))
        assert fast == reference  # evictions never change results
        assert ctx.stats()["scan_entries"] <= 2
        assert perfstats.snapshot().get("execute.scan_cache.eviction", 0) > 0


def _assert_tree_equal(a, b, path="root"):
    assert type(a) is type(b), path
    if isinstance(a, _LeafSet):
        assert list(a.leaves) == list(b.leaves), path
        for column in a.leaves:
            la, lb = a.leaves[column], b.leaves[column]
            assert la.null_mass == lb.null_mass, (path, column)
            for field in ("discrete_values", "discrete_masses",
                          "bin_edges", "bin_masses"):
                va, vb = getattr(la, field), getattr(lb, field)
                if va is None or vb is None:
                    assert va is None and vb is None, (path, column, field)
                else:
                    np.testing.assert_array_equal(va, vb,
                                                  err_msg=f"{path}.{column}.{field}")
        return
    if isinstance(a, _Sum):
        np.testing.assert_array_equal(a.weights, b.weights, err_msg=path)
    assert len(a.children) == len(b.children), path
    for i, (ca, cb) in enumerate(zip(a.children, b.children)):
        _assert_tree_equal(ca, cb, f"{path}.{i}")


class TestSpnStorePersistence:
    def test_build_persists_and_hydrates(self, tmp_path):
        db = make_benchmark_database("airline", 1500)
        store = ArtifactStore(tmp_path)
        perfstats.reset()
        cold = DataDrivenEstimator(db, sample_size=64, seed=0,
                                   max_spn_rows=1000, store=store)
        n_tables = len(db.schema.table_names)
        counters = perfstats.snapshot()
        assert counters.get("store.miss.spn", 0) == n_tables
        assert counters.get("spn.learn.count", 0) == n_tables

        perfstats.reset()
        warm = DataDrivenEstimator(db, sample_size=64, seed=0,
                                   max_spn_rows=1000, store=store)
        counters = perfstats.snapshot()
        assert counters.get("store.hit.spn", 0) == n_tables
        assert counters.get("spn.learn.count", 0) == 0  # no relearning
        for table_name in db.schema.table_names:
            cold_spn = cold._spns[table_name]
            warm_spn = warm._spns[table_name]
            assert cold_spn.columns == warm_spn.columns
            _assert_tree_equal(cold_spn._root, warm_spn._root)

    def test_data_change_misses_fingerprint(self, tmp_path):
        db = make_benchmark_database("airline", 1000)
        store = ArtifactStore(tmp_path)
        DataDrivenEstimator(db, sample_size=64, seed=0, max_spn_rows=800,
                            store=store)
        # Mutate one table's content in place (row counts unchanged).
        table = db.table(db.schema.table_names[0])
        column = next(iter(table.columns.values()))
        column.values = column.values.copy()
        column.values[0] += 1.0
        perfstats.reset()
        DataDrivenEstimator(db, sample_size=64, seed=0, max_spn_rows=800,
                            store=store)
        counters = perfstats.snapshot()
        assert counters.get("store.miss.spn", 0) == 1  # only the edited table
        assert counters.get("spn.learn.count", 0) == 1

    def test_refresh_hydrates_on_unchanged_data(self, tmp_path):
        # A non-default learning config: refresh must rebuild under the
        # constructor's (seed, max_spn_rows), hitting the exact store keys
        # the construction saved.
        db = make_benchmark_database("airline", 1000)
        store = ArtifactStore(tmp_path)
        estimator = DataDrivenEstimator(db, sample_size=64, seed=3,
                                        max_spn_rows=750, store=store)
        perfstats.reset()
        estimator.refresh()
        counters = perfstats.snapshot()
        assert counters.get("store.hit.spn", 0) == len(db.schema.table_names)
        assert counters.get("spn.learn.count", 0) == 0


class TestBatchedSimulationEquivalence:
    def test_matches_per_plan_reference(self, profile_db):
        plans = _planned_corpus(profile_db, n=40)
        execute_trace(profile_db, plans)
        reference = np.array([simulate_runtime_ms(profile_db, p, seed=0)
                              for p in plans])
        batch = simulate_runtime_ms_batch(profile_db, plans, seed=0)
        np.testing.assert_array_equal(batch, reference)

    def test_matches_with_parallel_and_indexed_plans(self):
        spec = random_database_spec("sim_exec", seed=3, layout="snowflake",
                                    base_rows=3000, n_tables=5,
                                    complexity=0.8)
        db = generate_database(spec)
        for fk in db.schema.foreign_keys:
            db.create_index(fk.child_table, fk.child_column)
        plans = _planned_corpus(
            db, n=40, seed=7, mode="complex", max_joins=4,
            planner_kwargs=dict(index_selectivity_threshold=0.5,
                                nested_loop_outer_threshold=1e9,
                                min_parallel_pages=1))
        execute_trace(db, plans)
        for seed in (0, 11):
            reference = np.array([simulate_runtime_ms(db, p, seed=seed)
                                  for p in plans])
            batch = simulate_runtime_ms_batch(db, plans, seed=seed)
            np.testing.assert_array_equal(batch, reference)

    def test_distributed_operators_covered(self, toy_db):
        """Broadcast/Repartition/MergeJoin nodes through the trace entry point."""
        from repro.optimizer.plan import PlanNode

        def mini_plan():
            left = PlanNode("SeqScan", table="orders", est_rows=100.0,
                            width=16.0)
            right = PlanNode("SeqScan", table="customers", est_rows=10.0,
                             width=16.0)
            left.true_rows = 100.0
            right.true_rows = 10.0
            bcast = PlanNode("Broadcast", children=[right], est_rows=10.0,
                             width=16.0)
            bcast.true_rows = 10.0
            from repro.sql import JoinEdge
            join = PlanNode("MergeJoin", children=[left, bcast],
                            join=JoinEdge("orders", "customer_id",
                                          "customers", "id"),
                            est_rows=100.0, width=32.0)
            join.true_rows = 100.0
            repart = PlanNode("Repartition", children=[join], est_rows=100.0,
                              width=32.0)
            repart.true_rows = 100.0
            return repart

        plans = [mini_plan() for _ in range(4)]
        reference = np.array([simulate_runtime_ms(toy_db, p, seed=5)
                              for p in plans])
        batch = simulate_runtime_ms_batch(toy_db, plans, seed=5)
        np.testing.assert_array_equal(batch, reference)


def _spn_digest(spn):
    """blake2b over a canonical walk of an SPN: node kinds, sum weights and
    every leaf's NULL mass and distribution arrays.  (The pickle is no
    substitute: it carries a frozenset whose bytes follow the hash seed.)"""
    digest = hashlib.blake2b(digest_size=16)

    def walk(node):
        digest.update(type(node).__name__.encode())
        if isinstance(node, _LeafSet):
            for column, leaf in node.leaves.items():
                digest.update(column.encode())
                digest.update(np.float64(leaf.null_mass).tobytes())
                for field in ("discrete_values", "discrete_masses",
                              "bin_edges", "bin_masses"):
                    values = getattr(leaf, field)
                    digest.update(b"-" if values is None else
                                  np.asarray(values, np.float64).tobytes())
            return
        if isinstance(node, _Sum):
            digest.update(np.asarray(node.weights, np.float64).tobytes())
        digest.update(str(len(node.children)).encode())
        for child in node.children:
            walk(child)

    digest.update(",".join(spn.columns).encode())
    digest.update(str(spn.n_rows).encode())
    walk(spn._root)
    return digest.hexdigest()


def _pinned_plans():
    """Hand-built executed plans over ``toy_db`` that between them hit every
    operator rule of the runtime simulator, including parallel workers, an
    indexed nested-loop inner, a spilling hash join and an external sort."""
    from repro.optimizer.plan import PlanNode
    from repro.sql import (AggregateSpec, BooleanPredicate, Comparison,
                           JoinEdge, PredOp)

    def cmp(table, column, op, literal=None):
        return Comparison(table, column, op, literal)

    orders_customers = JoinEdge("orders", "customer_id", "customers", "id")
    customers_regions = JoinEdge("customers", "region_id", "regions", "id")
    aggs = (AggregateSpec("count"), AggregateSpec("sum", "orders", "amount"))

    parallel_scan = PlanNode(
        "HashAggregate", aggregates=aggs, group_by=(("orders", "status"),),
        est_rows=3.0, width=24.0, true_rows=3.0, children=[PlanNode(
            "Gather", est_rows=800.0, width=24.0, true_rows=912.0,
            children=[PlanNode(
                "SeqScan", table="orders", workers=3, est_rows=800.0,
                width=24.0, true_rows=912.0,
                filter_predicate=BooleanPredicate(PredOp.AND, (
                    cmp("orders", "amount", PredOp.GT, 60.0),
                    cmp("orders", "status", PredOp.EQ, "shipped"),
                    cmp("orders", "priority", PredOp.IN, [1, 2, 3]))))])])

    indexed_nested_loop = PlanNode(
        "Aggregate", aggregates=aggs[:1], est_rows=1.0, width=8.0,
        true_rows=1.0, children=[PlanNode(
            "NestedLoopJoin", join=orders_customers, est_rows=700.0,
            width=40.0, true_rows=1180.0, children=[
                PlanNode("SeqScan", table="customers", est_rows=10.0,
                         width=16.0, true_rows=59.0,
                         filter_predicate=cmp("customers", "category",
                                              PredOp.LIKE, "go%")),
                PlanNode("IndexScan", table="orders",
                         index_column="customer_id", est_rows=20.0,
                         width=24.0, true_rows=20.0,
                         filter_predicate=cmp("orders", "amount",
                                              PredOp.IS_NULL))])])

    spilling_join = PlanNode(
        "Sort", sort_keys=(("orders", "amount"),), est_rows=30000.0,
        width=40.0, true_rows=41000.0, children=[PlanNode(
            "HashJoin", join=orders_customers, est_rows=30000.0, width=40.0,
            true_rows=41000.0, children=[
                PlanNode("SeqScan", table="orders", est_rows=2000.0,
                         width=24.0, true_rows=2000.0),
                PlanNode("SeqScan", table="customers", est_rows=30000.0,
                         width=16.0, true_rows=0.0,
                         filter_predicate=cmp("customers", "age",
                                              PredOp.NEQ, 40))])])

    cache_penalty_join = PlanNode(
        "Sort", sort_keys=(("orders", "id"),), est_rows=90.0, width=40.0,
        true_rows=96.0, children=[PlanNode(
            "HashJoin", join=orders_customers, est_rows=90.0, width=40.0,
            true_rows=96.0, children=[
                PlanNode("IndexScan", table="orders", index_column="id",
                         est_rows=100.0, width=24.0, true_rows=96.0,
                         filter_predicate=cmp("orders", "priority",
                                              PredOp.LEQ, 3)),
                PlanNode("SeqScan", table="customers", est_rows=12000.0,
                         width=16.0, true_rows=12000.0)])])

    plain_nested_loop = PlanNode(
        "Aggregate", aggregates=aggs[:1], est_rows=1.0, width=8.0,
        true_rows=1.0, children=[PlanNode(
            "NestedLoopJoin", join=customers_regions, est_rows=100.0,
            width=24.0, true_rows=100.0, children=[
                PlanNode("SeqScan", table="regions", est_rows=10.0,
                         width=16.0, true_rows=10.0),
                PlanNode("SeqScan", table="customers", est_rows=100.0,
                         width=32.0, true_rows=100.0,
                         filter_predicate=BooleanPredicate(PredOp.OR, (
                             cmp("customers", "age", PredOp.LT, 30),
                             cmp("customers", "age", PredOp.GEQ, 80))))])])

    distributed = PlanNode(
        "Repartition", est_rows=1900.0, width=32.0, true_rows=1870.0,
        children=[PlanNode(
            "MergeJoin", join=orders_customers, est_rows=1900.0, width=32.0,
            true_rows=1870.0, children=[
                PlanNode("ColumnarScan", table="orders",
                         scanned_columns=("customer_id", "amount"),
                         est_rows=1900.0, width=16.0, true_rows=1900.0,
                         filter_predicate=cmp("orders", "amount",
                                              PredOp.IS_NOT_NULL)),
                PlanNode("Broadcast", est_rows=97.0, width=16.0,
                         true_rows=97.0, children=[PlanNode(
                             "SeqScan", table="customers", est_rows=97.0,
                             width=16.0, true_rows=97.0,
                             filter_predicate=cmp("customers", "category",
                                                  PredOp.NOT_LIKE,
                                                  "%on_"))])])])

    return {"parallel_scan": parallel_scan,
            "indexed_nested_loop": indexed_nested_loop,
            "spilling_join": spilling_join,
            "cache_penalty_join": cache_penalty_join,
            "plain_nested_loop": plain_nested_loop,
            "distributed": distributed}


class TestPinnedOutputs:
    """Exact outputs of SPN learning and runtime simulation, recorded from
    the engine before its duplicate fast paths were removed.  Any change to
    a learning primitive or a cost rule that moves a single bit fails here.
    """

    SPN_DIGESTS = {
        "fact": "f3eda1725fa1940454fdf59fe7f82d61",
        "t1": "83f66ebd47778da3e34033e824ecf619",
        "t2": "d2ceb0eb5cc0e0cbe8088765e5c63625",
        "t3": "8d3e04d251e0a643d08107e8c9daec62",
        "t4": "f640bb91e45743b569764bb5b2c9892d",
    }

    # (plan, seed, skip_inner_index) -> simulated milliseconds.
    RUNTIMES = {
        ("parallel_scan", 0, True): 2.9608006578641524,
        ("parallel_scan", 7, True): 2.7396061204618047,
        ("indexed_nested_loop", 0, True): 2.55997257772626,
        ("indexed_nested_loop", 7, True): 2.558777639458638,
        ("indexed_nested_loop", 0, False): 2.597493361823087,
        ("spilling_join", 0, True): 76.25679714755658,
        ("spilling_join", 7, True): 80.02231860907786,
        ("cache_penalty_join", 0, True): 5.032041565387229,
        ("cache_penalty_join", 7, True): 4.692956303780774,
        ("plain_nested_loop", 0, True): 0.2086513032207301,
        ("plain_nested_loop", 7, True): 0.20024430282283187,
        ("distributed", 0, True): 1.1769401761072198,
        ("distributed", 7, True): 1.2546141752209912,
    }

    def test_spn_digests(self):
        from repro.cardest import spn_input_arrays
        db = make_benchmark_database("airline", 1500)
        digests = {name: _spn_digest(learn_spn(
                       spn_input_arrays(db.table(name)), seed=0,
                       max_rows=1000))
                   for name in db.schema.table_names}
        assert digests == self.SPN_DIGESTS

    def test_simulated_runtimes(self, toy_db):
        from repro.optimizer.plan import OPERATOR_NAMES
        plans = _pinned_plans()
        ops = {node.op_name for plan in plans.values()
               for node in plan.iter_nodes()}
        assert ops == set(OPERATOR_NAMES)
        runtimes = {(name, seed, skip): simulate_runtime_ms(
                        toy_db, plans[name], seed=seed, skip_inner_index=skip)
                    for name, seed, skip in self.RUNTIMES}
        assert runtimes == self.RUNTIMES


class TestGenerateTraceEquivalence:
    @pytest.mark.parametrize("index_mode,mode,seed",
                             [(False, "standard", 0), (False, "complex", 5),
                              (True, "standard", 2)])
    def test_matches_reference(self, index_mode, mode, seed):
        spec = random_database_spec("tracegen", seed=seed, layout="snowflake",
                                    base_rows=1200, n_tables=5,
                                    complexity=0.7)
        db = generate_database(spec)
        queries = WorkloadGenerator(db, WorkloadConfig(max_joins=3, mode=mode),
                                    seed=seed).generate(40)
        reference = generate_trace_reference(db, queries, seed=seed,
                                             index_mode=index_mode)
        fast = generate_trace(db, queries, seed=seed, index_mode=index_mode)
        assert fast.db_name == reference.db_name
        assert fast.excluded_timeouts == reference.excluded_timeouts
        assert len(fast) == len(reference)
        for fast_rec, ref_rec in zip(fast, reference):
            assert fast_rec.query is ref_rec.query
            assert fast_rec.runtime_ms == ref_rec.runtime_ms
            assert fast_rec.indexes == ref_rec.indexes
            assert ([n.true_rows for n in fast_rec.plan.iter_nodes()]
                    == [n.true_rows for n in ref_rec.plan.iter_nodes()])

    def test_timeout_exclusions_match(self):
        spec = random_database_spec("timeouts", seed=1, layout="star",
                                    base_rows=2000, n_tables=4,
                                    complexity=0.6)
        db = generate_database(spec)
        queries = WorkloadGenerator(db, WorkloadConfig(max_joins=3),
                                    seed=1).generate(30)
        # A timeout at the median runtime forces the exclusion path.
        timeout = float(np.median(
            generate_trace_reference(db, queries, seed=1).runtimes()))
        reference = generate_trace_reference(db, queries, seed=1,
                                             timeout_ms=timeout)
        fast = generate_trace(db, queries, seed=1, timeout_ms=timeout)
        assert reference.excluded_timeouts > 0
        assert fast.excluded_timeouts == reference.excluded_timeouts
        assert len(fast) == len(reference)
