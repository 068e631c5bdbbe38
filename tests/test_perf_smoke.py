"""Tier-1 smoke test for the perf harness: every fast path must dispatch.

Runs ``benchmarks/perf/harness.py`` on a tiny corpus and asserts — via the
``repro.perfstats`` dispatch counters and the cache hit counters — that the
public API actually took the vectorized featurizer, the batched annotation,
the fingerprint cache, the graph-free inference path, the flat-parameter
Adam step, the flat early-stopping snapshot, and (on a warm re-run) the
disk artifact store.  A regression that silently falls back to a loop
implementation fails here instead of only showing up as a slow benchmark
number.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro import perfstats

HARNESS_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "perf"
sys.path.insert(0, str(HARNESS_DIR))

import harness  # noqa: E402  (benchmarks/perf/harness.py)

_spec = importlib.util.spec_from_file_location("perf_run",
                                               HARNESS_DIR / "run.py")
perf_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_run)


@pytest.fixture(scope="module")
def tiny_corpus():
    return harness.build_plan_corpus(n_queries=10, seed=1, base_rows=400)


class TestHarnessSmoke:
    def test_corpus_generation_uses_trace_engine(self):
        """``generate_trace`` (and hence every corpus build) must run the
        batched stage-0 path: trace-level execution, never the per-plan
        reference loop."""
        perfstats.reset()
        db, records = harness.build_plan_corpus(n_queries=8, seed=2,
                                                base_rows=400)
        counters = perfstats.snapshot()
        assert counters.get("trace.generate.batched", 0) >= 1
        assert counters.get("trace.generate.reference", 0) == 0
        assert counters.get("execute.trace.plans", 0) >= 8

    def test_trace_execution_dispatches_engine(self, tiny_corpus):
        db, records = tiny_corpus
        plans = [r.plan for r in records]
        perfstats.reset()
        rate = harness.bench_trace_execution(db, plans, repeats=2)
        assert rate > 0
        counters = perfstats.snapshot()
        assert counters.get("execute.trace.plans", 0) >= 2 * len(plans)
        assert counters.get("execute.scan_cache.hit", 0) > 0
        assert counters.get("execute.join_index.hit", 0) > 0

    def test_runtime_simulation_dispatches_batched(self, tiny_corpus):
        db, records = tiny_corpus
        plans = [r.plan for r in records]
        rate = harness.bench_runtime_simulation(db, plans, repeats=2)
        assert rate > 0

    def test_spn_learning_dispatches_vectorized(self, tiny_corpus):
        db, _ = tiny_corpus
        rate = harness.bench_spn_learning(db, repeats=1, max_rows=400)
        assert rate > 0

    def test_featurization_dispatches_vectorized(self, tiny_corpus):
        db, records = tiny_corpus
        perfstats.reset()
        rate = harness.bench_featurization(db, records, repeats=1)
        assert rate > 0
        counters = perfstats.snapshot()
        assert counters.get("featurize.vectorized", 0) >= len(records)
        assert counters.get("featurize.reference", 0) == 0

    def test_annotation_dispatches_batched(self, tiny_corpus):
        db, records = tiny_corpus
        perfstats.reset()
        rate = harness.bench_annotation(db, records, repeats=1,
                                        sample_size=128)
        assert rate > 0
        counters = perfstats.snapshot()
        assert counters.get("annotate.batched", 0) >= len(records)
        assert counters.get("annotate.reference", 0) == 0

    def test_fingerprint_cache_hits_warm(self, tiny_corpus):
        db, records = tiny_corpus
        rate, stats = harness.bench_featurization_cached(db, records,
                                                         repeats=2)
        assert rate > 0
        # Warm passes must be pure lookups: at least 2 full rounds of hits.
        assert stats["hits"] >= 2 * len(records)
        assert stats["misses"] <= len(records)

    def test_inference_runs_graph_free_with_batch_cache_hits(self,
                                                             tiny_corpus):
        db, records = tiny_corpus
        import numpy as np
        from repro.core import featurize_records
        graphs = featurize_records(records, {db.name: db}, cards="exact")
        runtimes = np.array([r.runtime_ms for r in records])
        perfstats.reset()
        rate, stats = harness.bench_inference(graphs, runtimes, hidden_dim=16,
                                              repeats=3, use_cache=True)
        assert rate > 0
        assert perfstats.snapshot().get("model.graph_free_inference", 0) >= 3
        assert stats["hits"] >= 2  # warm BatchCache after the first pass
        # The single-plan row: one uncached call (one forward) per graph.
        perfstats.reset()
        assert harness.bench_inference_single_plan(graphs, runtimes,
                                                   hidden_dim=16) > 0
        assert (perfstats.snapshot().get("model.graph_free_inference", 0)
                == len(graphs))

    def test_reference_benches_stay_on_loop_path(self, tiny_corpus):
        db, records = tiny_corpus
        perfstats.reset()
        harness.bench_featurization(db, records, repeats=1,
                                    use_reference=True)
        harness.bench_annotation(db, records, repeats=1, use_reference=True,
                                 sample_size=128)
        counters = perfstats.snapshot()
        assert counters.get("featurize.reference", 0) >= len(records)
        assert counters.get("annotate.reference", 0) >= len(records)
        # The reference trace-execution bench must stay on the per-plan
        # loop, never the context engine.
        plans = [r.plan for r in records]
        perfstats.reset()
        harness.bench_trace_execution(db, plans, repeats=1,
                                      use_reference=True)
        assert perfstats.snapshot().get("execute.trace.plans", 0) == 0

    def test_training_step_dispatches_flat_adam(self, tiny_corpus):
        db, records = tiny_corpus
        import numpy as np
        from repro.core import featurize_records
        graphs = featurize_records(records, {db.name: db}, cards="exact")
        runtimes = np.array([r.runtime_ms for r in records])
        perfstats.reset()
        rate = harness.bench_training_step(graphs, runtimes, hidden_dim=16,
                                           repeats=1, epochs=1)
        assert rate > 0
        counters = perfstats.snapshot()
        # Every step must take the whole-buffer flat path (all node types
        # present per batch here), never the per-parameter loops.
        assert counters.get("optim.flat_step", 0) > 0
        assert counters.get("optim.reference_step", 0) == 0

    def test_train_epoch_uses_flat_snapshots(self, tiny_corpus):
        db, records = tiny_corpus
        import numpy as np
        from repro.core import featurize_records
        graphs = featurize_records(records, {db.name: db}, cards="exact")
        runtimes = np.array([r.runtime_ms for r in records])
        perfstats.reset()
        rate = harness.bench_train_epoch(graphs, runtimes, hidden_dim=16,
                                         repeats=1, epochs=2)
        assert rate > 0
        counters = perfstats.snapshot()
        assert counters.get("optim.flat_step", 0) > 0
        # Early-stopping bookkeeping must run the flat-buffer snapshot, not
        # the per-tensor state_dict copy.
        assert counters.get("training.flat_snapshot", 0) > 0

    def test_experiment_warm_start_hits_artifact_store(self, tmp_path):
        perfstats.reset()
        cold_s, warm_s, stats = harness.bench_experiment_warm_start(
            store_dir=tmp_path, n_queries=6, epochs=2, hidden_dim=8)
        assert cold_s > 0 and warm_s > 0
        # The warm session must be served entirely from the store: database
        # generation, trace execution, featurization and training skipped.
        assert stats["misses"] == 0
        assert stats["hits"] >= 5
        counters = perfstats.snapshot()
        assert counters.get("store.hit.database", 0) >= 2
        assert counters.get("store.hit.trace", 0) >= 1
        assert counters.get("store.hit.graphs", 0) >= 1
        assert counters.get("store.hit.model", 0) >= 1


class TestFleetChaosSmoke:
    @pytest.mark.skipif(
        "fork" not in __import__("multiprocessing").get_all_start_methods(),
        reason="the serving fleet requires the fork start method")
    def test_fleet_chaos_bench_exercises_liveness_plane(self):
        """bench_fleet_chaos must drive every PR-9 mechanism: the hang is
        detected and killed (``fleet.hang.*``), stragglers are hedged
        (``fleet.hedge.*``), and the priority-classed overload plane
        sheds or browns out under a saturation burst
        (``serve.shed.priority.*`` / ``serve.brownout.count``)."""
        db, records = harness.build_plan_corpus(n_queries=48, seed=3,
                                                base_rows=400)
        perfstats.reset()
        results = harness.bench_fleet_chaos(db, records, hidden_dim=16,
                                            rounds=2, seed=3, fault_seed=4)
        assert perf_run.tripped("fleet_chaos", results) == []
        counters = perfstats.snapshot()
        assert counters.get("fleet.hang.detected", 0) >= 1
        assert counters.get("fleet.hang.killed", 0) >= 1
        assert counters.get("fleet.hedge.sent", 0) >= 1
        shed_or_brownout = (
            counters.get("serve.shed.priority.high", 0)
            + counters.get("serve.shed.priority.normal", 0)
            + counters.get("serve.shed.priority.low", 0)
            + counters.get("serve.brownout.count", 0))
        assert shed_or_brownout >= 1
        assert results["chaos"]["availability"] >= 0.99
        assert results["overload"]["high_availability"] >= 0.99
