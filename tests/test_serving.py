"""Serving subsystem: registry, micro-batching predictor, load harness.

The load-bearing contract is *serving equivalence*: for any request mix,
the value a request receives is bit-identical to a direct
``predict_runtimes`` call on the same model — across the batched path, the
result-cache path and hot-swaps.  That only holds because the graph-free
inference kernels are row-stable (``row_stable_matmul``), which the first
test class pins down at the numpy level.
"""

import dataclasses
import inspect
import multiprocessing
import re
import threading
import time
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import repro.featurization.fingerprint as fingerprint
import repro.featurization.zero_shot as zero_shot
import repro.serving.core as serving_core
import repro.serving.server as serving_server
import repro.storage.table as table_module
from repro import perfstats
from repro.cardest import annotate_cardinalities
from repro.core import TrainingConfig, ZeroShotCostModel, featurize_records
from repro.core.api import EstimatorCache
from repro.core.model import ZeroShotModel
from repro.core.training import predict_runtimes
from repro.datagen import generate_database, random_database_spec
from repro.featurization import (FeatureScalers, FeaturizationCache,
                                 TargetScaler, database_digest,
                                 plan_fingerprint)
from repro.nn import row_stable_matmul
from repro.serving import (LoadConfig, ModelRegistry, PredictionRequest,
                           PredictorFleet, PredictorServer, RequestShedError,
                           RequestStatus, RoutingError, ServerClosedError,
                           ServerConfig, ServingRecord, run_load)
from repro.workloads import WorkloadConfig, WorkloadGenerator, generate_trace

from oracles.featurization import build_query_graph_reference

REPO = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Row-stable inference kernels (the basis of serving equivalence)
# ----------------------------------------------------------------------
class TestRowStableMatmul:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_independent_of_row_count(self, dtype):
        """A row's product is bitwise the same whether it travels alone,
        in a pair, or in a large batch — including the gemv-prone shapes
        (single row, single output column)."""
        rng = np.random.default_rng(0)
        for k, h in [(5, 1), (32, 1), (64, 1), (13, 32), (64, 64), (128, 48)]:
            x = rng.normal(size=(129, k)).astype(dtype)
            w = rng.normal(size=(k, h)).astype(dtype)
            full = row_stable_matmul(x, w)
            for n in (1, 2, 3, 7, 64, 128):
                np.testing.assert_array_equal(row_stable_matmul(x[:n], w),
                                              full[:n])

    def test_matches_blas_for_regular_shapes(self):
        """Away from the degenerate shapes the kernel is plain ``@``."""
        rng = np.random.default_rng(1)
        x = rng.normal(size=(40, 16))
        w = rng.normal(size=(16, 8))
        np.testing.assert_array_equal(row_stable_matmul(x, w), x @ w)

    def test_values_close_to_blas_on_degenerate_shapes(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, 16))
        w = rng.normal(size=(16, 1))
        np.testing.assert_allclose(row_stable_matmul(x, w), x @ w,
                                   rtol=1e-12)


# ----------------------------------------------------------------------
# Shared world: two databases, executed workloads, models
# ----------------------------------------------------------------------
def _make_db(name, seed, base_rows=500):
    spec = random_database_spec(name, seed=seed, layout="snowflake",
                                base_rows=base_rows, n_tables=4,
                                complexity=0.6)
    return generate_database(spec)


def _make_trace(db, n, seed):
    queries = WorkloadGenerator(db, WorkloadConfig(max_joins=2),
                                seed=seed).generate(n)
    return list(generate_trace(db, queries, seed=seed))


def _make_model(graphs, runtimes, seed=0, hidden_dim=24, dtype="float32"):
    model = ZeroShotModel(hidden_dim=hidden_dim, seed=seed).eval()
    model.to(np.dtype(dtype))
    return ZeroShotCostModel(model, FeatureScalers().fit(graphs),
                             TargetScaler().fit(runtimes),
                             TrainingConfig(hidden_dim=hidden_dim,
                                            dtype=dtype))


@pytest.fixture(scope="module")
def world():
    db_a = _make_db("served_a", seed=11)
    db_b = _make_db("served_b", seed=22)
    dbs = {db_a.name: db_a, db_b.name: db_b}
    records_a = _make_trace(db_a, 18, seed=5)
    records_b = _make_trace(db_b, 12, seed=6)
    graphs_a = featurize_records(records_a, dbs, cards="exact")
    graphs_b = featurize_records(records_b, dbs, cards="exact")
    runtimes_a = np.array([r.runtime_ms for r in records_a])
    runtimes_b = np.array([r.runtime_ms for r in records_b])
    return {
        "dbs": dbs, "db_a": db_a, "db_b": db_b,
        "records_a": records_a, "records_b": records_b,
        "graphs_a": graphs_a, "graphs_b": graphs_b,
        "runtimes_a": runtimes_a, "runtimes_b": runtimes_b,
    }


def _direct(model, graphs):
    return predict_runtimes(model.model, graphs, model.feature_scalers,
                            model.target_scaler, batch_cache=False)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestModelRegistry:
    def test_publish_versions_and_active(self, world, tmp_path):
        registry = ModelRegistry(tmp_path)
        m1 = _make_model(world["graphs_a"], world["runtimes_a"], seed=0)
        m2 = _make_model(world["graphs_a"], world["runtimes_a"], seed=1)
        d1 = registry.publish("main", m1, dbs=[world["db_a"]])
        d2 = registry.publish("main", m2, dbs=[world["db_a"]])
        assert (d1.version, d2.version) == (1, 2)
        assert registry.active("main").version == 2  # publish auto-promotes
        assert [d.version for d in registry.deployments("main")] == [1, 2]
        # No silent fallback: a model is default only when declared so.
        assert registry.default_model is None
        registry.set_default("main")
        assert registry.default_model == "main"

    def test_content_addressing_dedupes_payloads(self, world, tmp_path):
        registry = ModelRegistry(tmp_path)
        model = _make_model(world["graphs_a"], world["runtimes_a"], seed=0)
        d1 = registry.publish("main", model)
        d2 = registry.publish("shadow", model)
        assert d1.checkpoint_key == d2.checkpoint_key
        payloads = list((tmp_path / "deploy").glob("*.pkl"))
        assert len(payloads) == 1  # one payload for identical state

    def test_promote_rollback(self, world, tmp_path):
        registry = ModelRegistry(tmp_path)
        m1 = _make_model(world["graphs_a"], world["runtimes_a"], seed=0)
        m2 = _make_model(world["graphs_a"], world["runtimes_a"], seed=1)
        registry.publish("main", m1)
        registry.publish("main", m2, activate=False)
        assert registry.active("main").version == 1
        assert registry.promote("main", 2).version == 2
        assert registry.rollback("main").version == 1
        with pytest.raises(ValueError):
            registry.rollback("main")  # no previous version left
        with pytest.raises(ValueError):
            registry.promote("main", 99)

    def test_routing_by_database_fingerprint(self, world, tmp_path):
        registry = ModelRegistry(tmp_path)
        m_a = _make_model(world["graphs_a"], world["runtimes_a"], seed=0)
        m_b = _make_model(world["graphs_b"], world["runtimes_b"], seed=1)
        registry.publish("model_a", m_a, dbs=[world["db_a"]])
        registry.publish("fallback", m_b, default=True)
        assert registry.route(
            database_digest(world["db_a"])).name == "model_a"
        # Unseen database -> the default model (the zero-shot case).
        assert registry.route(
            database_digest(world["db_b"])).name == "fallback"

    def test_fresh_registry_reads_manifests_from_disk(self, world, tmp_path):
        registry = ModelRegistry(tmp_path)
        m1 = _make_model(world["graphs_a"], world["runtimes_a"], seed=0)
        m2 = _make_model(world["graphs_a"], world["runtimes_a"], seed=1)
        registry.publish("main", m1, dbs=[world["db_a"]])
        registry.publish("main", m2)
        registry.rollback("main")
        reopened = ModelRegistry(tmp_path)
        assert reopened.names() == ("main",)
        assert reopened.active("main").version == 1
        assert reopened.route(
            database_digest(world["db_a"])).checkpoint_key == \
            registry.active("main").checkpoint_key

    def test_generation_bumps_on_every_mutation(self, world, tmp_path):
        registry = ModelRegistry(tmp_path)
        model = _make_model(world["graphs_a"], world["runtimes_a"], seed=0)
        generation = registry.generation
        registry.publish("main", model)
        assert registry.generation > generation
        generation = registry.generation
        registry.promote("main", 1)
        assert registry.generation > generation


class TestSerializationRoundTrip:
    """`nn/serialize` round-trips through the registry (float32 satellite)."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_published_checkpoint_reloads_bit_identically(self, world,
                                                          tmp_path, dtype):
        """A checkpoint published, hot-swapped away and back, and reloaded
        from disk by a *fresh* registry predicts bit-identically to the
        in-memory model — dtype intact."""
        graphs = world["graphs_a"]
        model = _make_model(graphs, world["runtimes_a"], seed=3, dtype=dtype)
        expected = _direct(model, graphs)

        registry = ModelRegistry(tmp_path)
        registry.publish("main", model, dbs=[world["db_a"]])
        other = _make_model(graphs, world["runtimes_a"], seed=4, dtype=dtype)
        registry.publish("main", other)   # hot-swap to v2
        registry.rollback("main")         # and back to v1

        reopened = ModelRegistry(tmp_path)  # no in-memory memo: disk path
        reloaded = reopened.load("main")
        assert reloaded is not model
        assert reloaded.config.dtype == dtype
        assert reloaded.model.param_dtype() == np.dtype(dtype)
        np.testing.assert_array_equal(_direct(reloaded, graphs), expected)


# ----------------------------------------------------------------------
# Predictor server
# ----------------------------------------------------------------------
@pytest.fixture()
def registry_a(world, tmp_path):
    registry = ModelRegistry(tmp_path)
    model = _make_model(world["graphs_a"], world["runtimes_a"], seed=0)
    registry.publish("main", model, dbs=[world["db_a"]], default=True)
    return registry, model


class TestPredictorServer:
    def test_bulk_predictions_bit_identical_to_direct(self, world,
                                                      registry_a):
        registry, model = registry_a
        expected = _direct(model, world["graphs_a"])
        plans = [r.plan for r in world["records_a"]]
        with PredictorServer(registry, world["dbs"]) as server:
            out = server.predict(plans, world["db_a"].name)
        np.testing.assert_array_equal(out, expected)

    def test_statistics_built_at_construction(self, world, registry_a,
                                              monkeypatch):
        """Construction builds the catalog statistics of every table of
        every registered database; serving then computes none."""
        registry, model = registry_a
        for db in world["dbs"].values():
            for table in db.tables.values():
                table.invalidate_stats()
        computed = []
        original = table_module.compute_table_stats

        def counted(name, columns):
            computed.append(name)
            return original(name, columns)

        monkeypatch.setattr(table_module, "compute_table_stats", counted)
        server = PredictorServer(registry, world["dbs"])
        assert sorted(computed) == sorted(
            name for db in world["dbs"].values() for name in db.tables)
        computed.clear()
        with server:
            out = server.predict([r.plan for r in world["records_a"]],
                                 world["db_a"].name)
        np.testing.assert_array_equal(out, _direct(model, world["graphs_a"]))
        assert computed == []

    def test_concurrent_mixed_requests_bit_identical(self, world,
                                                     registry_a):
        """Many client threads, interleaved submits, tiny micro-batches:
        whatever coalescing the batcher picks, every value equals the
        direct per-plan prediction."""
        registry, model = registry_a
        expected = _direct(model, world["graphs_a"])
        plans = [r.plan for r in world["records_a"]]
        config = ServerConfig(max_batch_size=4, result_cache_size=0)
        results = {}
        with PredictorServer(registry, world["dbs"], config) as server:
            def client(offset):
                indices = list(range(offset, len(plans), 3))
                handles = [(i, server.submit(plans[i], world["db_a"].name,
                                             block=True))
                           for i in indices]
                for i, handle in handles:
                    results[i] = handle.result(30)

            threads = [threading.Thread(target=client, args=(offset,))
                       for offset in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        out = np.array([results[i] for i in range(len(plans))])
        np.testing.assert_array_equal(out, expected)

    def test_repeat_plans_hit_result_cache_bit_identically(self, world,
                                                           registry_a):
        registry, model = registry_a
        expected = _direct(model, world["graphs_a"])
        plans = [r.plan for r in world["records_a"]]
        # Equal-but-distinct plan objects: the same workload re-planned.
        replayed = [r.plan for r in _make_trace(world["db_a"], 18, seed=5)]
        assert replayed[0] is not plans[0]
        perfstats.reset()
        with PredictorServer(registry, world["dbs"]) as server:
            first = server.predict(plans, world["db_a"].name)
            repeats = server.submit_many(replayed, world["db_a"].name)
            values = [r.result(30) for r in repeats]
            stats = server.stats()
        np.testing.assert_array_equal(first, expected)
        np.testing.assert_array_equal(np.array(values), expected)
        assert all(r.status is RequestStatus.CACHED for r in repeats)
        assert stats["cached"] == len(plans)
        counters = perfstats.snapshot()
        assert counters.get("serve.cache.hit", 0) == len(plans)
        assert counters.get("serve.cache.miss", 0) == len(plans)

    def test_hot_swap_and_rollback_bit_identical(self, world, tmp_path):
        """Promotions take effect between micro-batches; every phase's
        predictions equal the direct calls on that phase's model, and the
        result cache never leaks values across checkpoints."""
        registry = ModelRegistry(tmp_path)
        m1 = _make_model(world["graphs_a"], world["runtimes_a"], seed=0)
        m2 = _make_model(world["graphs_a"], world["runtimes_a"], seed=1)
        registry.publish("main", m1, dbs=[world["db_a"]], default=True)
        plans = [r.plan for r in world["records_a"]]
        d1 = _direct(m1, world["graphs_a"])
        d2 = _direct(m2, world["graphs_a"])
        perfstats.reset()
        with PredictorServer(registry, world["dbs"]) as server:
            np.testing.assert_array_equal(
                server.predict(plans, world["db_a"].name), d1)
            registry.publish("main", m2)  # auto-promote: hot swap
            np.testing.assert_array_equal(
                server.predict(plans, world["db_a"].name), d2)
            registry.rollback("main")
            rolled = server.submit_many(plans, world["db_a"].name)
            values = np.array([r.result(30) for r in rolled])
            stats = server.stats()
        np.testing.assert_array_equal(values, d1)
        # The rollback answers arrive from the v1 cache entries, which
        # stayed valid because keys carry the checkpoint digest.
        assert all(r.status is RequestStatus.CACHED for r in rolled)
        assert stats["swaps"] >= 2
        assert perfstats.snapshot().get("serve.swap.count", 0) >= 2

    def test_stats_count_a_promote_without_a_later_request(self, world,
                                                           tmp_path):
        """A promote that lands after the last request is a swap by the
        time ``stats()`` reads the counters."""
        registry = ModelRegistry(tmp_path)
        m1 = _make_model(world["graphs_a"], world["runtimes_a"], seed=0)
        m2 = _make_model(world["graphs_a"], world["runtimes_a"], seed=1)
        registry.publish("main", m1, dbs=[world["db_a"]], default=True)
        plans = [r.plan for r in world["records_a"]][:2]
        # One database, so one route changes (swaps count per database).
        dbs = {world["db_a"].name: world["db_a"]}
        perfstats.reset()
        with PredictorServer(registry, dbs) as server:
            server.predict(plans, world["db_a"].name)
            second = registry.publish("main", m2, activate=False)
            registry.promote("main", second.version)
            stats = server.stats()
        assert stats["swaps"] == 1
        assert perfstats.snapshot().get("serve.swap.count", 0) == 1

    def test_stale_concurrent_route_resolution_is_dropped(self, world,
                                                          tmp_path):
        """A resolution that read the registry before a promote, and writes
        after a newer resolution, must not swap the routes back."""
        registry = ModelRegistry(tmp_path)
        m1 = _make_model(world["graphs_a"], world["runtimes_a"], seed=0)
        m2 = _make_model(world["graphs_a"], world["runtimes_a"], seed=1)
        registry.publish("main", m1, dbs=[world["db_a"]], default=True)
        core = PredictorServer(registry, {world["db_a"].name:
                                          world["db_a"]}).core
        resolve_one = core._resolve_one
        resolved, release = threading.Event(), threading.Event()

        def held_after_resolving(digest):
            route = resolve_one(digest)
            if threading.current_thread().name == "stale":
                resolved.set()
                release.wait(30)
            return route

        core._resolve_one = held_after_resolving
        stale = threading.Thread(target=core.resolve_routes, name="stale")
        stale.start()
        assert resolved.wait(30)          # holds v1's route, not written
        registry.publish("main", m2)      # promote v2
        core.resolve_routes()             # writes v2's route
        release.set()
        stale.join(30)
        assert not stale.is_alive()
        route = core._routes[world["db_a"].name]
        assert route.checkpoint_key == m2.state_digest()
        assert core.stats()["swaps"] == 1

    def test_admission_control_sheds_beyond_queue_depth(self, world,
                                                        registry_a):
        registry, model = registry_a
        plans = [r.plan for r in world["records_a"]][:6]
        config = ServerConfig(queue_depth=3, result_cache_size=0)
        server = PredictorServer(registry, world["dbs"], config)
        perfstats.reset()
        # Not started: submissions queue up against the bounded queue.
        handles = server.submit_many(plans, world["db_a"].name)
        statuses = [h.status for h in handles]
        assert statuses[:3] == [RequestStatus.PENDING] * 3
        assert statuses[3:] == [RequestStatus.SHED] * 3
        with pytest.raises(RequestShedError):
            handles[3].result()
        assert perfstats.snapshot().get("serve.shed.count", 0) == 3
        # Draining the queue completes the admitted requests correctly.
        server.start()
        expected = _direct(model, world["graphs_a"][:3])
        np.testing.assert_array_equal(
            np.array([h.result(30) for h in handles[:3]]), expected)
        server.stop()
        assert server.stats()["shed"] == 3

    def test_routing_multi_model_and_unseen_database(self, world, tmp_path):
        """BRAD-style routing: each database goes to its compatible model;
        an unseen database falls back to the default (zero-shot) model."""
        registry = ModelRegistry(tmp_path)
        m_a = _make_model(world["graphs_a"], world["runtimes_a"], seed=0)
        m_b = _make_model(world["graphs_b"], world["runtimes_b"], seed=1)
        registry.publish("model_a", m_a, dbs=[world["db_a"]])
        registry.publish("fallback", m_b, default=True)
        plans_a = [r.plan for r in world["records_a"]]
        plans_b = [r.plan for r in world["records_b"]]
        with PredictorServer(registry, world["dbs"]) as server:
            out_a = server.predict(plans_a, world["db_a"].name)
            out_b = server.predict(plans_b, world["db_b"].name)
        np.testing.assert_array_equal(out_a, _direct(m_a, world["graphs_a"]))
        np.testing.assert_array_equal(out_b, _direct(m_b, world["graphs_b"]))

    def test_unroutable_database_fails_fast(self, world, tmp_path):
        registry = ModelRegistry(tmp_path)
        model = _make_model(world["graphs_a"], world["runtimes_a"], seed=0)
        # Published but never activated: no active deployment anywhere.
        registry.publish("main", model, activate=False)
        with PredictorServer(registry, world["dbs"]) as server:
            handle = server.submit(world["records_a"][0].plan,
                                   world["db_a"].name)
            assert handle.status is RequestStatus.FAILED
            with pytest.raises(RoutingError):
                handle.result()

    def test_same_plan_object_across_databases_is_not_conflated(
            self, world, tmp_path):
        """The result cache must key on (checkpoint, plan, *database*): one
        plan object submitted against two databases gets two independent
        predictions, each bit-identical to the direct call on that
        database's featurization — never the other database's cached
        value."""
        from repro.serving import ServingRecord

        db_a = world["db_a"]
        # Same generator seed -> same schema/table names, but more rows:
        # the plan is valid against both databases while their stats (and
        # therefore features and predictions) differ.
        db_c = _make_db("served_c", seed=11, base_rows=800)
        dbs = {db_a.name: db_a, db_c.name: db_c}
        registry = ModelRegistry(tmp_path)
        model = _make_model(world["graphs_a"], world["runtimes_a"], seed=0)
        registry.publish("main", model, default=True)
        plan = world["records_a"][0].plan
        with PredictorServer(registry, dbs) as server:
            out_a = server.submit(plan, db_a.name, block=True).result(30)
            request_c = server.submit(plan, db_c.name, block=True)
            out_c = request_c.result(30)
        assert request_c.status is RequestStatus.DONE  # no bogus cache hit
        graphs_a = featurize_records([ServingRecord(db_a.name, plan)], dbs,
                                     cards="exact")
        graphs_c = featurize_records([ServingRecord(db_c.name, plan)], dbs,
                                     cards="exact")
        np.testing.assert_array_equal([out_a], _direct(model, graphs_a))
        np.testing.assert_array_equal([out_c], _direct(model, graphs_c))
        assert out_a != out_c  # the databases' stats genuinely differ

    def test_unregistered_database_raises(self, world, registry_a):
        registry, _ = registry_a
        with PredictorServer(registry, world["dbs"]) as server:
            with pytest.raises(KeyError):
                server.submit(world["records_a"][0].plan, "nope")

    def test_stats_are_consistent(self, world, registry_a):
        registry, _ = registry_a
        plans = [r.plan for r in world["records_a"]]
        with PredictorServer(registry, world["dbs"]) as server:
            server.predict(plans, world["db_a"].name)
            server.predict(plans[:5], world["db_a"].name)  # cache hits
            stats = server.stats()
        assert stats["requests"] == len(plans) + 5
        assert (stats["completed"] + stats["cached"]
                + stats["shed"] + stats["failed"]) == stats["requests"]
        assert sum(stats["batch_size_hist"].values()) == stats["batches"]
        assert stats["mean_batch_size"] > 0

    def test_queued_requests_coalesce_into_one_micro_batch(self, world,
                                                           registry_a):
        """Deterministic coalescing: requests queued before the batcher
        starts are dispatched as max_batch_size-bounded micro-batches, not
        one by one."""
        registry, model = registry_a
        plans = [r.plan for r in world["records_a"]][:10]
        config = ServerConfig(max_batch_size=8, result_cache_size=0)
        server = PredictorServer(registry, world["dbs"], config)
        handles = server.submit_many(plans, world["db_a"].name)
        server.start()
        expected = _direct(model, world["graphs_a"][:10])
        np.testing.assert_array_equal(
            np.array([h.result(30) for h in handles]), expected)
        server.stop()
        stats = server.stats()
        assert stats["batch_size_hist"] == {2: 1, 8: 1}
        assert stats["mean_batch_size"] == 5.0

    def test_load_dispatches_graph_free_micro_batches(self, world,
                                                      registry_a):
        """Saturating clients push every request through the micro-batch
        dispatch and the graph-free inference path, shedding nothing."""
        registry, _ = registry_a
        requests = [(world["db_a"].name, r.plan)
                    for r in world["records_a"]] * 2
        config = ServerConfig(max_batch_size=8, result_cache_size=0,
                              queue_depth=len(requests))
        perfstats.reset()
        with PredictorServer(registry, world["dbs"], config) as server:
            report = run_load(server, requests,
                              LoadConfig(n_clients=2, block=True))
        assert report.completed == len(requests)
        counters = perfstats.snapshot()
        assert counters["serve.batch.count"] > 0
        assert counters["serve.batch.requests"] >= len(requests)
        # At least one graph-free forward pass per micro-batch: the server,
        # not a set-up call, drives the numpy inference path.
        assert (counters.get("model.graph_free_inference", 0)
                >= counters["serve.batch.count"])
        assert counters.get("serve.shed.count", 0) == 0

    def test_submissions_after_stop_are_shed(self, world, registry_a):
        registry, _ = registry_a
        plans = [r.plan for r in world["records_a"]]
        config = ServerConfig(result_cache_size=0)
        server = PredictorServer(registry, world["dbs"], config)
        server.start()
        server.stop()
        handle = server.submit(plans[0], world["db_a"].name)
        assert handle.status is RequestStatus.SHED
        with pytest.raises(RequestShedError):
            handle.result()
        # start() re-opens admission.
        server.start()
        assert server.submit(plans[0],
                             world["db_a"].name).result(30) is not None
        server.stop()

    def test_result_cache_is_bounded(self, world, registry_a):
        registry, _ = registry_a
        plans = [r.plan for r in world["records_a"]]
        config = ServerConfig(result_cache_size=4)
        with PredictorServer(registry, world["dbs"], config) as server:
            server.predict(plans, world["db_a"].name)
            stats = server.stats()
        assert stats["result_cache_entries"] <= 4

    def test_each_delivery_counted_once(self, world, registry_a):
        """Every way a request can resolve (predicted, followed, hit at
        submit, shed, deadline-expired) is counted once, under its
        status, by the time every handle has resolved."""
        registry, _ = registry_a
        db_a = world["db_a"].name
        plans = [r.plan for r in world["records_a"]]
        n, depth = len(plans), len(plans) + 6
        server = PredictorServer(registry, world["dbs"],
                                 ServerConfig(queue_depth=depth))
        # Queued before start: one request already past its deadline, a
        # leader per plan, then duplicates that follow their leaders until
        # the queue is full; the rest are shed.
        handles = [server.submit(plans[0], db_a, deadline_ms=0.0)]
        handles += server.submit_many(plans * 2, db_a)
        with server:
            for handle in handles:
                assert handle.wait(60)
            handles += server.submit_many(plans, db_a)  # hits at submit
            stats = server.stats()
        followers = depth - 1 - n
        statuses = Counter(handle.status.value for handle in handles)
        assert statuses == {"done": n, "cached": followers + n,
                            "failed": 1, "shed": n - followers}
        assert stats["coalesced"] == followers
        counted = {key: stats[key] for key in
                   ("completed", "cached", "degraded", "shed", "failed")}
        assert counted == {"completed": n, "cached": followers + n,
                           "degraded": 0, "shed": n - followers, "failed": 1}
        assert sum(counted.values()) == stats["requests"] == len(handles)


# ----------------------------------------------------------------------
# The request handle: a one-shot completion latch
# ----------------------------------------------------------------------
def _run_threads(target, n):
    """Start ``n`` threads on ``target(index)`` behind one barrier; returns
    them started (join them yourself)."""
    barrier = threading.Barrier(n)

    def run(index):
        barrier.wait()
        target(index)

    threads = [threading.Thread(target=run, args=(index,), daemon=True)
               for index in range(n)]
    for thread in threads:
        thread.start()
    return threads


@pytest.fixture
def slow_clock(monkeypatch):
    """Make the serving clock yield the GIL for 1 ms per read, so a torn
    window inside ``_finish`` (which reads the clock) lets other threads
    in."""
    def clock():
        time.sleep(0.001)
        return time.perf_counter()

    monkeypatch.setattr(serving_core, "time",
                        types.SimpleNamespace(perf_counter=clock))


class TestRequestHandle:
    def test_wait_timeouts_follow_event_semantics(self):
        handle = PredictionRequest("db", plan=None)
        assert not handle.done()
        started = time.perf_counter()
        for _ in range(50):
            assert handle.wait(0) is False
            assert handle.wait(-1) is False
        assert time.perf_counter() - started < 0.5  # polls never block
        started = time.perf_counter()
        assert handle.wait(0.01) is False
        assert time.perf_counter() - started >= 0.009
        with pytest.raises(TimeoutError):
            handle.result(0)
        woke = []
        waiter = threading.Thread(target=lambda: woke.append(handle.wait()),
                                  daemon=True)
        waiter.start()
        waiter.join(0.05)
        assert waiter.is_alive() and not woke  # wait(None) blocks
        assert handle._finish(RequestStatus.DONE, value=2.5,
                              served_by=("main", 1))
        waiter.join(10)
        assert woke == [True]
        for timeout in (None, 0, -1, 0.01):
            assert handle.wait(timeout) is True
        assert handle.done() and handle.result(0) == 2.5
        assert handle.latency_ms >= 0 and not handle.degraded

    def test_one_finish_wakes_every_waiter(self):
        handle = PredictionRequest("db", plan=None)
        woke = []
        threads = _run_threads(lambda _: woke.append(handle.wait()), 16)
        time.sleep(0.05)
        assert not woke
        handle._finish(RequestStatus.CACHED, value=1.0)
        for thread in threads:
            thread.join(10)
        assert not any(thread.is_alive() for thread in threads)
        assert woke == [True] * 16

    def test_first_of_concurrent_finishes_wins(self, slow_clock):
        for _ in range(20):
            handle = PredictionRequest("db", plan=None)
            outcomes, errors = [], []

            def finish(index, handle=handle, outcomes=outcomes,
                       errors=errors):
                try:
                    won = handle._finish(RequestStatus.DONE,
                                         value=float(index),
                                         served_by=("main", index))
                except Exception as exc:  # noqa: BLE001 — the assertion
                    errors.append(exc)
                    return
                outcomes.append((index, won))

            for thread in _run_threads(finish, 8):
                thread.join(30)
            assert not errors
            winners = [index for index, won in outcomes if won]
            assert len(outcomes) == 8 and len(winners) == 1
            assert handle.value == float(winners[0])
            assert handle.served_by == ("main", winners[0])
            assert handle.status is RequestStatus.DONE

    def test_late_finish_changes_nothing(self):
        handle = PredictionRequest("db", plan=None)
        assert handle._finish(RequestStatus.DONE, value=1.0,
                              served_by=("main", 1))
        completed_at = handle.completed_at
        assert not handle._finish(RequestStatus.FAILED,
                                  error=RuntimeError("late"))
        assert handle.status is RequestStatus.DONE
        assert (handle.value, handle.error) == (1.0, None)
        assert (handle.served_by, handle.completed_at) == (("main", 1),
                                                           completed_at)

    def test_done_implies_every_result_field_is_written(self, slow_clock):
        for _ in range(20):
            handle = PredictionRequest("db", plan=None)
            seen = []

            def poll(index, handle=handle, seen=seen):
                if index:
                    handle._finish(RequestStatus.DONE, value=3.0,
                                   served_by=("main", 1))
                    return
                while not handle.done():
                    pass
                seen.append((handle.status, handle.value, handle.served_by,
                             handle.completed_at))

            for thread in _run_threads(poll, 2):
                thread.join(30)
            status, value, served_by, completed_at = seen[0]
            assert status is RequestStatus.DONE and value == 3.0
            assert served_by == ("main", 1) and completed_at is not None

    def test_cache_hit_builds_no_event_or_condition(self, world, registry_a,
                                                    monkeypatch):
        """A submit-time hit's handle is born complete: no sync object and
        no raw lock, yet it keeps the handle contract."""
        registry, model = registry_a
        plan = world["records_a"][0].plan
        expected = _direct(model, world["graphs_a"][:1])

        def refuse(*args, **kwargs):
            raise AssertionError("a cache-hit submit built a sync object")

        with PredictorServer(registry, world["dbs"]) as server:
            server.predict([plan], world["db_a"].name)
            # Core and server build sync objects through one module.
            assert serving_core.threading is serving_server.threading
            with monkeypatch.context() as patch:
                patch.setattr(threading, "Event", refuse)
                patch.setattr(threading, "Condition", refuse)
                patch.setattr(serving_core, "_allocate_lock", refuse)
                handle = server.submit(plan, world["db_a"].name)
                started = time.perf_counter()
                for timeout in (None, 0, -1, 0.5):
                    assert handle.wait(timeout) is True
                assert time.perf_counter() - started < 0.5  # all at once
                value = handle.result(0)
        assert handle.status is RequestStatus.CACHED
        np.testing.assert_array_equal([value], expected)
        assert handle.latency_ms >= 0
        fields = (handle.status, handle.value, handle.error,
                  handle.served_by, handle.checkpoint, handle.completed_at)
        assert handle._finish(RequestStatus.FAILED,
                              error=RuntimeError("late")) is False
        assert (handle.status, handle.value, handle.error, handle.served_by,
                handle.checkpoint, handle.completed_at) == fields

    @pytest.mark.parametrize("backend", ["server", "fleet"])
    def test_concurrent_clients_resolve_each_handle_once(
            self, world, registry_a, monkeypatch, backend):
        """Four client threads submit repeats and fresh plans and wait with
        random timeouts: every handle completes exactly once, bit-identical
        to a direct ``predict_runtimes`` call."""
        if (backend == "fleet"
                and "fork" not in multiprocessing.get_all_start_methods()):
            pytest.skip("the serving fleet requires the fork start method")
        registry, model = registry_a
        expected = _direct(model, world["graphs_a"])
        plans = [r.plan for r in world["records_a"]]
        finishes = []  # (handle id, won) per router-side _finish call
        original = PredictionRequest._finish

        def logged(handle, *args, **kwargs):
            won = original(handle, *args, **kwargs)
            finishes.append((id(handle), won))
            return won

        monkeypatch.setattr(PredictionRequest, "_finish", logged)
        config = ServerConfig(max_batch_size=4)
        transport = (PredictorFleet(registry, world["dbs"], config,
                                    n_workers=2)
                     if backend == "fleet"
                     else PredictorServer(registry, world["dbs"], config))
        delivered = []

        def client(index):
            rng = np.random.default_rng(index)
            order = rng.permutation(2 * len(plans)) % len(plans)
            handles = [(i, transport.submit(plans[i], world["db_a"].name,
                                            block=True))
                       for i in order]
            for i, handle in handles:
                while not handle.wait(
                        [None, 0, -1, 0.0005, 0.003][rng.integers(5)]):
                    pass
                delivered.append((i, handle))

        with transport:
            for thread in _run_threads(client, 4):
                thread.join(60)
        assert len(delivered) == 4 * 2 * len(plans)
        per_handle = Counter(handle_id for handle_id, _ in finishes)
        assert all(won for _, won in finishes)
        for i, handle in delivered:
            # Exactly once: a pending handle by one winning _finish, a
            # submit-time hit by none (it is born complete).
            born = handle._claim is None
            assert per_handle[id(handle)] == (0 if born else 1)
            assert handle.status in ((RequestStatus.CACHED,) if born else
                                     (RequestStatus.DONE,
                                      RequestStatus.CACHED))
        np.testing.assert_array_equal(
            np.array([handle.value for _, handle in delivered]),
            expected[[i for i, _ in delivered]])


# ----------------------------------------------------------------------
# The deployment is the unit of model work
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def four_dbs(world):
    """Four databases with six executed plans each, keyed by name."""
    dbs = dict(world["dbs"])
    records = {world["db_a"].name: world["records_a"][:6],
               world["db_b"].name: world["records_b"][:6]}
    for name, seed in (("grouped_c", 33), ("grouped_d", 44)):
        dbs[name] = _make_db(name, seed=seed, base_rows=300)
        records[name] = _make_trace(dbs[name], 6, seed=seed)
    return dbs, records


def _round_robin(records):
    """(db_name, plan) pairs alternating over the databases, like live
    traffic."""
    return [(name, plans[i].plan) for i in range(6)
            for name, plans in records.items()]


def _count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` so every call is recorded; returns the log."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestDeploymentGrouping:
    def test_cross_database_batch_is_one_model_call(self, world, four_dbs,
                                                    tmp_path, monkeypatch):
        """Four unseen databases all route to the default deployment: one
        micro-batch over them costs one featurize and one predict call,
        and every value equals the per-database direct prediction."""
        dbs, records = four_dbs
        registry = ModelRegistry(tmp_path)
        model = _make_model(world["graphs_a"], world["runtimes_a"], seed=0)
        registry.publish("main", model, default=True)
        mix = _round_robin(records)
        server = PredictorServer(registry, dbs, ServerConfig(
            max_batch_size=len(mix), result_cache_size=0))
        # Queued before start: the whole mix is one micro-batch.
        handles = [server.submit(plan, name) for name, plan in mix]
        featurize_calls = _count_calls(monkeypatch, serving_core,
                                       "featurize_records")
        predict_calls = _count_calls(monkeypatch, serving_core,
                                     "predict_runtimes")
        with server:
            values = [handle.result(30) for handle in handles]
        assert server.stats()["batch_size_hist"] == {len(mix): 1}
        assert len(featurize_calls) == 1
        assert len(predict_calls) == 1
        for name, db_records in records.items():
            expected = _direct(model, featurize_records(db_records, dbs,
                                                        cards="exact"))
            got = [value for (db_name, _), value in zip(mix, values)
                   if db_name == name]
            np.testing.assert_array_equal(got, expected)

    def test_each_fresh_plan_is_hashed_once(self, world, four_dbs, tmp_path,
                                            monkeypatch):
        """The submit-time digest is the result-cache key *and* the
        featurization-cache key: no plan is hashed a second time.  The
        token it hashed is what featurization encodes: no plan is
        tokenized a second time either."""
        dbs, records = four_dbs
        registry = ModelRegistry(tmp_path)
        model = _make_model(world["graphs_a"], world["runtimes_a"], seed=0)
        registry.publish("main", model, default=True)
        mix = _round_robin(records)
        digest_calls = [_count_calls(monkeypatch, module, "token_digest")
                        for module in (fingerprint, serving_core)]
        token_calls = _count_calls(monkeypatch, serving_core, "plan_token")
        encode_token_calls = _count_calls(monkeypatch, zero_shot,
                                          "plan_token")
        config = ServerConfig(max_batch_size=8, result_cache_size=0)
        with PredictorServer(registry, dbs, config) as server:
            handles = [server.submit(plan, name) for name, plan in mix]
            for handle in handles:
                handle.result(30)
        assert sum(map(len, digest_calls)) == len(mix)
        assert len(token_calls) == len(mix)
        assert not encode_token_calls

    @pytest.mark.parametrize("cards", ["exact", "optimizer", "deepdb"])
    def test_mixed_database_call_is_one_encoder_pass(self, four_dbs, cards,
                                                     monkeypatch):
        """A round-robin mix over four databases is encoded in one
        traversal, and every graph equals the loop oracle's for its own
        database (statistics memos are kept per database)."""
        dbs, records = four_dbs
        mix = [ServingRecord(name, plan)
               for name, plan in _round_robin(records)]
        encodes = _count_calls(monkeypatch, zero_shot, "_encode_batch")
        graphs = featurize_records(mix, dbs, cards=cards)
        assert len(encodes) == 1
        estimators = EstimatorCache()
        for record, graph in zip(mix, graphs):
            db = dbs[record.db_name]
            node_cards = annotate_cardinalities(
                db, record.plan, cards,
                estimator=estimators.get(db) if cards == "deepdb" else None)
            reference = build_query_graph_reference(db, record.plan,
                                                    node_cards)
            packed, expected = graph.packed(), reference.packed()
            assert graph.root == reference.root
            np.testing.assert_array_equal(packed.type_codes,
                                          expected.type_codes)
            np.testing.assert_array_equal(packed.edges, expected.edges)
            np.testing.assert_array_equal(packed.levels, reference.levels())
            assert packed.features_by_code.keys() == (
                expected.features_by_code.keys())
            for code, matrix in expected.features_by_code.items():
                np.testing.assert_array_equal(
                    packed.features_by_code[code], matrix)

    def test_featurize_records_rejects_keys_of_another_length(self, world):
        records = world["records_a"][:3]
        with pytest.raises(ValueError, match="2 keys for 3 records"):
            featurize_records(records, world["dbs"],
                              feat_cache=FeaturizationCache(),
                              keys=["k0", "k1"])

    def test_deployments_sharing_a_checkpoint_keep_their_served_by(
            self, world, tmp_path, monkeypatch):
        """Two deployment names publishing one checkpoint are two groups:
        each request is attributed to its own deployment."""
        registry = ModelRegistry(tmp_path)
        model = _make_model(world["graphs_a"], world["runtimes_a"], seed=0)
        d_a = registry.publish("model_a", model, dbs=[world["db_a"]])
        d_b = registry.publish("model_b", model, dbs=[world["db_b"]])
        assert d_a.checkpoint_key == d_b.checkpoint_key
        plans_a = [r.plan for r in world["records_a"][:5]]
        plans_b = [r.plan for r in world["records_b"][:5]]
        server = PredictorServer(registry, world["dbs"], ServerConfig(
            max_batch_size=10, result_cache_size=0))
        handles_a = [server.submit(p, world["db_a"].name) for p in plans_a]
        handles_b = [server.submit(p, world["db_b"].name) for p in plans_b]
        predict_calls = _count_calls(monkeypatch, serving_core,
                                     "predict_runtimes")
        with server:
            got_a = [handle.result(30) for handle in handles_a]
            got_b = [handle.result(30) for handle in handles_b]
        assert server.stats()["batch_size_hist"] == {10: 1}
        assert len(predict_calls) == 2  # one per deployment
        assert {h.served_by for h in handles_a} == {("model_a", 1)}
        assert {h.served_by for h in handles_b} == {("model_b", 1)}
        np.testing.assert_array_equal(got_a,
                                      _direct(model, world["graphs_a"][:5]))
        np.testing.assert_array_equal(got_b,
                                      _direct(model, world["graphs_b"][:5]))


# ----------------------------------------------------------------------
# Shutdown: queued handles must always resolve, never hang
# ----------------------------------------------------------------------
class TestShutdown:
    def test_stop_drains_queued_requests(self, world, registry_a):
        registry, model = registry_a
        expected = _direct(model, world["graphs_a"])
        config = ServerConfig(max_batch_size=4, result_cache_size=0)
        server = PredictorServer(registry, world["dbs"], config)
        # Queue everything before the batcher ever runs, then stop with
        # drain: every handle must still resolve to the exact value.
        handles = [server.submit(r.plan, world["db_a"].name)
                   for r in world["records_a"]]
        server.start()
        server.stop(drain=True)
        for handle, value in zip(handles, expected):
            assert handle.done()
            assert handle.status is RequestStatus.DONE
            assert handle.result() == float(value)

    def test_stop_without_drain_fails_queued_typed(self, world, registry_a):
        registry, _ = registry_a
        config = ServerConfig(max_batch_size=4, result_cache_size=0)
        server = PredictorServer(registry, world["dbs"], config)
        handles = [server.submit(r.plan, world["db_a"].name)
                   for r in world["records_a"]]
        server.start()
        server.stop(drain=False)
        for handle in handles:
            assert handle.done()  # resolved, not hanging
            assert handle.status in (RequestStatus.DONE,
                                     RequestStatus.FAILED)
            if handle.status is RequestStatus.FAILED:
                assert isinstance(handle.error, ServerClosedError)
                with pytest.raises(ServerClosedError):
                    handle.result()
        # At least the tail of the queue was dropped, typed.
        assert any(h.status is RequestStatus.FAILED for h in handles)

    def test_close_under_concurrent_submitters(self, world, registry_a):
        """stop() races against live client threads: after it returns,
        every handle anyone got back has resolved — DONE, CACHED, SHED or
        typed-FAILED — and waiting on one never hangs."""
        registry, _ = registry_a
        config = ServerConfig(max_batch_size=4, result_cache_size=0,
                              queue_depth=8)
        server = PredictorServer(registry, world["dbs"], config)
        server.start()
        collected = [[] for _ in range(3)]
        stop_flag = threading.Event()

        def client(bucket):
            while not stop_flag.is_set():
                for record in world["records_a"]:
                    try:
                        bucket.append(server.submit(record.plan,
                                                    world["db_a"].name))
                    except RequestShedError:
                        pass

        threads = [threading.Thread(target=client, args=(bucket,),
                                    daemon=True)
                   for bucket in collected]
        for thread in threads:
            thread.start()
        server.stop(drain=False)
        stop_flag.set()
        for thread in threads:
            thread.join(10.0)
            assert not thread.is_alive()
        resolved = {RequestStatus.DONE, RequestStatus.CACHED,
                    RequestStatus.SHED, RequestStatus.FAILED}
        for handle in (h for bucket in collected for h in bucket):
            assert handle.wait(5.0)
            assert handle.status in resolved

    def test_context_manager_reentry(self, world, registry_a):
        registry, _ = registry_a
        server = PredictorServer(registry, world["dbs"],
                                 ServerConfig(result_cache_size=0))
        plan = world["records_a"][0].plan
        with server:
            first = server.submit(plan, world["db_a"].name).result(30.0)
        with server:  # start() after stop() re-opens admission
            second = server.submit(plan, world["db_a"].name).result(30.0)
        assert first == second


# ----------------------------------------------------------------------
# Load harness
# ----------------------------------------------------------------------
class TestLoadHarness:
    def test_open_loop_run_reports_consistent_numbers(self, world,
                                                      registry_a):
        registry, model = registry_a
        requests = [(world["db_a"].name, r.plan)
                    for r in world["records_a"]] * 2
        config = ServerConfig(max_batch_size=8)
        with PredictorServer(registry, world["dbs"], config) as server:
            report = run_load(server, requests,
                              LoadConfig(n_clients=3, rate_per_s=3000,
                                         seed=7))
        assert report.n_requests == len(requests)
        assert report.completed + report.cached == len(requests)
        assert report.shed == 0 and report.failed == 0
        assert report.throughput_rps > 0
        latency = report.latency_ms
        assert latency["p50"] <= latency["p95"] <= latency["p99"] \
            <= latency["max"]
        assert sum(report.batch_size_hist.values()) == \
            report.server_stats["batches"]
        # Duplicated plans hit the result cache unless both copies land in
        # the same micro-batch (a scheduling race), so the guaranteed facts
        # are: some hits, and exactly one cache entry per unique plan.
        assert report.cached > 0
        assert report.server_stats["result_cache_entries"] == \
            len(world["records_a"])
        assert report.availability == 1.0
        assert report.as_dict()["n_requests"] == len(requests)

    def test_saturation_mode_and_values_still_exact(self, world,
                                                    registry_a):
        registry, model = registry_a
        expected = _direct(model, world["graphs_a"])
        requests = [(world["db_a"].name, r.plan)
                    for r in world["records_a"]]
        config = ServerConfig(max_batch_size=16, result_cache_size=0,
                              queue_depth=len(requests) + 4)
        with PredictorServer(registry, world["dbs"], config) as server:
            report = run_load(server, requests,
                              LoadConfig(n_clients=4, rate_per_s=None,
                                         seed=0, block=True))
            # Every plan predicted under load equals the direct call.
            out = server.predict([r.plan for r in world["records_a"]],
                                 world["db_a"].name)
        assert report.completed == len(requests)
        np.testing.assert_array_equal(out, expected)


# ----------------------------------------------------------------------
# Fingerprint plumbing added for serving
# ----------------------------------------------------------------------
class TestServingFingerprints:
    def test_database_digest_tracks_fingerprint(self, world):
        db = world["db_a"]
        assert database_digest(db) == database_digest(db.fingerprint())
        assert database_digest(db) != database_digest(world["db_b"])

    def test_plan_fingerprint_accepts_precomputed_db_fingerprint(self,
                                                                 world):
        db = world["db_a"]
        plan = world["records_a"][0].plan
        assert plan_fingerprint(db, plan, "exact") == plan_fingerprint(
            db, plan, "exact", db_fingerprint=db.fingerprint())


# ----------------------------------------------------------------------
# README "Serving options" table <-> ServerConfig / PredictorFleet
# ----------------------------------------------------------------------
def _options_in_code():
    """``{(option, owner): repr(default)}`` for every ServerConfig field
    and every PredictorFleet keyword (its ServerConfig aside)."""
    options = {(field.name, "ServerConfig"): repr(field.default)
               for field in dataclasses.fields(ServerConfig)}
    parameters = inspect.signature(PredictorFleet.__init__).parameters
    for name, parameter in parameters.items():
        if parameter.default is not parameter.empty and name != "config":
            options[(name, "PredictorFleet")] = repr(parameter.default)
    return options


def _options_in_readme():
    text = (REPO / "README.md").read_text()
    section = text.split("\n## Serving options\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| `([^`]*)` \|", section,
                      flags=re.MULTILINE)
    return {(name, owner): default for name, owner, default in rows}


class TestServingOptionsTable:
    def test_every_option_has_a_row(self):
        missing = set(_options_in_code()) - set(_options_in_readme())
        assert not missing, f"options missing from README: {sorted(missing)}"

    def test_every_row_names_an_option(self):
        stale = set(_options_in_readme()) - set(_options_in_code())
        assert not stale, f"README rows naming no option: {sorted(stale)}"

    def test_documented_defaults_match(self):
        code, readme = _options_in_code(), _options_in_readme()
        wrong = {key: (readme[key], code[key]) for key in code
                 if key in readme and readme[key] != code[key]}
        assert not wrong, f"README default != code default: {wrong}"
