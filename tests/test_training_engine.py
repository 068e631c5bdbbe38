"""Tier-1 tests for the training & experiment engine (PR 3).

Covers the flat-parameter optimizer (bit-identity against the per-parameter
oracles over full ``train_model`` runs in both dtypes),
checkpointing of flattened parameters, the disk artifact store
(hit / corruption / stale-fingerprint invalidation), content-keyed graph
lists in the benchmark suite, deterministic parallel experiment execution,
and the shared predict-batch-cache counters/reset hook.
"""

import os
import pickle
from contextlib import nullcontext

import numpy as np
import pytest

from repro import perfstats
from repro.bench import (Artifacts, ArtifactStore, SuiteConfig, parallel_map,
                         register_artifacts)
from repro.core import (TrainingConfig, ZeroShotCostModel, featurize_records,
                        predict_cache_stats, reset_predict_cache, train_model)
from repro.core.model import ZeroShotModel
from repro.core.training import _PREDICT_BATCH_CACHE, predict_runtimes
from repro.datagen import generate_database, random_database_spec
from repro.featurization import records_fingerprint
from repro.nn import Adam, FlatParameterSpace, Tensor, clip_grad_norm
from repro.workloads import WorkloadConfig, WorkloadGenerator, generate_trace

from oracles.optim import (Adam_reference, clip_grad_norm_reference,
                           reference_training)


@pytest.fixture(scope="module")
def corpus():
    """A small featurized corpus (db, records, graphs, runtimes)."""
    spec = random_database_spec("flatdb", seed=3, base_rows=500, n_tables=3)
    db = generate_database(spec)
    queries = WorkloadGenerator(db, WorkloadConfig(max_joins=2),
                                seed=3).generate(24)
    trace = generate_trace(db, queries, seed=3)
    records = list(trace)
    graphs = featurize_records(records, {db.name: db}, cards="exact")
    runtimes = np.array([r.runtime_ms for r in records])
    return db, records, graphs, runtimes


def _train_pair(graphs, runtimes, dtype, seed=0):
    """Train twice from identical inits: flat engine vs the per-parameter
    oracles substituted into ``train_model``."""
    results = []
    perfstats.reset()
    for substitute in (nullcontext, reference_training):
        config = TrainingConfig(hidden_dim=16, epochs=6, batch_size=8,
                                dropout=0.1, seed=seed, dtype=dtype,
                                early_stopping_patience=2)
        model = ZeroShotModel(hidden_dim=16, dropout=0.1, seed=seed)
        with substitute():
            _, _, history = train_model(model, graphs, runtimes, config)
        results.append((model, history))
    assert perfstats.snapshot().get("optim.reference_step", 0) > 0
    return results


class TestFlatOptimizerBitIdentity:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_full_train_model_trajectory_identical(self, corpus, dtype):
        _, _, graphs, runtimes = corpus
        (flat_model, flat_history), (ref_model, ref_history) = _train_pair(
            graphs, runtimes, dtype)
        assert flat_history["train_loss"] == ref_history["train_loss"]
        assert flat_history["val_loss"] == ref_history["val_loss"]
        flat_state = flat_model.state_dict()
        ref_state = ref_model.state_dict()
        assert set(flat_state) == set(ref_state)
        for name in flat_state:
            assert flat_state[name].dtype == ref_state[name].dtype
            np.testing.assert_array_equal(flat_state[name], ref_state[name],
                                          err_msg=name)

    def test_adam_matches_reference_with_partial_grads(self):
        def make(seed=7):
            rng = np.random.default_rng(seed)
            return [Tensor(rng.normal(size=s), requires_grad=True)
                    for s in [(6, 4), (4,), (4, 3)]]

        fast, ref = make(), make()
        opt_fast = Adam(fast, lr=5e-3, weight_decay=1e-2)
        opt_ref = Adam_reference(ref, lr=5e-3, weight_decay=1e-2)
        rng = np.random.default_rng(11)
        for step in range(25):
            grads = [rng.normal(size=p.data.shape) for p in fast]
            for i, (a, b) in enumerate(zip(fast, ref)):
                if step % 4 == 2 and i == 0:   # node type absent this step
                    a.grad = b.grad = None
                    continue
                a.grad = None
                a._accumulate(grads[i].copy(), owned=True)
                b.grad = grads[i].copy()
            assert clip_grad_norm(fast, 1.0) == \
                clip_grad_norm_reference(ref, 1.0)
            opt_fast.step()
            opt_ref.step()
            for a, b in zip(fast, ref):
                np.testing.assert_array_equal(a.data, b.data)

    def test_step_skips_when_no_grads(self):
        w = Tensor(np.ones(3), requires_grad=True)
        opt = Adam([w], lr=0.1)
        opt.step()
        np.testing.assert_array_equal(w.data, np.ones(3))

    def test_flat_step_dispatches(self, corpus):
        _, _, graphs, runtimes = corpus
        perfstats.reset()
        config = TrainingConfig(hidden_dim=16, epochs=2, batch_size=8, seed=0)
        train_model(ZeroShotModel(hidden_dim=16, seed=0), graphs, runtimes,
                    config)
        counters = perfstats.snapshot()
        assert counters.get("optim.flat_step", 0) > 0
        assert counters.get("optim.reference_step", 0) == 0

    def test_rebinds_after_external_dtype_cast(self):
        model = ZeroShotModel(hidden_dim=8, seed=0)
        params = list(model.parameters())
        opt = Adam(params, lr=1e-3)
        model.to(np.float32)  # unbinds the float64 flat views
        for p in params:
            p.grad = None
            p._accumulate(np.ones(p.data.shape, dtype=np.float32), owned=True)
        opt.step()  # must re-flatten, not silently update dead buffers
        assert opt.space.bound()
        for p in params:
            assert p.data.dtype == np.dtype(np.float32)
            assert not np.array_equal(p.data, np.zeros(p.data.shape))


class TestFlatParameterSpace:
    def test_snapshot_restore_roundtrip(self):
        rng = np.random.default_rng(0)
        params = [Tensor(rng.normal(size=(3, 2)), requires_grad=True),
                  Tensor(rng.normal(size=4).astype(np.float32),
                         requires_grad=True)]
        space = FlatParameterSpace(params)
        saved = space.snapshot()
        before = [p.data.copy() for p in params]
        for p in params:
            p.data += 1.0
        space.restore(saved)
        for p, expected in zip(params, before):
            np.testing.assert_array_equal(p.data, expected)

    def test_params_are_views_and_grads_flat(self):
        params = [Tensor(np.ones((2, 2)), requires_grad=True),
                  Tensor(np.ones(3), requires_grad=True)]
        space = FlatParameterSpace(params)
        assert len(space.groups) == 1
        group = space.groups[0]
        assert all(p.data.base is group.data for p in params)
        for p in params:
            p.grad = None
            p._accumulate(np.full(p.data.shape, 2.0), owned=True)
        assert all(p.grad.base is group.grad for p in params)
        np.testing.assert_array_equal(group.grad,
                                      np.full(group.grad.shape, 2.0))


class TestCheckpointRoundTrip:
    def test_flat_trained_model_saves_and_loads(self, corpus, tmp_path):
        db, records, graphs, runtimes = corpus
        config = TrainingConfig(hidden_dim=16, epochs=3, batch_size=8, seed=0)
        model = ZeroShotCostModel.train(None, None, config=config,
                                        graphs=graphs, runtimes=runtimes)
        # Parameters are views into the flat buffer at this point.
        assert any(p.data.base is not None for p in model.model.parameters())
        path = tmp_path / "model.npz"
        model.save(path)
        loaded = ZeroShotCostModel.load(path)
        original = model.predict_records(records, {db.name: db}, cards="exact")
        restored = loaded.predict_records(records, {db.name: db},
                                          cards="exact")
        np.testing.assert_array_equal(original, restored)

    def test_loaded_model_trains_further(self, corpus, tmp_path):
        db, records, graphs, runtimes = corpus
        config = TrainingConfig(hidden_dim=16, epochs=2, batch_size=8, seed=0)
        model = ZeroShotCostModel.train(None, None, config=config,
                                        graphs=graphs, runtimes=runtimes)
        path = tmp_path / "model.npz"
        model.save(path)
        loaded = ZeroShotCostModel.load(path)
        tuned = loaded.fine_tune(records, {db.name: db}, cards="exact",
                                 graphs=graphs, runtimes=runtimes, epochs=2)
        assert len(tuned.predict_records(records, {db.name: db},
                                         cards="exact")) == len(records)


class TestArtifactStore:
    def test_miss_then_hit(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.key("thing", 1)
        assert store.load("thing", key) is None
        store.save("thing", key, {"value": 42}, fingerprint=b"fp")
        assert store.load("thing", key, fingerprint=b"fp") == {"value": 42}
        assert store.stats() == {"hits": 1, "misses": 1,
                                 "corrupt": 0}

    def test_corrupt_entry_rebuilds(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.key("thing", 2)
        store.save("thing", key, [1, 2, 3])
        path = store._path("thing", key)
        path.write_bytes(path.read_bytes()[:7])  # truncate mid-pickle
        assert store.load("thing", key) is None
        assert not path.exists()  # corrupt file deleted for clean rebuild

    def test_stale_fingerprint_rebuilds(self, tmp_path):
        store = ArtifactStore(tmp_path)
        key = store.key("thing", 3)
        store.save("thing", key, "old", fingerprint=b"db-v1")
        assert store.load("thing", key, fingerprint=b"db-v2") is None
        assert store.load("thing", key) is None  # stale entry was dropped

    def test_suite_warm_start_skips_generation(self, tmp_path):
        config = SuiteConfig(scale="tiny", seed=0,
                             database_names=("airline", "imdb"))
        training = TrainingConfig(hidden_dim=8, epochs=2, batch_size=8,
                                  seed=0)

        def session(store):
            art = Artifacts(config, store=store)
            trace = art.trace("airline", n=6)
            art.graphs(trace, "exact")
            return art.train_zero_shot([trace], cards="exact",
                                       config=training)

        cold = session(ArtifactStore(tmp_path))
        perfstats.reset()
        warm_store = ArtifactStore(tmp_path)
        warm = session(warm_store)
        counters = perfstats.snapshot()
        # Second session: no database generation, no trace execution, no
        # featurization, no training — everything hydrates from disk.
        assert warm_store.misses == 0
        assert counters.get("store.hit.database", 0) == 2
        assert counters.get("store.hit.trace", 0) == 1
        assert counters.get("store.hit.graphs", 0) == 1
        assert counters.get("store.hit.model", 0) == 1
        art = Artifacts(config)
        cold_preds = cold.predict_records(
            list(art.trace("airline", n=6)), art.databases, cards="exact")
        warm_preds = warm.predict_records(
            list(art.trace("airline", n=6)), art.databases, cards="exact")
        np.testing.assert_array_equal(cold_preds, warm_preds)

    def test_grown_database_invalidates_trace(self, tmp_path):
        config = SuiteConfig(scale="tiny", seed=0,
                             database_names=("airline", "imdb"))
        store = ArtifactStore(tmp_path)
        art = Artifacts(config, store=store)
        trace = art.trace("airline", n=6)
        trace_key = store.key("trace", art._generation_key(),
                              ("airline", "standard", 6, 0, None))
        # Simulate a database regenerated with different content: the
        # stored row-count fingerprint no longer matches.
        assert store.load("trace", trace_key,
                          fingerprint=("airline", (("x", 1),))) is None


class TestSuiteGraphKeying:
    def test_equal_traces_share_graphs_across_objects(self):
        config = SuiteConfig(scale="tiny", seed=0,
                             database_names=("airline", "imdb"))
        art = Artifacts(config)
        trace = art.trace("airline", n=6)
        graphs = art.graphs(trace, "exact")
        clone = pickle.loads(pickle.dumps(trace))  # distinct, equal content
        assert clone is not trace
        assert art.graphs(clone, "exact") is graphs

    def test_recycled_id_cannot_alias(self):
        config = SuiteConfig(scale="tiny", seed=0,
                             database_names=("airline", "imdb"))
        art = Artifacts(config)
        trace = art.trace("airline", n=6)
        graphs_a = art.graphs(trace, "exact")
        other = art.trace("airline", n=6, seed_offset=5)
        # Content differs, so even an id() collision cannot serve stale
        # graphs: keys are 16-byte digests of the records.
        assert art.graphs(other, "exact") is not graphs_a
        fp_a = art.trace_fingerprint(trace, "exact")
        fp_b = art.trace_fingerprint(other, "exact")
        assert fp_a != fp_b

    def test_fingerprint_matches_module_helper(self):
        config = SuiteConfig(scale="tiny", seed=0,
                             database_names=("airline", "imdb"))
        art = Artifacts(config)
        trace = art.trace("airline", n=6)
        assert art.trace_fingerprint(trace, "exact") == records_fingerprint(
            list(trace), art.databases, "exact")


def _parallel_train_task(task):
    """Module-level so the forked pool can pickle it by reference."""
    from repro.bench import artifacts_for
    config, names, epochs = task
    art = artifacts_for(config)
    training = TrainingConfig(hidden_dim=8, epochs=epochs, batch_size=8,
                              seed=config.seed)
    model = art.train_zero_shot([art.trace(n, n=6) for n in names],
                                cards="exact", config=training)
    return {name: values.tolist()
            for name, values in model.model.state_dict().items()}


class TestParallelExecution:
    def test_parallel_results_bit_identical_to_serial(self):
        config = SuiteConfig(scale="tiny", seed=0,
                             database_names=("airline", "baseball", "imdb"))
        art = Artifacts(config)
        register_artifacts(art)
        for name in ("airline", "baseball"):
            art.graphs(art.trace(name, n=6), "exact")
        tasks = [(config, ("airline",), 2), (config, ("baseball",), 2),
                 (config, ("airline", "baseball"), 2)]
        serial = [_parallel_train_task(task) for task in tasks]
        parallel = parallel_map(_parallel_train_task, tasks, processes=2)
        assert serial == parallel  # bit-identical params, in task order

    def test_worker_count_env(self, monkeypatch):
        from repro.bench import worker_count
        monkeypatch.setenv("REPRO_PARALLEL", "3")
        assert worker_count(10) == 3
        assert worker_count(2) == 2
        monkeypatch.setenv("REPRO_PARALLEL", "0")
        assert worker_count(10) == 1
        monkeypatch.delenv("REPRO_PARALLEL")
        assert worker_count(1) == 1

    def test_serial_fallback_preserves_order(self):
        assert parallel_map(lambda x: x * x, [1, 2, 3], processes=1) \
            == [1, 4, 9]


class TestPredictCache:
    def test_counters_and_reset(self, corpus):
        db, records, graphs, runtimes = corpus
        config = TrainingConfig(hidden_dim=8, epochs=1, batch_size=8, seed=0)
        model = ZeroShotCostModel.train(None, None, config=config,
                                        graphs=graphs, runtimes=runtimes)
        reset_predict_cache()
        assert predict_cache_stats()["entries"] == 0
        perfstats.reset()
        before = predict_cache_stats()
        predict_runtimes(model.model, graphs, model.feature_scalers,
                         model.target_scaler)
        predict_runtimes(model.model, graphs, model.feature_scalers,
                         model.target_scaler)
        counters = perfstats.snapshot()
        assert counters.get("predict.batch_cache.misses", 0) >= 1
        assert counters.get("predict.batch_cache.hits", 0) >= 1
        assert predict_cache_stats()["hits"] > before["hits"]
        assert predict_cache_stats()["entries"] > 0
        reset_predict_cache()
        assert predict_cache_stats()["entries"] == 0
        assert len(_PREDICT_BATCH_CACHE._entries) == 0

    def test_cache_is_bounded(self):
        assert _PREDICT_BATCH_CACHE.max_entries == 64
