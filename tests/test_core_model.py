"""Tests for the zero-shot model: forward pass, training, few-shot mode,
persistence, and the core zero-shot property (transfer to an unseen DB)."""

import numpy as np
import pytest

from repro.core import (EstimatorCache, TrainingConfig, ZeroShotCostModel,
                        ZeroShotModel, featurize_records)
from repro.datagen import generate_database, random_database_spec
from repro.core.training import predict_runtimes, train_model
from repro.featurization import (FEATURE_DIMS, FeatureScalers, QueryGraph,
                                 TargetScaler, make_batch)
from repro.nn import no_grad, q_error
from repro.workloads import WorkloadConfig, WorkloadGenerator, generate_trace

from oracles.featurization import make_batch_reference


def make_db(seed, layout="random", rows=900, tables=4):
    spec = random_database_spec(f"db{seed}", seed=seed, layout=layout,
                                base_rows=rows, n_tables=tables,
                                complexity=0.6)
    return generate_database(spec)


@pytest.fixture(scope="module")
def training_world():
    """Four small training databases + one unseen test database."""
    dbs = {}
    traces = []
    layouts = ["random", "star", "chain", "snowflake"]
    for seed in (1, 2, 3, 4):
        db = make_db(seed, layout=layouts[seed - 1])
        dbs[db.name] = db
        queries = WorkloadGenerator(db, WorkloadConfig(max_joins=2),
                                    seed=seed).generate(90)
        traces.append(generate_trace(db, queries, seed=seed))
    unseen = make_db(9, layout="snowflake")
    dbs[unseen.name] = unseen
    queries = WorkloadGenerator(unseen, WorkloadConfig(max_joins=2),
                                seed=9).generate(50)
    unseen_trace = generate_trace(unseen, queries, seed=9)
    return dbs, traces, unseen_trace


@pytest.fixture(scope="module")
def trained(training_world):
    dbs, traces, _ = training_world
    config = TrainingConfig(hidden_dim=32, epochs=50, batch_size=32,
                            seed=0, validation_fraction=0.1)
    return ZeroShotCostModel.train(traces, dbs, cards="exact", config=config)


class TestForwardPass:
    def test_output_shape(self, training_world):
        dbs, traces, _ = training_world
        records = list(traces[0])[:5]
        graphs = featurize_records(records, dbs, cards="exact")
        scalers = FeatureScalers().fit(graphs)
        model = ZeroShotModel(hidden_dim=16, seed=0)
        out = model(make_batch(graphs, scalers))
        assert out.shape == (5,)

    def test_deterministic_in_eval_mode(self, training_world):
        dbs, traces, _ = training_world
        records = list(traces[0])[:3]
        graphs = featurize_records(records, dbs, cards="exact")
        model = ZeroShotModel(hidden_dim=16, dropout=0.2, seed=0).eval()
        batch = make_batch(graphs)
        np.testing.assert_allclose(model(batch).numpy(), model(batch).numpy())

    def test_batching_equals_single(self, training_world):
        """Batched predictions equal per-graph predictions (no cross-talk)."""
        dbs, traces, _ = training_world
        records = list(traces[0])[:4]
        graphs = featurize_records(records, dbs, cards="exact")
        model = ZeroShotModel(hidden_dim=16, seed=1).eval()
        batched = model(make_batch(graphs)).numpy()
        singles = np.concatenate([model(make_batch([g])).numpy()
                                  for g in graphs])
        np.testing.assert_allclose(batched, singles, atol=1e-9)


def tiny_graph(seed=0):
    """Hand-built multi-level DAG exercising every node type."""
    rng = np.random.default_rng(seed)
    g = QueryGraph()
    attr = g.add_node("attribute", rng.normal(size=FEATURE_DIMS["attribute"]))
    table = g.add_node("table", rng.normal(size=FEATURE_DIMS["table"]))
    pred = g.add_node("predicate", rng.normal(size=FEATURE_DIMS["predicate"]))
    out = g.add_node("output", rng.normal(size=FEATURE_DIMS["output"]))
    scan = g.add_node("plan", rng.normal(size=FEATURE_DIMS["plan"]))
    root = g.add_node("plan", rng.normal(size=FEATURE_DIMS["plan"]))
    g.add_edge(attr, pred)
    g.add_edge(table, scan)
    g.add_edge(pred, scan)
    g.add_edge(scan, root)
    g.add_edge(out, root)
    g.root = root
    g.validate()
    return g


def edgeless_graph(seed=0):
    """A one-node plan: no edges, every group a single node."""
    rng = np.random.default_rng(seed)
    g = QueryGraph()
    g.root = g.add_node("plan", rng.normal(size=FEATURE_DIMS["plan"]))
    g.validate()
    return g


class TestFastPathEquivalence:
    """Block-assembly forward, graph-free inference and the vectorized
    batcher must agree with each other and with numerics."""

    def _batch(self):
        return make_batch([tiny_graph(0), tiny_graph(1), tiny_graph(2)])

    def test_forward_inference_matches_tensor_path(self):
        model = ZeroShotModel(hidden_dim=8, seed=4).eval()
        batch = self._batch()
        tensor_out = model(batch).numpy()
        numpy_out = model.forward_inference(batch)
        np.testing.assert_allclose(numpy_out, tensor_out, atol=1e-12)

    def test_no_grad_dispatches_to_inference_path(self):
        model = ZeroShotModel(hidden_dim=8, seed=4).eval()
        batch = self._batch()
        with no_grad():
            out = model(batch)
        assert not out.requires_grad
        np.testing.assert_allclose(out.numpy(), model(batch).numpy(),
                                   atol=1e-12)

    def test_forward_agrees_on_reference_batches(self):
        graphs = [tiny_graph(0), tiny_graph(1)]
        model = ZeroShotModel(hidden_dim=8, seed=2).eval()
        fast = model(make_batch(graphs)).numpy()
        ref = model(make_batch_reference(graphs)).numpy()
        np.testing.assert_allclose(fast, ref, atol=1e-12)

    def test_training_mode_dropout_stream_matches_tensor_path(self):
        """Padded inference buffers draw dropout masks for real rows only,
        so a no_grad forward in training mode consumes the tape path's rng
        stream (one-graph batch: every group has one row)."""
        import copy
        model = ZeroShotModel(hidden_dim=8, dropout=0.3, seed=4)
        twin = copy.deepcopy(model)
        for graphs in ([tiny_graph(0)], [tiny_graph(1), tiny_graph(2)]):
            batch = make_batch(graphs)
            tensor_out = model(batch).numpy()
            with no_grad():
                numpy_out = twin(batch).numpy()
            np.testing.assert_allclose(numpy_out, tensor_out, atol=1e-12)

    def test_float32_model_tracks_float64(self):
        import copy
        batch = self._batch()
        model64 = ZeroShotModel(hidden_dim=8, seed=4).eval()
        model32 = copy.deepcopy(model64).to(np.float32)
        out64 = model64(batch).numpy()
        out32 = model32(batch).numpy()
        assert out32.dtype == np.float32
        np.testing.assert_allclose(out32, out64, rtol=1e-3, atol=1e-3)

    def test_param_dtype_reads_the_live_parameter(self, monkeypatch):
        """``param_dtype`` reads the first parameter without walking the
        module tree, and follows a later cast, a checkpoint load and a
        training dtype."""
        from repro.nn import Module
        batch = self._batch()
        model = ZeroShotModel(hidden_dim=8, seed=4).eval()
        assert model.param_dtype() == Module.param_dtype(model)
        model.to(np.float32)
        assert model.param_dtype() == Module.param_dtype(model) == np.float32
        clone = ZeroShotModel(hidden_dim=8, seed=5)  # float64 construction
        clone.load_state_dict(model.state_dict())
        assert clone.param_dtype() == np.float32
        trained = ZeroShotModel(hidden_dim=8, seed=6).to(np.float32)
        train_model(trained, [tiny_graph(0), tiny_graph(1), tiny_graph(2)],
                    np.array([1.0, 2.0, 3.0]),
                    TrainingConfig(hidden_dim=8, epochs=1, dtype="float64"))
        assert trained.param_dtype() == np.float64

        def no_walk(self):
            raise AssertionError("parameters() walked during inference")

        monkeypatch.setattr(Module, "parameters", no_walk)
        for candidate, dtype in ((model, np.float32), (clone, np.float32),
                                 (trained.eval(), np.float64)):
            assert candidate.forward_inference(batch).dtype == dtype
        model.encoders["plan"].linears[0].weight.data = \
            model.encoders["plan"].linears[0].weight.data.astype(np.float64)
        assert model.param_dtype() == np.float64

    def test_message_passing_gradcheck(self):
        """Central-difference check of the block-assembly forward w.r.t.
        encoder, combiner and estimator weights."""
        batch = make_batch([tiny_graph(0), tiny_graph(1)])
        model = ZeroShotModel(hidden_dim=3, seed=6)
        row_weights = np.array([1.0, -2.0])

        def loss():
            return float((model(batch).numpy() * row_weights).sum())

        checked = [
            model.encoders["plan"].linears[0].weight,
            model.combiners["plan"].linears[0].weight,
            model.combiners["predicate"].linears[-1].bias,
            model.estimator.linears[0].weight,
        ]
        from repro.nn import Tensor
        model.zero_grad()
        (model(batch) * Tensor(row_weights)).sum().backward()
        eps = 1e-6
        for param in checked:
            grad = param.grad
            assert grad is not None
            flat = param.data.reshape(-1)
            numeric = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                upper = loss()
                flat[i] = orig - eps
                lower = loss()
                flat[i] = orig
                numeric[i] = (upper - lower) / (2 * eps)
            np.testing.assert_allclose(grad.reshape(-1), numeric, atol=1e-4)


class TestBatchComposition:
    """A plan's prediction is a pure function of the plan: the same bits
    whether ``predict_runtimes`` sees it alone or inside any batch."""

    SIZES = (1, 2, 3, 7, 64, 256)

    @pytest.fixture(scope="class")
    def corpus(self, training_world):
        dbs, traces, _ = training_world
        records = [r for trace in traces for r in trace]
        real = featurize_records(records[:250], dbs, cards="exact")
        # Hand-built graphs up front, so every batch size includes one-node
        # groups and edgeless plans next to real multi-child parents.
        hand = [tiny_graph(0), edgeless_graph(1), tiny_graph(2),
                edgeless_graph(3), tiny_graph(4), edgeless_graph(5)]
        graphs = hand + real
        scalers = FeatureScalers().fit(real)
        target = TargetScaler().fit([r.runtime_ms for r in records])
        return graphs, scalers, target

    def test_corpus_covers_the_edge_cases(self, corpus):
        graphs, scalers, _ = corpus
        assert len(graphs) >= max(self.SIZES)
        assert not graphs[1].edges
        for size in self.SIZES:
            batch = make_batch(graphs[:size], scalers)
            groups = [g for level in batch.levels for g in level]
            # Parents with several children at every size; one-node groups
            # wherever the batch is small enough to have them.
            assert any(len(g.edge_starts) < len(g.child_positions)
                       for g in groups)
            if size <= 3:
                assert any(len(g.node_indices) == 1 for g in groups)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_single_plan_equals_its_batch_row(self, corpus, dtype):
        graphs, scalers, target = corpus
        model = ZeroShotModel(hidden_dim=16, n_combine_layers=2,
                              seed=7).eval().to(dtype)
        graphs = graphs[:max(self.SIZES)]
        singles = np.concatenate(
            [predict_runtimes(model, [g], scalers, target, batch_cache=False)
             for g in graphs])
        for size in self.SIZES:
            batched = predict_runtimes(model, graphs[:size], scalers, target,
                                       batch_cache=False)
            assert batched.dtype == singles.dtype
            np.testing.assert_array_equal(batched, singles[:size],
                                          err_msg=f"batch size {size}")


class TestTraining:
    def test_loss_decreases(self, trained):
        losses = trained.history["train_loss"]
        assert losses[-1] < losses[0]

    def test_fits_training_data(self, trained, training_world):
        dbs, traces, _ = training_world
        metrics = trained.evaluate(traces[0], dbs, cards="exact")
        assert metrics["median"] < 1.6

    def test_zero_shot_transfer_to_unseen_db(self, trained, training_world):
        """The core claim: decent accuracy on a database never trained on."""
        dbs, _, unseen_trace = training_world
        metrics = trained.evaluate(unseen_trace, dbs, cards="exact")
        assert metrics["median"] < 2.5

    def test_few_shot_improves_on_unseen_db(self, trained, training_world):
        dbs, _, unseen_trace = training_world
        train_part, test_part = unseen_trace.split(0.6, seed=1)
        before = trained.evaluate(test_part, dbs, cards="exact")
        few_shot = trained.fine_tune(list(train_part), dbs, cards="exact",
                                     epochs=12)
        after = few_shot.evaluate(test_part, dbs, cards="exact")
        assert after["median"] <= before["median"] * 1.1  # no regression
        # original model untouched
        again = trained.evaluate(test_part, dbs, cards="exact")
        assert again["median"] == pytest.approx(before["median"])

    def test_training_validates_inputs(self):
        from repro.core.training import train_model
        model = ZeroShotModel(hidden_dim=8)
        with pytest.raises(ValueError):
            train_model(model, [], [], TrainingConfig(epochs=1))

    def test_deepdb_cards_inference(self, trained, training_world):
        dbs, _, unseen_trace = training_world
        cache = EstimatorCache(sample_size=256, seed=0)
        small = unseen_trace[:10]
        metrics = trained.evaluate(small, dbs, cards="deepdb",
                                   estimator_cache=cache)
        assert metrics["median"] < 4.0

    def test_optimizer_cards_inference(self, trained, training_world):
        dbs, _, unseen_trace = training_world
        metrics = trained.evaluate(unseen_trace[:10], dbs, cards="optimizer")
        assert np.isfinite(metrics["median"])


class TestPersistence:
    def test_save_load_roundtrip(self, trained, training_world, tmp_path):
        dbs, _, unseen_trace = training_world
        path = tmp_path / "zero_shot.npz"
        trained.save(path)
        loaded = ZeroShotCostModel.load(path)
        records = list(unseen_trace)[:8]
        graphs = featurize_records(records, dbs, cards="exact")
        original = trained.predict_records(records, dbs, graphs=graphs)
        restored = loaded.predict_records(records, dbs, graphs=graphs)
        np.testing.assert_allclose(original, restored, rtol=1e-9)


class TestPredictionQuality:
    def test_predictions_positive(self, trained, training_world):
        dbs, _, unseen_trace = training_world
        preds = trained.predict_trace(unseen_trace[:20], dbs, cards="exact")
        assert (preds > 0).all()

    def test_correlation_with_actuals(self, trained, training_world):
        """Predicted and actual log-runtimes correlate on the unseen DB."""
        dbs, _, unseen_trace = training_world
        records = list(unseen_trace)
        preds = trained.predict_records(records, dbs, cards="exact")
        actual = np.array([r.runtime_ms for r in records])
        rho = np.corrcoef(np.log(preds), np.log(actual))[0, 1]
        assert rho > 0.7
