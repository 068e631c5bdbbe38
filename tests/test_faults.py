"""Fault-injection plane and self-healing serving.

The chaos contract under test, end to end:

* the :class:`FaultSchedule` replays bit-identically (same seed + same
  per-point call sequences → same faults),
* corrupt store payloads are caught by checksum and quarantined — never
  returned, never deleted blind when forensics matter,
* registry hydration failures quarantine the damaged version and
  re-resolve the manifest to the previous good checkpoint,
* the hardened server retries with backoff, isolates poisoned requests by
  bisection, enforces deadlines, survives batcher crashes with exactly-once
  re-enqueue, and degrades to the flagged analytical fallback behind a
  per-deployment circuit breaker,
* every ``DONE`` value stays bit-identical to a direct
  ``predict_runtimes`` call no matter which faults fired on the way.
"""

import multiprocessing
import pickle
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

import repro.robustness.faults as faults_module
import repro.serving.core as serving_core
from repro import perfstats
from repro.bench import ArtifactStore
from repro.core import TrainingConfig, ZeroShotCostModel, featurize_records
from repro.core.model import ZeroShotModel
from repro.core.training import predict_runtimes
from repro.datagen import generate_database, random_database_spec
from repro.featurization import (FeatureScalers, TargetScaler,
                                 plan_fingerprint)
from repro.optimizer import AnalyticalCostModel
from repro.robustness.faults import (FaultSchedule, FaultSpec, InjectedFault,
                                     POINTS, check, corrupt, inject)
from repro.serving import (DeadlineExceededError, DegradedResponseError,
                           HydrationError, LoadConfig, ModelRegistry,
                           PredictionRequest, PredictorFleet, PredictorServer,
                           RequestStatus,
                           RoutingError, ServerClosedError, ServerConfig,
                           run_load)
from repro.workloads import WorkloadConfig, WorkloadGenerator, generate_trace


# ----------------------------------------------------------------------
# Shared world: one database, one executed workload, one model
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def world():
    spec = random_database_spec("chaos_db", seed=31, layout="snowflake",
                                base_rows=400, n_tables=4, complexity=0.6)
    db = generate_database(spec)
    queries = WorkloadGenerator(db, WorkloadConfig(max_joins=2),
                                seed=7).generate(14)
    records = list(generate_trace(db, queries, seed=7))
    dbs = {db.name: db}
    graphs = featurize_records(records, dbs, cards="exact")
    runtimes = np.array([r.runtime_ms for r in records])
    model = ZeroShotModel(hidden_dim=24, seed=0).eval()
    model.to(np.dtype("float32"))
    cost_model = ZeroShotCostModel(
        model, FeatureScalers().fit(graphs), TargetScaler().fit(runtimes),
        TrainingConfig(hidden_dim=24, dtype="float32"))
    direct = predict_runtimes(cost_model.model, graphs,
                              cost_model.feature_scalers,
                              cost_model.target_scaler, batch_cache=False)
    return {"db": db, "dbs": dbs, "records": records, "graphs": graphs,
            "runtimes": runtimes, "model": cost_model,
            "direct": np.asarray(direct, dtype=float)}


def _registry(world, tmp_path):
    registry = ModelRegistry(ArtifactStore(tmp_path))
    registry.publish("chaos", world["model"], dbs=[world["db"]],
                     default=True)
    return registry


def _server(world, registry, dbs=None, **overrides):
    defaults = dict(max_batch_size=4, retry_backoff_ms=0.2)
    defaults.update(overrides)
    return PredictorServer(registry, dbs or world["dbs"],
                           ServerConfig(**defaults))


@pytest.fixture(scope="module")
def cross_db(world):
    """A second, unseen database routed to the same (default) deployment,
    plus an interleaved two-database request mix with direct values."""
    spec = random_database_spec("chaos_db2", seed=32, layout="snowflake",
                                base_rows=400, n_tables=4, complexity=0.6)
    db2 = generate_database(spec)
    queries = WorkloadGenerator(db2, WorkloadConfig(max_joins=2),
                                seed=8).generate(4)
    records2 = list(generate_trace(db2, queries, seed=8))
    dbs = {**world["dbs"], db2.name: db2}
    model = world["model"]
    direct2 = predict_runtimes(
        model.model, featurize_records(records2, dbs, cards="exact"),
        model.feature_scalers, model.target_scaler, batch_cache=False)
    mix = []
    for i, record in enumerate(records2):
        mix.append((world["db"].name, world["records"][i].plan,
                    float(world["direct"][i])))
        mix.append((db2.name, record.plan, float(direct2[i])))
    return {"dbs": dbs, "mix": mix}


# ----------------------------------------------------------------------
# The schedule itself
# ----------------------------------------------------------------------
class TestFaultSchedule:
    def test_replays_bit_identically(self):
        """Same seed + same per-point call sequence → identical decisions,
        regardless of wall-clock or interleaving with other points."""
        specs = [FaultSpec("serve.infer", rate=0.3),
                 FaultSpec("serve.featurize", rate=0.2, max_faults=3)]
        decisions = []
        for _ in range(2):
            schedule = FaultSchedule(specs, seed=42)
            run = []
            for i in range(50):
                run.append(schedule.decide("serve.infer") is not None)
                if i % 3 == 0:  # interleaved calls at another point
                    run.append(
                        ("f", schedule.decide("serve.featurize") is not None))
            decisions.append((run, schedule.stats()))
        assert decisions[0] == decisions[1]
        assert decisions[0][1]["serve.infer"]["calls"] == 50

    def test_points_have_independent_streams(self):
        """Extra calls at one point never shift another point's stream."""
        spec = [FaultSpec("serve.infer", rate=0.5)]
        a = FaultSchedule(spec, seed=1)
        b = FaultSchedule(spec + [FaultSpec("serve.batcher", rate=0.5)],
                          seed=1)
        run_a = [a.decide("serve.infer") is not None for _ in range(40)]
        run_b = []
        for _ in range(40):
            b.decide("serve.batcher")
            run_b.append(b.decide("serve.infer") is not None)
        assert run_a == run_b

    def test_exhausted_spec_does_not_shift_later_draws(self):
        """A spec hitting max_faults keeps consuming draws, so the calls
        after exhaustion see the same faults as in a run without a cap."""
        uncapped = FaultSchedule([FaultSpec("serve.infer", rate=0.4)], seed=9)
        capped = FaultSchedule([FaultSpec("serve.infer", rate=0.4,
                                          max_faults=2)], seed=9)
        pattern_uncapped = [uncapped.decide("serve.infer") is not None
                            for _ in range(60)]
        pattern_capped = [capped.decide("serve.infer") is not None
                          for _ in range(60)]
        fired = 0
        for raw, seen in zip(pattern_uncapped, pattern_capped):
            if raw and fired < 2:
                assert seen
                fired += 1
            else:
                assert not seen

    def test_skip_calls_and_targeted_keys(self):
        schedule = FaultSchedule(
            [FaultSpec("serve.featurize", keys={"poison"}, skip_calls=2)],
            seed=0)
        assert schedule.decide("serve.featurize", keys=("poison",)) is None
        assert schedule.decide("serve.featurize", keys=("clean",)) is None
        assert schedule.decide("serve.featurize",
                               keys=("clean", "poison")) is not None
        assert schedule.decide("serve.featurize", keys=("clean",)) is None

    def test_corrupt_damages_deterministically(self):
        schedule = FaultSchedule(
            [FaultSpec("store.read", rate=1.0, action="corrupt")], seed=0)
        payload = bytes(range(64))
        with inject(schedule):
            damaged = corrupt("store.read", payload)
        assert damaged != payload
        assert len(damaged) == len(payload)
        assert damaged[0] == payload[0] ^ 0xFF
        assert damaged[32] == payload[32] ^ 0xFF

    def test_check_raises_typed_error(self):
        class CustomError(ConnectionError):
            pass

        schedule = FaultSchedule(
            [FaultSpec("serve.infer", rate=1.0, error=CustomError,
                       message="boom")], seed=0)
        with inject(schedule):
            with pytest.raises(CustomError, match="boom"):
                check("serve.infer")

    def test_no_schedule_is_a_noop(self):
        check("serve.infer")
        assert corrupt("store.read", b"abc") == b"abc"

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown injection point"):
            FaultSpec("serve.nope", rate=1.0)
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultSpec("serve.infer", action="explode")
        with pytest.raises(ValueError, match="rate"):
            FaultSpec("serve.infer", rate=1.5)
        assert "serve.infer" in POINTS


# ----------------------------------------------------------------------
# Store checksums and quarantine
# ----------------------------------------------------------------------
class TestStoreFaults:
    def test_checksum_catches_on_disk_corruption(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("trace", "k1", {"rows": 7})
        path = tmp_path / "trace" / "k1.pkl"
        raw = bytearray(path.read_bytes())
        raw[20] ^= 0xFF  # damage the payload, not just the header
        path.write_bytes(bytes(raw))
        assert store.load("trace", "k1") is None
        assert store.corrupt == 1
        assert not path.exists()  # default policy: delete and rebuild

    def test_quarantine_preserves_evidence(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("deploy", "k2", b"checkpoint-bytes")
        path = tmp_path / "deploy" / "k2.pkl"
        damaged = bytearray(path.read_bytes())
        damaged[-1] ^= 0xFF
        path.write_bytes(bytes(damaged))
        assert store.load("deploy", "k2", on_corrupt="quarantine") is None
        assert not path.exists()
        moved = tmp_path / "quarantine" / "deploy" / "k2.pkl"
        assert moved.read_bytes() == bytes(damaged)  # bytes preserved exactly

    def test_injected_read_corruption(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("spn", "k3", [1, 2, 3])
        schedule = FaultSchedule(
            [FaultSpec("store.read", rate=1.0, action="corrupt",
                       max_faults=1)], seed=0)
        with inject(schedule):
            assert store.load("spn", "k3") is None   # corrupted read
        assert store.load("spn", "k3") is None       # entry was discarded
        store.save("spn", "k3", [1, 2, 3])
        assert store.load("spn", "k3") == [1, 2, 3]  # rebuilt cleanly

    def test_truncated_file_detected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("model", "k4", {"weights": [1.0]})
        path = tmp_path / "model" / "k4.pkl"
        path.write_bytes(path.read_bytes()[:10])  # shorter than the header
        assert store.load("model", "k4") is None
        assert store.corrupt == 1


# ----------------------------------------------------------------------
# Registry: hydration verification, quarantine, re-resolution, audit
# ----------------------------------------------------------------------
def _damage_checkpoint(tmp_path, key):
    path = tmp_path / "deploy" / f"{key}.pkl"
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    return path


class TestRegistryQuarantine:
    def test_corrupt_active_falls_back_to_previous_good(self, world,
                                                        tmp_path):
        registry = ModelRegistry(ArtifactStore(tmp_path))
        m1 = world["model"]
        model2 = ZeroShotModel(hidden_dim=24, seed=1).eval()
        model2.to(np.dtype("float32"))
        m2 = ZeroShotCostModel(model2, m1.feature_scalers, m1.target_scaler,
                               TrainingConfig(hidden_dim=24,
                                              dtype="float32"))
        registry.publish("m", m1, dbs=[world["db"]], default=True)
        d2 = registry.publish("m", m2, dbs=[world["db"]])
        assert registry.active("m").version == 2
        _damage_checkpoint(tmp_path, d2.checkpoint_key)
        # A fresh registry over the same store has a cold LRU, so load()
        # must hydrate from the damaged file.
        fresh = ModelRegistry(ArtifactStore(tmp_path))
        generation = fresh.generation
        with pytest.raises(HydrationError, match="quarantined"):
            fresh.load("m")
        assert fresh.quarantined_versions("m") == (2,)
        assert fresh.active("m").version == 1          # re-resolved
        assert fresh.generation > generation            # servers re-route
        quarantined = (tmp_path / "quarantine" / "deploy"
                       / f"{d2.checkpoint_key}.pkl")
        assert quarantined.exists()                     # never deleted blind
        # v1 still hydrates and predicts.
        loaded = fresh.load("m")
        assert loaded.state_digest() == registry.active("m").checkpoint_key \
            or loaded.state_digest() == fresh.active("m").checkpoint_key

    def test_injected_hydration_corruption(self, world, tmp_path):
        registry = _registry(world, tmp_path)
        deployment = registry.active("chaos")
        fresh = ModelRegistry(ArtifactStore(tmp_path))
        schedule = FaultSchedule(
            [FaultSpec("registry.hydrate", rate=1.0, action="corrupt",
                       max_faults=1)], seed=0)
        with inject(schedule):
            with pytest.raises(HydrationError):
                fresh.load(deployment=deployment)
        assert fresh.quarantined_versions("chaos") == (1,)
        assert fresh.active("chaos") is None  # no other version to serve

    def test_route_and_manifest_errors_are_typed(self, world, tmp_path):
        registry = ModelRegistry(ArtifactStore(tmp_path))
        with pytest.raises(RoutingError):
            registry.deployments("ghost")
        with pytest.raises(RoutingError):
            registry.quarantined_versions("ghost")
        assert registry.route("ab" * 16) is None  # no default: unroutable

    def test_verify_audit(self, world, tmp_path):
        registry = ModelRegistry(ArtifactStore(tmp_path))
        m1 = world["model"]
        registry.publish("good", m1, dbs=[world["db"]], default=True)
        model2 = ZeroShotModel(hidden_dim=24, seed=3).eval()
        model2.to(np.dtype("float32"))
        m2 = ZeroShotCostModel(model2, m1.feature_scalers, m1.target_scaler,
                               TrainingConfig(hidden_dim=24,
                                              dtype="float32"))
        d_bad = registry.publish("bad", m2, dbs=[])
        _damage_checkpoint(tmp_path, d_bad.checkpoint_key)
        fresh = ModelRegistry(ArtifactStore(tmp_path))
        report = fresh.verify()
        assert report["good"] == {1: "ok"}
        assert report["bad"] == {1: "missing-or-corrupt"}
        assert fresh.quarantined_versions("bad") == (1,)
        # A second audit reports the quarantine without re-reading disk.
        assert fresh.verify()["bad"] == {1: "quarantined"}

    def test_verify_catches_digest_mismatch(self, world, tmp_path):
        """A payload that unpickles fine but holds the wrong state (e.g. a
        mis-addressed write) fails the content-address check."""
        registry = _registry(world, tmp_path)
        key = registry.active("chaos").checkpoint_key
        other = ZeroShotModel(hidden_dim=24, seed=9).eval()
        other.to(np.dtype("float32"))
        m_other = ZeroShotCostModel(
            other, world["model"].feature_scalers,
            world["model"].target_scaler,
            TrainingConfig(hidden_dim=24, dtype="float32"))
        store = ArtifactStore(tmp_path)
        store.save("deploy", key, m_other.to_bytes())  # wrong bytes, valid pickle
        fresh = ModelRegistry(ArtifactStore(tmp_path))
        assert fresh.verify()["chaos"] == {1: "digest-mismatch"}


# ----------------------------------------------------------------------
# Hardened server: retry, bisection, deadlines
# ----------------------------------------------------------------------
class TestServerRetryAndBisection:
    def test_transient_fault_retried_bit_identical(self, world, tmp_path):
        registry = _registry(world, tmp_path)
        server = _server(world, registry, max_retries=2)
        schedule = FaultSchedule(
            [FaultSpec("serve.infer", rate=1.0, max_faults=1)], seed=0)
        plan = world["records"][0].plan
        with inject(schedule), server:
            value = server.submit(plan, world["db"].name).result(30.0)
        assert value == float(world["direct"][0])
        stats = server.stats()
        assert stats["retries"] >= 1
        assert stats["failed"] == 0

    def test_poisoned_request_fails_alone(self, world, tmp_path):
        """Targeted poisoning of one plan digest: the group's other
        requests complete bit-identically via bisection."""
        registry = _registry(world, tmp_path)
        server = _server(world, registry, max_batch_size=8, max_retries=1)
        db_name = world["db"].name
        plans = [r.plan for r in world["records"][:6]]
        poison_digest = plan_fingerprint(world["db"], plans[2], "exact")
        schedule = FaultSchedule(
            [FaultSpec("serve.featurize", keys={poison_digest})], seed=0)
        with inject(schedule):
            # Queue everything before starting so it lands in one batch.
            handles = [server.submit(p, db_name) for p in plans]
            with server:
                for handle in handles:
                    handle.wait(30.0)
        for i, handle in enumerate(handles):
            if i == 2:
                assert handle.status is RequestStatus.FAILED
                assert isinstance(handle.error, InjectedFault)
            else:
                assert handle.status is RequestStatus.DONE
                assert handle.value == float(world["direct"][i])
        assert server.stats()["bisects"] >= 1

    def test_poisoned_request_in_cross_database_group_fails_alone(
            self, world, cross_db, tmp_path):
        """Both databases route to one deployment, so the batch is one
        group; bisection still isolates the poisoned request."""
        registry = _registry(world, tmp_path)
        mix = cross_db["mix"]
        server = _server(world, registry, dbs=cross_db["dbs"],
                         max_batch_size=len(mix), max_retries=1)
        poisoned = 3
        db_name, plan, _ = mix[poisoned]
        schedule = FaultSchedule(
            [FaultSpec("serve.featurize",
                       keys={plan_fingerprint(cross_db["dbs"][db_name], plan,
                                              "exact")})], seed=0)
        with inject(schedule):
            handles = [server.submit(p, name) for name, p, _ in mix]
            with server:
                for handle in handles:
                    handle.wait(30.0)
        for i, (handle, (_, _, expected)) in enumerate(zip(handles, mix)):
            if i == poisoned:
                assert handle.status is RequestStatus.FAILED
                assert isinstance(handle.error, InjectedFault)
            else:
                assert handle.status is RequestStatus.DONE
                assert handle.value == expected
        stats = server.stats()
        assert stats["batch_size_hist"] == {len(mix): 1}
        assert stats["bisects"] >= 1

    def test_deadline_enforced(self, world, tmp_path):
        registry = _registry(world, tmp_path)
        server = _server(world, registry, max_retries=5,
                         retry_backoff_ms=5.0)
        schedule = FaultSchedule(
            [FaultSpec("serve.infer", rate=1.0)], seed=0)
        with inject(schedule), server:
            handle = server.submit(world["records"][0].plan,
                                   world["db"].name, deadline_ms=1.0)
            handle.wait(30.0)
        assert handle.status is RequestStatus.FAILED
        assert isinstance(handle.error, DeadlineExceededError)

    def test_counters_flow(self, world, tmp_path):
        perfstats.reset()
        registry = _registry(world, tmp_path)
        server = _server(world, registry, max_retries=2)
        schedule = FaultSchedule(
            [FaultSpec("serve.infer", rate=1.0, max_faults=1)], seed=0)
        with inject(schedule), server:
            server.submit(world["records"][0].plan,
                          world["db"].name).result(30.0)
        counters = perfstats.snapshot()
        assert counters["serve.retry.count"] >= 1
        assert counters["serve.fault.model_path"] >= 1
        assert counters["fault.injected.serve.infer"] == 1


# ----------------------------------------------------------------------
# Supervised batcher: crash, exactly-once re-enqueue, replay
# ----------------------------------------------------------------------
class TestBatcherSupervision:
    def _run_with_crashes(self, world, tmp_path, seed):
        registry = _registry(world, tmp_path)
        server = _server(world, registry, max_batch_size=4)
        schedule = FaultSchedule(
            [FaultSpec("serve.batcher", rate=1.0, skip_calls=1,
                       max_faults=2)], seed=seed)
        db_name = world["db"].name
        plans = [r.plan for r in world["records"]]
        with inject(schedule):
            # Pre-queue every request: batch composition — and therefore
            # the per-point call sequence — is deterministic, so two runs
            # of this schedule replay the same crashes.
            handles = [server.submit(p, db_name) for p in plans]
            with server:
                for handle in handles:
                    assert handle.wait(30.0)
        return server, schedule, handles

    def test_crash_recovers_without_loss_or_duplication(self, world,
                                                        tmp_path):
        server, schedule, handles = self._run_with_crashes(world, tmp_path,
                                                           seed=0)
        stats = server.stats()
        assert stats["batcher_crashes"] == 2
        assert stats["requeued"] > 0
        # No lost requests: every handle resolved DONE with the exact
        # direct-prediction value.  No duplicated work: per-status counts
        # add up to the submitted total.
        for i, handle in enumerate(handles):
            assert handle.status is RequestStatus.DONE
            assert handle.value == float(world["direct"][i])
        assert stats["completed"] == len(handles)
        assert stats["requests"] == len(handles)
        assert schedule.stats()["serve.batcher"]["faults"] == 2

    def test_same_schedule_replays_identically(self, world, tmp_path):
        results = []
        for run in range(2):
            server, schedule, handles = self._run_with_crashes(
                world, tmp_path / str(run), seed=0)
            results.append((
                [(h.status.value, h.value) for h in handles],
                schedule.stats(),
                server.stats()["batcher_crashes"],
                server.stats()["requeued"],
            ))
        assert results[0] == results[1]


# ----------------------------------------------------------------------
# Circuit breaker and graceful degradation
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_opens_degrades_flagged_then_recovers(self, world, tmp_path):
        registry = _registry(world, tmp_path)
        server = _server(world, registry, max_retries=0,
                         breaker_threshold=2, breaker_reset_ms=150.0)
        db_name = world["db"].name
        plans = [r.plan for r in world["records"][:3]]
        analytical = AnalyticalCostModel(world["db"])
        schedule = FaultSchedule(
            [FaultSpec("serve.infer", rate=1.0, max_faults=10)], seed=0)
        with server:
            with inject(schedule):
                # Failure 1: below threshold — typed failure, no fallback.
                h1 = server.submit(plans[0], db_name)
                h1.wait(30.0)
                assert h1.status is RequestStatus.FAILED
                assert isinstance(h1.error, InjectedFault)
                # Failure 2: threshold reached — breaker opens, this and
                # later requests degrade to the analytical model, flagged.
                h2 = server.submit(plans[1], db_name)
                h2.wait(30.0)
                assert h2.status is RequestStatus.DEGRADED
                assert h2.degraded
                assert h2.value == analytical.predict_plan(plans[1])
                assert h2.served_by[0] == "analytical"
                h3 = server.submit(plans[2], db_name)
                h3.wait(30.0)
                assert h3.status is RequestStatus.DEGRADED
            # Faults gone; once the reset delay elapses the breaker
            # half-opens, probes the model path, and closes on success.
            time.sleep(0.2)
            h4 = server.submit(plans[0], db_name)
            h4.wait(30.0)
        assert h4.status is RequestStatus.DONE
        assert h4.value == float(world["direct"][0])
        stats = server.stats()
        assert stats["degraded"] == 2
        assert list(stats["breakers"].values()) == ["closed"]

    def test_degraded_values_never_enter_cache(self, world, tmp_path):
        registry = _registry(world, tmp_path)
        server = _server(world, registry, max_retries=0,
                         breaker_threshold=1, breaker_reset_ms=100.0)
        db_name = world["db"].name
        plan = world["records"][0].plan
        schedule = FaultSchedule(
            [FaultSpec("serve.infer", rate=1.0, max_faults=1)], seed=0)
        with server:
            with inject(schedule):
                degraded = server.submit(plan, db_name)
                degraded.wait(30.0)
                assert degraded.status is RequestStatus.DEGRADED
            time.sleep(0.15)
            # Same plan after recovery: must be a fresh DONE model
            # prediction, not a cache hit replaying the analytical value.
            again = server.submit(plan, db_name)
            again.wait(30.0)
        assert again.status is RequestStatus.DONE
        assert again.value == float(world["direct"][0])

    def test_predict_refuses_degraded_unless_opted_in(self, world,
                                                      tmp_path):
        registry = _registry(world, tmp_path)
        server = _server(world, registry, max_retries=0,
                         breaker_threshold=1, breaker_reset_ms=10_000.0)
        db_name = world["db"].name
        plans = [r.plan for r in world["records"][:2]]
        schedule = FaultSchedule(
            [FaultSpec("serve.infer", rate=1.0)], seed=0)
        with inject(schedule), server:
            with pytest.raises(DegradedResponseError):
                server.predict(plans, db_name, timeout=30.0)
            values = server.predict(plans, db_name, timeout=30.0,
                                    allow_degraded=True)
        analytical = AnalyticalCostModel(world["db"])
        assert list(values) == [analytical.predict_plan(p) for p in plans]

    def test_cross_database_group_degrades_per_database(
            self, world, cross_db, tmp_path, monkeypatch):
        """With the breaker open, a group spanning two databases is
        answered by each request's *own* database's analytical model."""

        class PerDatabaseFallback:
            """Answers with a value that names the database it was built
            for (the real model's estimates can coincide across them)."""

            def __init__(self, db):
                self.db = db

            def predict_plan(self, plan):
                return float(len(self.db.name))

        monkeypatch.setattr(serving_core, "AnalyticalCostModel",
                            PerDatabaseFallback)
        registry = _registry(world, tmp_path)
        mix = cross_db["mix"]
        server = _server(world, registry, dbs=cross_db["dbs"],
                         max_batch_size=len(mix), max_retries=0,
                         breaker_threshold=1, breaker_reset_ms=10_000.0)
        schedule = FaultSchedule(
            [FaultSpec("serve.infer", rate=1.0)], seed=0)
        with inject(schedule):
            with server:  # one failure opens the breaker
                opener = server.submit(mix[0][1], mix[0][0])
                assert opener.wait(30.0)
                assert opener.status is RequestStatus.DEGRADED
            # A fresh transport over the same core (and breaker): the
            # queued mix is one group behind the open breaker.
            server = PredictorServer(registry, cross_db["dbs"],
                                     core=server.core)
            handles = [server.submit(p, name) for name, p, _ in mix[1:]]
            with server:
                for handle in handles:
                    assert handle.wait(30.0)
        assert len({len(name) for name in cross_db["dbs"]}) == 2
        for handle, (name, _, _) in zip(handles, mix[1:]):
            assert handle.status is RequestStatus.DEGRADED
            assert handle.served_by == ("analytical", "chaos")
            assert handle.value == float(len(name))
        assert server.stats()["batch_size_hist"] == {1: 1, len(mix) - 1: 1}

    def test_stats_while_breakers_are_created(self):
        """stats() reads the breaker table while the processing thread
        creates a breaker on each new checkpoint's first batch (after every
        promote); the two must not race."""

        class NoRoutes:
            generation = 0

        core = serving_core.ServingCore(NoRoutes(), {})
        n_keys = 20_000
        errors = []

        def create_breakers():
            for i in range(n_keys):
                core._breaker_for(f"checkpoint-{i}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            creator = threading.Thread(target=create_breakers)
            creator.start()
            while creator.is_alive():
                try:
                    core.stats()
                except RuntimeError as exc:  # dict changed size
                    errors.append(exc)
                    break
            creator.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not creator.is_alive()
        assert not errors
        assert len(core.stats()["breakers"]) == n_keys


# ----------------------------------------------------------------------
# Analytical fallback model
# ----------------------------------------------------------------------
class TestAnalyticalCostModel:
    def test_deterministic_and_positive(self, world):
        model = AnalyticalCostModel(world["db"])
        plans = [r.plan for r in world["records"]]
        values = model.predict_plans(plans)
        assert (values > 0).all()
        np.testing.assert_array_equal(values, model.predict_plans(plans))

    def test_fit_calibrates_on_records(self, world):
        model = AnalyticalCostModel(world["db"]).fit(world["records"])
        predictions = model.predict_plans([r.plan for r in world["records"]])
        # The calibrated log-log fit must beat the identity mapping on its
        # own training records (sanity, not a quality claim).
        truth = world["runtimes"]
        fitted_error = np.abs(np.log(predictions) - np.log(truth)).mean()
        identity_error = np.abs(
            np.log(AnalyticalCostModel(world["db"]).predict_plans(
                [r.plan for r in world["records"]])) - np.log(truth)).mean()
        assert fitted_error <= identity_error

    def test_never_mutates_planner_costed_plans(self, world):
        plan = world["records"][0].plan
        before = pickle.dumps(plan)
        AnalyticalCostModel(world["db"]).predict_plan(plan)
        assert pickle.dumps(plan) == before


# ----------------------------------------------------------------------
# Chaos integration: mixed schedule through the load generator, replayed
# ----------------------------------------------------------------------
class TestChaosIntegration:
    def _chaos_run(self, world, tmp_path, seed):
        registry = _registry(world, tmp_path)
        server = _server(world, registry, max_batch_size=4, max_retries=3,
                         result_cache_size=0,
                         queue_depth=len(world["records"]) + 4)
        schedule = FaultSchedule([
            FaultSpec("serve.batcher", rate=1.0, skip_calls=1, max_faults=1),
            FaultSpec("serve.infer", rate=0.25),
            FaultSpec("serve.featurize", rate=0.1),
        ], seed=seed)
        db_name = world["db"].name
        plans = [r.plan for r in world["records"]]
        with inject(schedule):
            handles = [server.submit(p, db_name) for p in plans]
            with server:
                for handle in handles:
                    assert handle.wait(60.0)
        return server, schedule, handles

    def test_no_wrong_values_under_chaos(self, world, tmp_path):
        server, schedule, handles = self._chaos_run(world, tmp_path, seed=3)
        assert schedule.total_faults() > 0
        wrong = 0
        for i, handle in enumerate(handles):
            if handle.status is RequestStatus.DONE:
                if handle.value != float(world["direct"][i]):
                    wrong += 1
            else:
                # Anything not DONE must be explicitly typed/flagged.
                assert handle.status in (RequestStatus.DEGRADED,
                                         RequestStatus.FAILED)
        assert wrong == 0
        stats = server.stats()
        assert (stats["completed"] + stats["cached"] + stats["degraded"]
                + stats["shed"] + stats["failed"]) == stats["requests"]

    def test_chaos_replays_bit_identically(self, world, tmp_path):
        outcomes = []
        for run in range(2):
            server, schedule, handles = self._chaos_run(
                world, tmp_path / str(run), seed=3)
            outcomes.append(([(h.status.value, h.value) for h in handles],
                             schedule.stats()))
        assert outcomes[0] == outcomes[1]

    def test_loadgen_chaos_mode_and_availability(self, world, tmp_path):
        registry = _registry(world, tmp_path)
        server = _server(world, registry, max_batch_size=4, max_retries=3,
                         queue_depth=64)
        requests = [(world["db"].name, r.plan) for r in world["records"]]
        schedule = FaultSchedule(
            [FaultSpec("serve.infer", rate=0.2)], seed=5)
        load = LoadConfig(n_clients=2, seed=0, block=True, faults=schedule)
        with server:
            report = run_load(server, requests, load)
        assert report.availability == 1.0
        assert report.n_requests == len(requests)
        assert report.fault_stats["serve.infer"]["calls"] > 0
        assert len(report.handles) == len(requests)
        # Chaos mode uninstalls its schedule when the run ends.
        from repro.robustness import faults as fault_plane
        assert fault_plane.active_schedule() is None

    def test_loadgen_excludes_shed_from_latency(self, world, tmp_path):
        registry = _registry(world, tmp_path)
        server = _server(world, registry, max_batch_size=2, queue_depth=1)
        requests = [(world["db"].name, r.plan)
                    for r in world["records"]] * 3
        load = LoadConfig(n_clients=4, seed=0, block=False)
        with server:
            report = run_load(server, requests, load)
        served = report.completed + report.cached + report.degraded
        assert report.shed > 0
        assert report.availability == served / report.n_requests
        assert report.availability < 1.0


# ----------------------------------------------------------------------
# Fleet IPC fault points and the drop/hang actions (PR 9)
# ----------------------------------------------------------------------
class TestFleetFaultActions:
    def test_fleet_points_registered(self):
        for point in ("fleet.pipe.send", "fleet.pipe.recv",
                      "fleet.worker.hang"):
            assert point in POINTS

    def test_drop_action_signals_without_raising(self):
        schedule = FaultSchedule(
            [FaultSpec("fleet.pipe.send", rate=1.0, max_faults=2,
                       action="drop")], seed=0)
        with inject(schedule):
            assert check("fleet.pipe.send") == "drop"
            assert check("fleet.pipe.send") == "drop"
            assert check("fleet.pipe.send") is None  # exhausted
        assert check("fleet.pipe.send") is None      # uninstalled

    def test_hang_action_sleeps_then_returns(self):
        schedule = FaultSchedule(
            [FaultSpec("fleet.worker.hang", rate=1.0, max_faults=1,
                       action="hang", delay_ms=30.0)], seed=0)
        start = time.perf_counter()
        with inject(schedule):
            assert check("fleet.worker.hang") == "hang"
            assert check("fleet.worker.hang") is None
        assert time.perf_counter() - start >= 0.025

    def test_drop_counts_as_injected(self):
        name = "fault.injected.fleet.pipe.recv"
        before = perfstats.snapshot([name])[name]
        schedule = FaultSchedule(
            [FaultSpec("fleet.pipe.recv", rate=1.0, max_faults=1,
                       action="drop")], seed=0)
        with inject(schedule):
            check("fleet.pipe.recv")
        assert perfstats.snapshot([name])[name] == before + 1
        assert schedule.stats()["fleet.pipe.recv"]["by_action"]["drop"] == 1

    def test_drop_and_hang_replay_bit_identically(self):
        def run():
            schedule = FaultSchedule([
                FaultSpec("fleet.pipe.send", rate=0.5, action="drop"),
                FaultSpec("fleet.pipe.recv", rate=0.25, action="drop"),
            ], seed=42)
            fired = []
            with inject(schedule):
                for _ in range(64):
                    fired.append((check("fleet.pipe.send"),
                                  check("fleet.pipe.recv")))
            return fired

        first, second = run(), run()
        assert first == second
        assert any(action == "drop" for pair in first for action in pair)


# ----------------------------------------------------------------------
# Single flight: duplicates of a queued or in-flight miss ride on it
# ----------------------------------------------------------------------
def _count_finishes(monkeypatch):
    """Count every ``_finish`` call per handle (first or not)."""
    calls = Counter()
    original = PredictionRequest._finish

    def counted(self, *args, **kwargs):
        calls[id(self)] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(PredictionRequest, "_finish", counted)
    return calls


def _hold_batcher(monkeypatch):
    """Hold the batcher at its fault point until ``gate`` is set; returns
    ``(held, gate)``, ``held`` set once a batch is held."""
    held, gate = threading.Event(), threading.Event()
    real_check = faults_module.check

    def holding_check(point, keys=()):
        if point == "serve.batcher" and not gate.is_set():
            held.set()
            gate.wait(30.0)
        return real_check(point, keys)

    monkeypatch.setattr(faults_module, "check", holding_check)
    return held, gate


def _other_model(world):
    other = ZeroShotModel(hidden_dim=24, seed=9).eval()
    other.to(np.dtype("float32"))
    model = world["model"]
    return ZeroShotCostModel(other, model.feature_scalers,
                             model.target_scaler,
                             TrainingConfig(hidden_dim=24, dtype="float32"))


def _accounted(stats):
    return (stats["completed"] + stats["cached"] + stats["degraded"]
            + stats["shed"] + stats["failed"]) == stats["requests"]


class TestSingleFlight:
    K = 5       # distinct plans
    COPIES = 4  # submits of each

    def _submit_copies(self, server, world):
        """``COPIES`` rounds over the first ``K`` plans, queued before the
        batcher runs: handle ``i`` carries plan ``i % K``."""
        db_name = world["db"].name
        plans = [r.plan for r in world["records"][:self.K]]
        return [server.submit(plan, db_name)
                for _ in range(self.COPIES) for plan in plans]

    def test_duplicates_queue_once_and_predict_once(self, world, tmp_path,
                                                    monkeypatch):
        calls = _count_finishes(monkeypatch)
        server = _server(world, _registry(world, tmp_path),
                         max_batch_size=64)
        perfstats.reset()
        handles = self._submit_copies(server, world)
        assert len(server._queue) == self.K
        with server:
            for handle in handles:
                assert handle.wait(30.0)
        stats = server.stats()
        counters = perfstats.snapshot()
        followers = len(handles) - self.K
        assert counters["serve.batch.requests"] == self.K
        assert counters["serve.cache.miss"] == self.K
        assert counters["serve.coalesced.count"] == followers
        assert counters.get("serve.cache.hit", 0) == 0
        assert stats["coalesced"] == followers
        assert stats["completed"] == self.K and stats["cached"] == followers
        assert _accounted(stats)
        for i, handle in enumerate(handles):
            assert calls[id(handle)] == 1
            leader = handles[i % self.K]
            assert handle.value == float(world["direct"][i % self.K])
            assert handle.served_by == leader.served_by
            assert handle.status is (RequestStatus.DONE if handle is leader
                                     else RequestStatus.CACHED)

    def test_followers_across_a_promote_get_the_new_routes_value(
            self, world, tmp_path):
        registry = _registry(world, tmp_path)
        server = _server(world, registry, max_batch_size=64)
        handles = self._submit_copies(server, world)
        other = _other_model(world)
        version = registry.publish("chaos", other, dbs=[world["db"]],
                                   activate=True).version
        direct = predict_runtimes(other.model, world["graphs"][:self.K],
                                  other.feature_scalers,
                                  other.target_scaler, batch_cache=False)
        with server:
            for handle in handles:
                assert handle.wait(30.0)
        assert server.stats()["coalesced"] == len(handles) - self.K
        for i, handle in enumerate(handles):
            assert handle.served_by == ("chaos", version)
            assert handle.value == float(direct[i % self.K])
        assert handles[0].value != float(world["direct"][0])

    def test_stop_without_drain_fails_followers_typed(self, world, tmp_path,
                                                      monkeypatch):
        """The batcher is held at its fault point with A in flight; B and
        the duplicates of both wait.  ``stop(drain=False)`` fails B and its
        followers typed; A's followers still complete with A."""
        calls = _count_finishes(monkeypatch)
        server = _server(world, _registry(world, tmp_path),
                         max_batch_size=1)
        held, gate = _hold_batcher(monkeypatch)
        db_name = world["db"].name
        plan_a, plan_b = (r.plan for r in world["records"][:2])
        server.start()
        lead_a = server.submit(plan_a, db_name)
        assert held.wait(30.0)
        follow_a = [server.submit(plan_a, db_name) for _ in range(2)]
        group_b = [server.submit(plan_b, db_name) for _ in range(3)]
        assert list(server._queue) == group_b[:1]
        stopper = threading.Thread(target=server.stop,
                                   kwargs={"drain": False})
        stopper.start()
        for handle in group_b:
            assert handle.wait(30.0)
        gate.set()
        stopper.join(30.0)
        assert not stopper.is_alive()
        for handle in group_b:
            assert handle.status is RequestStatus.FAILED
            assert isinstance(handle.error, ServerClosedError)
            with pytest.raises(ServerClosedError):
                handle.result(0)
        assert lead_a.status is RequestStatus.DONE
        assert lead_a.value == float(world["direct"][0])
        for handle in follow_a:
            assert handle.status is RequestStatus.CACHED
            assert handle.value == lead_a.value
        stats = server.stats()
        assert stats["coalesced"] == 4 and stats["failed"] == 3
        assert _accounted(stats)
        assert all(calls[id(h)] == 1 for h in [lead_a, *follow_a, *group_b])

    def test_poisoned_leaders_followers_fail_with_its_error(self, world,
                                                            tmp_path):
        server = _server(world, _registry(world, tmp_path),
                         max_batch_size=64, max_retries=1)
        poisoned = 2
        poison = plan_fingerprint(world["db"],
                                  world["records"][poisoned].plan, "exact")
        schedule = FaultSchedule(
            [FaultSpec("serve.featurize", keys={poison})], seed=0)
        with inject(schedule):
            handles = self._submit_copies(server, world)
            with server:
                for handle in handles:
                    assert handle.wait(30.0)
        leader = handles[poisoned]
        assert leader.status is RequestStatus.FAILED
        assert isinstance(leader.error, InjectedFault)
        for i, handle in enumerate(handles):
            if i % self.K == poisoned:
                assert handle.status is RequestStatus.FAILED
                assert handle.error is leader.error
                with pytest.raises(InjectedFault):
                    handle.result(0)
            else:
                assert handle.status in (RequestStatus.DONE,
                                         RequestStatus.CACHED)
                assert handle.value == float(world["direct"][i % self.K])
        stats = server.stats()
        assert stats["bisects"] >= 1
        assert stats["failed"] == self.COPIES
        assert _accounted(stats)

    def test_deadline_requests_never_coalesce(self, world, tmp_path):
        server = _server(world, _registry(world, tmp_path),
                         max_batch_size=64)
        db_name = world["db"].name
        plan = world["records"][0].plan
        perfstats.reset()
        # Deadline first (it leads nothing), then a leader, its follower,
        # and a deadline duplicate that must not follow it.
        handles = [server.submit(plan, db_name, deadline_ms=60_000.0),
                   server.submit(plan, db_name),
                   server.submit(plan, db_name),
                   server.submit(plan, db_name, deadline_ms=60_000.0)]
        assert list(server._queue) == [handles[0], handles[1], handles[3]]
        with server:
            for handle in handles:
                assert handle.wait(30.0)
        assert server.stats()["coalesced"] == 1
        assert perfstats.snapshot()["serve.batch.requests"] == 3
        assert handles[2].status is RequestStatus.CACHED
        for handle in handles:
            assert handle.value == float(world["direct"][0])

    def test_crash_requeued_leader_completes_followers_once(
            self, world, tmp_path, monkeypatch):
        calls = _count_finishes(monkeypatch)
        server = _server(world, _registry(world, tmp_path),
                         max_batch_size=64)
        schedule = FaultSchedule(
            [FaultSpec("serve.batcher", rate=1.0, max_faults=1)], seed=0)
        perfstats.reset()
        with inject(schedule):
            handles = self._submit_copies(server, world)
            with server:
                for handle in handles:
                    assert handle.wait(30.0)
        stats = server.stats()
        assert stats["batcher_crashes"] == 1
        assert stats["requeued"] == self.K
        assert stats["coalesced"] == len(handles) - self.K
        assert perfstats.snapshot()["serve.cache.miss"] == self.K
        assert _accounted(stats)
        for i, handle in enumerate(handles):
            assert calls[id(handle)] == 1
            assert handle.value == float(world["direct"][i % self.K])

    @pytest.mark.parametrize("backend", ["server", "fleet"])
    def test_duplicate_racing_its_leaders_release_is_answered_at_admission(
            self, world, tmp_path, monkeypatch, backend):
        """A duplicate's lookup misses while its leader is in flight, and
        its admission lands after the leader completed and was released:
        the re-probe at admission answers it ``CACHED``, with no second
        batch row."""
        if (backend == "fleet"
                and "fork" not in multiprocessing.get_all_start_methods()):
            pytest.skip("the serving fleet requires the fork start method")
        registry = _registry(world, tmp_path)
        config = ServerConfig(max_batch_size=4)
        server = (PredictorFleet(registry, world["dbs"], config, n_workers=1)
                  if backend == "fleet"
                  else PredictorServer(registry, world["dbs"], config))
        db_name, plan = world["db"].name, world["records"][0].plan
        perfstats.reset()
        with server:
            held, gate = _hold_batcher(monkeypatch)
            leader = server.submit(plan, db_name)
            assert held.wait(30.0)  # the leader's batch is held in flight
            real_lookup = server.core.lookup

            def racing_lookup(db_name, plan):
                found = real_lookup(db_name, plan)  # misses: leader held
                gate.set()
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    with server._lock:
                        if leader.done() and not server._leaders:
                            break  # completed and released
                    time.sleep(0.001)
                return found

            monkeypatch.setattr(server.core, "lookup", racing_lookup)
            duplicate = server.submit(plan, db_name)
            assert duplicate.done()  # answered at admission, never queued
            assert duplicate._latch is None  # and born complete
            stats = server.stats()
        assert leader.status is RequestStatus.DONE
        assert duplicate.status is RequestStatus.CACHED
        assert duplicate.value == leader.value == float(world["direct"][0])
        assert duplicate.served_by == leader.served_by
        assert perfstats.snapshot()["serve.batch.requests"] == 1
        assert stats["coalesced"] == 0 and stats["cached"] == 1
        assert _accounted(stats)
