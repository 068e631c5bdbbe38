"""Continuous-learning control plane: observe -> detect -> retrain ->
shadow-evaluate -> promote -> probation.

The contract under test, end to end:

* the serving core's observation tap sees every DONE/CACHED delivery (and
  nothing else), peek-then-commit, bounded with a drop counter,
* a calibrated drift scenario (train on small-join queries, shift traffic
  to an unseen database) drives the full loop: drift detected, candidate
  fine-tuned on the observed drift window and published *unactivated*,
  shadow-evaluated against the active model, promoted behind the Q-error
  margin gate, and graduated from probation,
* the same scenario replayed from scratch produces *bit-identical*
  controller decisions — same detect tick, same candidate digest, same
  event stream,
* a promoted candidate that regresses (traffic shifts again, to a heavy
  database it never learned) is auto-rolled-back inside the probation
  window,
* a controller crash at any fault point (observation ingest, retrain
  start, pre-publish, shadow evaluation) loses no observations and never
  double-publishes or double-promotes — retry converges,
* daemon mode is supervised: an injected crash bumps the crash counter,
  the loop restarts, and the scenario still completes.
"""

import dataclasses
import multiprocessing
import time
from collections import Counter

import pytest

from repro import perfstats
from repro.bench import ArtifactStore
from repro.bench.drift_world import CONTROLLER_CONFIG, build_drift_world
from repro.executor import simulate_runtime_ms
from repro.obs.trace import Tracer
from repro.optimizer import plan_query
from repro.robustness.faults import (FaultSchedule, FaultSpec, InjectedFault,
                                     POINTS, inject)
from repro.serving import (ContinuousLearningController, ControllerEvent,
                           ControllerJournal, LoadConfig, ModelRegistry,
                           Observation, ObservationTap, PredictorFleet,
                           PredictorServer, RequestStatus, ServerConfig,
                           run_load)
from repro.serving.core import ServingCore
from repro.workloads import WorkloadConfig, WorkloadGenerator


# ----------------------------------------------------------------------
# Shared world: the calibrated three-database drift world of
# repro.bench.drift_world (see its docstring for the calibration).
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def world():
    return build_drift_world()


LOAD = LoadConfig(n_clients=1, block=True)


def _stack(world, tmp_path, config=CONTROLLER_CONFIG, backend="server",
           **server_overrides):
    """Registry, started transport (a server, or a 1-worker fleet) and a
    controller watching it."""
    registry = ModelRegistry(ArtifactStore(tmp_path))
    registry.publish("zs", world.base,
                     dbs=list(world.dbs.values()), default=True)
    defaults = dict(max_batch_size=8, result_cache_size=0)
    defaults.update(server_overrides)
    server_config = ServerConfig(**defaults)
    server = (PredictorFleet(registry, world.dbs, server_config, n_workers=1)
              if backend == "fleet"
              else PredictorServer(registry, world.dbs, server_config))
    server.start()
    controller = ContinuousLearningController(registry, server, config)
    return registry, server, controller


def _run_scenario(world, tmp_path, regression=False, schedule=None,
                  max_retries=3):
    """Drive the scenario synchronously; returns (registry, controller,
    faults raised out of drain)."""
    registry, server, controller = _stack(world, tmp_path)
    raised = 0

    def drain():
        nonlocal raised
        for _ in range(max_retries):
            try:
                controller.drain()
                return
            except InjectedFault:
                raised += 1
        raise AssertionError("drain kept faulting")

    try:
        if schedule is not None:
            with inject(schedule):
                for _, phase in world.phases(regression):
                    run_load(server, phase, LOAD)
                    drain()
        else:
            for _, phase in world.phases(regression):
                run_load(server, phase, LOAD)
                drain()
    finally:
        server.stop()
    return registry, controller, raised


# ----------------------------------------------------------------------
# Observation tap
# ----------------------------------------------------------------------
class TestObservationTap:
    def test_peek_then_commit(self):
        tap = ObservationTap(max_pending=8)
        for i in range(3):
            assert tap.record(("obs", i))
        assert tap.peek(2) == [("obs", 0), ("obs", 1)]
        assert len(tap) == 3  # peek does not consume
        tap.commit(2)
        assert tap.peek() == [("obs", 2)]
        tap.commit(5)  # over-commit is clamped
        assert len(tap) == 0

    def test_bounded_drops_incoming(self):
        perfstats.reset()
        tap = ObservationTap(max_pending=2)
        assert tap.record("a") and tap.record("b")
        assert not tap.record("c")  # full: incoming dropped, not oldest
        assert tap.peek() == ["a", "b"]
        stats = tap.stats()
        assert stats == {"pending": 2, "recorded": 2, "dropped": 1,
                         "max_pending": 2}
        assert perfstats.snapshot()["controller.observe.dropped"] == 1

    def test_fault_points_registered(self):
        for point in ("controller.observe", "controller.retrain",
                      "controller.shadow"):
            assert point in POINTS


# ----------------------------------------------------------------------
# Serving-core observation plumbing
# ----------------------------------------------------------------------
class TestObservationPlumbing:
    @pytest.mark.parametrize("backend", ["server", "fleet"])
    def test_done_and_cached_observed(self, world, tmp_path, backend):
        if (backend == "fleet"
                and "fork" not in multiprocessing.get_all_start_methods()):
            pytest.skip("the serving fleet requires the fork start method")
        registry, server, controller = _stack(world, tmp_path,
                                              backend=backend,
                                              result_cache_size=64)
        try:
            plans = [("ctl_db", r.plan) for r in world.trace_a[:6]]
            report = run_load(server, plans + plans[:2], LOAD)
        finally:
            server.stop()
        assert Counter(h.status for h in report.handles) == {
            RequestStatus.DONE: 6, RequestStatus.CACHED: 2}
        tap = controller.tap
        assert tap.stats()["recorded"] == 8  # 6 DONE + 2 CACHED
        observations = tap.peek()
        assert all(isinstance(o, Observation) for o in observations)
        assert all(o.served_by == ("zs", 1) for o in observations)
        assert all(o.db_name == "ctl_db" for o in observations)
        assert all(o.predicted_ms > 0 for o in observations)
        # Each observation carries the value its handle delivered.
        delivered = {h.digest: h.value for h in report.handles}
        assert all(o.predicted_ms == delivered[o.digest]
                   for o in observations)
        # Cache hits observe the same value as the original prediction.
        by_digest = {}
        for o in observations:
            by_digest.setdefault(o.digest, []).append(o.predicted_ms)
        repeats = [vals for vals in by_digest.values() if len(vals) > 1]
        assert repeats and all(len(set(vals)) == 1 for vals in repeats)

    @pytest.mark.parametrize("backend", ["server", "fleet"])
    def test_submit_time_hits_observed_once(self, world, tmp_path, backend):
        """Plans predicted, then resubmitted one at a time: every resubmit
        hits at submit.  The tap records each hit once, with its handle's
        value; a traced hit's span carries ``cache.hit`` and a ``cache``
        stage, and its observation the trace id."""
        if (backend == "fleet"
                and "fork" not in multiprocessing.get_all_start_methods()):
            pytest.skip("the serving fleet requires the fork start method")
        registry, server, controller = _stack(world, tmp_path,
                                              backend=backend,
                                              result_cache_size=64)
        plans = [r.plan for r in world.trace_a[:4]]
        try:
            server.predict(plans, "ctl_db")

            def resubmit():
                handles = []
                for plan in plans:
                    handle = server.submit(plan, "ctl_db")
                    assert handle.wait(10.0)
                    handles.append(handle)
                return handles

            untraced = resubmit()
            tracer = server.attach_tracer(Tracer())
            traced = resubmit()
        finally:
            server.stop()
        hits = untraced + traced
        assert all(h.status is RequestStatus.CACHED for h in hits)
        tap = controller.tap
        assert tap.stats()["recorded"] == len(plans) + len(hits)
        observations = tap.peek()
        for handle in untraced:  # the DONE delivery and this hit
            seen = [o for o in observations if o.digest == handle.digest
                    and o.trace_id is None]
            assert len(seen) == 2
            assert all(o.predicted_ms == handle.value
                       and o.served_by == handle.served_by for o in seen)
        spans = tracer.spans()
        for handle in traced:
            trace_id = handle.trace.trace_id
            seen = [o for o in observations if o.trace_id == trace_id]
            assert len(seen) == 1
            assert seen[0].digest == handle.digest
            assert seen[0].predicted_ms == handle.value
            mine = [s for s in spans if s.trace_id == trace_id]
            (root,) = [s for s in mine if s.parent_id is None]
            assert "cache.hit" in root.annotations
            assert "status.cached" in root.annotations
            assert "cache" in [s.name for s in mine]

    def test_failed_requests_not_observed(self, world, tmp_path):
        registry, server, controller = _stack(world, tmp_path,
                                              max_retries=1,
                                              retry_backoff_ms=0.2)
        schedule = FaultSchedule(
            [FaultSpec("serve.infer", rate=1.0)], seed=3)
        try:
            with inject(schedule):
                handle = server.submit(world.trace_a[0].plan, "ctl_db")
                handle.wait(10.0)
            assert handle.status in (RequestStatus.FAILED,
                                     RequestStatus.DEGRADED)
        finally:
            server.stop()
        assert controller.tap.stats()["recorded"] == 0

    def test_core_without_observer_unchanged(self, world, tmp_path):
        registry, server, _ = _stack(world, tmp_path)
        core = ServingCore(registry, world.dbs)
        assert core.observer is None  # opt-in: no tap, no observation work
        server.stop()


# ----------------------------------------------------------------------
# Registry content-addressed lookup (the idempotent-publish primitive)
# ----------------------------------------------------------------------
class TestFindVersion:
    def test_finds_by_checkpoint_key(self, world, tmp_path):
        registry = ModelRegistry(ArtifactStore(tmp_path))
        deployment = registry.publish("zs", world.base,
                                      dbs=[world.dbs["ctl_db"]])
        assert registry.find_version("zs", deployment.checkpoint_key) == 1
        assert registry.find_version("zs", "no-such-digest") is None
        assert registry.find_version("ghost", deployment.checkpoint_key) is None


# ----------------------------------------------------------------------
# Ground-truth join
# ----------------------------------------------------------------------
class TestGroundTruthJoin:
    def test_truth_matches_trace_runtime(self, world, tmp_path):
        # The seeded simulator is a pure function of the executed plan, so
        # the controller's online ground truth for a served plan equals the
        # runtime the trace recorded at generation time.
        registry, server, controller = _stack(world, tmp_path)
        server.stop()
        records = world.trace_a[:5]
        batch = [Observation("ctl_db", r.plan, f"d{i}", 1.0, ("zs", 1))
                 for i, r in enumerate(records)]
        truths = controller._ground_truths(batch)
        assert truths == [pytest.approx(r.runtime_ms) for r in records]

    def test_fresh_plans_executed_first(self, world, tmp_path):
        perfstats.reset()
        registry, server, controller = _stack(world, tmp_path)
        server.stop()
        db = world.dbs["ctl_db"]
        query = WorkloadGenerator(db, WorkloadConfig(max_joins=1),
                                  seed=123).generate(1)[0]
        plan = plan_query(db, query)
        assert plan.true_rows is None  # planned, never executed
        tap = controller.tap
        tap.record(Observation("ctl_db", plan, "fresh", 5.0, ("zs", 1)))
        controller.tick()
        assert plan.true_rows is not None  # executed through the engine
        counters = perfstats.snapshot()
        assert counters["controller.observe.executed"] == 1
        assert controller.detector_for(1).observed_total == 1


# ----------------------------------------------------------------------
# The full loop, deterministically replayed
# ----------------------------------------------------------------------
class TestControllerScenario:
    def test_happy_path_promotes_and_graduates(self, world, tmp_path):
        perfstats.reset()
        registry, controller, raised = _run_scenario(world, tmp_path)
        assert raised == 0
        events = controller.journal.events()
        assert [e.kind for e in events] == [
            "drift-detected", "candidate-published", "promoted",
            "probation-passed"]
        drift, published, promoted, graduated = events
        assert drift.version == 1
        assert dict(drift.detail)["rolling_median"] > 2.0
        assert dict(published.detail)["records"] == 16
        assert published.candidate_version == 2
        detail = dict(promoted.detail)
        assert (detail["candidate_median"] * CONTROLLER_CONFIG.shadow_margin
                <= detail["active_median"])
        assert dict(graduated.detail)["probation_seen"] == 64
        assert registry.active("zs").version == 2
        assert len(registry.deployments("zs")) == 2
        assert controller.state == "monitoring"
        assert len(controller.tap) == 0
        counters = perfstats.snapshot()
        assert counters["controller.promote.count"] == 1
        assert counters.get("controller.rollback.count", 0) == 0
        assert counters["controller.retrain.count"] == 1

    def test_replay_is_bit_identical(self, world, tmp_path):
        _, first, _ = _run_scenario(world, tmp_path / "run1")
        _, second, _ = _run_scenario(world, tmp_path / "run2")
        # Typed events compare with == — same seq, tick, kind, versions,
        # digest and detail.  Identical digests mean the retrain produced
        # bit-identical candidate checkpoints.
        assert first.journal.events() == second.journal.events()
        digests = [e.digest for e in first.journal.events("candidate-published")]
        assert digests and digests == [
            e.digest for e in second.journal.events("candidate-published")]

    def test_regression_rolls_back_within_probation(self, world, tmp_path):
        perfstats.reset()
        registry, controller, _ = _run_scenario(world, tmp_path,
                                                regression=True)
        events = controller.journal.events()
        assert [e.kind for e in events] == [
            "drift-detected", "candidate-published", "promoted",
            "rolled-back"]
        rollback = dict(events[-1].detail)
        assert rollback["restored_version"] == 1
        # Inside the window: the regression tripped before graduation.
        assert (rollback["probation_seen"]
                < CONTROLLER_CONFIG.probation_observations)
        assert rollback["rolling_median"] > 2.5
        assert registry.active("zs").version == 1
        assert controller.state == "monitoring"
        assert perfstats.snapshot()["controller.rollback.count"] == 1

    def test_stats_surface(self, world, tmp_path):
        registry, controller, _ = _run_scenario(world, tmp_path)
        stats = controller.stats()
        assert stats["state"] == "monitoring"
        assert stats["active_version"] == 2
        assert stats["crashes"] == 0
        assert stats["tap"]["pending"] == 0
        assert stats["detector"]["observed_total"] > 0


# ----------------------------------------------------------------------
# Crash-recovery: the loop converges through injected faults
# ----------------------------------------------------------------------
class TestControllerChaos:
    @pytest.mark.parametrize("spec_kwargs", [
        dict(point="controller.observe", rate=1.0, max_faults=1),
        dict(point="controller.retrain", rate=1.0, max_faults=1),
        dict(point="controller.retrain", rate=1.0, max_faults=1,
             skip_calls=1),  # after training, before publication
        dict(point="controller.shadow", rate=1.0, max_faults=1),
    ], ids=["observe", "retrain-start", "retrain-pre-publish", "shadow"])
    def test_crash_then_retry_converges(self, world, tmp_path, spec_kwargs):
        schedule = FaultSchedule([FaultSpec(**spec_kwargs)], seed=3)
        registry, controller, raised = _run_scenario(world, tmp_path,
                                                     schedule=schedule)
        assert raised == 1  # the fault did fire, out of tick/drain
        # Exactly-once everything: one candidate version, one publication,
        # one promotion — and the scenario still completes.
        assert [e.kind for e in controller.journal.events()] == [
            "drift-detected", "candidate-published", "promoted",
            "probation-passed"]
        assert len(registry.deployments("zs")) == 2
        assert registry.active("zs").version == 2
        # No observation was lost or double-ingested: every delivery for
        # the v1 deployment (24 in-distribution + 48 drift) is accounted.
        assert controller.detector_for(1).observed_total == 72
        assert len(controller.tap) == 0

    def test_crashed_chaos_run_replays_identically(self, world, tmp_path):
        runs = []
        for name in ("c1", "c2"):
            schedule = FaultSchedule(
                [FaultSpec("controller.retrain", rate=1.0, max_faults=1)],
                seed=5)
            _, controller, raised = _run_scenario(world, tmp_path / name,
                                                  schedule=schedule)
            assert raised == 1
            runs.append(controller.journal.events())
        assert runs[0] == runs[1]

    def test_extra_ticks_never_double_promote(self, world, tmp_path):
        registry, controller, _ = _run_scenario(world, tmp_path)
        for _ in range(5):
            controller.tick()  # idle ticks after convergence
        assert len(controller.journal.events("promoted")) == 1
        assert len(registry.deployments("zs")) == 2


# ----------------------------------------------------------------------
# Supervised daemon mode
# ----------------------------------------------------------------------
class TestControllerDaemon:
    def _await(self, predicate, timeout_s=30.0):
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if predicate():
                return True
            time.sleep(0.02)
        return False

    def _pump_until_graduated(self, world, server, controller):
        """Drive the drift scenario under a live daemon.

        Unlike the synchronous tests, the daemon ticks *while* load runs,
        so the promotion can land anywhere inside a phase and the number
        of post-promotion deliveries a fixed phase list produces is not
        deterministic.  After the drift phases, keep pumping recovery
        traffic until the controller graduates probation (bounded).
        """
        phases = world.phases()
        for _, phase in phases[:2]:
            run_load(server, phase, LOAD)
            assert self._await(lambda: len(controller.tap) == 0)
        _, recovery = phases[2]
        for _ in range(20):
            if controller.journal.events("probation-passed"):
                return True
            run_load(server, recovery, LOAD)
            assert self._await(lambda: len(controller.tap) == 0)
        return bool(controller.journal.events("probation-passed"))

    def test_daemon_closes_the_loop(self, world, tmp_path):
        config = dataclasses.replace(CONTROLLER_CONFIG, cadence_s=0.01)
        registry, server, controller = _stack(world, tmp_path, config=config)
        try:
            with controller:
                assert self._pump_until_graduated(world, server, controller)
        finally:
            server.stop()
        assert registry.active("zs").version == 2
        assert controller.stats()["crashes"] == 0

    def test_daemon_survives_injected_crash(self, world, tmp_path):
        config = dataclasses.replace(CONTROLLER_CONFIG, cadence_s=0.01)
        registry, server, controller = _stack(world, tmp_path, config=config)
        schedule = FaultSchedule(
            [FaultSpec("controller.observe", rate=1.0, max_faults=1)],
            seed=9)
        try:
            with inject(schedule):
                with controller:
                    assert self._pump_until_graduated(world, server,
                                                      controller)
        finally:
            server.stop()
        # The crash was real (supervisor restarted the loop) and harmless
        # (peek-then-commit re-read the batch; the scenario completed).
        stats = controller.stats()
        assert stats["crashes"] == 1, stats["last_crash"]
        assert schedule.stats()["controller.observe"]["faults"] == 1
        assert registry.active("zs").version == 2

    def test_stop_is_idempotent_and_restartable(self, world, tmp_path):
        registry, server, controller = _stack(world, tmp_path)
        controller.start()
        with pytest.raises(RuntimeError):
            controller.start()  # already running
        controller.stop()
        controller.stop()  # no-op
        controller.start()  # restartable after a clean stop
        controller.stop()
        server.stop()


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------
class TestControllerJournal:
    def test_jsonl_mirror_round_trips(self, world, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = ControllerJournal(path=str(path))
        events = [
            ControllerEvent(seq=0, tick=3, kind="drift-detected", model="zs",
                            version=1, detail=(("rolling_median", 3.1),)),
            ControllerEvent(seq=1, tick=3, kind="candidate-published",
                            model="zs", version=1, candidate_version=2,
                            digest="abc123", detail=(("records", 16),)),
        ]
        for event in events:
            journal.append(event)
        assert ControllerJournal.read_jsonl(str(path)) == events
        assert journal.events("drift-detected") == events[:1]
        assert len(journal) == 2

    def test_scenario_journal_mirrors_to_disk(self, world, tmp_path):
        path = tmp_path / "ctl.jsonl"
        config = dataclasses.replace(CONTROLLER_CONFIG, journal_path=str(path))
        registry, server, controller = _stack(world, tmp_path, config=config)
        try:
            for _, phase in world.phases():
                run_load(server, phase, LOAD)
                controller.drain()
        finally:
            server.stop()
        assert ControllerJournal.read_jsonl(str(path)) == \
            controller.journal.events()


# ----------------------------------------------------------------------
# Per-phase Q-error reporting (drift scenarios' recovery curves)
# ----------------------------------------------------------------------
class TestQErrorByPhase:
    def test_phase_summaries(self, world, tmp_path):
        registry, server, _ = _stack(world, tmp_path)
        try:
            plans = [("ctl_db", r.plan) for r in world.trace_a[:12]]
            report = run_load(server, plans, LOAD)
        finally:
            server.stop()
        dbs = world.dbs

        def truth_for(handle):
            return float(simulate_runtime_ms(dbs[handle.db_name],
                                             handle.plan, seed=7))

        summary = report.compute_q_error_phases(
            truth_for, {"first": (0, 6), "second": (6, 12), "empty": (12, 12)})
        assert report.q_error_by_phase is summary
        assert summary["first"]["count"] == 6
        assert summary["second"]["count"] == 6
        assert summary["empty"] == {"count": 0}
        for name in ("first", "second"):
            phase = summary[name]
            assert 1.0 <= phase["median"] <= phase["p95"] <= phase["max"]
        assert "q_error_by_phase" in report.as_dict()


# ----------------------------------------------------------------------
# Journal memory bound (PR 9): keep-latest in memory, complete on disk
# ----------------------------------------------------------------------
class TestJournalBound:
    def test_keeps_latest_in_memory_jsonl_complete(self, tmp_path):
        path = tmp_path / "bounded.jsonl"
        journal = ControllerJournal(path=str(path), max_events=5)
        events = [ControllerEvent(seq=i, tick=i, kind="drift-detected",
                                  model="zs", version=1)
                  for i in range(12)]
        for event in events:
            journal.append(event)
        # Memory keeps the latest 5; the JSONL mirror keeps everything.
        assert journal.events() == events[-5:]
        assert len(journal) == 5
        assert journal.total_appended == 12
        assert journal.dropped == 7
        assert ControllerJournal.read_jsonl(str(path)) == events

    def test_default_bound_is_generous(self):
        journal = ControllerJournal()
        assert journal.max_events == 4096
        journal.append(ControllerEvent(seq=0, tick=0, kind="drift-detected",
                                       model="zs"))
        assert journal.dropped == 0

    def test_config_threads_bound_to_controller(self, world, tmp_path):
        config = dataclasses.replace(CONTROLLER_CONFIG, journal_max_events=7)
        registry, server, controller = _stack(world, tmp_path, config=config)
        try:
            assert controller.journal.max_events == 7
        finally:
            server.stop()
