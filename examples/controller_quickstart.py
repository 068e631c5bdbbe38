"""Continuous-learning quickstart: drift, auto-retrain, guarded promote,
auto-rollback.

The whole control plane in one synchronous script, in two acts over the
same world (a training database, a drift database the base model has
never seen, and a heavy database nothing ever learns):

**Act 1 — recovery.** Serve in-distribution traffic (the controller
observes every delivery and stays quiet), then shift the workload to the
drift database: the drift detector trips, a candidate is fine-tuned from
the observed drift window, shadow-evaluated on mirrored traffic,
auto-promoted behind the Q-error margin gate, and finally graduates its
probation window.  The per-phase Q-error curve shows the recovery.

**Act 2 — guarded promotion.** Same beginning, but while the promoted
candidate is still *in probation* the workload shifts again, to the
heavy database it never learned.  The probation guard catches the
regression and atomically rolls back to the previous version.

Every decision lands in a typed, replayable journal — run the script
twice and the event streams are bit-identical.

Run with::

    python examples/controller_quickstart.py
"""

import tempfile

from repro import perfstats
from repro.core import TrainingConfig, ZeroShotCostModel
from repro.datagen import generate_database, random_database_spec
from repro.executor import simulate_runtime_ms
from repro.serving import (ContinuousLearningController, ControllerConfig,
                           LoadConfig, ModelRegistry, PredictorServer,
                           ServerConfig, run_load)
from repro.workloads import WorkloadConfig, WorkloadGenerator, generate_trace

CONFIG = ControllerConfig(
    truth_seed=7, drift_threshold=2.0, drift_window=16,
    min_observations=8, max_fine_tune_records=16, fine_tune_epochs=20,
    fine_tune_lr=1e-3, shadow_margin=1.05, min_shadow_samples=16,
    probation_observations=64, probation_threshold=2.5,
    max_observations_per_tick=16)

LOAD = LoadConfig(n_clients=1, block=True)


def build_world():
    print("Generating databases ...")
    db = generate_database(random_database_spec(
        "ctl_db", seed=31, layout="snowflake", base_rows=400, n_tables=4,
        complexity=0.6))
    drift_db = generate_database(random_database_spec(
        "drift_db", seed=77, layout="star", base_rows=900, n_tables=5,
        complexity=0.9))
    heavy_db = generate_database(random_database_spec(
        "heavy_db", seed=5, layout="star", base_rows=20000, n_tables=6,
        complexity=0.9))
    dbs = {d.name: d for d in (db, drift_db, heavy_db)}

    trace_a = list(generate_trace(db, WorkloadGenerator(
        db, WorkloadConfig(max_joins=1), seed=7).generate(40), seed=7))
    trace_b = list(generate_trace(drift_db, WorkloadGenerator(
        drift_db, WorkloadConfig(min_joins=2, max_joins=4),
        seed=99).generate(120), seed=7))
    trace_c = list(generate_trace(heavy_db, WorkloadGenerator(
        heavy_db, WorkloadConfig(min_joins=3, max_joins=5),
        seed=13).generate(32), seed=7))

    print("Training the base model (single-join queries, ctl_db only) ...")
    base = ZeroShotCostModel.train(
        [trace_a], dbs, cards="exact",
        config=TrainingConfig(hidden_dim=24, epochs=12, dtype="float32",
                              seed=0))
    return dbs, trace_a, trace_b, trace_c, base


def drive(dbs, base, phases, registry_dir):
    """Publish the base model, serve the phases, drain the controller
    after each, and narrate every journaled decision."""
    registry = ModelRegistry(registry_dir)
    registry.publish("zs", base, dbs=list(dbs.values()), default=True)
    server = PredictorServer(
        registry, dbs, ServerConfig(max_batch_size=8,
                                    result_cache_size=0)).start()
    controller = ContinuousLearningController(registry, server, CONFIG)

    def truth_for(handle):
        return float(simulate_runtime_ms(dbs[handle.db_name], handle.plan,
                                         seed=CONFIG.truth_seed))

    try:
        for name, requests in phases:
            seen = len(controller.journal)
            report = run_load(server, requests, LOAD)
            # ``drain()`` runs controller ticks synchronously until the
            # observation tap is empty; ``controller.start()`` (or
            # ``with controller:``) does the same in a supervised
            # background thread.
            controller.drain()
            q = report.compute_q_error_phases(
                truth_for, {name: (0, len(requests))})[name]
            print(f"  phase {name!r}: {len(requests)} requests, "
                  f"median Q-error {q['median']:.2f} (p95 {q['p95']:.2f}), "
                  f"serving v{registry.active('zs').version}")
            for event in controller.journal.events()[seen:]:
                detail = ", ".join(
                    f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in event.detail)
                print(f"    [tick {event.tick}] {event.kind}: {detail}")
    finally:
        server.stop()
    return registry, controller


def main():
    dbs, trace_a, trace_b, trace_c, base = build_world()
    before = [("ctl_db", r.plan) for r in trace_a[:24]]
    drift = [("drift_db", r.plan) for r in trace_b[:48]]
    recovery = [("drift_db", r.plan) for r in trace_b[48:80]]
    steady = [("drift_db", r.plan) for r in trace_b[80:120]]
    heavy = [("heavy_db", r.plan) for r in trace_c]

    with tempfile.TemporaryDirectory() as tmp:
        print("\nAct 1 — drift, auto-retrain, promote, graduate:")
        registry, controller = drive(
            dbs, base,
            [("in-distribution", before), ("drift hits", drift),
             ("recovery", recovery), ("steady state", steady)],
            f"{tmp}/act1")
        assert [e.kind for e in controller.journal.events()] == [
            "drift-detected", "candidate-published", "promoted",
            "probation-passed"]
        print(f"  => fine-tuned v{registry.active('zs').version} serves; "
              "the drift-phase Q-error is gone")

        print("\nAct 2 — regression during probation, auto-rollback:")
        registry, controller = drive(
            dbs, base,
            [("in-distribution", before), ("drift hits", drift),
             ("recovery", recovery), ("regression", heavy)],
            f"{tmp}/act2")
        assert controller.journal.events()[-1].kind == "rolled-back"
        print(f"  => the probation guard restored "
              f"v{registry.active('zs').version}; the bad candidate never "
              "became load-bearing")

    counters = {name: value for name, value in perfstats.snapshot().items()
                if name.startswith("controller.")}
    print(f"\nController counters: {counters}")


if __name__ == "__main__":
    main()
