"""Continuous-learning quickstart: drift, auto-retrain, guarded promote,
auto-rollback.

The whole control plane in one synchronous script, in two acts over the
calibrated world of ``repro.bench.drift_world`` (a training database, a
drift database the base model has never seen, and a heavy database
nothing ever learns):

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
from repro.bench.drift_world import CONTROLLER_CONFIG, build_drift_world
from repro.executor import simulate_runtime_ms
from repro.serving import (ContinuousLearningController, LoadConfig,
                           ModelRegistry, PredictorServer, ServerConfig,
                           run_load)

LOAD = LoadConfig(n_clients=1, block=True)


def drive(world, phases, registry_dir):
    """Publish the base model, serve the phases, drain the controller
    after each, and narrate every journaled decision."""
    dbs = world.dbs
    registry = ModelRegistry(registry_dir)
    registry.publish("zs", world.base, dbs=list(dbs.values()), default=True)
    server = PredictorServer(
        registry, dbs, ServerConfig(max_batch_size=8,
                                    result_cache_size=0)).start()
    controller = ContinuousLearningController(registry, server,
                                              CONTROLLER_CONFIG)

    def truth_for(handle):
        return float(simulate_runtime_ms(dbs[handle.db_name], handle.plan,
                                         seed=CONTROLLER_CONFIG.truth_seed))

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
    print("Generating databases and training the base model "
          "(single-join queries, ctl_db only) ...")
    world = build_drift_world()

    with tempfile.TemporaryDirectory() as tmp:
        print("\nAct 1 — drift, auto-retrain, promote, graduate:")
        registry, controller = drive(world, world.phases(), f"{tmp}/act1")
        assert [e.kind for e in controller.journal.events()] == [
            "drift-detected", "candidate-published", "promoted",
            "probation-passed"]
        print(f"  => fine-tuned v{registry.active('zs').version} serves; "
              "the drift-phase Q-error is gone")

        print("\nAct 2 — regression during probation, auto-rollback:")
        registry, controller = drive(world, world.phases(regression=True),
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
