"""Fleet quickstart: scale the predictor across processes with one model copy.

The scale-out serving story in one script:

1. generate benchmark databases and train a zero-shot cost model on all of
   them *except* one,
2. publish it to a :class:`~repro.serving.ModelRegistry`,
3. start a :class:`~repro.serving.PredictorFleet` — the server's front
   end handing whole micro-batches to idle forked workers whose
   checkpoints are hydrated via mmap: one page-cache copy of the model
   for the whole fleet,
4. fire a *skewed* open-loop mix (one hot database, one cold) at 1, 2 and
   4 workers and print the per-count throughput, mean batch size and the
   per-database latency breakdown,
5. hot-swap: publish a v2 and watch the whole fleet pick it up with zero
   downtime.

Scaling beyond ~1x needs real cores — on a single-CPU machine the numbers
honestly show the fork/pipe overhead instead.  Run with::

    python examples/fleet_quickstart.py
"""

import os
import tempfile
import zlib

from repro.bench import format_table
from repro.core import TrainingConfig, ZeroShotCostModel
from repro.datagen import make_benchmark_databases
from repro.serving import (LoadConfig, ModelRegistry, PredictorFleet,
                           ServerConfig, run_load, skewed_requests)
from repro.workloads import WorkloadConfig, WorkloadGenerator, generate_trace


def main():
    # 1. Databases and training traces (IMDB stays unseen).
    names = ["accidents", "airline", "baseball", "imdb"]
    print(f"Generating {len(names)} benchmark databases ...")
    dbs = make_benchmark_databases(base_rows=1200, subset=names)
    traces = []
    for name in names:
        if name == "imdb":
            continue
        generator = WorkloadGenerator(dbs[name], WorkloadConfig(max_joins=3),
                                      seed=zlib.crc32(name.encode()) % 1000)
        traces.append(generate_trace(dbs[name], generator.generate(60)))

    print("Training the zero-shot cost model ...")
    config = TrainingConfig(hidden_dim=32, epochs=15, seed=0)
    model = ZeroShotCostModel.train(traces, dbs, cards="exact", config=config)

    with tempfile.TemporaryDirectory() as registry_dir:
        # 2. Publish; the fleet's workers hydrate this from disk via mmap.
        registry = ModelRegistry(registry_dir)
        deployment = registry.publish(
            "zero-shot", model,
            dbs=[dbs[n] for n in names if n != "imdb"], default=True)
        print(f"Published {deployment.name} v{deployment.version} "
              f"(checkpoint {deployment.checkpoint_key[:12]}...)")

        # 3. A skewed online mix: the UNSEEN imdb database is hot (85% of
        #    traffic), accidents is cold; both share one deployment, so
        #    they share micro-batches and model calls.
        pools = {}
        for name, share in (("imdb", 0.85), ("accidents", 0.15)):
            generator = WorkloadGenerator(dbs[name],
                                          WorkloadConfig(max_joins=3),
                                          seed=99)
            records = generate_trace(dbs[name], generator.generate(60))
            pools[name] = [(name, record.plan) for record in records]
        mix = skewed_requests(pools, {"imdb": 0.85, "accidents": 0.15},
                              n=360, seed=7)

        # 4. Saturation load at 1 / 2 / 4 workers.  Result cache off so
        #    every request pays the real inference path in a worker.
        fleet_config = ServerConfig(max_batch_size=32,
                                    queue_depth=len(mix) + 8,
                                    result_cache_size=0)
        print(f"\nServing {len(mix)} skewed requests "
              f"(85% imdb / 15% accidents) on {os.cpu_count()} CPU(s) ...")
        rows, reports = [], {}
        for n_workers in (1, 2, 4):
            fleet = PredictorFleet(registry, dbs, fleet_config,
                                   n_workers=n_workers)
            with fleet:
                report = run_load(fleet, mix,
                                  LoadConfig(n_clients=4, block=True,
                                             seed=7))
                stats = fleet.stats()
            reports[n_workers] = report
            rows.append({
                "workers": n_workers,
                "throughput (req/s)": report.throughput_rps,
                "p99 (ms)": report.latency_ms["p99"],
                "mean batch": stats["mean_batch_size"],
                "restarts": stats["worker_restarts"],
            })
        print(format_table(rows))
        base = rows[0]["throughput (req/s)"]
        print(f"Scaling vs 1 worker: "
              + ", ".join(f"{row['workers']}w "
                          f"{row['throughput (req/s)'] / base:.2f}x"
                          for row in rows[1:]))

        print("\nPer-database breakdown at 4 workers (hot vs cold):")
        print(format_table([
            {"database": name, "requests": summary["requests"],
             "p50 (ms)": summary["p50"], "p99 (ms)": summary["p99"],
             "degraded": summary["degraded"]}
            for name, summary in reports[4].latency_by_db.items()]))

        # 5. Zero-downtime hot swap: publish v2, the router broadcasts on
        #    the generation change, every worker re-resolves from disk.
        model_v2 = ZeroShotCostModel.train(
            traces, dbs, cards="exact",
            config=TrainingConfig(hidden_dim=32, epochs=15, seed=1))
        with PredictorFleet(registry, dbs, fleet_config,
                            n_workers=2) as fleet:
            before = fleet.predict([mix[0][1]], mix[0][0])[0]
            registry.publish("zero-shot", model_v2,
                             dbs=[dbs[n] for n in names if n != "imdb"])
            after = fleet.predict([mix[0][1]], mix[0][0])[0]
            swaps = fleet.stats()["swaps"]
        print(f"\nHot swap: same plan predicted {before:.2f} ms on v1, "
              f"{after:.2f} ms on v2 ({swaps} route swaps, one per served "
              f"database; zero downtime)")


if __name__ == "__main__":
    main()
