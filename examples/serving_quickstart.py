"""Serving quickstart: publish a zero-shot model and serve an unseen database.

The full online story in one script:

1. generate a handful of benchmark databases and train a zero-shot cost
   model on all of them *except* one,
2. publish the trained model to a :class:`~repro.serving.ModelRegistry`
   (versioned, content-addressed, promotable),
3. start the micro-batching :class:`~repro.serving.PredictorServer`,
4. fire seeded open-loop concurrent clients at the held-out (unseen)
   database and print throughput and latency percentiles — cost
   predictions out of the box, served online.

Run with::

    python examples/serving_quickstart.py
"""

import tempfile
import zlib

from repro.bench import format_table
from repro.core import TrainingConfig, ZeroShotCostModel
from repro.datagen import make_benchmark_databases
from repro.serving import (LoadConfig, ModelRegistry, PredictorServer,
                           ServerConfig, run_load)
from repro.workloads import WorkloadConfig, WorkloadGenerator, generate_trace


def main():
    # 1. Databases and training traces (IMDB stays unseen).
    names = ["accidents", "airline", "baseball", "financial", "imdb"]
    print(f"Generating {len(names)} benchmark databases ...")
    dbs = make_benchmark_databases(base_rows=1500, subset=names)
    traces = []
    for name in names:
        if name == "imdb":
            continue
        # crc32, not hash(): string hashing is randomized per process.
        generator = WorkloadGenerator(dbs[name], WorkloadConfig(max_joins=3),
                                      seed=zlib.crc32(name.encode()) % 1000)
        traces.append(generate_trace(dbs[name], generator.generate(80)))

    print("Training the zero-shot cost model ...")
    config = TrainingConfig(hidden_dim=32, epochs=20, seed=0)
    model = ZeroShotCostModel.train(traces, dbs, cards="exact", config=config)

    # 2. Publish: compatible with the training databases, and the default
    #    (fallback) model for everything else — that is the zero-shot case.
    with tempfile.TemporaryDirectory() as registry_dir:
        registry = ModelRegistry(registry_dir)
        deployment = registry.publish(
            "zero-shot", model,
            dbs=[dbs[n] for n in names if n != "imdb"], default=True)
        print(f"Published {deployment.name} v{deployment.version} "
              f"(checkpoint {deployment.checkpoint_key[:12]}..., "
              f"{len(deployment.db_digests)} routed databases)")

        # 3. An online workload against the UNSEEN imdb database.
        generator = WorkloadGenerator(dbs["imdb"], WorkloadConfig(max_joins=3),
                                      seed=99)
        unseen = generate_trace(dbs["imdb"], generator.generate(120))
        requests = [("imdb", record.plan) for record in unseen]

        # 4. Serve it: micro-batching predictor + open-loop load.
        server_config = ServerConfig(max_batch_size=32)
        print(f"\nServing {len(requests)} requests from 4 concurrent "
              "clients (open loop, ~2000 req/s offered) ...")
        with PredictorServer(registry, dbs, server_config) as server:
            report = run_load(server, requests,
                              LoadConfig(n_clients=4, rate_per_s=2000,
                                         seed=7))
            # Repeat traffic is answered from the result cache.
            repeat = run_load(server, requests[:40],
                              LoadConfig(n_clients=4, rate_per_s=2000,
                                         seed=8))

        latency = report.latency_ms
        print("\nOnline serving on the UNSEEN imdb database:")
        print(format_table([{
            "throughput (req/s)": report.throughput_rps,
            "p50 (ms)": latency["p50"],
            "p95 (ms)": latency["p95"],
            "p99 (ms)": latency["p99"],
            "mean batch": report.mean_batch_size,
            "shed": report.shed,
        }]))
        print(f"Batch-size histogram: {report.batch_size_hist}")
        print(f"Repeat traffic: {repeat.cached}/{repeat.n_requests} answered "
              "from the result cache")


if __name__ == "__main__":
    main()
