"""Observability quickstart: spans, latency attribution and SLO burn.

The tracing plane end to end:

1. train a small zero-shot cost model and publish it to a registry,
2. start a :class:`~repro.serving.PredictorFleet` with **tracing on** and
   an aggressive hedging policy, fire a skewed load (one hot database,
   one cold) that includes a LOW-priority burst against a shallow queue,
3. print the per-stage latency attribution table — which share of each
   request's end-to-end time went to queueing, the pipe, worker-side
   featurization/inference, delivery — and the SLO burn report,
4. export the spans as JSONL and as a Chrome trace-event timeline:
   open the ``*_trace.json`` file at https://ui.perfetto.dev and look for
   the ``hedge.sent`` / ``hedge.won`` annotations (two workers racing the
   same request) and for ``brownout`` requests answered by the analytical
   fallback instead of waiting behind the full queue.

Tracing is passive — every served value in this script is bit-identical
to what an untraced run would deliver.  Run with::

    python examples/observability_quickstart.py
"""

import tempfile
import zlib
from pathlib import Path

from repro.core import TrainingConfig, ZeroShotCostModel
from repro.datagen import make_benchmark_databases
from repro.obs import Tracer, slo_report
from repro.obs.export import (format_attribution, write_chrome_trace,
                              write_spans_jsonl)
from repro.serving import (LoadConfig, ModelRegistry, PredictorFleet,
                           RequestPriority, ServerConfig, run_load,
                           skewed_requests)
from repro.workloads import WorkloadConfig, WorkloadGenerator, generate_trace


def main():
    names = ["accidents", "airline", "imdb"]
    print(f"Generating {len(names)} benchmark databases ...")
    dbs = make_benchmark_databases(base_rows=900, subset=names)
    traces = []
    for name in names:
        if name == "imdb":
            continue  # imdb stays unseen: the zero-shot setting
        generator = WorkloadGenerator(dbs[name], WorkloadConfig(max_joins=3),
                                      seed=zlib.crc32(name.encode()) % 1000)
        traces.append(generate_trace(dbs[name], generator.generate(50)))

    print("Training the zero-shot cost model ...")
    model = ZeroShotCostModel.train(
        traces, dbs, cards="exact",
        config=TrainingConfig(hidden_dim=32, epochs=12, seed=0))

    with tempfile.TemporaryDirectory() as registry_dir:
        registry = ModelRegistry(registry_dir)
        registry.publish("zero-shot", model,
                         dbs=[dbs[n] for n in names if n != "imdb"],
                         default=True)

        # A skewed mix (hot imdb / cold accidents) plus a LOW-priority
        # burst.  The queue is shallow on purpose: LOW traffic over its
        # brownout bound is answered by the analytical fallback instead
        # of queueing — visible in the timeline as ``brownout`` spans.
        pools = {}
        for name, share in (("imdb", 0.8), ("accidents", 0.2)):
            generator = WorkloadGenerator(dbs[name],
                                          WorkloadConfig(max_joins=3),
                                          seed=99)
            records = generate_trace(dbs[name], generator.generate(40))
            pools[name] = [(name, record.plan) for record in records]
        mix = skewed_requests(pools, {"imdb": 0.8, "accidents": 0.2},
                              n=240, seed=7)

        config = ServerConfig(result_cache_size=0, max_batch_size=16,
                              queue_depth=24)
        print(f"\nServing {len(mix)} traced requests "
              "(2 workers, hedging after 25 ms, shallow queue) ...")
        with PredictorFleet(registry, dbs, config, n_workers=2,
                            hedge_after_ms=25.0) as fleet:
            # Tracing stays on for the overload burst below too.
            fleet.attach_tracer(Tracer())
            report = run_load(fleet, mix,
                              LoadConfig(n_clients=6, block=True, seed=7),
                              trace=True)

            # A deliberate overload burst on top: fill the queue with
            # non-blocking NORMAL traffic, then fire a LOW burst — over
            # its brownout bound, LOW is answered *immediately* by the
            # analytical fallback (flagged DEGRADED) instead of queueing.
            backlog = [fleet.submit(plan, db, block=False)
                       for db, plan in mix[:24]]
            burst = [fleet.submit(plan, db, block=False,
                                  priority=RequestPriority.LOW)
                     for db, plan in mix[24:44]]
            for handle in backlog + burst:
                handle.wait(60)
            stats = fleet.stats()
            spans = report.spans + fleet.tracer.drain()

        # 3. Attribution: which stage owns the latency, per percentile
        #    (from the healthy phase — the burst is in the timeline).
        print("\nPer-stage latency attribution (fleet-wide):")
        print(format_attribution(report.latency_attribution))
        hedge_won = sum(1 for s in spans if "hedge.won" in s.annotations)
        hedge_sent = sum(1 for s in spans if "hedge.sent" in s.annotations)
        brownouts = sum(1 for s in spans if "brownout" in s.annotations)
        print(f"\nhedges sent: {hedge_sent}  won: {hedge_won}  "
              f"brownouts: {brownouts}  sheds: {stats['shed']}")

        # SLO burn against the chaos benches' availability floor.
        slo = slo_report(delivered=(report.completed + report.cached
                                    + report.degraded),
                         submitted=report.n_requests,
                         availability_floor=0.99,
                         latency_p95_ms=report.latency_ms["p95"],
                         latency_p95_floor_ms=250.0)
        print(f"availability {slo['availability']:.4f} "
              f"(burn {slo['availability_burn']:.2f}x of budget), "
              f"p95 {slo.get('latency_p95_ms', 0.0):.1f} ms "
              f"-> SLO {'met' if slo['met'] else 'VIOLATED'}")

        # 4. Artifacts: raw spans + a Perfetto-loadable timeline.
        out = Path("observability_quickstart_spans.jsonl")
        timeline = Path("observability_quickstart_trace.json")
        write_spans_jsonl(spans, out)
        write_chrome_trace(spans, timeline)
        print(f"\nWrote {len(spans)} spans to {out}")
        print(f"Wrote timeline to {timeline} — open at "
              "https://ui.perfetto.dev and look for hedge.won / brownout "
              "annotations")


if __name__ == "__main__":
    main()
