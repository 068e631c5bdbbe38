"""Entry point: run the engine microbenchmarks and write ``BENCH_engine.json``.

Usage::

    PYTHONPATH=src python benchmarks/perf/run.py                 # full run
    PYTHONPATH=src python benchmarks/perf/run.py --quick         # smaller corpus
    PYTHONPATH=src python benchmarks/perf/run.py --save-baseline # refresh baseline
    PYTHONPATH=src python benchmarks/perf/run.py --save-loop-baseline
        # re-record ONLY the loop-baseline metrics (featurize / annotate /
        # trace_exec / simulate / spn_learn) by timing the executable
        # reference implementations (annotate_cardinalities_reference,
        # build_query_graph_reference, per-plan execute_plan and
        # simulate_runtime_ms, learn_spn_reference); other baseline entries
        # are left untouched.

The output JSON records the current numbers, the recorded loop/seed-engine
baseline (``benchmarks/perf/baseline_seed.json``), and the speedup of each
metric, so the perf trajectory is visible PR over PR.  Cache hit/miss
counters and fast-path dispatch counters ride along so a regression to a
loop fallback is visible even when throughput noise hides it.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(HERE))

BASELINE_PATH = HERE / "baseline_seed.json"
DEFAULT_OUTPUT = REPO / "BENCH_engine.json"

RATE_KEYS = ("datagen_tables_per_s", "trace_exec_plans_per_s",
             "simulate_plans_per_s", "spn_learn_tables_per_s",
             "featurize_plans_per_s", "annotate_plans_per_s",
             "featurize_cached_plans_per_s",
             "batch_construction_plans_per_s", "train_step_plans_per_s",
             "train_epoch_plans_per_s",
             "inference_plans_per_s", "inference_cached_plans_per_s",
             "serving_single_plans_per_s", "serving_batched_plans_per_s",
             "fleet_1w_plans_per_s", "fleet_2w_plans_per_s",
             "fleet_4w_plans_per_s")

# Metrics with an in-run executable reference implementation (loop specs /
# per-parameter optimizer): reported as machine-drift-immune ratios.
# name -> metric suffix (most rates are plans/s, SPN learning is tables/s).
SAME_RUN_KEYS = {"trace_exec": "plans_per_s", "simulate": "plans_per_s",
                 "spn_learn": "tables_per_s", "featurize": "plans_per_s",
                 "annotate": "plans_per_s", "train_step": "plans_per_s",
                 "train_epoch": "plans_per_s"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--quick", action="store_true",
                        help="smaller corpus (96 queries) for a fast signal")
    parser.add_argument("--save-baseline", action="store_true",
                        help="write results to baseline_seed.json instead of "
                             "comparing against it")
    parser.add_argument("--save-loop-baseline", action="store_true",
                        help="re-record the loop-baseline entries (featurize/"
                             "annotate/trace_exec/simulate/spn_learn) from "
                             "the reference implementations")
    parser.add_argument("--profile", action="store_true",
                        help="print a cProfile top-20 per benchmark stage")
    args = parser.parse_args(argv)

    from harness import run_all, run_pipeline_reference

    n_queries = 96 if args.quick else 192

    if args.save_loop_baseline:
        baseline = (json.loads(BASELINE_PATH.read_text())
                    if BASELINE_PATH.exists() else {})
        reference = run_pipeline_reference(n_queries=n_queries)
        baseline.update(reference)
        BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"loop baseline updated in {BASELINE_PATH}")
        for key, value in reference.items():
            print(f"  {key}: {value:.1f}")
        return 0

    results = run_all(n_queries=n_queries, profile=args.profile)

    if args.save_baseline:
        BASELINE_PATH.write_text(json.dumps(results, indent=2) + "\n")
        print(f"baseline written to {BASELINE_PATH}")
        for key in RATE_KEYS:
            print(f"  {key}: {results[key]:.1f}")
        return 0

    baseline = None
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())

    report = {
        "engine": "fast-path",
        "python": platform.python_version(),
        "results": results,
        "baseline_seed": baseline,
    }
    if baseline:
        report["speedup_vs_seed"] = {
            key: results[key] / baseline[key]
            for key in RATE_KEYS if baseline.get(key)
        }
        warm = results.get("featurize_cached_plans_per_s")
        cold = results.get("featurize_plans_per_s")
        if warm and cold:
            report["featurization_cache_warm_over_cold"] = warm / cold
    # Machine-drift-immune: reference implementations timed in this very
    # run (pipeline loop specs + the per-parameter Adam_reference).
    same_run = {}
    for key, suffix in SAME_RUN_KEYS.items():
        fast = results.get(f"{key}_{suffix}")
        reference = results.get(f"{key}_reference_{suffix}")
        if fast and reference:
            same_run[f"{key}_{suffix}"] = fast / reference
    if same_run:
        report["speedup_vs_loop_same_run"] = same_run
    warm = results.get("experiment_warm_start_speedup")
    if warm:
        report["experiment_warm_start_speedup"] = warm
    serving = results.get("serving_microbatch_speedup")
    if serving:
        report["serving_microbatch_speedup"] = serving
    fleet_scaling = results.get("fleet_scaling_4w")
    if fleet_scaling:
        report["fleet_scaling_4w"] = fleet_scaling

    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"report written to {args.output}")
    for key in RATE_KEYS:
        line = f"  {key}: {results[key]:.1f}"
        if baseline and baseline.get(key):
            line += (f"  (seed {baseline[key]:.1f}, "
                     f"{results[key] / baseline[key]:.2f}x)")
        print(line)
    if same_run:
        for key, value in same_run.items():
            print(f"  {key} vs same-run reference: {value:.2f}x")
    if warm:
        print(f"  experiment_warm_start: cold {results['experiment_cold_s']:.2f}s"
              f" -> warm {results['experiment_warm_s']:.2f}s ({warm:.1f}x)")
    if serving:
        extras = results.get("serving_extras", {})
        print(f"  serving_microbatch_speedup: {serving:.2f}x "
              f"(mean batch {extras.get('mean_batch_size', 0):.1f}, "
              f"p99 {extras.get('latency_ms', {}).get('p99', 0):.2f} ms)")
    if fleet_scaling:
        fleet_extras = results.get("fleet_extras", {})
        counters = fleet_extras.get("fleet_counters", {})
        print(f"  fleet_scaling_4w: {fleet_scaling:.2f}x "
              f"(spawns {counters.get('fleet.worker.spawn', 0)}, "
              f"restarts {counters.get('fleet.worker.restart', 0)})")
    print(f"  cache_stats: {results['cache_stats']}")
    print(f"  dispatch: {results['dispatch_counters']}")

    # Append the same table to the experiment report so the perf trajectory
    # lives next to the regenerated paper figures.
    from repro.bench.reporting import format_table, print_experiment
    rows = []
    for key in RATE_KEYS:
        row = {"metric": key.replace("_plans_per_s", "").replace(
                   "_tables_per_s", ""),
               "fast_path_rate": results[key]}
        if baseline and baseline.get(key):
            row["seed_rate"] = baseline[key]
            row["speedup"] = results[key] / baseline[key]
        rows.append(row)
    print_experiment("Engine Microbenchmarks — fast path vs seed engine",
                     format_table(rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
