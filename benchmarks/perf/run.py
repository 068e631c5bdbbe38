"""The one entry point for the perf benches: ``run.py <bench> [--quick]``.

Usage::

    PYTHONPATH=src python benchmarks/perf/run.py engine          # full run
    PYTHONPATH=src python benchmarks/perf/run.py engine --quick  # smaller corpus
    PYTHONPATH=src python benchmarks/perf/run.py chaos --quick   # what CI runs

Benches (the ``harness`` function each one drives):

* ``engine`` — engine microbenchmarks (``run_all``): current rates, the
  speedup of each fast path over its loop oracle from ``tests/oracles``
  timed in the same run (the one comparison: same machine, same moment,
  so immune to machine drift), and cache and fast-path dispatch counters.
  Runtime simulation and SPN learning have one implementation each, so
  they report rates but no speedup.  ``plan_digest_us_per_plan`` (median
  µs of one submit-side plan hash) is reported only.  ``--profile`` prints
  a cProfile top-20 per stage.
* ``chaos`` — the server under a seeded fault schedule (``bench_chaos``).
* ``fleet`` — fleet plans/s per worker count, plus a 2-worker fleet's
  set-up and restart times (``bench_fleet``).
* ``controller`` — the calibrated drift scenario through the
  continuous-learning controller (``bench_controller``).
* ``fleet_chaos`` — fleet liveness under a hang, a SIGKILL and pipe
  drops, then a priority-mixed overload burst (``bench_fleet_chaos``).
* ``obs`` — tracing overhead and latency attribution (``bench_obs``).

Each bench writes ``BENCH_<bench>.json`` to ``--output-dir`` (default: the
repository root).  The traced benches (chaos, controller, fleet_chaos,
obs) also write their spans as ``BENCH_<bench>_spans.jsonl`` and as a
Chrome trace-event / Perfetto timeline, ``BENCH_<bench>_trace.json``.
Pass/fail is the ``GATES`` table: one row per check, each with a fixed
threshold and its reason.  A bench exits non-zero iff one of its rows
trips, and prints the rows that tripped.
"""

from __future__ import annotations

import argparse
import json
import operator
import platform
import sys
from pathlib import Path
from typing import Callable, NamedTuple

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402  (benchmarks/perf/harness.py)

RATE_KEYS = ("datagen_tables_per_s", "trace_exec_plans_per_s",
             "simulate_plans_per_s", "spn_learn_tables_per_s",
             "featurize_plans_per_s", "annotate_plans_per_s",
             "featurize_cached_plans_per_s",
             "batch_construction_plans_per_s",
             "batch_construction_single_plans_per_s", "train_step_plans_per_s",
             "train_epoch_plans_per_s",
             "inference_plans_per_s", "inference_cached_plans_per_s")

# Metrics (all plans/s) with a loop oracle from tests/oracles (or per-plan
# execute_plan) timed in the same run: reported as machine-drift-immune
# ratios.
SAME_RUN_KEYS = ("trace_exec", "featurize", "annotate", "train_step",
                 "train_epoch")


# ----------------------------------------------------------------------
# Gates
# ----------------------------------------------------------------------
class Gate(NamedTuple):
    bench: str
    name: str
    measure: Callable[[dict], object]  # None: the row does not apply
    op: str                            # value must be `op` threshold
    threshold: object
    reason: str


OPS = {">=": operator.ge, "<=": operator.le, "==": operator.eq}

HAPPY_PATH = ["drift-detected", "candidate-published", "promoted",
              "probation-passed"]


def _audit_rows(bench, phase=None):
    """The equivalence and exactly-once rows of one audited load run."""
    part = (lambda r: r[phase]) if phase else (lambda r: r)
    prefix = f"{phase}: " if phase else ""
    return (
        Gate(bench, prefix + "wrong values",
             lambda r: part(r)["wrong_values"], "==", 0,
             "a served value must be bit-identical to predict_runtimes"),
        Gate(bench, prefix + "lost requests",
             lambda r: part(r)["lost"], "==", 0,
             "completion is exactly-once: every request resolves"),
        Gate(bench, prefix + "duplicated requests",
             lambda r: part(r)["duplicated"], "==", 0,
             "completion is exactly-once: no request resolves twice"),
    )


def _by_priority(r, name, key):
    return r["overload"]["by_priority"].get(name, {}).get(key, 0)


def _low_pressure(r):
    return _by_priority(r, "low", "shed") + _by_priority(r, "low", "degraded")


def _drift_traced(r):
    """Whether some drift event of a traced run carries a trace id."""
    drift = [e for e in r["events"] if e["kind"] == "drift-detected"]
    if not (r["n_spans"] and drift):
        return None
    return any(e["detail"].get("trace_id") for e in drift)


GATES = (
    *_audit_rows("chaos"),
    Gate("chaos", "availability", lambda r: r["availability"], ">=", 0.99,
         "retry, bisection and supervision absorb transient faults"),
    Gate("chaos", "faults fired",
         lambda r: sum(point.get("faults", 0)
                       for point in r["fault_stats"].values()), ">=", 1,
         "a schedule that never fired makes the run vacuous"),
    Gate("chaos", "batcher crashes", lambda r: r["batcher_crashes"], ">=", 1,
         "the pinned batcher crash must exercise supervision"),
    Gate("chaos", "retries", lambda r: r["retries"], ">=", 1,
         "the pinned inference faults must exercise backoff"),

    *_audit_rows("fleet"),
    Gate("fleet", "unpredicted requests", lambda r: r["incomplete"], "==", 0,
         "with no faults and no result cache, a worker predicts each one"),
    Gate("fleet", "scaling over 1 worker",
         lambda r: r["top_scaling"] if r["cpu_count"] >= 2 else None,
         ">=", 1.3,
         "more workers must pay off where there are cores to scale onto"),

    Gate("controller", "happy path", lambda r: r["happy_kinds"], "==",
         HAPPY_PATH, "drift must be detected, retrained, promoted, graduated"),
    Gate("controller", "wrong promotions", lambda r: r["wrong_promotions"],
         "==", 0, "a rollback on the happy path means the shadow gate erred"),
    Gate("controller", "replay identical", lambda r: r["replay_identical"],
         "==", True, "the control plane is seeded end to end"),
    Gate("controller", "rollback within probation",
         lambda r: (r["regression"]["rolled_back"]
                    and r["regression"]["within_probation"]), "==", True,
         "a regressed promotion must roll back before probation ends"),
    Gate("controller", "daemon availability",
         lambda r: r["availability_during_retrain"], ">=", 0.99,
         "serving keeps its SLO while the daemon fine-tunes"),
    Gate("controller", "daemon crashes", lambda r: r["daemon"]["crashes"],
         "==", 0, "no faults are injected, so the daemon never crashes"),
    Gate("controller", "daemon graduated", lambda r: r["daemon"]["graduated"],
         "==", True, "the daemon run must close the loop, probation included"),
    Gate("controller", "ticks to recover", lambda r: r["ticks_to_recover"],
         "<=", 8, "the calibrated scenario promotes within a few ticks"),
    Gate("controller", "drift trace ids", _drift_traced, "==", True,
         "a traced promotion leads back to the request that drifted"),

    *_audit_rows("fleet_chaos", "chaos"),
    *_audit_rows("fleet_chaos", "overload"),
    Gate("fleet_chaos", "chaos: availability",
         lambda r: r["chaos"]["availability"], ">=", 0.99,
         "hedging, hang-kill and re-send recover the requests"),
    Gate("fleet_chaos", "chaos: hangs detected",
         lambda r: r["counters"]["fleet.hang.detected"], ">=", 1,
         "the pinned hang must be detected"),
    Gate("fleet_chaos", "chaos: hangs killed",
         lambda r: r["counters"]["fleet.hang.killed"], ">=", 1,
         "the detected hang must be killed into the crash path"),
    Gate("fleet_chaos", "chaos: hedges sent",
         lambda r: r["counters"]["fleet.hedge.sent"], ">=", 1,
         "the pinned pipe drops must be recovered by hedging"),
    Gate("fleet_chaos", "chaos: worker restarts",
         lambda r: r["counters"]["fleet.worker.restart"], ">=", 2,
         "one restart for the SIGKILL, one for the hang-kill"),
    Gate("fleet_chaos", "chaos: delivery gap",
         lambda r: r["chaos"]["delivery_gap"], "==", 0,
         "the router counts each delivery once, whatever hedges and "
         "re-sends ran"),
    Gate("fleet_chaos", "overload: HIGH availability",
         lambda r: r["overload"]["high_availability"], ">=", 0.99,
         "the reserve admits the HIGH burst, sent at its worst case"),
    Gate("fleet_chaos", "overload: shed or browned out",
         lambda r: _low_pressure(r) + _by_priority(r, "normal", "shed"),
         ">=", 1, "a burst of twice the queue depth must overload it"),
    Gate("fleet_chaos", "overload: HIGH shed beyond LOW pressure",
         lambda r: _by_priority(r, "high", "shed") - _low_pressure(r),
         "<=", 0, "shedding must land on low priority first"),

    Gate("obs", "spans", lambda r: r["n_spans"], ">=", 1,
         "a traced arm without spans makes the overhead vacuous"),
    Gate("obs", "tracing overhead", lambda r: r["overhead_frac"], "<=", 0.05,
         "tracing every request may cost at most 5% of throughput"),
    Gate("obs", "attribution coverage", lambda r: r["attribution_coverage"],
         ">=", 0.95, "the stages must explain end-to-end latency"),
    Gate("obs", "unpredicted requests", lambda r: r["incomplete"], "==", 0,
         "with no faults and no result cache, every request is predicted"),
)


def evaluate(bench, results):
    """``(gate, measured value, tripped)`` for each GATES row of ``bench``."""
    rows = []
    for gate in GATES:
        if gate.bench == bench:
            value = gate.measure(results)
            rows.append((gate, value, value is not None
                         and not OPS[gate.op](value, gate.threshold)))
    return rows


def tripped(bench, results):
    """The GATES rows of ``bench`` that ``results`` trips."""
    return [gate for gate, _, trips in evaluate(bench, results) if trips]


# ----------------------------------------------------------------------
# Benches
# ----------------------------------------------------------------------
def engine_report(results):
    """The ``BENCH_engine.json`` report of one ``run_all`` result: the
    results plus the fast-path-over-loop-oracle ratios of this run."""
    return {
        "engine": "fast-path",
        "python": platform.python_version(),
        "results": results,
        "speedup_vs_loop_same_run": {
            f"{key}_plans_per_s": results[f"{key}_plans_per_s"]
            / results[f"{key}_reference_plans_per_s"]
            for key in SAME_RUN_KEYS},
        "featurization_cache_warm_over_cold": (
            results["featurize_cached_plans_per_s"]
            / results["featurize_plans_per_s"]),
        "experiment_warm_start_speedup":
            results["experiment_warm_start_speedup"],
        "plan_digest_us_per_plan": results["plan_digest_us_per_plan"],
    }


def run_engine(args):
    results = harness.run_all(n_queries=96 if args.quick else 192,
                              profile=args.profile)
    report = engine_report(results)
    for key in RATE_KEYS:
        print(f"  {key}: {results[key]:.1f}")
    for key, value in report["speedup_vs_loop_same_run"].items():
        print(f"  {key} vs same-run reference: {value:.2f}x")
    print(f"  inference_single_plan_ms: "
          f"{results['inference_single_plan_ms']:.3f}")
    print(f"  plan_digest_us_per_plan: "
          f"{results['plan_digest_us_per_plan']:.1f}")
    print(f"  experiment_warm_start: cold {results['experiment_cold_s']:.2f}s"
          f" -> warm {results['experiment_warm_s']:.2f}s "
          f"({report['experiment_warm_start_speedup']:.1f}x)")
    print(f"  cache_stats: {results['cache_stats']}")
    print(f"  dispatch: {results['dispatch_counters']}")
    return report


def run_chaos(args):
    db, records = harness.build_plan_corpus(
        n_queries=64 if args.quick else 192, seed=args.seed)
    return harness.bench_chaos(db, records, rounds=2 if args.quick else 4,
                               seed=args.seed, fault_seed=args.fault_seed,
                               trace=True)


def run_fleet(args):
    if args.quick:
        n_queries, worker_counts, repeats, startups = 64, (1, 2), 1, 3
    else:
        n_queries, worker_counts, repeats, startups = 192, (1, 2, 4), 2, 5
    db, records = harness.build_plan_corpus(n_queries=n_queries,
                                            seed=args.seed)
    results = harness.bench_fleet(db, records, worker_counts=worker_counts,
                                  rounds=2, repeats=repeats, seed=args.seed,
                                  startup_reps=startups)
    for count, rate in results["plans_per_s"].items():
        cpu = results["cpu_ms_per_plan"].get(count, {})
        print(f"  {count}: {rate:.0f} plans/s, CPU ms/plan: serving "
              f"process {cpu.get('server', 0):.3f}, "
              f"workers {cpu.get('workers', 0):.3f}")
    setup, restart = results["setup_ms"], results["restart_ms"]
    print(f"  2w set-up: first {setup['first']:.1f} ms, warm median "
          f"{setup['warm_median']:.1f} ms; restart median "
          f"{restart['median']:.1f} ms (reported, not gated)")
    return results


def run_controller(args):
    # The drift scenario is calibration-pinned: no seed reaches it.
    return harness.bench_controller(quick=args.quick, trace=True)


def run_fleet_chaos(args):
    db, records = harness.build_plan_corpus(
        n_queries=64 if args.quick else 160, seed=args.seed)
    return harness.bench_fleet_chaos(db, records, rounds=2, seed=args.seed,
                                     fault_seed=args.fault_seed, trace=True)


def run_obs(args):
    db, records = harness.build_plan_corpus(
        n_queries=64 if args.quick else 192, seed=args.seed)
    return harness.bench_obs(db, records, repeats=3 if args.quick else 5,
                             seed=args.seed)


BENCHES = {"engine": run_engine, "chaos": run_chaos, "fleet": run_fleet,
           "controller": run_controller, "fleet_chaos": run_fleet_chaos,
           "obs": run_obs}


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def write_artifacts(bench, results, output_dir):
    """Write ``BENCH_<bench>.json``, plus the span files of a traced bench
    (its ``spans`` entry is moved out of the JSON report)."""
    from repro.obs.export import write_chrome_trace, write_spans_jsonl

    output_dir.mkdir(parents=True, exist_ok=True)
    stem = output_dir / f"BENCH_{bench}"
    spans = results.pop("spans", None)
    if spans is not None:
        write_spans_jsonl(spans, f"{stem}_spans.jsonl")
        write_chrome_trace(spans, f"{stem}_trace.json")
        print(f"{len(spans)} spans written to {stem}_spans.jsonl and "
              f"{stem}_trace.json")
    Path(f"{stem}.json").write_text(json.dumps(results, indent=2) + "\n")
    print(f"report written to {stem}.json")


def parse_args(argv=None):
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quick", action="store_true",
                        help="smaller corpus and fewer rounds for a fast "
                             "signal (what CI runs)")
    common.add_argument("--output-dir", type=Path, default=REPO,
                        help="where BENCH_<bench>*.json(l) go "
                             "(default: the repository root)")
    # Only the benches a seed reaches take one: the engine corpus and the
    # controller's drift scenario are pinned.
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0,
                        help="corpus/load seed")
    faulted = argparse.ArgumentParser(add_help=False)
    faulted.add_argument("--fault-seed", type=int, default=1,
                         help="fault-schedule seed")
    parents = {"engine": [], "chaos": [seeded, faulted], "fleet": [seeded],
               "controller": [], "fleet_chaos": [seeded, faulted],
               "obs": [seeded]}
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    benches = parser.add_subparsers(dest="bench", required=True)
    for name in BENCHES:
        benches.add_parser(name, parents=[common, *parents[name]])
    benches.choices["engine"].add_argument(
        "--profile", action="store_true",
        help="print a cProfile top-20 per benchmark stage")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    results = BENCHES[args.bench](args)
    write_artifacts(args.bench, results, args.output_dir)
    rows = evaluate(args.bench, results)
    for gate, value, trips in rows:
        status = "n/a" if value is None else "TRIPPED" if trips else "ok"
        shown = f"{value:.4g}" if isinstance(value, float) else value
        print(f"  [{status}] {gate.name}: {shown} "
              f"(gate {gate.op} {gate.threshold})")
    failed = [gate for gate, _, trips in rows if trips]
    for gate in failed:
        print(f"{args.bench.upper()} FAILURE: {gate.name} — {gate.reason}")
    if failed:
        return 1
    print(f"{args.bench} run passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
