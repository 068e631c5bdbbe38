"""Entry point: run the fleet scaling benchmark and write ``BENCH_fleet.json``.

Usage::

    PYTHONPATH=src python benchmarks/perf/fleet.py           # full corpus
    PYTHONPATH=src python benchmarks/perf/fleet.py --quick   # CI smoke

Drives :func:`harness.bench_fleet`: a fresh
:class:`~repro.serving.PredictorFleet` per worker count, saturation load
from the open-loop generator, result cache off so every request pays the
real mmap-hydrated inference path in a worker process.  Every delivered
value is audited against a direct ``predict_runtimes`` call inside the
harness — a single wrong value raises before this script even sees the
numbers.  The run **fails** (non-zero exit) when

* the harness audit raised (lost requests or wrong values — the fleet
  equivalence contract), or
* multi-worker throughput does not beat one worker by ``--min-scaling``
  (default 1.3x) — checked only when the machine actually has more than
  one CPU; a single-core box (or a CI runner pinned to one core) records
  its honest ~1x and passes with a note, because fork-based scaling
  without cores to scale onto is not a regression.

The JSON report records plans/s per worker count, the scaling ratios, the
``fleet.*`` router counters, and per-count latency percentiles.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(HERE))

DEFAULT_OUTPUT = REPO / "BENCH_fleet.json"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--quick", action="store_true",
                        help="smaller corpus, 1-vs-2-worker smoke")
    parser.add_argument("--seed", type=int, default=0, help="corpus/load seed")
    parser.add_argument("--min-scaling", type=float, default=1.3,
                        help="required multi-worker speedup over 1 worker "
                             "(enforced only on multi-CPU machines)")
    args = parser.parse_args(argv)

    from harness import bench_fleet, build_plan_corpus

    if args.quick:
        n_queries, worker_counts, rounds, repeats = 64, (1, 2), 2, 1
    else:
        n_queries, worker_counts, rounds, repeats = 192, (1, 2, 4), 2, 2
    db, records = build_plan_corpus(n_queries=n_queries, seed=args.seed)
    # bench_fleet raises on any lost request or wrong value (the audit
    # against direct predict_runtimes) — that check runs unconditionally.
    rates, extras = bench_fleet(db, records, worker_counts=worker_counts,
                                rounds=rounds, repeats=repeats,
                                seed=args.seed)

    cpus = os.cpu_count() or 1
    top = max(worker_counts)
    scaling = {f"{count}w": rates[count] / rates[1]
               for count in worker_counts if rates.get(1)}
    results = {
        "n_queries": n_queries,
        "rounds": rounds,
        "cpu_count": cpus,
        "plans_per_s": {f"{count}w": rates[count]
                        for count in worker_counts},
        "scaling_vs_1w": scaling,
        "wrong_values": 0,  # bench_fleet raises otherwise
        "extras": extras,
    }
    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"fleet report written to {args.output}")
    for count in worker_counts:
        line = f"  {count} worker(s): {rates[count]:.1f} plans/s"
        if count > 1 and rates.get(1):
            line += f"  ({rates[count] / rates[1]:.2f}x vs 1 worker)"
        print(line)
    print(f"  wrong values: 0 (audited against direct predict_runtimes)")
    counters = extras.get("fleet_counters", {})
    print(f"  router: spawns {counters.get('fleet.worker.spawn', 0)}, "
          f"restarts {counters.get('fleet.worker.restart', 0)}")

    top_scaling = rates[top] / rates[1] if rates.get(1) else 0.0
    if cpus < 2:
        print(f"fleet run passed (scaling check skipped: {cpus} CPU — "
              f"observed {top_scaling:.2f}x at {top} workers)")
        return 0
    if top_scaling < args.min_scaling:
        print(f"FLEET FAILURE: {top} workers scaled {top_scaling:.2f}x "
              f"over 1 worker on a {cpus}-CPU machine "
              f"(floor {args.min_scaling}x)")
        return 1
    print(f"fleet run passed ({top_scaling:.2f}x at {top} workers, "
          f"floor {args.min_scaling}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
