"""Entry point: run the fleet liveness-chaos benchmark, write
``BENCH_fleet_chaos.json``.

Usage::

    PYTHONPATH=src python benchmarks/perf/fleet_chaos.py          # full
    PYTHONPATH=src python benchmarks/perf/fleet_chaos.py --quick  # CI smoke

Drives :func:`harness.bench_fleet_chaos`: one published model, every
delivered value audited against a direct ``predict_runtimes`` oracle, and
two hostile phases —

* **liveness chaos**: a worker hangs forever mid-run (gray failure),
  another is SIGKILLed outright, and a deterministic schedule drops
  pinned messages on both pipe directions; hedged requests, hang
  detection and restart-with-re-send must recover every request;
* **overload**: a non-blocking burst of twice the queue depth against
  stalled workers, with a HIGH/NORMAL/LOW priority mix sized to a
  bounded queue with a HIGH reserve and LOW brownout; HIGH availability
  must stay >= 0.99 while shedding concentrates on the low classes.

The run **fails** (non-zero exit) on any wrong value, any lost or
duplicated request, chaos availability < 0.99, missing hang/hedge/restart
counter activity, HIGH availability < 0.99 under overload, or shedding
that does not concentrate on low priority.  The failure list is embedded
in the JSON report.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(HERE))

DEFAULT_OUTPUT = REPO / "BENCH_fleet_chaos.json"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--spans-jsonl", type=Path,
                        default=REPO / "BENCH_fleet_chaos_spans.jsonl")
    parser.add_argument("--perfetto", type=Path,
                        default=REPO / "BENCH_fleet_chaos_trace.json")
    parser.add_argument("--no-trace", action="store_true",
                        help="skip span recording and trace artifacts")
    parser.add_argument("--quick", action="store_true",
                        help="smaller corpus for CI smoke")
    parser.add_argument("--seed", type=int, default=0, help="corpus/load seed")
    parser.add_argument("--fault-seed", type=int, default=1,
                        help="fault schedule seed")
    args = parser.parse_args(argv)

    from harness import bench_fleet_chaos, build_plan_corpus

    from repro.obs.export import write_chrome_trace, write_spans_jsonl

    n_queries, rounds = (64, 2) if args.quick else (160, 2)
    db, records = build_plan_corpus(n_queries=n_queries, seed=args.seed)
    results = bench_fleet_chaos(db, records, rounds=rounds, seed=args.seed,
                                fault_seed=args.fault_seed,
                                trace=not args.no_trace)
    results["n_queries"] = n_queries

    spans = results["chaos"].pop("spans")
    if spans:
        write_spans_jsonl(spans, args.spans_jsonl)
        write_chrome_trace(spans, args.perfetto)
        print(f"trace artifacts: {args.spans_jsonl} / {args.perfetto} "
              f"({len(spans)} spans)")
    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"fleet chaos report written to {args.output}")
    chaos, overload = results["chaos"], results["overload"]
    print(f"  chaos: availability {chaos['availability']:.4f}, "
          f"hangs {chaos['hangs']}, hedges {chaos['hedges']} "
          f"(wins {chaos['hedge_wins']}), "
          f"restarts {chaos['worker_restarts']}, "
          f"requeued {chaos['requeued']}")
    print(f"  overload: capacity {overload['capacity_rps']:.1f} plans/s, "
          f"burst of {overload['burst_requests']} requests, "
          f"HIGH availability {overload['high_availability']:.4f}")
    for name, summary in sorted(overload["by_priority"].items()):
        print(f"    {name:>6}: {summary['requests']} requests, "
              f"{summary['delivered']} delivered, {summary['shed']} shed, "
              f"{summary['degraded']} degraded "
              f"(availability {summary['availability']:.4f})")
    if results["failures"]:
        for failure in results["failures"]:
            print(f"FLEET CHAOS FAILURE: {failure}")
        return 1
    print("fleet chaos run passed (0 wrong values, 0 lost, 0 duplicated)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
