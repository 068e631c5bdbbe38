"""End-to-end benchmark of the zero-shot cost model: offline loop + serving.

Run from the repository root::

    python3 perfbench/run.py --workload serve_fresh --seed 1 --seconds 10 \
        --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separately traced run.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it are a human-readable table and the run's settings.  See
``perfbench/README.md`` for the workloads and metric definitions.

Hygiene: the run re-executes itself with ``PYTHONHASHSEED=0`` (the planner
breaks ties by set order), caps ``REPRO_PARALLEL`` at the CPU count, unsets
``REPRO_ARTIFACT_DIR`` so nothing is hydrated from an earlier run, and
keeps its scratch files (the serving registry) under ``.perfbench_work/``
in the checkout, removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HASH_SEED = "0"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_environment(argv):
    """Re-exec under a pinned hash seed; cap parallelism; no disk store."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()), *argv], env)
    cpus = len(os.sched_getaffinity(0))
    try:
        parallel = int(os.environ.get("REPRO_PARALLEL", cpus))
    except ValueError:
        parallel = cpus
    os.environ["REPRO_PARALLEL"] = str(max(1, min(parallel, cpus)))
    os.environ.pop("REPRO_ARTIFACT_DIR", None)


def settings():
    import numpy
    with open("/proc/meminfo") as meminfo:
        mem_kb = int(meminfo.readline().split()[1])
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "memory_gb": round(mem_kb / 2**20, 2),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "REPRO_PARALLEL": os.environ.get("REPRO_PARALLEL"),
        "artifact_store": "none (fresh in-memory engine)",
    }


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as spec:
        declared = json.load(spec)
    pin_environment(argv)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads  # noqa: E402 — needs the paths above

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        results = workloads.run(args.workload, args.seed, args.seconds,
                                bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    report = results["audit"]
    correct = report.correct and results["qerror_repeat"]
    values = results["layers"] if args.trace else results
    metrics = {metric["name"]: {"value": float(values[metric["name"]]),
                                "unit": metric["unit"]}
               for metric in declared[
                   "per_layer" if args.trace else "end_to_end"]}
    print(f"settings: {json.dumps(settings())}")
    print(f"audit: checked {report.checked} model answers, wrong "
          f"{report.wrong}, lost {report.lost}, unanswered "
          f"{report.unanswered}, qerror repeat {results['qerror_repeat']}")
    for example in report.examples:
        print(f"audit mismatch: {example}")
    print(f"load: {json.dumps(results['info'])}")
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(report.attempted),
        # Requests not answered correctly by the model.
        "failed": int(report.attempted - (report.checked - report.wrong)),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
