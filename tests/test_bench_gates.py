"""Self-test of the perf benches' ``GATES`` table (no bench runs).

Every row of ``benchmarks/perf/run.py``'s ``GATES`` is checked on
synthetic results: a clean result trips nothing, and breaking exactly one
row's property trips exactly that row.  A row added without a break here
fails ``test_every_row_has_a_break``.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parent.parent / "benchmarks" / "perf" / "run.py"
_spec = importlib.util.spec_from_file_location("perf_run", RUN_PY)
perf_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_run)

AUDIT_CLEAN = {"wrong_values": 0, "lost": 0, "duplicated": 0}

CLEAN = {
    "chaos": {
        **AUDIT_CLEAN, "availability": 1.0, "batcher_crashes": 1,
        "retries": 2,
        "fault_stats": {"serve.batcher": {"faults": 1},
                        "serve.infer": {"faults": 2}},
    },
    "fleet": {**AUDIT_CLEAN, "incomplete": 0, "cpu_count": 2,
              "top_scaling": 1.44},
    "controller": {
        "happy_kinds": list(perf_run.HAPPY_PATH), "wrong_promotions": 0,
        "replay_identical": True,
        "regression": {"rolled_back": True, "within_probation": True},
        "availability_during_retrain": 1.0,
        "daemon": {"crashes": 0, "graduated": True},
        "ticks_to_recover": 1, "n_spans": 720,
        "events": [{"kind": "drift-detected", "detail": {"trace_id": "9f"}},
                   {"kind": "promoted", "detail": {}}],
    },
    "fleet_chaos": {
        "chaos": {**AUDIT_CLEAN, "availability": 1.0, "delivery_gap": 0},
        "counters": {"fleet.hang.detected": 1, "fleet.hang.killed": 1,
                     "fleet.hedge.sent": 10, "fleet.worker.restart": 2},
        "overload": {
            **AUDIT_CLEAN, "high_availability": 1.0,
            "by_priority": {"high": {"shed": 0, "degraded": 0},
                            "normal": {"shed": 12, "degraded": 0},
                            "low": {"shed": 0, "degraded": 20}},
        },
    },
    "obs": {"n_spans": 320, "overhead_frac": 0.02,
            "attribution_coverage": 0.997, "incomplete": 0},
}


def _set(path, value):
    def mutate(result):
        *parents, leaf = path
        for key in parents:
            result = result[key]
        result[leaf] = value
    return mutate


def _drop_trace_id(result):
    result["events"][0]["detail"] = {}


def _shed_high(result):
    result["overload"]["by_priority"]["high"]["shed"] = 21


# (bench, row name, how to break only that row's property)
BREAKS = [
    ("chaos", "wrong values", _set(["wrong_values"], 1)),
    ("chaos", "lost requests", _set(["lost"], 1)),
    ("chaos", "duplicated requests", _set(["duplicated"], 1)),
    ("chaos", "availability", _set(["availability"], 0.98)),
    ("chaos", "faults fired", _set(["fault_stats"], {"serve.infer":
                                                     {"faults": 0}})),
    ("chaos", "batcher crashes", _set(["batcher_crashes"], 0)),
    ("chaos", "retries", _set(["retries"], 0)),
    ("fleet", "wrong values", _set(["wrong_values"], 1)),
    ("fleet", "lost requests", _set(["lost"], 1)),
    ("fleet", "duplicated requests", _set(["duplicated"], 1)),
    ("fleet", "unpredicted requests", _set(["incomplete"], 1)),
    ("fleet", "scaling over 1 worker", _set(["top_scaling"], 1.2)),
    ("controller", "happy path",
     _set(["happy_kinds"], ["drift-detected", "candidate-published"])),
    ("controller", "wrong promotions", _set(["wrong_promotions"], 1)),
    ("controller", "replay identical", _set(["replay_identical"], False)),
    ("controller", "rollback within probation",
     _set(["regression", "rolled_back"], False)),
    ("controller", "daemon availability",
     _set(["availability_during_retrain"], 0.98)),
    ("controller", "daemon crashes", _set(["daemon", "crashes"], 1)),
    ("controller", "daemon graduated", _set(["daemon", "graduated"], False)),
    ("controller", "ticks to recover", _set(["ticks_to_recover"], 9)),
    ("controller", "drift trace ids", _drop_trace_id),
    ("fleet_chaos", "chaos: wrong values", _set(["chaos", "wrong_values"], 1)),
    ("fleet_chaos", "chaos: lost requests", _set(["chaos", "lost"], 1)),
    ("fleet_chaos", "chaos: duplicated requests",
     _set(["chaos", "duplicated"], 1)),
    ("fleet_chaos", "overload: wrong values",
     _set(["overload", "wrong_values"], 1)),
    ("fleet_chaos", "overload: lost requests", _set(["overload", "lost"], 1)),
    ("fleet_chaos", "overload: duplicated requests",
     _set(["overload", "duplicated"], 1)),
    ("fleet_chaos", "chaos: availability",
     _set(["chaos", "availability"], 0.98)),
    ("fleet_chaos", "chaos: hangs detected",
     _set(["counters", "fleet.hang.detected"], 0)),
    ("fleet_chaos", "chaos: hangs killed",
     _set(["counters", "fleet.hang.killed"], 0)),
    ("fleet_chaos", "chaos: hedges sent",
     _set(["counters", "fleet.hedge.sent"], 0)),
    ("fleet_chaos", "chaos: worker restarts",
     _set(["counters", "fleet.worker.restart"], 1)),
    ("fleet_chaos", "chaos: delivery gap", _set(["chaos", "delivery_gap"], -8)),
    ("fleet_chaos", "overload: HIGH availability",
     _set(["overload", "high_availability"], 0.98)),
    ("fleet_chaos", "overload: shed or browned out",
     _set(["overload", "by_priority"], {"high": {}, "normal": {},
                                        "low": {}})),
    ("fleet_chaos", "overload: HIGH shed beyond LOW pressure", _shed_high),
    ("obs", "spans", _set(["n_spans"], 0)),
    ("obs", "tracing overhead", _set(["overhead_frac"], 0.06)),
    ("obs", "attribution coverage", _set(["attribution_coverage"], 0.94)),
    ("obs", "unpredicted requests", _set(["incomplete"], 1)),
]


def test_every_row_has_a_break():
    rows = [(gate.bench, gate.name) for gate in perf_run.GATES]
    assert len(rows) == len(set(rows))
    assert sorted(rows) == sorted((bench, name) for bench, name, _ in BREAKS)


@pytest.mark.parametrize("bench", sorted(CLEAN))
def test_clean_result_trips_nothing(bench):
    assert perf_run.tripped(bench, CLEAN[bench]) == []


@pytest.mark.parametrize("bench,name,mutate", BREAKS,
                         ids=[f"{b}/{n}" for b, n, _ in BREAKS])
def test_breaking_one_property_trips_exactly_its_row(bench, name, mutate):
    result = copy.deepcopy(CLEAN[bench])
    mutate(result)
    assert [gate.name for gate in perf_run.tripped(bench, result)] == [name]


def test_scaling_row_does_not_apply_on_one_cpu():
    result = dict(CLEAN["fleet"], cpu_count=1, top_scaling=0.7)
    assert perf_run.tripped("fleet", result) == []


def test_drift_row_does_not_apply_untraced():
    result = copy.deepcopy(CLEAN["controller"])
    result["n_spans"] = 0
    _drop_trace_id(result)
    assert perf_run.tripped("controller", result) == []


def test_missing_promotion_trips_the_happy_path_row():
    """A scenario that never promoted has no recovery tick count; the
    happy-path row, not a crash, reports it."""
    result = copy.deepcopy(CLEAN["controller"])
    result["happy_kinds"] = ["drift-detected", "candidate-published"]
    result["ticks_to_recover"] = None
    assert [gate.name for gate in perf_run.tripped("controller", result)] == [
        "happy path"]


def test_artifacts_land_at_fixed_paths(tmp_path):
    # The output directory need not exist yet: write_artifacts makes it.
    out = tmp_path / "nested" / "out"
    perf_run.write_artifacts("obs", dict(CLEAN["obs"], spans=[]), out)
    assert sorted(p.name for p in out.iterdir()) == [
        "BENCH_obs.json", "BENCH_obs_spans.jsonl", "BENCH_obs_trace.json"]
    assert json.loads((out / "BENCH_obs.json").read_text()) == CLEAN["obs"]
    perf_run.write_artifacts("fleet", dict(CLEAN["fleet"]), out)
    assert (out / "BENCH_fleet.json").exists()
    assert not (out / "BENCH_fleet_spans.jsonl").exists()


def test_engine_flags_belong_to_engine_only():
    args = perf_run.parse_args(["engine", "--quick", "--profile"])
    assert args.quick and args.profile
    with pytest.raises(SystemExit):
        perf_run.parse_args(["chaos", "--profile"])
    for flag in ("--save-baseline", "--save-loop-baseline"):
        with pytest.raises(SystemExit):
            perf_run.parse_args(["engine", flag])
    with pytest.raises(SystemExit):
        perf_run.parse_args(["--quick"])


def test_engine_report_compares_only_against_same_run_oracles():
    """The engine report built from synthetic ``run_all``-shaped results
    (no bench runs) carries the five same-run ratios, the plan digest cost
    and no seed key."""
    results = dict.fromkeys(perf_run.RATE_KEYS, 4.0)
    results.update({f"{key}_reference_plans_per_s": 2.0
                    for key in perf_run.SAME_RUN_KEYS})
    results.update(experiment_warm_start_speedup=30.0,
                   plan_digest_us_per_plan=12.5)
    report = perf_run.engine_report(results)
    assert report["speedup_vs_loop_same_run"] == {
        f"{key}_plans_per_s": 2.0
        for key in ("trace_exec", "featurize", "annotate", "train_step",
                    "train_epoch")}
    assert report["results"] is results
    assert report["plan_digest_us_per_plan"] == 12.5  # reported, not gated
    assert not [key for key in report if "seed" in key]


def test_seed_flags_only_where_a_seed_reaches():
    args = perf_run.parse_args(["chaos", "--seed", "3", "--fault-seed", "5"])
    assert (args.seed, args.fault_seed) == (3, 5)
    assert perf_run.parse_args(["obs", "--seed", "2"]).seed == 2
    for argv in (["engine", "--seed", "1"], ["controller", "--seed", "1"],
                 ["fleet", "--fault-seed", "1"], ["obs", "--fault-seed", "1"]):
        with pytest.raises(SystemExit):
            perf_run.parse_args(argv)
