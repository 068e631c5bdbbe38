"""Observability plane: spans, mergeable metrics, attribution, catalog.

The load-bearing contracts:

* **Passivity** — tracing records timings and annotations, never values:
  every DONE/CACHED delivery under tracing is bit-identical to a direct
  ``predict_runtimes`` call (the serving equivalence contract holds with
  spans on).
* **Determinism** — trace ids derive from (plan digest, submit sequence),
  so two runs of the same request schedule — including a seeded chaos
  schedule — produce the *same span structure* (ids, parentage,
  annotations); only timestamps differ.
* **Exact merge** — histograms use fixed log-bucket boundaries, so
  per-worker histograms merged at the router give the same percentiles a
  single observer would have computed; workers ship snapshot *deltas*,
  so nothing is ever double-counted.
* **No doc drift** — the counter catalog (``repro.obs.catalog``) must
  match both the names the source tree actually fires and the names
  README/ROADMAP document.
"""

import multiprocessing
import re
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import perfstats
from repro.core import TrainingConfig, ZeroShotCostModel, featurize_records
from repro.core.model import ZeroShotModel
from repro.core.training import predict_runtimes
from repro.datagen import generate_database, random_database_spec
from repro.featurization import FeatureScalers, TargetScaler
from repro.obs import (DEFAULT_LATENCY_BOUNDARIES_MS, MetricsRegistry,
                       Tracer, latency_attribution, slo_report,
                       span_structure, trace_id_for)
from repro.obs import catalog
from repro.obs.export import chrome_trace_events
from repro.obs.metrics import snapshot_delta
from repro.obs.trace import TraceContext
from repro.robustness.faults import POINTS, FaultSchedule, FaultSpec
from repro.serving import (LoadConfig, ModelRegistry, PredictorServer,
                           RequestStatus, ServerConfig, run_load)
from repro.workloads import WorkloadConfig, WorkloadGenerator, generate_trace

REPO = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Metrics registry: exact merges, delta shipping, perfstats facade
# ----------------------------------------------------------------------
class TestMetrics:
    def test_histogram_merge_is_exact(self):
        """The router-merged percentile equals the single-observer one."""
        whole = MetricsRegistry()
        parts = [MetricsRegistry() for _ in range(3)]
        rng = np.random.default_rng(0)
        for i, sample in enumerate(rng.uniform(0.01, 5000.0, size=300)):
            whole.observe("serve.latency_ms", float(sample))
            parts[i % 3].observe("serve.latency_ms", float(sample))
        router = MetricsRegistry()
        for part in parts:
            router.merge(part.snapshot())
        merged = router.histogram("serve.latency_ms")
        direct = whole.histogram("serve.latency_ms")
        assert merged.counts == direct.counts
        for p in (50, 90, 95, 99):
            assert merged.percentile(p) == direct.percentile(p)

    def test_histogram_merge_rejects_mismatched_boundaries(self):
        registry = MetricsRegistry()
        h = registry.histogram("x", boundaries=(1.0, 2.0))
        with pytest.raises(ValueError):
            h.merge_counts((1.0, 3.0), [0, 0, 0], 0, 0.0)

    def test_snapshot_delta_never_double_counts(self):
        """Merging every delta == merging the final snapshot once."""
        worker = MetricsRegistry()
        router = MetricsRegistry()
        shipped = None
        for round_ in range(4):
            for _ in range(round_ + 1):
                worker.increment("serve.batch.count")
                worker.observe("serve.batch_ms", float(round_ + 1))
            current = worker.snapshot()
            router.merge(snapshot_delta(current, shipped))
            shipped = current
        assert (router.counter_values(["serve.batch.count"])
                ["serve.batch.count"] == 10)
        assert router.histogram("serve.batch_ms").total == 10

    def test_perfstats_facade(self):
        perfstats.increment("obs_test.facade", 3)
        assert perfstats.snapshot()["obs_test.facade"] == 3
        # Missing names read as zero (defaultdict compatibility).
        snap = perfstats.snapshot(["obs_test.facade", "obs_test.never"])
        assert snap == {"obs_test.facade": 3, "obs_test.never": 0}

    def test_perfstats_snapshot_is_race_free(self):
        """Concurrent increments during snapshots lose nothing."""
        perfstats.increment("obs_test.race", 0)
        stop = threading.Event()
        errors = []

        def reader():
            try:
                while not stop.is_set():
                    perfstats.snapshot(["obs_test.race"])
                    perfstats.snapshot()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for _ in range(2000):
            perfstats.increment("obs_test.race")
        stop.set()
        for t in threads:
            t.join()
        assert not errors
        assert perfstats.snapshot(["obs_test.race"])["obs_test.race"] == 2000

    def test_default_boundaries_strictly_increasing(self):
        b = DEFAULT_LATENCY_BOUNDARIES_MS
        assert all(y > x for x, y in zip(b, b[1:]))


# ----------------------------------------------------------------------
# Trace primitives: deterministic structure, timing-independence
# ----------------------------------------------------------------------
def _play_schedule(jitter):
    """One synthetic request schedule; ``jitter`` shifts every timestamp."""
    tracer = Tracer()
    for seq, digest in enumerate([b"\x01" * 8, b"\x02" * 8, b"\x01" * 8]):
        ctx = tracer.context_for(digest, seq, db_name="db", priority="normal",
                                 submitted_at=10.0 * seq + jitter)
        start = 10.0 * seq + jitter
        ctx.add_stage("queue", start, start + 1.0 + jitter, "server")
        ctx.add_stage("featurize", start + 1.0, start + 2.0, "server")
        ctx.add_stage("infer", start + 2.0, start + 3.0, "server")
        if seq == 1:
            ctx.annotate("retry")
        ctx.finalize(start + 4.0, status="done")
    return tracer.drain()


class TestTracePrimitives:
    def test_trace_ids_deterministic(self):
        assert trace_id_for(b"abc", 7) == trace_id_for(b"abc", 7)
        assert trace_id_for(b"abc", 7) != trace_id_for(b"abc", 8)
        assert trace_id_for(b"abd", 7) != trace_id_for(b"abc", 7)

    def test_span_structure_is_timing_independent(self):
        """Same schedule, different wall timings -> identical structure."""
        first, second = _play_schedule(0.0), _play_schedule(0.37)
        assert span_structure(first) == span_structure(second)
        # ... but the timestamps genuinely differ.
        assert first[0].start != second[0].start

    def test_repeat_stage_names_get_distinct_span_ids(self):
        ctx = TraceContext("t" * 16, "req")
        ctx.add_stage("infer", 0.0, 1.0, "w")
        ctx.add_stage("infer", 2.0, 3.0, "w")
        ctx.finalize(4.0, status="done")
        # finalize with no tracer attached records nothing; build spans by
        # attaching to a tracer instead.
        tracer = Tracer()
        ctx2 = tracer.context_for(b"x" * 8, 0)
        ctx2.add_stage("infer", 0.0, 1.0, "w")
        ctx2.add_stage("infer", 2.0, 3.0, "w")
        ctx2.finalize(4.0, status="done")
        spans = tracer.drain()
        infer_ids = [s.span_id for s in spans if s.name == "infer"]
        assert len(infer_ids) == 2 and len(set(infer_ids)) == 2

    def test_chrome_trace_events_have_process_metadata(self):
        events = chrome_trace_events(_play_schedule(0.0))
        kinds = {e["ph"] for e in events}
        assert kinds == {"X", "M"}
        assert all(e["dur"] >= 0 for e in events if e["ph"] == "X")

    def test_attribution_and_slo_shapes(self):
        report = latency_attribution(_play_schedule(0.0))
        overall = report["overall"]
        assert overall["requests"] == 3
        assert overall["coverage"] == pytest.approx(1.0)
        assert set(overall["stages"]) == {"queue", "featurize", "infer",
                                          "deliver"}
        assert "db/normal" in report["by_class"]
        slo = slo_report(delivered=99, submitted=100,
                         availability_floor=0.99,
                         latency_p95_ms=10.0, latency_p95_floor_ms=20.0)
        assert slo["availability_burn"] == pytest.approx(1.0)
        assert slo["latency_met"] and slo["met"]


# ----------------------------------------------------------------------
# Served tracing: passivity, sampling, zero cost off, chaos replay
# ----------------------------------------------------------------------
def _make_world():
    db = generate_database(random_database_spec(
        "obs_db", seed=13, layout="snowflake", base_rows=400, n_tables=4,
        complexity=0.6))
    queries = WorkloadGenerator(db, WorkloadConfig(max_joins=2),
                                seed=3).generate(12)
    records = list(generate_trace(db, queries, seed=3))
    dbs = {db.name: db}
    graphs = featurize_records(records, dbs, cards="exact")
    runtimes = np.array([r.runtime_ms for r in records])
    model = ZeroShotModel(hidden_dim=24, seed=0).eval()
    model.to(np.dtype("float32"))
    cost_model = ZeroShotCostModel(model, FeatureScalers().fit(graphs),
                                   TargetScaler().fit(runtimes),
                                   TrainingConfig(hidden_dim=24,
                                                  dtype="float32"))
    expected = predict_runtimes(cost_model.model, graphs,
                                cost_model.feature_scalers,
                                cost_model.target_scaler, batch_cache=False)
    return db, dbs, records, cost_model, {
        id(r.plan): float(v) for r, v in zip(records, expected)}


@pytest.fixture(scope="module")
def world():
    db, dbs, records, model, expected = _make_world()
    return {"db": db, "dbs": dbs, "records": records, "model": model,
            "expected": expected}


def _publish(world, root):
    registry = ModelRegistry(root)
    registry.publish("obs", world["model"], dbs=[world["db"]], default=True)
    return registry


class TestServedTracing:
    def test_traced_values_bit_identical_with_attribution(self, world,
                                                          tmp_path):
        registry = _publish(world, tmp_path)
        requests = [(world["db"].name, r.plan) for r in world["records"]] * 2
        config = ServerConfig(result_cache_size=0)
        with PredictorServer(registry, world["dbs"], config) as server:
            report = run_load(server, requests,
                              LoadConfig(n_clients=2, block=True),
                              trace=True)
        assert report.completed == len(requests)
        for handle in report.handles:
            assert handle.status is RequestStatus.DONE
            assert handle.value == world["expected"][id(handle.plan)]
        overall = report.latency_attribution["overall"]
        assert overall["requests"] == len(requests)
        # The acceptance gate: stages explain >= 95% of end-to-end time.
        assert overall["coverage"] >= 0.95
        assert {"queue", "featurize", "infer"} <= set(overall["stages"])

    def test_zero_cost_when_disabled(self, world, tmp_path):
        registry = _publish(world, tmp_path)
        with PredictorServer(registry, world["dbs"]) as server:
            handle = server.submit(world["records"][0].plan,
                                   world["db"].name, block=True)
            handle.result()
            assert handle.trace is None
            assert server.tracer is None

    def test_sampling_traces_every_nth_request(self, world, tmp_path):
        registry = _publish(world, tmp_path)
        config = ServerConfig(result_cache_size=0)
        with PredictorServer(registry, world["dbs"], config) as server:
            server.attach_tracer(Tracer(sample_every=2))
            for record in world["records"]:
                server.submit(record.plan, world["db"].name,
                              block=True).result()
            spans = server.tracer.drain()
        roots = [s for s in spans if s.name == "request"]
        assert len(roots) == len(world["records"]) // 2

    def test_cache_hit_annotated(self, world, tmp_path):
        registry = _publish(world, tmp_path)
        with PredictorServer(registry, world["dbs"]) as server:  # cache on
            server.attach_tracer(Tracer())
            first = server.submit(world["records"][0].plan,
                                  world["db"].name, block=True)
            first.result()
            second = server.submit(world["records"][0].plan,
                                   world["db"].name, block=True)
            second.result()
            spans = server.tracer.drain()
        assert second.status is RequestStatus.CACHED
        cached_root = [s for s in spans if s.name == "request"
                       and "cache.hit" in s.annotations]
        assert len(cached_root) == 1
        assert cached_root[0].trace_id == second.trace.trace_id

    def _chaos_spans(self, world, root):
        """One traced, seeded chaos run; sequential submission order."""
        registry = _publish(world, root)
        schedule = FaultSchedule([
            FaultSpec("serve.infer", rate=1.0, skip_calls=2, max_faults=2,
                      message="obs chaos"),
        ], seed=5)
        config = ServerConfig(result_cache_size=0, max_batch_size=1,
                              max_retries=3, retry_backoff_ms=0.25)
        requests = [(world["db"].name, r.plan) for r in world["records"]]
        with PredictorServer(registry, world["dbs"], config) as server:
            report = run_load(server, requests,
                              LoadConfig(n_clients=1, block=True,
                                         faults=schedule),
                              trace=True)
        assert report.completed == len(requests)
        return report.spans

    def test_chaos_replay_has_identical_span_structure(self, world,
                                                       tmp_path):
        """Same seeded schedule twice -> same ids/parentage/annotations."""
        first = self._chaos_spans(world, tmp_path / "a")
        second = self._chaos_spans(world, tmp_path / "b")
        assert span_structure(first) == span_structure(second)
        # The chaos run must actually have left marks to compare: pinned
        # inference faults force retries (and their backoff stages).
        annotations = {a for s in first for a in s.annotations}
        assert "retry" in annotations
        assert any(s.name == "backoff" for s in first)


# ----------------------------------------------------------------------
# Fleet tracing: worker stages ride the wire, deltas merge exactly
# ----------------------------------------------------------------------
fleet_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fleet requires fork start method")


@fleet_only
class TestFleetTracing:
    def test_worker_stages_ride_the_wire(self, world, tmp_path):
        """Fleet spans include worker-side stages (recv/featurize/infer)
        tagged with the worker's proc label, values stay
        bit-identical, and worker metric deltas merge exactly."""
        from repro.obs.metrics import REGISTRY
        from repro.serving import PredictorFleet

        registry = _publish(world, tmp_path)
        config = ServerConfig(result_cache_size=0)
        before = REGISTRY.histogram("serve.latency_ms").total
        with PredictorFleet(registry, world["dbs"], config,
                            n_workers=1) as fleet:
            fleet.attach_tracer(Tracer())
            for record in world["records"]:
                handle = fleet.submit(record.plan, world["db"].name,
                                      block=True)
                assert handle.result(60) == world["expected"][
                    id(record.plan)]
            fleet.stats()  # polls workers -> ships metric deltas
            spans = fleet.tracer.drain()
        names = {s.name for s in spans}
        assert {"queue", "worker.recv", "featurize", "infer"} <= names
        worker_procs = {s.proc for s in spans if s.name == "infer"}
        assert worker_procs == {"worker-0"}
        overall = latency_attribution(spans)["overall"]
        assert overall["requests"] == len(world["records"])
        assert overall["coverage"] >= 0.95
        # Delta merge exactness: the router-side histogram grew by
        # exactly one observation per delivered request.
        after = REGISTRY.histogram("serve.latency_ms").total
        assert after - before == len(world["records"])

    def _fleet_chaos_spans(self, world, root):
        from repro.serving import PredictorFleet

        registry = _publish(world, root)
        schedule = FaultSchedule([
            FaultSpec("serve.infer", rate=1.0, skip_calls=2, max_faults=2,
                      message="obs fleet chaos"),
        ], seed=7)
        config = ServerConfig(result_cache_size=0, max_batch_size=1,
                              max_retries=3, retry_backoff_ms=0.25)
        with PredictorFleet(registry, world["dbs"], config, n_workers=1,
                            fault_schedule=schedule) as fleet:
            fleet.attach_tracer(Tracer())
            for record in world["records"]:
                fleet.submit(record.plan, world["db"].name,
                             block=True).result(60)
            return fleet.tracer.drain()

    def test_fleet_chaos_replay_identical_structure(self, world, tmp_path):
        """Replaying a seeded worker fault schedule yields the identical
        fleet-wide span structure (the hard acceptance gate)."""
        first = self._fleet_chaos_spans(world, tmp_path / "a")
        second = self._fleet_chaos_spans(world, tmp_path / "b")
        assert span_structure(first) == span_structure(second)
        annotations = {a for s in first for a in s.annotations}
        assert "retry" in annotations


# ----------------------------------------------------------------------
# Catalog <-> code <-> docs cross-checks (no silent drift)
# ----------------------------------------------------------------------
_FAMILY = re.compile(r"^(serve|fleet|controller|fault|store)\.")
_FIRE = re.compile(
    r"(?:perfstats|REGISTRY)\.(increment|observe)\(\s*(f?)\"([^\"]+)\"")
_DYNAMIC = re.compile(r"\{[^{}]*\}|<[a-z_]+>")


def _normalize(name):
    """Collapse f-string exprs and ``<x>`` placeholders to ``*``."""
    return _DYNAMIC.sub("*", name)


def _fired_names():
    counters, histograms = set(), set()
    for path in (REPO / "src").rglob("*.py"):
        for kind, _f, name in _FIRE.findall(path.read_text()):
            (histograms if kind == "observe" else counters).add(
                _normalize(name))
    return counters, histograms


def _covered(doc_name, fired):
    """True when a documented name corresponds to a fired counter."""
    name = _normalize(doc_name)
    if name.endswith(".*"):
        prefix = name[:-1]
        return any(f.startswith(prefix) for f in fired)
    if name in fired:
        return True
    # A concrete doc name may be an instance of a dynamic fired name
    # (``serve.shed.priority.high`` vs ``serve.shed.priority.*``).
    for f in fired:
        if "*" in f:
            regex = re.escape(f).replace(re.escape("*"),
                                         r"[A-Za-z0-9_.\-]+")
            if re.fullmatch(regex, name):
                return True
    return False


class TestCatalog:
    def test_catalog_covers_every_fired_counter(self):
        counters, _ = _fired_names()
        patterns = {_normalize(p) for p, _ in catalog.COUNTERS}
        missing = sorted(n for n in counters
                         if _FAMILY.match(n) and n not in patterns)
        assert not missing, f"fired but not in catalog: {missing}"

    def test_every_catalog_counter_is_fired(self):
        counters, _ = _fired_names()
        stale = sorted(p for p, _ in catalog.COUNTERS
                       if _normalize(p) not in counters)
        assert not stale, f"in catalog but never fired: {stale}"

    def test_every_catalog_histogram_is_observed(self):
        _, histograms = _fired_names()
        stale = sorted(n for n, _ in catalog.HISTOGRAMS
                       if _normalize(n) not in histograms)
        assert not stale, f"in catalog but never observed: {stale}"

    def test_documented_counters_match_fired_names(self):
        """Every ``serve./fleet./controller./fault./store.`` name README
        and ROADMAP document is fired by the code (fault injection point
        names are documented separately and excluded)."""
        counters, histograms = _fired_names()
        fired = counters | histograms
        text = ((REPO / "README.md").read_text()
                + (REPO / "ROADMAP.md").read_text())
        missing = []
        for token in re.findall(r"`([^`\s/()]+)`", text):
            if not _FAMILY.match(token) or token.endswith(".py"):
                continue
            if token in POINTS:
                continue
            for name in catalog.expand_braces(token):
                if not _covered(name, fired):
                    missing.append(name)
        assert not missing, f"documented but never fired: {sorted(missing)}"

    def test_markdown_table_matches_readme(self):
        """The README's generated catalog table is in sync."""
        readme = (REPO / "README.md").read_text()
        for line in catalog.markdown_table().splitlines():
            if line.startswith("| `"):
                assert line in readme, f"README catalog missing: {line}"
