"""Fleet serving: the server's front end over forked, batch-fed workers.

The load-bearing contract is *fleet equivalence*: for any request mix, any
batch placement and any worker count, every ``DONE``/``CACHED`` value is
bit-identical to a direct ``predict_runtimes`` call on the same model —
including across worker kills and restarts.  These tests pin that down,
plus the transport underneath it: the long-lived ``WorkerProcess`` pipe
protocol, one pipe message per micro-batch, the registry's mmap hydration
path (one page-cache copy per checkpoint, content-address verified, safe
under concurrent materialization from many processes), supervision
(SIGKILL a worker mid-load, or tear its pipe with a garbage frame — no
handle lost, none answered twice), and cross-process hot-swap on
``registry.generation`` changes.
"""

import io
import json
import multiprocessing
import os
import threading
import time
from collections import Counter

import numpy as np
import pytest

import repro.featurization.fingerprint as fingerprint
import repro.featurization.zero_shot as zero_shot
import repro.serving.core as serving_core
import repro.serving.fleet as fleet_module
import repro.storage.table as table_module
from repro import perfstats
from repro.bench.parallel import WorkerProcess
from repro.core import TrainingConfig, ZeroShotCostModel, featurize_records
from repro.core.model import ZeroShotModel
from repro.core.training import predict_runtimes
from repro.datagen import generate_database, random_database_spec
from repro.featurization import FeatureScalers, TargetScaler, database_digest
from repro.nn import openblas
from repro.nn.serialize import load_state
from repro.obs.trace import TraceContext
from repro.robustness import faults
from repro.robustness.faults import FaultSchedule, FaultSpec
from repro.serving import (DeadlineExceededError, LoadConfig, ModelRegistry,
                           PredictorFleet, PredictorServer, RequestPriority,
                           RequestStatus, ServerConfig, run_load,
                           skewed_requests)
from repro.workloads import WorkloadConfig, WorkloadGenerator, generate_trace

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the serving fleet requires the fork start method")


# ----------------------------------------------------------------------
# Shared world: two databases, executed workloads, a model over both
# ----------------------------------------------------------------------
def _make_db(name, seed, base_rows=500):
    spec = random_database_spec(name, seed=seed, layout="snowflake",
                                base_rows=base_rows, n_tables=4,
                                complexity=0.6)
    return generate_database(spec)


def _make_trace(db, n, seed):
    queries = WorkloadGenerator(db, WorkloadConfig(max_joins=2),
                                seed=seed).generate(n)
    return list(generate_trace(db, queries, seed=seed))


def _make_model(graphs, runtimes, seed=0, hidden_dim=24, dtype="float32"):
    model = ZeroShotModel(hidden_dim=hidden_dim, seed=seed).eval()
    model.to(np.dtype(dtype))
    return ZeroShotCostModel(model, FeatureScalers().fit(graphs),
                             TargetScaler().fit(runtimes),
                             TrainingConfig(hidden_dim=hidden_dim,
                                            dtype=dtype))


def _direct(model, graphs):
    return predict_runtimes(model.model, graphs, model.feature_scalers,
                            model.target_scaler, batch_cache=False)


@pytest.fixture(scope="module")
def world():
    db_a = _make_db("fleet_a", seed=31)
    db_b = _make_db("fleet_b", seed=32)
    dbs = {db_a.name: db_a, db_b.name: db_b}
    records_a = _make_trace(db_a, 16, seed=7)
    records_b = _make_trace(db_b, 10, seed=8)
    graphs_a = featurize_records(records_a, dbs, cards="exact")
    graphs_b = featurize_records(records_b, dbs, cards="exact")
    runtimes = np.array([r.runtime_ms for r in records_a + records_b])
    model = _make_model(graphs_a + graphs_b, runtimes, seed=0)
    return {
        "dbs": dbs, "db_a": db_a, "db_b": db_b,
        "records_a": records_a, "records_b": records_b,
        "graphs_a": graphs_a, "graphs_b": graphs_b,
        "graphs_all": graphs_a + graphs_b, "runtimes": runtimes,
        "model": model,
        "expected_a": _direct(model, graphs_a),
        "expected_b": _direct(model, graphs_b),
    }


def _registry_with(world, root, model=None):
    registry = ModelRegistry(root)
    registry.publish("main", model or world["model"],
                     dbs=[world["db_a"], world["db_b"]], default=True)
    return registry


# ----------------------------------------------------------------------
# WorkerProcess: the long-lived forked worker + duplex pipe
# ----------------------------------------------------------------------
def _echo_worker(conn, tag):
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message == "die":
            os._exit(3)
        conn.send((tag, message))


class TestWorkerProcess:
    def test_echo_roundtrip(self):
        wp = WorkerProcess(_echo_worker, args=("w0",)).start()
        try:
            wp.send("ping")
            assert wp.recv() == ("w0", "ping")
            assert wp.alive
        finally:
            wp.stop()
        assert not wp.alive

    def test_death_is_observable_and_restart_recovers(self):
        wp = WorkerProcess(_echo_worker, args=("w1",)).start()
        try:
            wp.send("die")
            # Death surfaces on the selectable sentinel and as EOF on the
            # pipe — never as a silent hang.
            multiprocessing.connection.wait([wp.sentinel], timeout=10.0)
            wp.process.join(timeout=10.0)
            assert not wp.alive
            assert wp.exitcode == 3
            with pytest.raises((EOFError, OSError)):
                while True:
                    wp.recv()
            wp.restart()
            assert wp.restarts == 1
            wp.send("back")
            assert wp.recv() == ("w1", "back")
        finally:
            wp.stop()

    def test_stop_is_idempotent_and_never_hangs(self):
        wp = WorkerProcess(_echo_worker, args=("w2",)).start()
        wp.stop(timeout=5.0)
        wp.stop(timeout=5.0)
        assert wp.process is None and wp.conn is None


# ----------------------------------------------------------------------
# mmap hydration: one on-disk extraction, verified, race-safe
# ----------------------------------------------------------------------
def _hydrate_child(root, barrier, queue):
    try:
        barrier.wait(timeout=20)
        registry = ModelRegistry(root)  # fresh instance: disk state only
        model = registry.load_mmap()
        queue.put(("ok", model.state_digest()))
    except BaseException as exc:  # noqa: BLE001 - report, parent asserts
        queue.put(("err", repr(exc)))


class TestMmapHydration:
    def test_load_mmap_bit_identical_and_read_only(self, world, tmp_path):
        registry = _registry_with(world, tmp_path)
        plain = registry.load()
        mapped = registry.load_mmap()
        np.testing.assert_array_equal(_direct(mapped, world["graphs_all"]),
                                      _direct(plain, world["graphs_all"]))
        params = list(mapped.model.parameters())
        assert params
        for param in params:
            assert not param.data.flags.writeable
            assert isinstance(param.data.base, np.memmap)
        # One checkpoint, one mapping: every parameter views the same file,
        # with the deserialized model's dtype and bits.
        assert len({id(param.data.base) for param in params}) == 1
        plain_params = dict(plain.model.named_parameters())
        for name, param in mapped.model.named_parameters():
            assert param.data.dtype == plain_params[name].data.dtype
            np.testing.assert_array_equal(param.data,
                                          plain_params[name].data)
        # Verified content address: the mapped model digests to its key.
        assert mapped.state_digest() == registry.active("main").checkpoint_key
        # Memoized: a second load returns the same hydrated object.
        assert registry.load_mmap() is mapped

    def test_old_layout_extraction_hydrates_without_quarantine(self, world,
                                                               tmp_path):
        """A store still holding a per-array ``.npy`` extraction (the
        layout before one mapped file) extracts afresh and serves the same
        verified checkpoint; nothing is quarantined for its layout, and
        the old extraction is removed."""
        registry = _registry_with(world, tmp_path)
        key = registry.active("main").checkpoint_key
        state, metadata = load_state(io.BytesIO(world["model"].to_bytes()))
        old = tmp_path / "mmap" / key
        old.mkdir(parents=True)
        names = sorted(state)
        for index, name in enumerate(names):
            np.save(old / f"arr{index:04d}.npy", state[name])
        (old / "manifest.json").write_text(
            json.dumps({"names": names, "metadata": metadata}))
        reopened = ModelRegistry(tmp_path)
        mapped = reopened.load_mmap()
        assert mapped.state_digest() == key
        assert reopened.quarantined_versions("main") == ()
        assert reopened.active("main").checkpoint_key == key
        assert (reopened.mmap_dir(key) / "arrays.bin").exists()
        assert not old.exists()
        np.testing.assert_array_equal(_direct(mapped, world["graphs_a"]),
                                      world["expected_a"])

    def test_concurrent_hydration_from_many_processes(self, world, tmp_path):
        """N processes race to materialize the same checkpoint: every one
        must hydrate a digest-verified model (temp-dir + rename makes the
        extraction atomic — no process can observe a torn manifest), and
        no temp debris survives."""
        registry = _registry_with(world, tmp_path)
        key = registry.active("main").checkpoint_key
        context = multiprocessing.get_context("fork")
        n = 4
        barrier = context.Barrier(n)
        queue = context.Queue()
        processes = [context.Process(target=_hydrate_child,
                                     args=(tmp_path, barrier, queue),
                                     daemon=True)
                     for _ in range(n)]
        for process in processes:
            process.start()
        outcomes = [queue.get(timeout=60) for _ in range(n)]
        for process in processes:
            process.join(timeout=10)
        assert outcomes == [("ok", key)] * n
        mmap_dir = registry.mmap_dir(key)
        assert sorted(p.name for p in mmap_dir.iterdir()) == [
            "arrays.bin", "manifest.json"]
        leftovers = [p for p in mmap_dir.parent.iterdir()
                     if p.name.startswith(".tmp-")]
        assert leftovers == []


# ----------------------------------------------------------------------
# Fleet equivalence: any worker count, any placement, same bits
# ----------------------------------------------------------------------
class TestFleetEquivalence:
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_bit_identical_to_direct_prediction(self, world, tmp_path,
                                                n_workers):
        registry = _registry_with(world, tmp_path)
        plans_a = [r.plan for r in world["records_a"]]
        plans_b = [r.plan for r in world["records_b"]]
        with PredictorFleet(registry, world["dbs"],
                            n_workers=n_workers) as fleet:
            got_a = fleet.predict(plans_a, world["db_a"].name)
            got_b = fleet.predict(plans_b, world["db_b"].name)
            # Repeat round: answered from the router's result cache (CACHED),
            # same bits by construction — but verify anyway.
            again_a = fleet.predict(plans_a, world["db_a"].name)
            stats = fleet.stats()
        np.testing.assert_array_equal(got_a, world["expected_a"])
        np.testing.assert_array_equal(got_b, world["expected_b"])
        np.testing.assert_array_equal(again_a, world["expected_a"])
        assert stats["workers"] == n_workers
        assert stats["cached"] > 0
        assert stats["failed"] == 0 and stats["shed"] == 0

    def test_shed_when_queue_full(self, world, tmp_path):
        registry = _registry_with(world, tmp_path)
        config = ServerConfig(queue_depth=1)
        plans_a = [r.plan for r in world["records_a"]]
        # The worker holds the first request past the submits, so it stays
        # outstanding and fills the one-deep queue.
        with PredictorFleet(registry, world["dbs"], config, n_workers=1,
                            fault_schedule=_hold_first_batch(100.0)) as fleet:
            handles = [fleet.submit(plan, world["db_a"].name)
                       for plan in plans_a]
            for handle in handles:
                handle.wait(30)
            stats = fleet.stats()
        shed = [h for h in handles if h.status is RequestStatus.SHED]
        done = [h for h in handles if h.status in (RequestStatus.DONE,
                                                   RequestStatus.CACHED)]
        assert shed and done
        assert len(shed) + len(done) == len(handles)
        assert stats["shed"] == len(shed)

    def test_unknown_database_rejected(self, world, tmp_path):
        registry = _registry_with(world, tmp_path)
        with PredictorFleet(registry, world["dbs"], n_workers=1) as fleet:
            with pytest.raises(KeyError):
                fleet.submit(world["records_a"][0].plan, "nope")


def _log_calls(monkeypatch, module, name, log):
    """Wrap ``module.name`` so every call — in this process or a forked
    worker — appends ``"<pid> <result>"`` to ``log``."""
    original = getattr(module, name)

    def logged(*args):
        result = original(*args)
        line = f"{os.getpid()} {result!r}\n".encode()
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, line)
        finally:
            os.close(fd)
        return result

    monkeypatch.setattr(module, name, logged)


class TestFleetWorkerCost:
    def test_router_hashes_each_plan_once_workers_never(self, world,
                                                        tmp_path,
                                                        monkeypatch):
        """The router's digest crosses the pipe: every fresh plan is
        hashed once in the router and zero times in any worker.  So does
        the token it hashed: workers featurize it, and no process
        tokenizes a plan a second time."""
        log = tmp_path / "digests.log"
        for module in (fingerprint, serving_core):
            _log_calls(monkeypatch, module, "token_digest", log)
        tokens_log = tmp_path / "tokens.log"
        for module in (serving_core, fleet_module, zero_shot):
            _log_calls(monkeypatch, module, "plan_token", tokens_log)
        registry = _registry_with(world, tmp_path / "registry")
        plans_a = [r.plan for r in world["records_a"]]
        plans_b = [r.plan for r in world["records_b"]]
        config = ServerConfig(result_cache_size=0)
        with PredictorFleet(registry, world["dbs"], config,
                            n_workers=2) as fleet:
            got_a = fleet.predict(plans_a, world["db_a"].name)
            got_b = fleet.predict(plans_b, world["db_b"].name)
        np.testing.assert_array_equal(got_a, world["expected_a"])
        np.testing.assert_array_equal(got_b, world["expected_b"])
        router = [str(os.getpid())] * (len(plans_a) + len(plans_b))
        for path in (log, tokens_log):
            pids = [line.split()[0]
                    for line in path.read_text().splitlines()]
            assert pids == router, path.name

    @pytest.mark.skipif(openblas() is None, reason="no OpenBLAS loaded")
    def test_workers_pin_blas_to_one_thread(self, world, tmp_path,
                                            monkeypatch):
        """Each worker is one core: it pins BLAS to one thread at spawn,
        while the router keeps its own BLAS threading."""
        log = tmp_path / "blas.log"
        _log_calls(monkeypatch, fleet_module, "pin_blas_to_one_thread", log)
        before = openblas().get_threads()
        registry = _registry_with(world, tmp_path / "registry")
        with PredictorFleet(registry, world["dbs"], n_workers=2) as fleet:
            fleet.predict([world["records_a"][0].plan], world["db_a"].name)
            pids = fleet.worker_pids()
        calls = [line.split()[0] for line in log.read_text().splitlines()]
        assert sorted(calls) == sorted(str(pid) for pid in pids)
        assert openblas().get_threads() == before


def _hold_first_batch(delay_ms, point="fleet.worker.hang"):
    """Schedule that holds the first batch for ``delay_ms`` at ``point``
    before serving it.  ``fleet.worker.hang`` fires only in fleet
    workers; ``serve.infer``, installed process-wide before start, stalls
    the thread server's batcher or, inherited through the fork, the
    worker."""
    return FaultSchedule([
        FaultSpec(point, rate=1.0, max_faults=1, action="delay",
                  delay_ms=delay_ms),
    ], seed=0)


class TestFleetBatchWire:
    def test_one_pipe_message_per_micro_batch(self, world, tmp_path,
                                              monkeypatch):
        """Under saturation the router ships each micro-batch as exactly
        one pipe message, each is answered by exactly one result message,
        and batches carry more than one request on average."""
        log = tmp_path / "sends.log"
        original = fleet_module._pipe_send

        def logged(conn, message):
            fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            try:
                os.write(fd, f"{os.getpid()} {message[0]}\n".encode())
            finally:
                os.close(fd)
            return original(conn, message)

        monkeypatch.setattr(fleet_module, "_pipe_send", logged)
        registry = _registry_with(world, tmp_path / "registry")
        requests = [(world["db_a"].name, r.plan)
                    for r in world["records_a"]] * 4
        expected = {id(r.plan): float(v) for r, v in
                    zip(world["records_a"], world["expected_a"])}
        config = ServerConfig(result_cache_size=0, queue_depth=10_000)
        fleet = PredictorFleet(registry, world["dbs"], config, n_workers=2,
                               hang_timeout_ms=None)
        with fleet:
            report = run_load(fleet, requests,
                              LoadConfig(n_clients=4, seed=5))
        stats = fleet.stats()  # after stop: the workers' final answers
        assert report.completed == len(requests)
        for handle in report.handles:
            assert handle.value == expected[id(handle.plan)]
        sends = Counter(tuple(line.split())
                        for line in log.read_text().splitlines())
        router = str(os.getpid())
        batches = sum(n for (pid, kind), n in sends.items()
                      if pid == router and kind == "batch")
        replies = sum(n for (pid, kind), n in sends.items()
                      if pid != router and kind == "done")
        assert batches == replies == stats["batches"]
        assert stats["mean_batch_size"] > 1.0

    @pytest.mark.parametrize("side", ["worker", "router"])
    def test_corrupt_frame_restarts_the_slot(self, world, tmp_path, side):
        """A garbage frame on a worker pipe — written by a ``corrupt``
        action at ``fleet.pipe.send`` on either side — tears that
        connection down: the slot restarts, its batch is re-sent, and every
        request is answered exactly once with the right value."""
        registry = _registry_with(world, tmp_path)
        plans = [r.plan for r in world["records_a"]]
        schedule = FaultSchedule([
            FaultSpec("fleet.pipe.send", rate=1.0, max_faults=1,
                      action="corrupt"),
        ], seed=3)
        config = ServerConfig(result_cache_size=0)
        before = perfstats.snapshot(["fleet.pipe.corrupt"])
        fleet = PredictorFleet(
            registry, world["dbs"], config, n_workers=1,
            fault_schedule=schedule if side == "worker" else None,
            hang_timeout_ms=None)
        with fleet:
            if side == "router":  # after the fork: the router alone
                faults.install(schedule)
            try:
                handles = fleet.submit_many(plans, world["db_a"].name,
                                            block=True)
                values = [handle.result(60) for handle in handles]
            finally:
                faults.uninstall()
            stats = fleet.stats()
        after = perfstats.snapshot(["fleet.pipe.corrupt"])
        assert [h.status for h in handles] == [RequestStatus.DONE] * len(
            plans)
        np.testing.assert_array_equal(values, world["expected_a"])
        assert stats["worker_restarts"] == 1
        assert stats["requeued"] >= 1
        assert stats["outstanding"] == 0 and stats["failed"] == 0
        assert stats["requests"] == len(plans)
        corrupt = (after["fleet.pipe.corrupt"]
                   - before["fleet.pipe.corrupt"])
        assert corrupt == (1 if side == "worker" else 0)


    def test_worker_batch_builds_no_lock_per_request(self, world, tmp_path,
                                                     monkeypatch):
        """A worker serves a wire batch on plain records: no latch and no
        claim lock per plan.  Each result tuple still carries the value or
        the encoded error, ``served_by``, checkpoint, retries and the
        exported trace stages, in batch order."""
        registry = _registry_with(world, tmp_path)
        core = serving_core.ServingCore(
            registry, world["dbs"], mmap=True,
            config=ServerConfig(result_cache_size=0))
        db_a = world["db_a"].name
        plans = [r.plan for r in world["records_a"][:4]]
        requests = []
        for index, plan in enumerate(plans):
            route, digest, _, _, _ = core.lookup(db_a, plan)
            request = serving_core.PredictionRequest(db_a, plan,
                                                     digest=digest)
            if index == 1:
                request.trace = TraceContext("t" * 16, index)
            if index == 2:  # long expired when the worker gets it
                request.deadline_ms = 1.0
                request.submitted_at -= 1.0
            requests.append(request)
        message = ("batch", 7, time.perf_counter(),
                   fleet_module._wire_items(requests))
        # One transient inference fault: the live requests retry once.
        schedule = FaultSchedule([FaultSpec("serve.infer", rate=1.0,
                                            max_faults=1)], seed=0)

        def refuse(*args, **kwargs):
            raise AssertionError("a fleet worker allocated a lock")

        monkeypatch.setattr(serving_core, "_allocate_lock", refuse)
        faults.install(schedule)
        try:
            kind, batch_id, results = fleet_module._serve_batch(core,
                                                                message)
        finally:
            faults.uninstall()
        assert (kind, batch_id, len(results)) == ("done", 7, len(plans))
        expected = world["expected_a"]
        for index, result in enumerate(results):
            status, value, served_by, checkpoint, retries, trace = result
            if index == 2:
                assert result == (
                    RequestStatus.FAILED,
                    ("DeadlineExceededError",
                     "request exceeded its 1 ms deadline"),
                    None, None, 0, None)
                continue
            assert status is RequestStatus.DONE
            assert value == float(expected[index])
            assert (served_by, checkpoint) == (route.served_by,
                                               route.checkpoint_key)
            assert retries == 1
            if index != 1:
                assert trace is None
                continue
            stages, annotations = trace
            assert [stage[0] for stage in stages] == [
                "worker.recv", "featurize", "backoff", "featurize", "infer"]
            assert annotations == ["retry"]

def _report_blas(conn):
    fleet_module.pin_blas_to_one_thread()
    conn.send(openblas().get_threads())


@pytest.mark.skipif(openblas() is None, reason="no OpenBLAS loaded")
def test_pin_blas_to_one_thread_in_a_forked_child():
    """The pin takes effect in the child and leaves the parent alone."""
    before = openblas().get_threads()
    wp = WorkerProcess(_report_blas).start()
    try:
        pinned = wp.recv()
    finally:
        wp.stop()
    assert pinned == 1
    assert openblas().get_threads() == before


# ----------------------------------------------------------------------
# Supervision: SIGKILL mid-load, exactly-once completion
# ----------------------------------------------------------------------
class TestFleetSupervision:
    def test_worker_kill_no_lost_no_duplicated_handles(self, world,
                                                       tmp_path):
        registry = _registry_with(world, tmp_path)
        db_a = world["db_a"]
        # Worker 0 takes the first batch and holds it: its results are
        # still pending when the kill lands, so the supervisor must re-send
        # the batch to the replacement.
        config = ServerConfig(max_batch_size=256, result_cache_size=0)
        plans = [r.plan for r in world["records_a"]] * 2
        expected = np.concatenate([world["expected_a"]] * 2)
        with PredictorFleet(registry, world["dbs"], config, n_workers=2,
                            fault_schedule={0: _hold_first_batch(2000.0)}
                            ) as fleet:
            handles = fleet.submit_many(plans, db_a.name, block=True)
            time.sleep(0.2)
            assert fleet.kill_worker(0) is not None
            completions = []
            for handle in handles:
                # Exactly-once: result() returns the single final value;
                # a second read observes the same resolved state.
                completions.append(handle.result(60))
                assert handle.status is RequestStatus.DONE
            stats = fleet.stats()
        np.testing.assert_array_equal(np.array(completions), expected)
        assert stats["worker_restarts"] >= 1
        assert stats["requeued"] >= 1
        assert stats["failed"] == 0 and stats["shed"] == 0
        assert stats["requests"] == len(plans)

    def test_resent_leader_completes_its_followers_once(self, world,
                                                        tmp_path,
                                                        monkeypatch):
        """Duplicates queued before start follow their leaders; the one
        batch of leaders is held by the worker, which is SIGKILLed once the
        batch is registered on it.  The replacement answers the re-sent
        batch, and each follower completes once with its leader's value."""
        calls = Counter()
        finish = serving_core.PredictionRequest._finish

        def counted(self, *args, **kwargs):
            calls[id(self)] += 1
            return finish(self, *args, **kwargs)

        monkeypatch.setattr(serving_core.PredictionRequest, "_finish",
                            counted)
        registry = _registry_with(world, tmp_path)
        k = 6
        plans = [r.plan for r in world["records_a"][:k]]
        fleet = PredictorFleet(registry, world["dbs"], n_workers=1,
                               fault_schedule=_hold_first_batch(5000.0))
        handles = [fleet.submit(plan, world["db_a"].name)
                   for _ in range(3) for plan in plans]
        assert len(fleet._queue) == k
        dispatched = threading.Event()
        dispatch = fleet._dispatch

        def dispatch_and_signal(batch):
            dispatch(batch)
            dispatched.set()

        fleet._dispatch = dispatch_and_signal
        with fleet:
            assert dispatched.wait(30)
            assert fleet.kill_worker(0) is not None
            for handle in handles:
                assert handle.wait(60)
            stats = fleet.stats()
        assert stats["worker_restarts"] == 1
        assert stats["requeued"] == k
        assert stats["coalesced"] == len(handles) - k
        assert stats["failed"] == 0
        for i, handle in enumerate(handles):
            assert calls[id(handle)] == 1
            assert handle.value == float(world["expected_a"][i % k])
            assert handle.status is (RequestStatus.DONE if i < k
                                     else RequestStatus.CACHED)

    def test_kill_during_open_loop_load(self, world, tmp_path):
        """The bench-shaped scenario: saturation load, a worker dies
        mid-run, every delivered value still matches the direct call."""
        registry = _registry_with(world, tmp_path)
        config = ServerConfig(result_cache_size=0, queue_depth=10_000)
        requests = ([(world["db_a"].name, r.plan)
                     for r in world["records_a"]] * 3)
        expected = {id(r.plan): float(v) for r, v in
                    zip(world["records_a"], world["expected_a"])}
        with PredictorFleet(registry, world["dbs"], config,
                            n_workers=2) as fleet:
            fleet.submit(requests[0][1], requests[0][0], block=True)
            fleet.kill_worker(0)
            report = run_load(fleet, requests,
                              LoadConfig(n_clients=3, block=True, seed=3))
        assert report.failed == 0 and report.shed == 0
        assert report.completed == len(requests)
        for handle in report.handles:
            assert handle.value == expected[id(handle.plan)]

    def test_close_without_drain_fails_pending_typed(self, world, tmp_path):
        registry = _registry_with(world, tmp_path)
        config = ServerConfig(max_batch_size=256)
        # The worker holds its first batch past the stop: every request is
        # still queued or unanswered when the fleet closes.
        fleet = PredictorFleet(registry, world["dbs"], config, n_workers=1,
                               fault_schedule=_hold_first_batch(100.0)
                               ).start()
        handles = fleet.submit_many([r.plan for r in world["records_a"]],
                                    world["db_a"].name, block=True)
        fleet.stop(drain=False)
        for handle in handles:
            handle.wait(10)
            assert handle.status in (RequestStatus.FAILED,
                                     RequestStatus.DONE)
        failed = [h for h in handles if h.status is RequestStatus.FAILED]
        assert failed
        for handle in failed:
            with pytest.raises(Exception) as err:
                handle.result(0)
            assert "fleet stopped" in str(err.value)

    def test_worker_that_cannot_start_is_given_up(self, world, tmp_path,
                                                  monkeypatch):
        """Workers that raise at start-up are re-forked a bounded number of
        times, then their slots are given up: every handle fails typed and
        the draining stop returns instead of spinning."""
        registry = _registry_with(world, tmp_path)
        plans = [r.plan for r in world["records_a"]]
        fleet = PredictorFleet(registry, world["dbs"], n_workers=2,
                               hang_timeout_ms=None)

        def cannot_start(*args, **kwargs):
            raise RuntimeError("injected start-up failure")

        monkeypatch.setattr(fleet_module, "ServingCore", cannot_start)
        outcome = {}

        def serve():
            with fleet:
                outcome["handles"] = fleet.submit_many(
                    plans, world["db_a"].name, block=True)
            outcome["stats"] = fleet.stats()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive(), "the fleet never exited"
        for handle in outcome["handles"]:
            assert handle.status is RequestStatus.FAILED
            assert isinstance(handle.error, fleet_module.WorkerStartError)
        # Two slots, each forked once and re-forked at most twice.
        assert outcome["stats"]["worker_restarts"] <= 4


# ----------------------------------------------------------------------
# Warm once, fork many: workers inherit the router's statistics and models
# ----------------------------------------------------------------------
def _forbid_calls(monkeypatch, owner, name, log):
    """Replace ``owner.name`` with a stub that appends ``"<pid> <name>"``
    to ``log`` and raises — in this process or any worker forked later."""
    def forbidden(*args):
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, f"{os.getpid()} {name}\n".encode())
        finally:
            os.close(fd)
        raise AssertionError(f"{name} called after the router warmed up")

    monkeypatch.setattr(owner, name, forbidden)


def _wait_for_replacement(fleet, index, old_pid, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while fleet.worker_pids()[index] in (old_pid, None):
        assert time.monotonic() < deadline, "no replacement worker"
        time.sleep(0.01)


def _reset_metrics_and_answer(conn, schedule):
    perfstats.reset()
    schedule.decide("serve.infer")
    faults.uninstall()
    conn.send("ok")


class TestWarmFork:
    def test_workers_inherit_statistics_and_mapped_models(
            self, world, tmp_path, monkeypatch):
        """The router builds every table's statistics and maps the model
        before it forks: neither the workers nor a replacement forked after
        a kill compute statistics or hydrate a checkpoint, and every value
        still equals the direct prediction."""
        registry = _registry_with(world, tmp_path / "registry")
        for db in world["dbs"].values():
            for table in db.tables.values():
                table.invalidate_stats()
        config = ServerConfig(result_cache_size=0)
        fleet = PredictorFleet(registry, world["dbs"], config, n_workers=2)
        log = tmp_path / "forbidden.log"
        _forbid_calls(monkeypatch, table_module, "compute_table_stats", log)
        _forbid_calls(monkeypatch, ModelRegistry, "_hydrate_mmap", log)
        plans_a = [r.plan for r in world["records_a"]]
        plans_b = [r.plan for r in world["records_b"]]
        db_a, db_b = world["db_a"].name, world["db_b"].name
        fleet.start()
        try:  # no draining stop: a worker dying at start-up never answers
            first = (fleet.predict(plans_a, db_a, timeout=30),
                     fleet.predict(plans_b, db_b, timeout=30))
            old_pid = fleet.kill_worker(0)
            assert old_pid is not None
            _wait_for_replacement(fleet, 0, old_pid)
            again = (fleet.predict(plans_a, db_a, timeout=30),
                     fleet.predict(plans_b, db_b, timeout=30))
            stats = fleet.stats()
        finally:
            fleet.stop(drain=False)
        assert not log.exists()
        for got_a, got_b in (first, again):
            np.testing.assert_array_equal(got_a, world["expected_a"])
            np.testing.assert_array_equal(got_b, world["expected_b"])
        assert stats["worker_restarts"] == 1
        # The replacement served (its counters start at its fork).
        assert stats["worker_stats"][0]["batches"] > 0
        assert stats["failed"] == 0

    def test_workers_freeze_the_inherited_heap(self, world, tmp_path):
        """Each worker freezes what it inherited from the router first
        thing, and reports how many objects its collections skip."""
        registry = _registry_with(world, tmp_path)
        with PredictorFleet(registry, world["dbs"], n_workers=2) as fleet:
            fleet.predict([world["records_a"][0].plan], world["db_a"].name)
            rows = fleet.stats()["worker_stats"]
        assert len(rows) == 2
        assert all(row["gc_frozen"] > 0 for row in rows)

    def test_promote_of_unloaded_version_hydrates_in_workers(
            self, world, tmp_path, monkeypatch):
        """A version published after the fork was never in the router's
        snapshot: each worker hydrates it from disk (digest-verified)
        exactly once, and serves it bit-identically."""
        registry = _registry_with(world, tmp_path / "registry")
        model_v2 = _make_model(world["graphs_all"], world["runtimes"],
                               seed=9)
        config = ServerConfig(result_cache_size=0)
        fleet = PredictorFleet(registry, world["dbs"], config, n_workers=2)
        log = tmp_path / "hydrate.log"
        _log_calls(monkeypatch, ModelRegistry, "_hydrate_mmap", log)
        plans_a = [r.plan for r in world["records_a"]]
        plans_b = [r.plan for r in world["records_b"]]
        with fleet:
            got_v1 = fleet.predict(plans_a, world["db_a"].name, timeout=30)
            registry.publish("main", model_v2,
                             dbs=[world["db_a"], world["db_b"]])
            got_a = fleet.predict(plans_a, world["db_a"].name, timeout=30)
            got_b = fleet.predict(plans_b, world["db_b"].name, timeout=30)
            pids = fleet.worker_pids()
        np.testing.assert_array_equal(got_v1, world["expected_a"])
        np.testing.assert_array_equal(got_a,
                                      _direct(model_v2, world["graphs_a"]))
        np.testing.assert_array_equal(got_b,
                                      _direct(model_v2, world["graphs_b"]))
        hydrations = Counter(line.split()[0]
                             for line in log.read_text().splitlines())
        # v2 only: once by the router, once by each worker.
        assert hydrations == Counter(str(pid)
                                     for pid in [os.getpid(), *pids])

    def test_fork_never_inherits_a_held_metrics_or_fault_lock(self):
        """Children forked while other threads hammer the metrics registry
        and an installed fault schedule still take both locks at once."""
        schedule = FaultSchedule([FaultSpec("serve.infer", rate=0.0)],
                                 seed=0)
        faults.install(schedule)
        stop = False

        def hammer(step):
            while not stop:
                step()

        threads = [threading.Thread(target=hammer, args=(step,), daemon=True)
                   for step in (lambda: perfstats.increment("probe.hammer"),
                                lambda: schedule.decide("serve.infer"))]
        for thread in threads:
            thread.start()
        answered = 0
        try:
            for _ in range(20):
                wp = WorkerProcess(_reset_metrics_and_answer,
                                   args=(schedule,)).start()
                try:
                    if wp.conn.poll(2.0) and wp.recv() == "ok":
                        answered += 1
                finally:
                    wp.stop(timeout=2.0)
        finally:
            stop = True
            for thread in threads:
                thread.join(timeout=5.0)
            faults.uninstall()
        assert answered == 20


# ----------------------------------------------------------------------
# Cross-process hot swap: promote/rollback reach every worker
# ----------------------------------------------------------------------
class TestFleetHotSwap:
    def test_publish_promote_rollback_fleet_wide(self, world, tmp_path):
        registry = _registry_with(world, tmp_path)
        model_v2 = _make_model(world["graphs_all"], world["runtimes"],
                               seed=9)
        expected_v2 = _direct(model_v2, world["graphs_a"])
        plans_a = [r.plan for r in world["records_a"]]
        config = ServerConfig(result_cache_size=0)
        with PredictorFleet(registry, world["dbs"], config,
                            n_workers=2) as fleet:
            got_v1 = fleet.predict(plans_a, world["db_a"].name)
            registry.publish("main", model_v2,
                             dbs=[world["db_a"], world["db_b"]])
            got_v2 = fleet.predict(plans_a, world["db_a"].name)
            registry.promote("main", 1)
            got_back = fleet.predict(plans_a, world["db_a"].name)
            stats = fleet.stats()
        np.testing.assert_array_equal(got_v1, world["expected_a"])
        np.testing.assert_array_equal(got_v2, expected_v2)
        np.testing.assert_array_equal(got_back, world["expected_a"])
        assert not np.array_equal(got_v1, got_v2)
        assert stats["failed"] == 0


    def test_one_promote_counts_one_swap_per_database(self, world,
                                                      tmp_path):
        """A promote is counted once, as the router's route changes: one
        publish over four served databases reads 4 swaps, as on a thread
        server, however many workers re-resolve the same change."""
        dbs = dict(world["dbs"])
        for name, seed in (("fleet_c", 33), ("fleet_d", 34)):
            dbs[name] = _make_db(name, seed=seed, base_rows=300)
        model_v2 = _make_model(world["graphs_all"], world["runtimes"],
                               seed=9)
        swaps = {}
        for kind in ("server", "fleet"):
            registry = _registry_with(world, tmp_path / kind)
            transport = (PredictorFleet(registry, dbs, n_workers=2)
                         if kind == "fleet"
                         else PredictorServer(registry, dbs))
            with transport:
                transport.predict([world["records_a"][0].plan],
                                  world["db_a"].name)
                registry.publish("main", model_v2,
                                 dbs=[world["db_a"], world["db_b"]],
                                 activate=True)
                # Served after the promote: every worker has re-resolved
                # its routes by the time it answers.
                transport.predict([world["records_a"][1].plan],
                                  world["db_a"].name)
                swaps[kind] = transport.stats()["swaps"]
        assert swaps == {"server": 4, "fleet": 4}

    def test_stats_right_after_a_promote_show_it_in_every_worker(
            self, world, tmp_path):
        """``stats()`` re-resolves routes before it asks the workers, so
        the ``refresh`` reaches each pipe ahead of the ``stats`` query and
        every worker row counts the promote, with no request since."""
        registry = _registry_with(world, tmp_path)
        model_v2 = _make_model(world["graphs_all"], world["runtimes"],
                               seed=9)
        with PredictorFleet(registry, world["dbs"], n_workers=2) as fleet:
            fleet.predict([world["records_a"][0].plan], world["db_a"].name)
            registry.publish("main", model_v2,
                             dbs=[world["db_a"], world["db_b"]],
                             activate=True)
            stats = fleet.stats()
        assert stats["swaps"] == 2
        assert [row["swaps"] for row in stats["worker_stats"]] == [2, 2]


# ----------------------------------------------------------------------
# Plans rebuilt from their tokens: DeepDB annotation, analytical fallback
# ----------------------------------------------------------------------
class TestWorkerPlanRebuild:
    def test_deepdb_cards_equal_direct_prediction(self, world, tmp_path):
        """Workers receive tokens; DeepDB annotation rebuilds the plans
        from them and samples exactly as on the original plans."""
        registry = _registry_with(world, tmp_path)
        records = world["records_a"]
        config = ServerConfig(cards="deepdb", result_cache_size=0,
                              max_batch_size=len(records))
        fleet = PredictorFleet(registry, world["dbs"], config, n_workers=1)
        # Queued before start: one batch, annotated in submit order by one
        # worker's estimator, as the direct call below annotates them.
        handles = [fleet.submit(record.plan, world["db_a"].name)
                   for record in records]
        with fleet:
            got = [handle.result(60) for handle in handles]
            stats = fleet.stats()
        expected = _direct(world["model"], featurize_records(
            records, world["dbs"], cards="deepdb"))
        np.testing.assert_array_equal(got, expected)
        assert stats["batch_size_hist"] == {len(records): 1}
        assert all(h.status is RequestStatus.DONE for h in handles)

    def test_degraded_answer_equals_thread_servers(self, world, tmp_path):
        """With the breaker open, a worker answers from the analytical
        model on the plan rebuilt from its token and root cost: the value
        a thread server gives for the same plan."""
        plans = [r.plan for r in world["records_a"]][:6]
        assert all(plan.est_cost for plan in plans)
        config = ServerConfig(result_cache_size=0, max_retries=0,
                              breaker_threshold=1, breaker_reset_ms=60_000)
        always = FaultSchedule([FaultSpec("serve.infer", rate=1.0)], seed=0)
        values = {}
        for kind in ("server", "fleet"):
            registry = _registry_with(world, tmp_path / kind)
            if kind == "fleet":
                transport = PredictorFleet(registry, world["dbs"], config,
                                           n_workers=2,
                                           fault_schedule=always)
            else:
                faults.install(always)
                transport = PredictorServer(registry, world["dbs"], config)
            try:
                with transport:
                    handles = [transport.submit(plan, world["db_a"].name,
                                                block=True)
                               for plan in plans]
                    for handle in handles:
                        handle.wait(60)
            finally:
                faults.uninstall()
            assert all(h.status is RequestStatus.DEGRADED for h in handles)
            values[kind] = [h.value for h in handles]
        assert values["fleet"] == values["server"]


# ----------------------------------------------------------------------
# Load generator: fleet mode, skewed mixes, per-database breakdown
# ----------------------------------------------------------------------
class TestFleetLoadgen:
    def test_latency_by_db_breakdown(self, world, tmp_path):
        registry = _registry_with(world, tmp_path)
        requests = ([(world["db_a"].name, r.plan)
                     for r in world["records_a"]]
                    + [(world["db_b"].name, r.plan)
                       for r in world["records_b"]])
        with PredictorFleet(registry, world["dbs"], n_workers=2) as fleet:
            report = run_load(fleet, requests,
                              LoadConfig(n_clients=2, block=True, seed=1))
        assert report.completed + report.cached == len(requests)
        by_db = report.latency_by_db
        assert set(by_db) == {world["db_a"].name, world["db_b"].name}
        for name, summary in by_db.items():
            assert summary["delivered"] == summary["requests"]
            assert summary["degraded"] == 0
            assert summary["p50"] > 0
        total = sum(s["requests"] for s in by_db.values())
        assert total == len(requests)

    def test_skewed_requests_seeded_and_weighted(self, world):
        pools = {
            world["db_a"].name: [(world["db_a"].name, r.plan)
                                 for r in world["records_a"]],
            world["db_b"].name: [(world["db_b"].name, r.plan)
                                 for r in world["records_b"]],
        }
        weights = {world["db_a"].name: 0.9, world["db_b"].name: 0.1}
        mix = skewed_requests(pools, weights, n=200, seed=4)
        assert mix == skewed_requests(pools, weights, n=200, seed=4)
        assert mix != skewed_requests(pools, weights, n=200, seed=5)
        counts = {name: sum(1 for db, _ in mix if db == name)
                  for name in pools}
        assert counts[world["db_a"].name] > counts[world["db_b"].name] * 3
        assert len(mix) == 200
        for db_name, plan in mix:
            assert (db_name, plan) in pools[db_name]

    def test_skewed_load_routes_hot_database(self, world, tmp_path):
        registry = _registry_with(world, tmp_path)
        pools = {
            world["db_a"].name: [(world["db_a"].name, r.plan)
                                 for r in world["records_a"]],
            world["db_b"].name: [(world["db_b"].name, r.plan)
                                 for r in world["records_b"]],
        }
        weights = {world["db_a"].name: 0.85, world["db_b"].name: 0.15}
        mix = skewed_requests(pools, weights, n=80, seed=2)
        expected = {}
        for records, values in ((world["records_a"], world["expected_a"]),
                                (world["records_b"], world["expected_b"])):
            for record, value in zip(records, values):
                expected[id(record.plan)] = float(value)
        config = ServerConfig(result_cache_size=0, queue_depth=10_000)
        with PredictorFleet(registry, world["dbs"], config,
                            n_workers=2) as fleet:
            report = run_load(fleet, mix,
                              LoadConfig(n_clients=3, block=True, seed=2))
        assert report.completed == len(mix)
        for handle in report.handles:
            assert handle.value == expected[id(handle.plan)]
        hot = report.latency_by_db[world["db_a"].name]
        cold = report.latency_by_db[world["db_b"].name]
        assert hot["requests"] > cold["requests"]


# ----------------------------------------------------------------------
# Liveness plane: heartbeats, hang detection, replayable recovery
# ----------------------------------------------------------------------
class TestFleetLiveness:
    def _run_hang_scenario(self, world, root, fault_seed=11):
        """One full hang-recovery pass; returns (per-handle outcomes,
        counter signature) for replay comparison."""
        registry = _registry_with(world, root)
        db_a = world["db_a"]
        plans = [r.plan for r in world["records_a"]]
        # Every plan is queued before start, so the first batch — the one
        # worker 0 (the first idle worker) takes — holds every plan.
        config = ServerConfig(result_cache_size=0, max_batch_size=256)
        schedule = {0: FaultSchedule([
            FaultSpec("fleet.worker.hang", rate=1.0, max_faults=1,
                      action="hang"),
        ], seed=fault_seed)}
        fleet = PredictorFleet(registry, world["dbs"], config, n_workers=2,
                               fault_schedule=schedule,
                               hang_timeout_ms=300.0, hedge_after_ms=None)
        handles = fleet.submit_many(plans, db_a.name, block=True)
        with fleet:
            outcomes = []
            for handle in handles:
                value = handle.result(60)  # waits; then status is final
                outcomes.append((handle.status, value))
            stats = fleet.stats()
        signature = {key: stats[key] for key in
                     ("requests", "completed", "failed", "shed",
                      "hangs", "requeued")}
        return outcomes, signature, stats

    def test_hang_detected_killed_restarted_and_replayable(self, world,
                                                           tmp_path):
        """A worker that hangs forever (gray failure: alive, silent) is
        detected within the hang timeout, SIGKILLed and restarted; its
        unanswered requests are re-sent and every value matches the
        direct call.  The same schedule replayed from scratch produces
        the identical per-handle outcome and counter signature."""
        outcomes1, sig1, stats1 = self._run_hang_scenario(
            world, tmp_path / "run1")
        outcomes2, sig2, _ = self._run_hang_scenario(
            world, tmp_path / "run2")
        expected = world["expected_a"]
        for (status, value), want in zip(outcomes1, expected):
            assert status is RequestStatus.DONE
            assert value == float(want)
        assert outcomes1 == outcomes2
        assert sig1 == sig2
        assert sig1["hangs"] == 1
        assert sig1["failed"] == 0 and sig1["shed"] == 0
        assert sig1["requeued"] >= 1
        assert stats1["worker_restarts"] >= 1
        assert stats1["unresponsive_workers"] == 0  # restarted healthy

    def test_stats_is_hang_safe(self, world, tmp_path):
        """stats() on a fleet with a wedged worker returns promptly with
        an ``unresponsive`` row instead of blocking the caller."""
        registry = _registry_with(world, tmp_path)
        config = ServerConfig(result_cache_size=0)
        schedule = FaultSchedule([
            # Finite hang: long enough to straddle the stats call, short
            # enough that the fleet drains cleanly afterwards (hang
            # detection is off, so nothing kills the worker).
            FaultSpec("fleet.worker.hang", rate=1.0, max_faults=1,
                      action="hang", delay_ms=1500.0),
        ], seed=5)
        before = perfstats.snapshot(["fleet.stats.unresponsive"])
        with PredictorFleet(registry, world["dbs"], config, n_workers=1,
                            fault_schedule=schedule,
                            hang_timeout_ms=None) as fleet:
            handle = fleet.submit(world["records_a"][0].plan,
                                  world["db_a"].name, block=True)
            time.sleep(0.2)  # let the worker enter the hang
            start = time.perf_counter()
            stats = fleet.stats(timeout_s=0.3)
            elapsed = time.perf_counter() - start
            assert elapsed < 1.0
            assert stats["unresponsive_workers"] == 1
            assert {"unresponsive": True, "worker": 0} in \
                stats["worker_stats"]
            assert handle.result(30) == float(world["expected_a"][0])
        after = perfstats.snapshot(["fleet.stats.unresponsive"])
        assert (after["fleet.stats.unresponsive"]
                > before["fleet.stats.unresponsive"])


# ----------------------------------------------------------------------
# Hedged requests: straggler re-sends, raced-result dedup
# ----------------------------------------------------------------------
class TestFleetHedging:
    def test_hedge_dedup_late_loser_cannot_double_complete(self, world,
                                                           tmp_path):
        """A hedge fires while the original worker still holds the batch;
        whichever copy answers second finds the batch already completed.
        The late duplicate must not double-complete a handle, corrupt the
        outstanding count, or poison a later round."""
        registry = _registry_with(world, tmp_path)
        db_a = world["db_a"]
        plans = [r.plan for r in world["records_a"]]
        expected = world["expected_a"]
        # Worker 0 holds its first batch for 250 ms, long past the 40 ms
        # hedge threshold, so the batch hedges to worker 1 and both
        # workers eventually answer it.
        config = ServerConfig(result_cache_size=0, max_batch_size=256)
        with PredictorFleet(registry, world["dbs"], config, n_workers=2,
                            fault_schedule={0: _hold_first_batch(250.0)},
                            hang_timeout_ms=None,
                            hedge_after_ms=40.0) as fleet:
            handles = fleet.submit_many(plans, db_a.name, block=True)
            for handle, want in zip(handles, expected):
                assert handle.result(60) == float(want)
                assert handle.status is RequestStatus.DONE
            # Let the losing duplicates arrive and be dropped.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                stats = fleet.stats()
                if (stats["hedge_wins"] + stats["hedge_wasted"] >= 1
                        and stats["outstanding"] == 0):
                    break
                time.sleep(0.05)
            assert stats["hedges"] >= 1
            assert stats["hedge_wins"] + stats["hedge_wasted"] >= 1
            assert stats["outstanding"] == 0
            assert stats["completed"] == len(plans)  # delivered once
            # The fleet is not corrupted: a second round still delivers
            # bit-identical values through the same slots.
            again = fleet.submit_many(plans, db_a.name, block=True)
            for handle, want in zip(again, expected):
                assert handle.result(60) == float(want)
            final = fleet.stats()
        assert final["failed"] == 0 and final["shed"] == 0
        assert final["outstanding"] == 0


# ----------------------------------------------------------------------
# Delivery accounting: stats() counts each delivery once (the thread
# server's twin is in test_serving.py)
# ----------------------------------------------------------------------
class TestDeliveryAccounting:
    @pytest.mark.parametrize("scenario", ["hedge", "kill"])
    def test_fleet_counts_each_delivery_once(self, world, tmp_path,
                                             scenario):
        """A hedged batch runs on two workers and a SIGKILLed worker's
        batch is re-sent to its replacement, yet the router counts each
        delivery once: completed equals the requests, and every request
        is counted under exactly one outcome."""
        registry = _registry_with(world, tmp_path)
        db_a = world["db_a"].name
        plans = [r.plan for r in world["records_a"]]
        config = ServerConfig(result_cache_size=0, max_batch_size=256)
        hedge = scenario == "hedge"
        # Worker 0 holds its first batch: past the 40 ms hedge threshold,
        # or until the kill lands.
        fleet = PredictorFleet(
            registry, world["dbs"], config, n_workers=2 if hedge else 1,
            fault_schedule={0: _hold_first_batch(250.0 if hedge
                                                 else 2000.0)},
            hang_timeout_ms=None, hedge_after_ms=40.0 if hedge else None)
        with fleet:
            handles = fleet.submit_many(plans, db_a, block=True)
            if not hedge:
                time.sleep(0.2)
                assert fleet.kill_worker(0) is not None
            for handle, want in zip(handles, world["expected_a"]):
                assert handle.result(60) == float(want)
            resolved = fleet.stats()
            # Hedged: wait until the second copy's answer has arrived.
            deadline = time.monotonic() + 5.0
            stats = resolved
            while hedge and not stats["hedge_wasted"]:
                assert time.monotonic() < deadline
                time.sleep(0.05)
                stats = fleet.stats()
        for counted in (resolved, stats):
            assert counted["completed"] == len(plans)
            delivered = sum(counted[key] for key in (
                "completed", "cached", "degraded", "shed", "failed"))
            assert delivered == counted["requests"] == len(plans)
            assert counted["outstanding"] == 0
        if hedge:
            assert stats["hedges"] >= 1
        else:
            assert stats["worker_restarts"] == 1 and stats["requeued"] >= 1


# ----------------------------------------------------------------------
# Priorities: classed admission, brownout, shed concentration — one front
# end, so the thread server and the fleet must behave identically
# ----------------------------------------------------------------------
@pytest.fixture(params=["server", "fleet"])
def transport(request):
    """Builds either transport over the same front end."""
    def make(registry, dbs, config):
        if request.param == "fleet":
            return PredictorFleet(registry, dbs, config, n_workers=1)
        return PredictorServer(registry, dbs, config)
    return make


class TestSingleFlightUnderRepeats:
    def test_promote_under_repeats_predicts_each_plan_once(
            self, world, tmp_path, transport):
        """The serve_hot_swap shape: repeats of a few hot plans around a
        promote.  After the promote each plan misses once: that request
        is the only one queued for it and the only model-path prediction;
        every other repeat follows it or hits the cache it fills."""
        registry = _registry_with(world, tmp_path)
        model_v2 = _make_model(world["graphs_all"], world["runtimes"],
                               seed=9)
        expected_v2 = _direct(model_v2, world["graphs_a"])
        k = 8
        plans = [r.plan for r in world["records_a"][:k]]
        order = np.random.default_rng(0).integers(0, k, size=400)
        order[:k] = np.arange(k)  # every hot plan is requested
        db_name = world["db_a"].name
        with transport(registry, world["dbs"], ServerConfig()) as server:
            server.predict(plans, db_name)  # warm: every plan cached
            server.stats()  # a fleet's workers ship their counts so far
            version = registry.publish("main", model_v2,
                                       dbs=[world["db_a"], world["db_b"]],
                                       activate=True).version
            perfstats.reset()
            handles = [server.submit(plans[i], db_name) for i in order]
            for handle in handles:
                assert handle.wait(30)
            stats = server.stats()
        counters = perfstats.snapshot()
        hits = counters.get("serve.cache.hit", 0)
        assert counters["serve.batch.requests"] == k
        assert counters["serve.cache.miss"] == k
        assert counters.get("serve.coalesced.count", 0) + hits == (
            len(order) - k)
        assert stats["coalesced"] == counters.get("serve.coalesced.count",
                                                  0)
        for i, handle in zip(order, handles):
            assert handle.served_by == ("main", version)
            assert handle.value == float(expected_v2[i])


class TestFleetPriorities:
    def test_brownout_and_priority_classed_shedding(self, world, tmp_path,
                                                    transport):
        from repro.optimizer import AnalyticalCostModel

        registry = _registry_with(world, tmp_path)
        db_a = world["db_a"]
        plans = [r.plan for r in world["records_a"]]
        # queue_depth=8 with a 25% HIGH reserve: LOW admits under 4,
        # NORMAL under 6, HIGH under 8.  The backend stalls on the first
        # batch, so everything admitted stays outstanding while the
        # admission ladder is probed.
        config = ServerConfig(result_cache_size=0, max_batch_size=256,
                              queue_depth=8, high_reserve_fraction=0.25,
                              brownout_fraction=0.5)
        before = perfstats.snapshot(
            ["serve.shed.priority.normal", "serve.shed.priority.high",
             "serve.shed.priority.low", "serve.brownout.count"])
        stall = _hold_first_batch(200.0, "serve.infer")
        with faults.inject(stall), transport(registry, world["dbs"],
                                             config) as fleet:
            normals = [fleet.submit(plans[i], db_a.name,
                                    priority=RequestPriority.NORMAL)
                       for i in range(6)]
            assert all(h.status is RequestStatus.PENDING for h in normals)
            # LOW over its bound browns out: immediate DEGRADED answer
            # from the analytical model, flagged as such.
            low = fleet.submit(plans[6], db_a.name,
                               priority=RequestPriority.LOW)
            assert low.status is RequestStatus.DEGRADED
            assert low.served_by == ("analytical", "brownout")
            analytical = AnalyticalCostModel(db_a)
            assert low.value == analytical.predict_plan(plans[6])
            # NORMAL over its bound sheds...
            shed_normal = fleet.submit(plans[7], db_a.name,
                                       priority=RequestPriority.NORMAL)
            assert shed_normal.status is RequestStatus.SHED
            # ...while HIGH still has the reserve.
            high_a = fleet.submit(plans[8], db_a.name,
                                  priority=RequestPriority.HIGH)
            high_b = fleet.submit(plans[9], db_a.name,
                                  priority=RequestPriority.HIGH)
            assert high_a.status is RequestStatus.PENDING
            assert high_b.status is RequestStatus.PENDING
            # The queue is now full even for HIGH.
            shed_high = fleet.submit(plans[10], db_a.name,
                                     priority=RequestPriority.HIGH)
            assert shed_high.status is RequestStatus.SHED
            stats = fleet.stats()
        after = perfstats.snapshot(
            ["serve.shed.priority.normal", "serve.shed.priority.high",
             "serve.shed.priority.low", "serve.brownout.count"])
        delta = {key: after[key] - before[key] for key in after}
        assert delta["serve.shed.priority.normal"] == 1
        assert delta["serve.shed.priority.high"] == 1
        assert delta["serve.shed.priority.low"] == 0  # browned out instead
        assert delta["serve.brownout.count"] == 1
        assert stats["brownouts"] == 1
        assert stats["shed"] == 2
        assert stats["degraded"] >= 1  # includes the brownout

    def test_deadline_crosses_the_pipe(self, world, tmp_path, transport):
        """A request whose deadline expires while queued is dropped before
        featurization (worker-side on the fleet), with the typed error."""
        registry = _registry_with(world, tmp_path)
        db_a = world["db_a"]
        config = ServerConfig(result_cache_size=0, max_batch_size=256)
        fleet = transport(registry, world["dbs"], config)
        doomed = fleet.submit(world["records_a"][0].plan, db_a.name,
                              deadline_ms=1.0)
        fine = fleet.submit(world["records_a"][1].plan, db_a.name)
        # Queued before start() and held far past the request deadline: by
        # the time the batch forms, the deadline has long expired.
        time.sleep(0.05)
        with fleet:
            doomed.wait(30)
            assert doomed.status is RequestStatus.FAILED
            with pytest.raises(DeadlineExceededError):
                doomed.result(0)
            assert fine.result(30) == float(world["expected_a"][1])
            stats = fleet.stats()
        assert stats["deadline_expired"] >= 1


# ----------------------------------------------------------------------
# Work-conserving batching: coalescing comes from backpressure alone
# ----------------------------------------------------------------------
def _wait_dispatched(transport, timeout_s=10.0):
    """Block until the batcher has taken everything queued."""
    deadline = time.monotonic() + timeout_s
    while transport._queue:
        assert time.monotonic() < deadline, "the batcher never took it"
        time.sleep(0.001)


class TestCoalescingUnderLoad:
    def test_backlog_behind_a_busy_backend_is_one_batch(self, world,
                                                        tmp_path,
                                                        transport):
        """A free backend takes a lone request at once; while it is busy,
        arrivals queue and the next batch takes them all.  Single-plan
        batches fill every in-flight place (the thread server's batcher,
        each fleet worker's two), the first stalls, and the N plans
        submitted meanwhile go as one batch of N, bit-identical to
        direct prediction."""
        registry = _registry_with(world, tmp_path)
        db_a, db_b = world["db_a"], world["db_b"]
        plans = [r.plan for r in world["records_a"]]
        config = ServerConfig(result_cache_size=0, max_batch_size=256)
        stall = _hold_first_batch(150.0, "serve.infer")
        with faults.inject(stall), transport(registry, world["dbs"],
                                             config) as fleet:
            places = (fleet_module._IN_FLIGHT * fleet.n_workers
                      if isinstance(fleet, PredictorFleet) else 1)
            lone = []
            for record in world["records_b"][:places]:
                lone.append(fleet.submit(record.plan, db_b.name))
                _wait_dispatched(fleet)
            handles = fleet.submit_many(plans, db_a.name)
            values = [handle.result(30) for handle in handles]
            lone_values = [handle.result(30) for handle in lone]
            stats = fleet.stats()
        assert stats["batch_size_hist"] == {1: places, len(plans): 1}
        np.testing.assert_array_equal(values, world["expected_a"])
        np.testing.assert_array_equal(lone_values,
                                      world["expected_b"][:places])


# ----------------------------------------------------------------------
# Fault-schedule propagation into forked workers
# ----------------------------------------------------------------------
class TestFleetFaultPropagation:
    def test_explicit_schedule_fires_inside_workers(self, world, tmp_path):
        """A schedule passed to the fleet is installed inside the forked
        worker at spawn: the injected fault fires in the worker process
        and shows up in its reported ``fault_injected`` counters."""
        registry = _registry_with(world, tmp_path)
        schedule = FaultSchedule([
            FaultSpec("serve.infer", rate=1.0, max_faults=1,
                      message="pr9: worker-side inference fault"),
        ], seed=7)
        config = ServerConfig(result_cache_size=0, max_retries=3,
                              retry_backoff_ms=0.5)
        with PredictorFleet(registry, world["dbs"], config, n_workers=1,
                            fault_schedule=schedule,
                            hang_timeout_ms=None) as fleet:
            got = fleet.predict([r.plan for r in world["records_a"]],
                                world["db_a"].name)
            stats = fleet.stats()
        np.testing.assert_array_equal(got, world["expected_a"])
        injected = stats["worker_fault_injected"]
        assert injected.get("fault.injected.serve.infer", 0) >= 1
        assert stats["retries"] >= 1

    def test_process_wide_schedule_inherited_through_fork(self, world,
                                                          tmp_path):
        """A schedule installed process-wide before start() is inherited
        by the forked workers when no explicit schedule overrides it."""
        registry = _registry_with(world, tmp_path)
        schedule = FaultSchedule([
            FaultSpec("serve.infer", rate=1.0, max_faults=1,
                      message="pr9: inherited inference fault"),
        ], seed=8)
        config = ServerConfig(result_cache_size=0, max_retries=3,
                              retry_backoff_ms=0.5)
        fleet = PredictorFleet(registry, world["dbs"], config, n_workers=1,
                               hang_timeout_ms=None)
        faults.install(schedule)
        try:
            fleet.start()
        finally:
            faults.uninstall()
        try:
            got = fleet.predict([r.plan for r in world["records_a"]],
                                world["db_a"].name)
            stats = fleet.stats()
        finally:
            fleet.stop()
        np.testing.assert_array_equal(got, world["expected_a"])
        injected = stats["worker_fault_injected"]
        assert injected.get("fault.injected.serve.infer", 0) >= 1
