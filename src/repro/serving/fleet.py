"""Scale-out serving: the server's front end over a pool of forked workers.

The in-process :class:`~repro.serving.server.PredictorServer` is capped by
the GIL at roughly one core.  :class:`PredictorFleet` keeps that server's
front end — submit, priority admission, brownout, tracing, the result
cache and the micro-batcher — and changes only where a formed micro-batch
runs: on a worker from a pool of long-lived forked processes
(:class:`~repro.bench.parallel.WorkerProcess`), the BRAD-style
front-end/worker split with the batching boundary at the router.

* **Batches, not requests, cross the pipe.**  The batcher is
  work-conserving: the moment some worker has room (fewer than two
  batches in flight) it ships everything queued, up to
  ``max_batch_size``, so a lone request goes at once and batches grow
  while every worker is busy.  A batch is one pipe message carrying each
  request's digest (workers never re-hash), deadline and submit time, and
  its plan as a token, not a plan object: the marshal-v2 bytes of
  :func:`~repro.featurization.plan_token` that the digest hashed at
  submit, plus the root's ``est_cost``.  The worker decodes each item
  into a plain record (workers build no :class:`~repro.serving.core.
  PredictionRequest`: no latch, no lock), featurizes the token directly
  and ships the outcomes :meth:`~repro.serving.core.ServingCore.
  process_batch` yields as one result message.  The router delivers them
  through :meth:`~repro.serving.core.ServingCore.complete`, the server's
  one completion path: ``DONE`` values enter the router's result cache
  before the handles complete, the observation tap sees every
  ``DONE``/``CACHED`` delivery, and ``stats()`` counts each delivery
  once, whatever hedges and re-sends ran.  ``worker_stats`` rows carry
  execution counters only (retries, bisects, deadlines, hydration).
  Duplicates of a queued or in-flight plan follow its request at the
  front end (single flight, see :mod:`repro.serving.server`), so a
  worker never sees a repeat, and it runs without a result cache.
* **Warm once, fork many.**  The router builds every database's catalog
  statistics and hydrates its models through
  :meth:`~repro.serving.registry.ModelRegistry.load_mmap` (one mapped file
  per checkpoint) before it forks; workers, and the replacements
  supervision forks, inherit both copy-on-write instead of rebuilding
  them.  A version the router never loaded (a later promote) is hydrated
  from disk by the worker, digest-verified as always.  Workers freeze the
  inherited heap first thing (``gc.freeze()``: their collections never
  scan or copy it) and pin BLAS to one thread at spawn
  (:func:`~repro.nn.pin_blas_to_one_thread`).
* **Exactly-once completion across worker death, hangs and hedges.**  A
  dead worker (crash, kill -9, a torn or undecodable frame) is seen
  through its pipe; a hung one misses heartbeats for ``hang_timeout_ms``
  and is SIGKILLed into the same path.  A replacement is forked and every
  unanswered batch re-sent.  A batch pending past ``hedge_after_ms`` is
  re-sent to another worker, at most three times.  Whichever answer
  arrives first completes the batch; later copies are dropped.
  Execution is at-least-once, completion exactly once, and duplicates are
  harmless because values are bit-identical wherever and however often a
  plan runs.  A slot whose workers die three times in a row before
  answering anything (one that cannot start) is given up instead of
  re-forked: the batches only it held fail with :class:`WorkerStartError`,
  and once every slot is given up each batch fails at dispatch.
* **Zero-downtime promote/rollback.**  When ``registry.generation``
  moves, the router re-resolves its routes and broadcasts ``refresh``;
  workers re-read the on-disk manifests between batches.

Chaos: ``fleet.pipe.send`` / ``fleet.pipe.recv`` (drop/delay/raise on
either side; ``corrupt`` at a send writes a garbage frame) and
``fleet.worker.hang`` (wedge or delay a worker before a batch).  A
``fault_schedule`` (one schedule, or a ``{worker index: schedule}`` dict)
is installed inside each worker at spawn; a schedule installed
process-wide before :meth:`PredictorFleet.start` is inherited through the
fork.  Restarted workers come back without the explicit schedule.

Observability: ``fleet.worker.*``, ``fleet.hang.*``, ``fleet.hedge.*``,
``fleet.pipe.corrupt``, ``fleet.stats.unresponsive``, every ``serve.*``
counter of the front end, and each worker's counters and histograms,
shipped as deltas with its stats answers.
"""

from __future__ import annotations

import dataclasses
import gc
import marshal
import os
import select
import signal
import threading
import time
from collections import Counter, OrderedDict

from .. import perfstats
from ..bench.parallel import WorkerProcess
from ..featurization import plan_from_token, plan_token
from ..nn import openblas, pin_blas_to_one_thread
from ..obs.metrics import REGISTRY, snapshot_delta
from ..obs.trace import TraceContext
from ..robustness import faults
from .core import (_FAILED, DeadlineExceededError, DegradedResponseError,
                   RequestShedError, ServerClosedError, ServingCore)
from .registry import HydrationError, ModelRegistry, RoutingError
from .server import PredictorServer

__all__ = ["PredictorFleet", "WorkerStartError"]

# Batches one worker may hold: the second hides the pipe round trip
# (fleet_fresh throughput +8% over one, 6 of 7 paired runs on 2 vCPUs).
_IN_FLIGHT = 2
# Re-sends one batch may get past its straggler threshold.
_MAX_HEDGES = 3
# Consecutive worker deaths before a first answer that give a slot up.
_MAX_START_FAILURES = 3
# Completed-hedge memory: how many hedged batch ids we remember so a
# loser's late duplicate is counted as hedge waste.
_HEDGED_DONE_BOUND = 4096
# What a "corrupt" action at fleet.pipe.send writes: a length-prefixed
# frame whose payload no unpickler accepts.
_GARBAGE_FRAME = b"\x00not a pickle"
# Worker execution counters the fleet's stats() sums.  Deliveries are
# counted once, by the router's ServingCore.complete: a hedged or re-sent
# batch runs on several workers.  Not "swaps": each worker re-resolving
# one promote is not another swap.  A worker's stats row carries these,
# its swaps, batch sizes and breakers (plus gc, CPU, fault and metrics).
_SUMMED = ("retries", "bisects", "deadline_expired", "hydrate_failures")
_WORKER_ROW = _SUMMED + ("swaps", "batches", "batch_size_hist", "breakers")

_ERROR_TYPES = {error.__name__: error for error in (
    RoutingError, HydrationError, DeadlineExceededError,
    DegradedResponseError, ServerClosedError, RequestShedError,
    faults.InjectedFault)}


class WorkerStartError(RuntimeError):
    """No fleet worker that could answer the request was left: its slot's
    workers kept dying before answering anything, and the slot was given
    up."""


def _decode_error(encoded):
    """Rebuild a typed exception from its ``(class name, message)`` wire
    form; unknown classes come back as RuntimeError with the name kept."""
    name, message = encoded
    if name in _ERROR_TYPES:
        return _ERROR_TYPES[name](message)
    return RuntimeError(f"{name}: {message}")


def _pipe_send(conn, message):
    """Send through the ``fleet.pipe.send`` fault point, either side.

    ``drop`` discards the message; ``corrupt`` writes a garbage frame in
    its place; ``raise`` propagates :class:`~repro.robustness.faults.
    InjectedFault` to the caller.
    """
    action = faults.check("fleet.pipe.send")
    if action == "drop":
        return
    if action == "corrupt":
        conn.send_bytes(_GARBAGE_FRAME)
        return
    conn.send(message)


class _WireRequest:
    """A request as a fleet worker receives it: a plain record of what
    :meth:`~repro.serving.core.ServingCore.process_batch` reads, the plan
    as its token (decoded from the batch's marshal bytes) and the root's
    ``est_cost``, plus the ``outcome`` the worker ships back.

    Featurization encodes the token directly.  A plan object is rebuilt
    with :func:`~repro.featurization.plan_from_token` only when something
    reads :attr:`plan` (the analytical fallback); DeepDB annotation
    rebuilds its own from the token inside ``featurize_records``.
    """

    __slots__ = ("db_name", "token", "est_cost", "digest", "submitted_at",
                 "deadline_ms", "trace", "retries", "outcome", "_plan")

    def __init__(self, db_name, data, est_cost, digest, submitted_at,
                 deadline_ms, traced):
        self.db_name = db_name
        self.token = marshal.loads(data)
        self.est_cost = est_cost
        self.digest = digest
        # The router's submit time: deadlines and latency count pipe time
        # (perf_counter is system-wide on this platform).
        self.submitted_at, self.deadline_ms = submitted_at, deadline_ms
        # A bare context (no tracer here): its stages ship back with the
        # result and the router merges them.
        self.trace = TraceContext("", 0) if traced else None
        self.retries = 0
        self.outcome = self._plan = None

    @property
    def plan(self):
        if self._plan is None:
            self._plan = plan_from_token(self.token, self.est_cost)
        return self._plan


def _fleet_worker_main(conn, index, registry_root, mapped, dbs, config,
                       fault_schedule):
    """Worker process entry point: a serving core fed by the pipe.

    Serves ``batch`` messages through :meth:`ServingCore.process_batch`,
    answers ``ping`` and ``stats``, re-resolves routes on ``refresh`` and
    exits on ``stop``.  Anything that breaks the stream — EOF, a torn
    pipe, a frame that does not decode, an injected ``raise`` — ends the
    process, which the router's supervisor turns into a restart.

    ``mapped`` is the router registry's :meth:`~repro.serving.registry.
    ModelRegistry.mapped_models` snapshot, taken just before the fork: the
    worker's registry adopts those verified models, and hydrates from disk
    only versions the router had not loaded.  ``dbs`` arrive with their
    catalog statistics already built by the router's core.

    ``fault_schedule`` (when given) replaces whatever schedule the fork
    inherited; when ``None``, a schedule installed process-wide before the
    fork stays active inside the worker.

    The first call freezes the heap inherited from the router
    (``gc.freeze()``): the worker's collections never scan those objects,
    so they neither cost CPU per plan nor copy the router's pages on
    write.  A stats answer is the worker's execution row (``_WORKER_ROW``)
    plus ``gc_frozen`` (counted once, at the first answer: the count walks
    every frozen object, ~12 ms for 600k) and ``cpu_s`` (its
    ``time.process_time()``: CPU over a window is a difference of two).
    """
    gc.freeze()
    frozen = None
    pin_blas_to_one_thread()
    perfstats.reset()  # worker-local counters (fault.injected.* reporting)
    if fault_schedule is not None:
        faults.uninstall()  # replace anything inherited through the fork
        faults.install(fault_schedule)
    registry = ModelRegistry(registry_root, mapped=mapped)
    # No result cache: repeats are answered at the router, never sent here.
    core = ServingCore(registry, dbs, mmap=True, config=dataclasses.replace(
        config, result_cache_size=0))
    core.proc_label = f"worker-{index}"  # span proc tag
    shipped_metrics = None  # last snapshot shipped (delta baseline)
    while True:
        try:
            message = conn.recv()
            if faults.check("fleet.pipe.recv") == "drop":
                continue
        except Exception:  # noqa: BLE001 — any broken stream ends the worker
            return
        kind = message[0]
        if kind == "refresh":
            registry.refresh()
            core.resolve_routes()
            continue
        if kind == "batch":
            reply = _serve_batch(core, message)
        elif kind == "ping":
            reply = ("pong",)
        else:  # "stats" or "stop": the stop answer is the final stats
            stats = core.stats()
            payload = {key: stats[key] for key in _WORKER_ROW}
            if frozen is None:
                frozen = gc.get_freeze_count()
            payload["gc_frozen"] = frozen
            payload["cpu_s"] = time.process_time()
            payload["fault_injected"] = {
                name: count for name, count in perfstats.snapshot().items()
                if name.startswith("fault.injected.")}
            # Metric deltas since the last shipped snapshot: the router
            # merges each exactly once (a delta lost to an injected drop
            # undercounts — counters are best-effort under chaos).
            current = REGISTRY.snapshot()
            payload["metrics"] = snapshot_delta(current, shipped_metrics)
            shipped_metrics = current
            reply = ("stats", payload)
        try:
            _pipe_send(conn, reply)
        except Exception:  # noqa: BLE001 — router gone or injected raise
            return
        if kind == "stop":
            return


def _serve_batch(core, message):
    """Run one shipped micro-batch; returns the ``done`` reply: per
    request, in batch order, its outcome (a ``FAILED`` error encoded as
    ``(class name, message)``), retries and exported trace stages."""
    _, batch_id, send_ts, items = message
    requests = [_WireRequest(*item) for item in items]
    # Decoding the batch into requests is part of receiving it (as
    # unpickling its frame is): the "worker.recv" stage ends here.
    recv_ts = time.perf_counter()
    for request in requests:
        if request.trace is not None:
            request.trace.add_stage("worker.recv", send_ts, recv_ts)
    # The wedged-worker fault point: "hang" sleeps until the router's
    # liveness plane SIGKILLs the process; "delay" holds the batch.
    faults.check("fleet.worker.hang")
    try:
        for group, outcomes in core.process_batch(requests):
            for request, outcome in zip(group, outcomes):
                request.outcome = outcome
    except Exception as exc:  # noqa: BLE001 — fail the batch, keep serving
        for request in requests:
            if request.outcome is None:
                request.outcome = (_FAILED, exc, None, None)
    results = []
    for request in requests:
        status, result, served_by, checkpoint = request.outcome
        if status is _FAILED:
            result = (type(result).__name__, str(result))
        trace = request.trace
        results.append((status, result, served_by, checkpoint,
                        request.retries,
                        None if trace is None else trace.export_remote()))
    return ("done", batch_id, results)


def _wire_items(requests):
    """The batch message's per-request tuples.

    A plan crosses the pipe as the marshal-v2 bytes of its token (the
    bytes its digest hashed at submit; a plan whose digest came from the
    memo is tokenized here) plus the root's ``est_cost``, which the
    token leaves out and the analytical fallback reads.  Pickling bytes
    is a copy, where pickling a plan tree walks every node and predicate.
    """
    items = []
    for r in requests:
        data = r.token_bytes
        if data is None:
            data = marshal.dumps(plan_token(r.plan), 2)
        items.append((r.db_name, data, r.plan.est_cost, r.digest,
                      r.submitted_at, r.deadline_ms, r.trace is not None))
    return items


class _Batch:
    """Router-side state for one dispatched micro-batch (router lock).

    ``slots[0]`` is the original placement, later ones hedge targets.  The
    first answer pops the entry everywhere; later copies find nothing.
    """

    __slots__ = ("batch_id", "requests", "items", "slots", "hedges",
                 "last_send")

    def __init__(self, batch_id, requests, items, dispatched_at):
        self.batch_id = batch_id
        self.requests = requests
        self.items = items
        self.slots = []
        self.hedges = 0
        self.last_send = dispatched_at

    def message(self):
        # The latest placement's time opens the worker's "worker.recv"
        # stage: a first send counts from the dispatch that encoded the
        # batch, a re-send or hedge from when it was placed.
        return ("batch", self.batch_id, self.last_send, self.items)


class _WorkerSlot:
    """Router-side state for one worker: pipe, batches in flight,
    liveness timestamps."""

    __slots__ = ("index", "wp", "pending", "send_lock", "epoch", "closing",
                 "collector", "last_stats", "stats_event", "last_seen",
                 "last_ping", "answered", "failed_starts")

    def __init__(self, index, wp):
        self.index = index
        self.wp = wp
        self.pending = {}              # batch_id -> _Batch
        self.send_lock = threading.Lock()  # wire order + restart handover
        self.epoch = 0                 # bumped per restart
        self.closing = False           # stopping, or given up
        self.collector = None
        self.last_stats = None
        self.stats_event = threading.Event()
        self.last_seen = time.monotonic()  # any inbound message
        self.last_ping = 0.0               # last heartbeat sent
        self.answered = False          # this worker sent anything yet
        self.failed_starts = 0         # deaths in a row before answering

    def send_locked(self, message):
        """Send one message (caller holds ``send_lock``).  A failed or
        injected-raise write is swallowed: whatever the message carried
        stays registered, so a hedge or a restart re-sends it."""
        try:
            _pipe_send(self.wp.conn, message)
        except (OSError, faults.InjectedFault):
            pass

    def send(self, message):
        with self.send_lock:
            self.send_locked(message)

    def writable(self):
        """True when a write cannot block: a hung worker stops draining its
        pipe, and the liveness thread must never wedge on it."""
        try:
            return bool(select.select([], [self.wp.conn], [], 0)[1])
        except (OSError, ValueError, TypeError):  # closed, or mid-restart
            return False

    def send_nowait(self, message):
        """Best-effort send that never waits on the lock or a full pipe;
        ``False`` means "try again next scan"."""
        if not self.send_lock.acquire(blocking=False):
            return False
        try:
            if not self.writable():
                return False
            self.send_locked(message)
        finally:
            self.send_lock.release()
        return True


class PredictorFleet(PredictorServer):
    """The server's front end over a pool of forked predictor workers.

    ::

        registry = ModelRegistry(root)
        registry.publish("zs", model, dbs=[db], default=True)
        with PredictorFleet(registry, {"imdb": db}, n_workers=4) as fleet:
            runtime_ms = fleet.submit(plan, "imdb").result()

    ``registry`` may be a :class:`~repro.serving.registry.ModelRegistry`
    or a store path.  The router builds ``dbs``' statistics and resolves
    routes through the mmap path at construction; workers fork at
    :meth:`start` and inherit both copy-on-write, reading manifests from the
    registry's *on-disk* state.

    * ``hang_timeout_ms`` — a worker silent this long while pinged is
      SIGKILLed and restarted, its unanswered batches re-sent.  Must
      exceed the worst-case batch time; ``None`` disables hang detection.
      Heartbeats go out every quarter of it.
    * ``hedge_after_ms`` — straggler threshold (ms) for re-sending a batch
      to another worker, or ``None`` (off, the default).
    * ``fault_schedule`` — see the module docstring.
    """

    _name = "fleet"

    def __init__(self, registry, dbs, config=None, n_workers=2,
                 fault_schedule=None, hang_timeout_ms=10_000.0,
                 hedge_after_ms=None):
        if not isinstance(registry, ModelRegistry):
            registry = ModelRegistry(registry)
        super().__init__(registry, dbs, core=ServingCore(
            registry, dbs, config=config, mmap=True))
        self.n_workers = max(1, int(n_workers))
        self._fault_schedule = fault_schedule
        self._hang_timeout_s = (None if hang_timeout_ms is None
                                else max(hang_timeout_ms, 1.0) / 1e3)
        self._ping_interval_s = (None if hang_timeout_ms is None
                                 else max(self._hang_timeout_s / 4.0, 0.01))
        self._hedge_after_s = (None if hedge_after_ms is None
                               else float(hedge_after_ms) / 1e3)
        self._registry_root = str(registry.store.root)
        self._slots = []
        self._pool_running = False
        self._batches = {}              # batch_id -> _Batch (router lock)
        self._batch_seq = 0
        self._hedged_done = OrderedDict()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _worker_args(self, index, schedule):
        # Taken in the parent right before each fork (restarts included),
        # so a worker starts with every model the router holds mapped.
        return (index, self._registry_root, self.registry.mapped_models(),
                self.core.dbs, self.config, schedule)

    def start(self):
        if self._pool_running:
            raise RuntimeError("fleet already started")
        openblas()  # resolve the BLAS symbols once, before forking
        schedules = self._fault_schedule
        self._slots = []
        for index in range(self.n_workers):
            schedule = (schedules.get(index) if isinstance(schedules, dict)
                        else schedules)
            wp = WorkerProcess(_fleet_worker_main,
                               args=self._worker_args(index, schedule),
                               name=f"repro-fleet-{index}")
            wp.start()
            perfstats.increment("fleet.worker.spawn")
            self._slots.append(_WorkerSlot(index, wp))
        self._pool_running = True
        for slot in self._slots:
            self._spawn_collector(slot)
        # Detection and hedging run on *separate* threads: a hedge send
        # that blocks on a filling pipe is unblocked by the detector's
        # kill, so the two must never share a thread.
        if self._hang_timeout_s is not None:
            self._spawn_loop(self._ping_and_detect, "liveness")
        if self._hedge_after_s is not None:
            self._spawn_loop(self._maybe_hedge, "hedge")
        return super().start()

    def stop(self, drain=True):
        """Stop the fleet; every pending handle resolves, none hangs.

        The front end drains (or fails) its queue first; then ``drain=True``
        waits for every dispatched batch, and ``drain=False`` fails them
        with a typed :class:`ServerClosedError`.
        """
        super().stop(drain=drain)
        with self._lock:
            if not self._pool_running:
                return
            while drain and self._batches:
                self._wakeup.wait(0.1)
            dropped = [request for entry in self._batches.values()
                       for request in entry.requests]
            self._batches.clear()
            self._retire_locked(len(dropped))
            self._pool_running = False
            for slot in self._slots:
                slot.pending.clear()
                slot.closing = True
        self._fail(dropped, ServerClosedError(
            "fleet stopped without draining"))
        for slot in self._slots:
            slot.send(("stop",))
        # Workers answer "stop" with their final stats; the collector
        # stashes them and exits on EOF.  Only then is the pipe closed, so
        # no collector is ever left reading a descriptor a later pipe may
        # reuse.
        for slot in self._slots:
            process = slot.wp.process
            if process is not None:
                process.join(timeout=5.0)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=5.0)
            if slot.collector is not None:
                slot.collector.join(timeout=5.0)
            slot.wp.stop()

    def kill_worker(self, index):
        """Test hook: SIGKILL one worker process (the supervisor restarts
        it and re-sends its unanswered batches).  Returns the pid."""
        process = self._slots[index].wp.process
        if process is None or not process.is_alive():
            return None
        os.kill(process.pid, signal.SIGKILL)
        return process.pid

    def worker_pids(self):
        return [slot.wp.process.pid if slot.wp.process is not None else None
                for slot in self._slots]

    def _maybe_swap(self):
        if self.core.maybe_swap():
            for slot in self._slots:
                slot.send(("refresh",))

    # ------------------------------------------------------------------
    # Backend: a worker with room takes the next batch
    # ------------------------------------------------------------------
    def _ready_locked(self):
        # With every slot given up, take batches anyway: _dispatch fails
        # them, so the queue drains.
        return (any(len(slot.pending) < _IN_FLIGHT and not slot.closing
                    for slot in self._slots)
                or all(slot.closing for slot in self._slots))

    def _dispatch(self, batch):
        dispatched_at = time.perf_counter()
        items = _wire_items(batch)  # outside the lock
        with self._lock:
            live = [s for s in self._slots if not s.closing]
            if live:
                slot = min(live, key=lambda s: len(s.pending))
                entry = _Batch(self._batch_seq, batch, items, dispatched_at)
                self._batch_seq += 1
                entry.slots.append(slot)
                self._batches[entry.batch_id] = entry
                slot.pending[entry.batch_id] = entry
            else:
                self._retire_locked(len(batch))
            # Handed over: from here the batch's supervision re-sends it,
            # never the batcher's crash handler.
            self._inflight = []
        if live:
            slot.send(entry.message())
        else:
            self._fail(batch, WorkerStartError(
                "every fleet worker slot was given up"))

    def _spawn_collector(self, slot):
        slot.collector = threading.Thread(
            target=self._collect, args=(slot, slot.epoch),
            name=f"repro-fleet-collect-{slot.index}", daemon=True)
        slot.collector.start()

    def _collect(self, slot, epoch):
        """Receive loop for one worker's pipe.

        Every inbound message refreshes the slot's last-seen time for the
        liveness plane.  Anything that breaks the stream — EOF, a torn
        pipe, an injected ``raise`` at the recv point, or a frame that does
        not decode — ends the loop into the restart path: after a bad
        frame nothing later on the stream can be trusted.
        """
        conn = slot.wp.conn
        while True:
            try:
                if not conn.poll(0.1):
                    continue
                message = conn.recv()
                slot.last_seen = time.monotonic()
                slot.answered = True
                if faults.check("fleet.pipe.recv") == "drop":
                    continue
            except (EOFError, OSError, faults.InjectedFault):
                break
            except Exception:  # noqa: BLE001 — an undecodable frame
                perfstats.increment("fleet.pipe.corrupt")
                break
            if message[0] == "done":
                self._on_done(slot, message[1], message[2])
            elif message[0] == "stats":
                # Each answer carries the worker's metric delta since its
                # previous one; merging each once is exact.
                if message[1].get("metrics"):
                    REGISTRY.merge(message[1]["metrics"])
                slot.last_stats = message[1]
                slot.stats_event.set()
            # "pong" carries nothing beyond the last_seen refresh above.
        self._on_worker_exit(slot, epoch)

    def _on_done(self, slot, batch_id, results):
        with self._lock:
            entry = self._batches.pop(batch_id, None)
            if entry is None:
                # A hedge loser, or a re-send whose original answer raced
                # the worker's death: the batch already completed once.
                if batch_id in self._hedged_done:
                    self.core.count("hedge_wasted")
                    perfstats.increment("fleet.hedge.wasted")
                return
            for owner in entry.slots:
                owner.pending.pop(batch_id, None)
            if len(entry.slots) > 1:  # hedged at least once
                self._hedged_done[batch_id] = True
                while len(self._hedged_done) > _HEDGED_DONE_BOUND:
                    self._hedged_done.popitem(last=False)
                if slot is not entry.slots[0]:
                    self.core.count("hedge_wins")
                    perfstats.increment("fleet.hedge.won")
                    for request in entry.requests:
                        if request.trace is not None:
                            request.trace.annotate("hedge.won")
            self._retire_locked(len(entry.requests))
        outcomes = []
        for request, result in zip(entry.requests, results):
            status, value, served_by, checkpoint, retries, trace = result
            request.retries = retries
            if request.trace is not None and trace is not None:
                # Fold the winning worker's stages in before completion
                # finalizes the trace.
                request.trace.merge_remote(trace,
                                           proc=f"worker-{slot.index}")
            if status is _FAILED:
                value = _decode_error(value)
            outcomes.append((status, value, served_by, checkpoint))
        self.core.complete(entry.requests, outcomes)
        self._release_followers(entry.requests)

    def _on_worker_exit(self, slot, epoch):
        """Supervision: fork a replacement, re-send unanswered batches.

        The send lock spans the snapshot and the restart, so every batch
        registered on the slot is either re-sent here or sent by its
        dispatcher (or a later hedge scan) on the new pipe.  The
        replacement forks *without* the explicit fault schedule: a
        hang-killed worker comes back healthy.  The slot's
        ``_MAX_START_FAILURES``-th death in a row before any answer gives
        it up instead: the batches no live slot also holds fail with
        :class:`WorkerStartError`.
        """
        with slot.send_lock:
            with self._lock:
                if (not self._pool_running or slot.closing
                        or slot.epoch != epoch):
                    return
                slot.epoch += 1
                slot.failed_starts = (0 if slot.answered
                                      else slot.failed_starts + 1)
                slot.answered = False
                given_up = slot.failed_starts >= _MAX_START_FAILURES
                if given_up:
                    slot.closing = True
                    orphans = []
                    for entry in slot.pending.values():
                        entry.slots = [s for s in entry.slots
                                       if s is not slot]
                        if all(s.closing for s in entry.slots):
                            del self._batches[entry.batch_id]
                            orphans.extend(entry.requests)
                    slot.pending.clear()
                    self._retire_locked(len(orphans))
                else:
                    resend = list(slot.pending.values())
                    requeued = sum(len(entry.requests) for entry in resend)
                    self.core.count("worker_restarts")
                    self.core.count("requeued", requeued)
            if given_up:
                perfstats.increment("fleet.worker.given_up")
                self._fail(orphans, WorkerStartError(
                    f"fleet worker {slot.index} died {_MAX_START_FAILURES} "
                    "times in a row before answering"))
                return
            perfstats.increment("fleet.worker.restart")
            perfstats.increment("serve.fault.requeued", requeued)
            slot.wp.restart(args=self._worker_args(slot.index, None))
            slot.last_seen = time.monotonic()
            slot.last_ping = 0.0
            now = time.perf_counter()
            for entry in resend:
                # A fresh placement: the copies that died with the worker
                # return their hedge budget.
                entry.last_send = now
                entry.hedges = 0
                for request in entry.requests:
                    if request.trace is not None:
                        request.trace.annotate("requeued")
                slot.send_locked(entry.message())
        self._spawn_collector(slot)

    # ------------------------------------------------------------------
    # Liveness plane: heartbeats, hang detection, hedged batches
    # ------------------------------------------------------------------
    def _spawn_loop(self, scan, name):
        candidates = [0.25]
        if self._ping_interval_s is not None:
            candidates.append(self._ping_interval_s)
        if self._hedge_after_s is not None:
            candidates.append(self._hedge_after_s / 2)
        interval = max(min(candidates), 0.01)

        def loop():
            while True:
                time.sleep(interval)
                if not self._pool_running:
                    return
                scan()

        threading.Thread(target=loop, name=f"repro-fleet-{name}",
                         daemon=True).start()

    def _ping_and_detect(self):
        """Heartbeat every live worker; SIGKILL the unresponsive ones —
        silent for ``hang_timeout_ms`` although a heartbeat was attempted
        since (an unwritable attempt counts: a healthy worker drains its
        pipe far faster).  The kill turns the gray failure into a crash."""
        now = time.monotonic()
        for slot in list(self._slots):
            if slot.closing or not slot.wp.alive:
                continue
            if (now - slot.last_seen > self._hang_timeout_s
                    and slot.last_ping > slot.last_seen):
                perfstats.increment("fleet.hang.detected")
                self.core.count("hangs")
                process = slot.wp.process
                if process is not None and process.is_alive():
                    try:
                        os.kill(process.pid, signal.SIGKILL)
                        perfstats.increment("fleet.hang.killed")
                    except OSError:
                        pass
                continue
            if now - slot.last_ping >= self._ping_interval_s:
                slot.last_ping = now
                slot.send_nowait(("ping",))

    def _maybe_hedge(self):
        """Re-send batches pending past the straggler threshold.

        The target is the least-loaded live worker with a writable pipe
        that the batch has not tried yet (else any writable one).  A full
        pipe is what a hung worker looks like from here, so it is never a
        target.
        """
        now = time.perf_counter()
        sends = []
        with self._lock:
            live = [slot for slot in self._slots
                    if not slot.closing and slot.writable()]
            for entry in self._batches.values():
                if (entry.hedges >= _MAX_HEDGES
                        or now - entry.last_send <= self._hedge_after_s):
                    continue
                candidates = ([slot for slot in live
                               if slot not in entry.slots] or live)
                if not candidates:
                    continue
                target = min(candidates, key=lambda slot: len(slot.pending))
                entry.hedges += 1
                entry.last_send = now
                entry.slots.append(target)
                target.pending[entry.batch_id] = entry
                sends.append((entry, target))
        for entry, target in sends:
            if not target.send_nowait(entry.message()):
                # Skipped (lock or pipe busy): it never left, so it spends
                # no budget; the next scan tries again.
                with self._lock:
                    entry.hedges -= 1
                continue
            self.core.count("hedges")
            perfstats.increment("fleet.hedge.sent")
            for request in entry.requests:
                if request.trace is not None:
                    request.trace.annotate("hedge.sent")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _collect_worker_stats(self, timeout_s):
        """Latest per-worker stats rows (live query; cached after stop).

        Hang-safe: a worker that does not answer within ``timeout_s`` is
        reported as an ``{"unresponsive": True}`` row instead of blocking
        the caller.
        """
        asked, unresponsive = [], set()
        deadline = time.monotonic() + timeout_s
        for slot in self._slots:
            if not (self._pool_running and slot.wp.alive):
                continue
            slot.stats_event.clear()
            while not slot.send_nowait(("stats",)):
                if time.monotonic() >= deadline or not slot.wp.alive:
                    unresponsive.add(slot.index)
                    break
                time.sleep(0.01)
            else:
                asked.append(slot)
        for slot in asked:
            if not slot.stats_event.wait(max(0.0,
                                             deadline - time.monotonic())):
                unresponsive.add(slot.index)
        perfstats.increment("fleet.stats.unresponsive", len(unresponsive))
        return [({"unresponsive": True, "worker": slot.index}
                 if slot.index in unresponsive else slot.last_stats)
                for slot in self._slots]

    def stats(self, timeout_s=2.0):
        """The front end's :meth:`PredictorServer.stats` (deliveries
        counted once, by the router) with every worker's execution
        counters and batch sizes folded in, plus fleet extras
        (restart/hang/hedge counts and per-worker rows — ``unresponsive``
        for workers that did not answer within ``timeout_s``).

        Routes are re-resolved first: a pending ``refresh`` goes down each
        pipe ahead of the ``stats`` query, so the worker rows already
        describe a promote that landed after the last request.
        """
        self._maybe_swap()
        worker_stats = self._collect_worker_stats(timeout_s)
        stats = super().stats()
        counts = self.core.counts_snapshot()
        hist = Counter(stats["batch_size_hist"])
        breakers, fault_injected = {}, Counter()
        unresponsive = 0
        for index, worker in enumerate(worker_stats):
            if not worker:
                continue
            if worker.get("unresponsive"):
                unresponsive += 1
                continue
            for key in _SUMMED:
                stats[key] += worker[key]
            hist.update({int(size): count for size, count
                         in worker["batch_size_hist"].items()})
            breakers.update({f"w{index}:{key}": state for key, state
                             in worker["breakers"].items()})
            fault_injected.update(worker.get("fault_injected", {}))
        batches = sum(hist.values())
        with self._lock:
            outstanding = self._outstanding
        stats.update({
            "batches": batches,
            "batch_size_hist": dict(sorted(hist.items())),
            "mean_batch_size": (sum(size * count for size, count
                                    in hist.items()) / batches
                                if batches else 0.0),
            "breakers": breakers,
            "workers": self.n_workers,
            "worker_restarts": counts["worker_restarts"],
            "spills": 0,  # no shards: a worker with room takes each batch
            "outstanding": outstanding,
            "hangs": counts["hangs"],
            "hedges": counts["hedges"],
            "hedge_wins": counts["hedge_wins"],
            "hedge_wasted": counts["hedge_wasted"],
            "unresponsive_workers": unresponsive,
            "worker_fault_injected": dict(fault_injected),
            "worker_stats": worker_stats,
        })
        return stats
