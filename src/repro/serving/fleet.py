"""Scale-out serving: a sharding router over forked predictor workers.

The in-process :class:`~repro.serving.server.PredictorServer` is capped by
the GIL at roughly one core no matter the offered load.  This module is the
BRAD-style front-end/worker split that removes the cap:

* **A router in the client process** sharding requests by *database
  fingerprint* across a pool of long-lived forked workers
  (:class:`~repro.bench.parallel.WorkerProcess`).  Each database has a
  preferred shard; when a hot database saturates its shard (more than
  ``spill_threshold`` requests outstanding), requests spill to the least
  loaded worker — placement is a pure performance decision, because
  predictions are bit-identical wherever they run (see below).
* **Workers run the same serving core** (:class:`~repro.serving.core.
  ServingCore`) the thread server uses — micro-batch coalescing,
  retry/backoff, poisoned-batch bisection, per-request deadlines, circuit
  breaker with flagged-``DEGRADED`` analytical fallback — over checkpoints
  hydrated via the registry's mmap path (:meth:`~repro.serving.registry.
  ModelRegistry.load_mmap`): every worker's parameters are read-only views
  of one content-addressed on-disk extraction, one page-cache copy for the
  whole fleet, no per-worker deserialization.
* **Handles cross the pipe, semantics don't change.**  ``submit`` returns
  the same :class:`~repro.serving.core.PredictionRequest` handle the
  in-process server does (``PENDING``/``DONE``/``CACHED``/``SHED``/
  ``FAILED``/``DEGRADED``); requests and results move over per-worker
  duplex pipes.  Repeat plans travel as small integer tokens: router and
  worker maintain *mirrored* bounded LRU plan tables (pipe messages are
  ordered and both sides apply identical insert/touch/evict sequences), so
  a hot plan is pickled once per worker, not once per request.  Each
  request also carries its ``submitted_at`` timestamp, its per-request
  ``deadline_ms``, its :class:`~repro.serving.core.RequestPriority` and
  its plan digest across the pipe, so a worker drops already-expired
  requests *before* featurizing them (typed ``DeadlineExceededError``,
  counted) and never re-hashes a plan the router already hashed.
* **One worker, one core.**  Each worker pins BLAS to a single thread at
  spawn (:func:`~repro.nn.pin_blas_to_one_thread`): with merged
  micro-batches the workers' matmuls would otherwise cross OpenBLAS's
  multithreading threshold and oversubscribe the CPUs the pool is sized
  to.  The router process keeps default BLAS threading.
* **Exactly-once completion across worker death — and worker hangs.**
  The router supervises its workers two ways.  A *dead* worker (crash,
  kill -9) is detected through its pipe; a *hung* worker — wedged in
  compute, deadlocked, stopped — is detected by the liveness plane: the
  router pings every worker on a heartbeat interval, tracks per-slot
  last-seen times, declares a slot unresponsive after ``hang_timeout_ms``
  of silence and SIGKILLs it, which collapses the gray failure into the
  crash path.  Either way a replacement is forked on a fresh pipe and
  every request whose result had not been received is re-sent.  Execution
  is at-least-once (a result in flight when the worker died is recomputed,
  bit-identically); *completion* is exactly-once — each handle resolves
  exactly one time, no request is lost, none is answered twice.
* **Hedged requests.**  A request pending longer than a straggler
  threshold (``hedge_after_ms``, a float or ``"auto"`` for 3× the rolling
  p99 latency) is re-sent to another live worker; the first answer wins
  and the loser's duplicate is dropped by the same raced-result path that
  absorbs restart duplicates.  Hedging is *safe* precisely because of the
  equivalence contract below: both answers are bit-identical, so which
  copy wins is unobservable in the value.  Hedging is also the recovery
  path for injected pipe ``drop`` faults — a message lost on the wire is
  simply re-sent elsewhere.
* **Priority-aware overload control.**  Admission is fleet-wide and
  priority-classed (:class:`~repro.serving.core.RequestPriority`): LOW
  traffic stops being admitted at ``brownout_fraction`` of the queue —
  and, under brownout, is answered by the analytical cost model (flagged
  ``DEGRADED``, ``served_by ("analytical", "brownout")``) instead of shed
  when ``brownout_degraded`` is on; NORMAL stops at the
  ``high_reserve_fraction`` headroom; only HIGH may fill the queue.
  Sheds are counted per class (``serve.shed.priority.<class>``).
* **Zero-downtime promote/rollback, fleet-wide.**  The router watches
  ``registry.generation`` (one int read per submit) and broadcasts a
  ``refresh`` to all workers only when the registry actually changed;
  workers re-read the atomic on-disk manifests and re-resolve routes
  between micro-batches.  In-flight batches finish on the model they
  started with.

**Fleet equivalence contract**: for any request mix, any shard placement
and any worker count, every ``DONE``/``CACHED`` value is bit-identical to
a direct :func:`~repro.core.training.predict_runtimes` call on the same
model — including across worker kills, hang-kills, hedged duplicates and
restarts.  This is inherited from the row-stable inference kernels:
per-plan outputs are pure functions of the plan, so *where* (and how many
times) a plan is served can never change *what* it returns.

Chaos: the fleet's IPC plane carries three named fault points —
``fleet.pipe.send`` / ``fleet.pipe.recv`` (drop/delay/raise on either side
of either pipe direction) and ``fleet.worker.hang`` (wedge the worker loop
before a batch; the liveness plane's SIGKILL is what ends it).  A
``fault_schedule`` passed to the fleet (one schedule, or a per-worker-index
dict) is installed *inside* each worker at spawn; a schedule installed
process-wide before :meth:`PredictorFleet.start` is inherited by the
forked workers.  Workers killed for hanging are restarted *without* the
explicit schedule — the replacement is healthy.

Observability: ``fleet.worker.spawn`` / ``fleet.worker.restart``,
``fleet.route.hit`` / ``fleet.route.rebalance``, ``fleet.queue.depth``
(high-water mark of fleet-wide outstanding requests), the liveness plane's
``fleet.hang.detected`` / ``fleet.hang.killed``, the hedging plane's
``fleet.hedge.sent`` / ``fleet.hedge.won`` / ``fleet.hedge.wasted``,
overload control's ``serve.shed.priority.<class>`` and
``fleet.brownout.count``, plus every ``serve.*`` counter inside each
worker.  :meth:`PredictorFleet.stats` aggregates worker cores' counters
into the same shape :meth:`PredictorServer.stats` reports (a worker that
does not answer within the stats timeout is reported ``unresponsive``
instead of blocking the caller), so the load harness
(:func:`~repro.serving.loadgen.run_load`) drives a fleet unchanged.
"""

from __future__ import annotations

import os
import select
import signal
import threading
import time
from collections import Counter, OrderedDict, deque

import numpy as np

from .. import perfstats
from ..bench.parallel import WorkerProcess
from ..featurization import database_digest, plan_fingerprint
from ..nn import openblas, pin_blas_to_one_thread
from ..obs.metrics import REGISTRY, snapshot_delta
from ..obs.trace import TraceContext, Tracer
from ..optimizer.cost_model import AnalyticalCostModel
from ..robustness import faults
from .core import (DeadlineExceededError, DegradedResponseError,
                   PredictionRequest, RequestPriority, RequestShedError,
                   RequestStatus, ServerClosedError, ServerConfig,
                   ServingCore, admission_limit)
from .registry import HydrationError, ModelRegistry, RoutingError

__all__ = ["PredictorFleet"]

# Mirrored plan-LRU size: router and worker evict identically at this bound.
_TOKEN_LRU_BOUND = 4096
# Completed-hedge memory: how many hedged req_ids we remember so a loser's
# late duplicate is counted as hedge waste instead of silently dropped.
_HEDGED_DONE_BOUND = 4096
# Rolling latency window for the "auto" hedge threshold.
_LATENCY_WINDOW = 512
_HEDGE_MIN_SAMPLES = 32

_ERROR_TYPES = {
    "RoutingError": RoutingError,
    "HydrationError": HydrationError,
    "DeadlineExceededError": DeadlineExceededError,
    "DegradedResponseError": DegradedResponseError,
    "ServerClosedError": ServerClosedError,
    "RequestShedError": RequestShedError,
    "InjectedFault": faults.InjectedFault,
}


def _decode_error(encoded):
    """Rebuild a typed exception from its ``(class name, message)`` wire
    form; unknown classes come back as RuntimeError with the name kept."""
    if encoded is None:
        return None
    name, message = encoded
    exc_type = _ERROR_TYPES.get(name)
    if exc_type is not None:
        return exc_type(message)
    return RuntimeError(f"{name}: {message}")


def _fleet_worker_main(conn, index, registry_root, dbs, config,
                       fault_schedule):
    """Worker process entry point: a serving core fed by the pipe.

    Hydrates its models through the registry's mmap path (shared page
    cache), coalesces pipe-delivered requests into micro-batches with the
    same deadline/size trigger as the thread server, answers liveness
    ``ping`` messages, and ships results back in batches.  Exits on
    ``stop``, pipe EOF, or parent death (the process is a daemon).

    ``fault_schedule`` (when given) replaces whatever schedule the fork
    inherited — each worker owns independent seeded streams.  When it is
    ``None``, a schedule installed process-wide before the fork stays
    active inside the worker: that is the chaos-propagation path.

    A worker is one core by design: BLAS runs single-threaded here, so
    merged micro-batches crossing OpenBLAS's threading threshold cannot
    oversubscribe the machine (the router resolved the symbol pre-fork).
    Each request's plan digest arrives on the wire from the router, so a
    worker never re-hashes a plan.
    """
    pin_blas_to_one_thread()
    perfstats.reset()  # worker-local counters (fault.injected.* reporting)
    if fault_schedule is not None:
        faults.uninstall()  # replace anything inherited through the fork
        faults.install(fault_schedule)
    registry = ModelRegistry(registry_root)
    core = ServingCore(registry, dbs, config=config, mmap=True)
    core.proc_label = f"worker-{index}"  # span proc tag
    plans = OrderedDict()          # token -> plan (mirror of router table)
    control = deque()              # control messages pulled mid-drain
    max_delay_s = config.max_delay_ms / 1e3
    shipped_metrics = [None]       # last snapshot shipped (delta baseline)

    def pipe_send(message):
        if faults.check("fleet.pipe.send") == "drop":
            return  # counted by the fault plane; the router re-sends
        conn.send(message)

    def answer_stats():
        payload = core.stats()
        payload["fault_injected"] = {
            name: count for name, count in perfstats.counters.items()
            if name.startswith("fault.injected.")}
        # Metric deltas ride the control pipe: everything the registry
        # accumulated since the last shipped snapshot.  The router merges
        # each delta exactly once, so per-worker histograms fold into the
        # fleet-wide view without double counting.  (A delta lost to an
        # injected pipe drop undercounts — counters are best-effort under
        # chaos, values never are.)
        current = REGISTRY.snapshot()
        payload["metrics"] = snapshot_delta(current, shipped_metrics[0])
        try:
            pipe_send(("stats", payload))
        except OSError:
            return
        shipped_metrics[0] = current

    def apply_tokens(message):
        """Mirror the router's plan-table mutation for one req message.

        Applied even when the fault plane drops the request afterwards:
        the mirrored-LRU contract is about *ordered mutations*, so a
        message that physically crossed the pipe must still mutate the
        table before it evaporates.
        """
        token, payload = message[3], message[4]
        if payload is not None:
            plans[token] = payload
            while len(plans) > _TOKEN_LRU_BOUND:
                plans.popitem(last=False)
        else:
            plans.move_to_end(token)

    def receive():
        """One pipe message through the recv fault point; None = dropped."""
        message = conn.recv()
        if faults.check("fleet.pipe.recv") == "drop":
            if message[0] == "req":
                apply_tokens(message)
            return None
        return message

    while True:
        if control:
            message = control.popleft()
        else:
            try:
                message = receive()
            except (EOFError, OSError):
                return
            if message is None:
                continue
        kind = message[0]
        if kind == "stop":
            answer_stats()  # final counters for post-shutdown stats()
            return
        if kind == "ping":
            try:
                pipe_send(("pong", message[1]))
            except OSError:
                return
            continue
        if kind == "refresh":
            registry.refresh()
            core.resolve_routes()
            continue
        if kind == "stats_req":
            answer_stats()
            continue
        # kind == "req": coalesce a micro-batch (deadline/size trigger).
        batch = [message]
        recv_times = [time.perf_counter()]
        deadline = recv_times[0] + max_delay_s
        while len(batch) < config.max_batch_size:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                break
            try:
                if not conn.poll(remaining):
                    break
                message = receive()
            except (EOFError, OSError):
                break
            if message is None:
                continue
            if message[0] == "req":
                batch.append(message)
                recv_times.append(time.perf_counter())
            else:
                control.append(message)
                if message[0] == "stop":
                    break  # serve what we have, then exit via control
        # The wedged-worker fault point: a "hang" action sleeps here until
        # the router's liveness plane SIGKILLs the process.
        faults.check("fleet.worker.hang")
        coalesced_at = time.perf_counter()
        requests, req_ids = [], []
        for message, recv_ts in zip(batch, recv_times):
            (_, req_id, db_name, token, _payload, submitted_at,
             deadline_ms, priority, trace_send_ts, digest) = message
            apply_tokens(message)
            request = PredictionRequest(db_name, plans[token],
                                        priority=RequestPriority(priority),
                                        deadline_ms=deadline_ms,
                                        digest=digest)
            # The router's submit timestamp: deadlines and latency count
            # pipe time (perf_counter is system-wide on this platform).
            request.submitted_at = submitted_at
            if trace_send_ts is not None:
                # Traced request: accumulate worker-side stages into a
                # bare context (no tracer here — the stages ship back
                # with the result and the router merges them).
                trace = TraceContext("", req_id)
                trace.add_stage("worker.recv", trace_send_ts, recv_ts)
                trace.add_stage("coalesce", recv_ts, coalesced_at)
                request.trace = trace
            requests.append(request)
            req_ids.append(req_id)
        core.process_batch(requests)
        results = []
        for req_id, request in zip(req_ids, requests):
            error = None
            if request.error is not None:
                error = (type(request.error).__name__, str(request.error))
            trace_payload = (request.trace.export_remote()
                             if request.trace is not None else None)
            results.append((req_id, request.status.value, request.value,
                            error, request.served_by, request.retries,
                            trace_payload))
        try:
            pipe_send(("res", results))
        except OSError:
            return  # router gone; daemon exit


class _PendingEntry:
    """Fleet-level state for one in-flight request (router lock guarded).

    ``slots[0]`` is the original placement; later elements are hedge
    targets or restart re-sends.  Exactly-once completion pivots on this
    entry: whichever copy answers first pops it from the fleet's pending
    map (and from every owning slot), and every later duplicate finds
    nothing to complete.
    """

    __slots__ = ("req_id", "request", "slots", "hedges", "last_send")

    def __init__(self, req_id, request):
        self.req_id = req_id
        self.request = request
        self.slots = []
        self.hedges = 0
        self.last_send = time.perf_counter()


class _WorkerSlot:
    """Router-side state for one worker: pipe, pending map, plan tokens,
    liveness timestamps."""

    __slots__ = ("index", "wp", "pending", "tokens", "next_token",
                 "send_lock", "epoch", "closing", "last_stats",
                 "stats_event", "last_seen", "last_ping")

    def __init__(self, index, wp):
        self.index = index
        self.wp = wp
        self.pending = OrderedDict()   # req_id -> _PendingEntry
        self.tokens = OrderedDict()    # plan digest -> token (mirrored LRU)
        self.next_token = 0
        self.send_lock = threading.Lock()  # token table + wire order
        self.epoch = 0                 # bumped per restart
        self.closing = False
        self.last_stats = None
        self.stats_event = threading.Event()
        self.last_seen = time.monotonic()  # any inbound message
        self.last_ping = 0.0               # last heartbeat sent

    def token_for(self, digest, plan):
        """Token + payload for one request (caller holds ``send_lock``).

        Returns ``(token, plan)`` the first time a plan crosses this pipe
        and ``(token, None)`` afterwards; the insert/touch/evict sequence
        is exactly what the worker applies on receipt, so both tables stay
        mirrored.
        """
        token = self.tokens.get(digest)
        if token is not None:
            self.tokens.move_to_end(digest)
            return token, None
        token = self.next_token
        self.next_token += 1
        self.tokens[digest] = token
        while len(self.tokens) > _TOKEN_LRU_BOUND:
            self.tokens.popitem(last=False)
        return token, plan

    def send_locked(self, req_id, request):
        """Encode and send one request (caller holds ``send_lock``).

        The ``fleet.pipe.send`` fault point is consulted *before* the
        token assignment: a dropped message must leave the mirrored plan
        tables untouched, exactly as if it was never formed.
        """
        try:
            if faults.check("fleet.pipe.send") == "drop":
                return
        except faults.InjectedFault:
            # A raised send fault models a failed write: the request stays
            # registered in `pending`, so hedging or a restart re-sends it.
            return
        token, payload = self.token_for(request.digest, request.plan)
        trace = request.trace
        send_ts = None
        if trace is not None:
            # The send timestamp crosses the pipe: the worker opens its
            # "worker.recv" stage from it (perf_counter is system-wide),
            # and its presence is the "this request is traced" flag.
            send_ts = time.perf_counter()
            trace.add_stage("queue", request.submitted_at, send_ts,
                            "router")
        try:
            self.wp.conn.send(("req", req_id, request.db_name, token,
                               payload, request.submitted_at,
                               request.deadline_ms, request.priority.value,
                               send_ts, request.digest))
        except (OSError, BrokenPipeError):
            # Worker died under us: the request is registered in
            # `pending`, so the supervisor's restart will re-send it.
            pass

    def send(self, req_id, request):
        with self.send_lock:
            self.send_locked(req_id, request)

    def send_control(self, message):
        """Send a control message through the send fault point; swallows
        pipe errors (a dead worker is handled by its collector)."""
        with self.send_lock:
            try:
                if faults.check("fleet.pipe.send") == "drop":
                    return False
            except faults.InjectedFault:
                return False
            try:
                self.wp.conn.send(message)
            except (OSError, BrokenPipeError):
                return False
        return True

    def writable(self):
        """True when the pipe can take a write right now, without blocking.

        A hung worker stops draining its pipe, the OS buffer fills, and a
        blocking send would wedge whichever thread attempts it — fatal for
        the liveness thread, which is the one responsible for *detecting*
        the hang.  Everything the liveness plane sends checks here first.
        """
        try:
            return bool(select.select([], [self.wp.conn], [], 0)[1])
        except (OSError, ValueError):
            return False

    def send_control_nowait(self, message):
        """Best-effort control send: never blocks on the lock or the pipe.

        ``False`` means the lock was contended or the buffer full — "try
        again next scan", never "wait here".  Control messages are tiny
        (well under ``PIPE_BUF``), so a positive writability check makes
        the actual send non-blocking.
        """
        if not self.send_lock.acquire(blocking=False):
            return False
        try:
            if not self.writable():
                return False
            try:
                if faults.check("fleet.pipe.send") == "drop":
                    return False
            except faults.InjectedFault:
                return False
            try:
                self.wp.conn.send(message)
            except (OSError, BrokenPipeError):
                return False
        finally:
            self.send_lock.release()
        return True

    def send_nowait(self, req_id, request):
        """Best-effort request send (the hedging path); never waits for a
        contended lock or a full pipe.  On ``False`` the request stays
        registered in ``pending``, so a later hedge scan or a restart
        re-send recovers it."""
        if not self.send_lock.acquire(blocking=False):
            return False
        try:
            if not self.writable():
                return False
            self.send_locked(req_id, request)
        finally:
            self.send_lock.release()
        return True


class PredictorFleet:
    """Multi-process prediction service: router + forked worker pool.

    Drop-in for :class:`~repro.serving.server.PredictorServer` where it
    counts: ``submit`` / ``submit_many`` / ``predict`` / ``stats`` /
    context-manager lifecycle all match, so the load harness and the
    benchmarks drive either transparently.

    ::

        registry = ModelRegistry(root)
        registry.publish("zs", model, dbs=[db], default=True)
        with PredictorFleet(registry, {"imdb": db}, n_workers=4) as fleet:
            runtime_ms = fleet.submit(plan, "imdb").result()

    ``registry`` may be a :class:`~repro.serving.registry.ModelRegistry`
    or a store path.  Workers fork at :meth:`start`: they inherit ``dbs``
    copy-on-write and hydrate checkpoints from the registry's *on-disk*
    state via mmap — publish before starting the fleet, and call
    :meth:`refresh` after out-of-band registry changes.

    Liveness and tail-latency knobs:

    * ``hang_timeout_ms`` — a worker silent this long (no results, no
      heartbeat pongs) while pinged is declared hung, SIGKILLed and
      restarted with its unanswered requests re-sent.  Must comfortably
      exceed the worst-case micro-batch compute time; ``None`` disables
      hang detection.
    * ``ping_interval_ms`` — heartbeat period (default: a quarter of the
      hang timeout).
    * ``hedge_after_ms`` — straggler threshold after which a pending
      request is re-sent to another live worker (first answer wins,
      duplicates dropped).  A float, ``"auto"`` (3× rolling p99 latency,
      once enough samples exist) or ``None`` (disabled, the default).
    * ``max_hedges`` — re-send budget per request.

    ``fault_schedule`` installs a deterministic
    :class:`~repro.robustness.faults.FaultSchedule` inside every worker at
    spawn — either one schedule for all workers or a ``{worker index:
    schedule}`` dict (each worker owns independent seeded streams).  A
    schedule installed process-wide before :meth:`start` propagates to the
    workers through the fork instead.  A worker restarted after a crash or
    hang-kill comes back *without* the explicit schedule: the replacement
    is healthy.
    """

    def __init__(self, registry, dbs, config=None, n_workers=2,
                 spill_threshold=16, fault_schedule=None,
                 hang_timeout_ms=10_000.0, ping_interval_ms=None,
                 hedge_after_ms=None, max_hedges=3):
        if not isinstance(registry, ModelRegistry):
            registry = ModelRegistry(registry)
        self.registry = registry
        self.config = config or ServerConfig()
        self.n_workers = max(1, int(n_workers))
        self.spill_threshold = max(1, int(spill_threshold))
        self._fault_schedule = fault_schedule
        self._hang_timeout_s = (None if hang_timeout_ms is None
                                else max(hang_timeout_ms, 1.0) / 1e3)
        if ping_interval_ms is not None:
            self._ping_interval_s = max(ping_interval_ms, 10.0) / 1e3
        elif self._hang_timeout_s is not None:
            self._ping_interval_s = max(self._hang_timeout_s / 4.0, 0.01)
        else:
            self._ping_interval_s = None
        if hedge_after_ms is not None and hedge_after_ms != "auto":
            hedge_after_ms = float(hedge_after_ms)
        self._hedge_after_ms = hedge_after_ms
        self.max_hedges = max(0, int(max_hedges))
        self._dbs = dict(dbs)
        self._db_digests = {name: database_digest(db).hex()
                            for name, db in self._dbs.items()}
        self._db_fingerprints = {name: db.fingerprint()
                                 for name, db in self._dbs.items()}
        # Shard preference: database fingerprint -> worker index.
        self._preferred = {name: int(digest[:8], 16) % self.n_workers
                           for name, digest in self._db_digests.items()}
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._all_drained = threading.Condition(self._lock)
        self._digest_memo = OrderedDict()
        self._counts = Counter()
        self._pending = OrderedDict()   # req_id -> _PendingEntry
        self._hedged_done = OrderedDict()  # completed hedged req_ids
        self._latencies = deque(maxlen=_LATENCY_WINDOW)
        self._analytical = {}           # db_name -> AnalyticalCostModel
        self._outstanding = 0
        self._queue_high_water = 0
        self._req_seq = 0
        self._ping_seq = 0
        # Observability: submit-order seq feeds deterministic trace ids.
        self._seq_lock = threading.Lock()
        self._submit_seq = 0
        self._tracer = (Tracer(sample_every=self.config.trace_sample_every)
                        if self.config.trace else None)
        self._slots = []
        self._running = False
        self._accepting = False
        self._seen_generation = registry.generation
        self._registry_root = str(registry.store.root)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def tracer(self):
        return self._tracer

    def attach_tracer(self, tracer):
        """Attach (or detach with ``None``) a span sink; overrides the
        config-driven tracer.  Per-request cost is zero when detached."""
        self._tracer = tracer
        return tracer

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _schedule_for(self, index):
        if isinstance(self._fault_schedule, dict):
            return self._fault_schedule.get(index)
        return self._fault_schedule

    def _worker_args(self, index, schedule):
        return (index, self._registry_root, self._dbs, self.config,
                schedule)

    def start(self):
        if self._running:
            raise RuntimeError("fleet already started")
        openblas()  # resolve the BLAS symbols once, before forking
        self._slots = []
        for index in range(self.n_workers):
            wp = WorkerProcess(
                _fleet_worker_main,
                args=self._worker_args(index, self._schedule_for(index)),
                name=f"repro-fleet-{index}")
            wp.start()
            perfstats.increment("fleet.worker.spawn")
            self._slots.append(_WorkerSlot(index, wp))
        self._running = True
        self._accepting = True
        for slot in self._slots:
            self._spawn_collector(slot)
        # Detection and hedging run on *separate* threads: hang detection
        # must stay responsive even if a hedge send ever blocks on a
        # filling pipe — the detector's kill is what unblocks such a send
        # (BrokenPipeError), so the two must never share a thread.
        if self._hang_timeout_s is not None:
            threading.Thread(target=self._liveness_loop,
                             name="repro-fleet-liveness",
                             daemon=True).start()
        if self._hedge_after_ms is not None:
            threading.Thread(target=self._hedge_loop,
                             name="repro-fleet-hedge",
                             daemon=True).start()
        return self

    def close(self, drain=True):
        """Stop the fleet; every pending handle resolves, none hangs.

        ``drain=True`` waits for all outstanding requests to complete
        first; ``drain=False`` fails them immediately with a typed
        :class:`ServerClosedError`.
        """
        with self._lock:
            if not self._running:
                return
            self._accepting = False
            if drain:
                while self._outstanding > 0:
                    self._all_drained.wait(0.1)
            dropped = []
            if not drain:
                dropped = [entry.request
                           for entry in self._pending.values()]
                self._pending.clear()
                for slot in self._slots:
                    slot.pending.clear()
                self._outstanding = 0
                self._counts["failed"] += len(dropped)
            self._running = False
            for slot in self._slots:
                slot.closing = True
            self._not_full.notify_all()
            self._all_drained.notify_all()
        error = ServerClosedError("fleet stopped without draining")
        for request in dropped:
            request._finish(RequestStatus.FAILED, error=error)
        for slot in self._slots:
            with slot.send_lock:
                try:
                    slot.wp.conn.send(("stop",))
                except (OSError, BrokenPipeError):
                    pass
        # Workers answer "stop" with their final stats before exiting;
        # collectors stash them for post-shutdown stats().
        for slot in self._slots:
            if slot.wp.process is not None:
                slot.wp.process.join(timeout=5.0)
            slot.wp.stop()

    def stop(self, drain=True):
        """Alias for :meth:`close` (PredictorServer parity)."""
        self.close(drain=drain)

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # ------------------------------------------------------------------
    # Client API (PredictorServer-compatible)
    # ------------------------------------------------------------------
    def submit(self, plan, db_name, block=False, timeout=None,
               priority=RequestPriority.NORMAL, deadline_ms=None):
        """Submit one plan; returns a :class:`PredictionRequest` handle.

        Admission control is fleet-wide and priority-classed: each
        :class:`RequestPriority` has its own queue bound (see
        :func:`~repro.serving.core.admission_limit`); ``block=True`` waits
        for space under that bound instead of shedding.  A LOW request
        over its bound is *browned out* — answered immediately by the
        analytical cost model, flagged ``DEGRADED`` — when
        ``brownout_degraded`` is on; everything else sheds, counted per
        class.  ``deadline_ms`` crosses the pipe with the request, so an
        expired request is dropped worker-side before featurization.
        Admitted requests are routed to their database's preferred shard,
        spilling to the least-loaded worker when the shard is hot.
        """
        if db_name not in self._dbs:
            raise KeyError(f"database {db_name!r} is not registered with "
                           "this fleet")
        self._maybe_swap()
        priority = RequestPriority(priority)
        # The digest keys the plan tokens and crosses the pipe with the
        # request, so workers never re-hash the plan.
        digest = self._plan_digest(db_name, plan)
        request = PredictionRequest(db_name, plan, priority=priority,
                                    deadline_ms=deadline_ms, digest=digest)
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            with self._seq_lock:
                seq = self._submit_seq
                self._submit_seq += 1
            request.trace = tracer.context_for(
                digest, seq, db_name=db_name,
                priority=priority.name.lower(),
                submitted_at=request.submitted_at)
        limit = min(self.config.queue_depth,
                    admission_limit(priority, self.config.queue_depth,
                                    self.config))
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        brownout = False
        with self._lock:
            self._counts["requests"] += 1
            while self._accepting and self._outstanding >= limit:
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if (not block
                        or (remaining is not None and remaining <= 0)
                        or not self._not_full.wait(remaining)):
                    break
            if not self._accepting or self._outstanding >= limit:
                brownout = (priority is RequestPriority.LOW
                            and self._accepting
                            and self.config.brownout_degraded
                            and self.config.degraded_fallback)
                if not brownout:
                    self._counts["shed"] += 1
                    perfstats.increment("serve.shed.count")
                    perfstats.increment(
                        f"serve.shed.priority.{priority.name.lower()}")
                    request._finish(RequestStatus.SHED)
                    return request
            else:
                req_id = self._req_seq
                self._req_seq += 1
                slot = self._route_locked(db_name)
                entry = _PendingEntry(req_id, request)
                entry.slots.append(slot)
                self._pending[req_id] = entry
                slot.pending[req_id] = entry
                self._outstanding += 1
                if self._outstanding > self._queue_high_water:
                    perfstats.increment(
                        "fleet.queue.depth",
                        self._outstanding - self._queue_high_water)
                    self._queue_high_water = self._outstanding
        if brownout:
            self._finish_brownout(request)
            return request
        slot.send(req_id, request)
        return request

    def submit_many(self, plans, db_name, block=False, timeout=None,
                    priority=RequestPriority.NORMAL, deadline_ms=None):
        return [self.submit(plan, db_name, block=block, timeout=timeout,
                            priority=priority, deadline_ms=deadline_ms)
                for plan in plans]

    def predict(self, plans, db_name, timeout=None, allow_degraded=False,
                priority=RequestPriority.NORMAL):
        """Blocking bulk prediction (backpressure, never sheds)."""
        requests = self.submit_many(plans, db_name, block=True,
                                    timeout=timeout, priority=priority)
        values = [request.result(timeout) for request in requests]
        if not allow_degraded:
            degraded = sum(request.degraded for request in requests)
            if degraded:
                raise DegradedResponseError(
                    f"{degraded}/{len(requests)} predictions came from the "
                    "analytical fallback; pass allow_degraded=True to "
                    "accept flagged degraded values")
        return np.array(values)

    def refresh(self):
        """Re-read the registry from disk and rebroadcast to all workers."""
        self.registry.refresh()
        self._maybe_swap()

    def _finish_brownout(self, request):
        """Answer a browned-out LOW request from the analytical model.

        Same contract as the core's circuit-breaker degradation: flagged
        ``DEGRADED``, never cached, ``served_by`` names the fallback —
        here ``("analytical", "brownout")`` so the two degradation causes
        stay distinguishable.
        """
        perfstats.increment("fleet.brownout.count")
        if request.trace is not None:
            request.trace.annotate("brownout")
        with self._lock:
            self._counts["brownouts"] += 1
            analytical = self._analytical.get(request.db_name)
        if analytical is None:
            candidate = AnalyticalCostModel(self._dbs[request.db_name])
            with self._lock:
                analytical = self._analytical.setdefault(
                    request.db_name, candidate)
        try:
            value = analytical.predict_plan(request.plan)
        except Exception as exc:  # noqa: BLE001 — even fallbacks fail
            with self._lock:
                self._counts["brownouts"] -= 1
                self._counts["failed"] += 1
            request._finish(RequestStatus.FAILED, error=exc)
            return
        request._finish(RequestStatus.DEGRADED, value=value,
                        served_by=("analytical", "brownout"))

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route_locked(self, db_name):
        """Preferred shard by database fingerprint, least-loaded spill."""
        preferred = self._slots[self._preferred[db_name]]
        if len(preferred.pending) < self.spill_threshold:
            perfstats.increment("fleet.route.hit")
            return preferred
        chosen = min(self._slots, key=lambda slot: len(slot.pending))
        if chosen is preferred:
            perfstats.increment("fleet.route.hit")
        else:
            perfstats.increment("fleet.route.rebalance")
            self._counts["spills"] += 1
        return chosen

    def _maybe_swap(self):
        with self._lock:
            generation = self.registry.generation
            if generation == self._seen_generation:
                return
            self._seen_generation = generation
            slots = list(self._slots)
        perfstats.increment("fleet.route.rebalance")
        for slot in slots:
            slot.send_control(("refresh",))

    def _plan_digest(self, db_name, plan):
        """Memoized plan content fingerprint (the sharding + token key)."""
        memo_key = (id(plan), db_name)
        with self._lock:
            entry = self._digest_memo.get(memo_key)
            if entry is not None and entry[0] is plan:
                return entry[1]
        digest = plan_fingerprint(
            self._dbs[db_name], plan, self.config.cards,
            db_fingerprint=self._db_fingerprints[db_name])
        with self._lock:
            self._digest_memo[memo_key] = (plan, digest)
            while len(self._digest_memo) > 4 * max(
                    self.config.result_cache_size, 1024):
                self._digest_memo.popitem(last=False)
        return digest

    # ------------------------------------------------------------------
    # Liveness plane: heartbeats, hang detection, hedged requests
    # ------------------------------------------------------------------
    @property
    def _scan_interval_s(self):
        candidates = [0.25]
        if self._ping_interval_s is not None:
            candidates.append(self._ping_interval_s)
        if isinstance(self._hedge_after_ms, float):
            candidates.append(self._hedge_after_ms / 2e3)
        return max(min(candidates), 0.01)

    def _liveness_loop(self):
        interval = self._scan_interval_s
        while True:
            time.sleep(interval)
            with self._lock:
                if not self._running:
                    return
                slots = list(self._slots)
            self._ping_and_detect(slots)

    def _hedge_loop(self):
        interval = self._scan_interval_s
        while True:
            time.sleep(interval)
            with self._lock:
                if not self._running:
                    return
            self._maybe_hedge()

    def _ping_and_detect(self, slots):
        """Heartbeat every live worker; SIGKILL the unresponsive ones.

        A slot is *unresponsive* when nothing — results, stats, pongs —
        arrived for ``hang_timeout_ms`` even though a heartbeat was
        *attempted* since the last inbound message.  An attempt that could
        not even be written (lock contended, pipe buffer full) still
        counts: a healthy worker drains its pipe far faster than the hang
        timeout, so a pipe that stays unwritable that long is itself the
        hang symptom.  The kill collapses the gray failure into the crash
        path: the pipe EOFs, the collector's supervisor restarts the
        worker and re-sends its unanswered requests, and the exactly-once
        completion contract carries over unchanged.
        """
        now = time.monotonic()
        for slot in slots:
            if slot.closing or not slot.wp.alive:
                continue
            if (now - slot.last_seen > self._hang_timeout_s
                    and slot.last_ping > slot.last_seen):
                perfstats.increment("fleet.hang.detected")
                with self._lock:
                    self._counts["hangs"] += 1
                process = slot.wp.process
                if process is not None and process.is_alive():
                    try:
                        os.kill(process.pid, signal.SIGKILL)
                        perfstats.increment("fleet.hang.killed")
                    except (ProcessLookupError, OSError):
                        pass
                continue
            if now - slot.last_ping >= self._ping_interval_s:
                slot.last_ping = now
                self._ping_seq += 1
                slot.send_control_nowait(("ping", self._ping_seq))

    def hedge_threshold_ms(self):
        """The effective straggler threshold, or ``None`` when hedging is
        off (or ``"auto"`` has not seen enough completions yet)."""
        threshold = self._hedge_threshold_s()
        return None if threshold is None else threshold * 1e3

    def _hedge_threshold_s(self):
        mode = self._hedge_after_ms
        if mode is None:
            return None
        if mode == "auto":
            latencies = list(self._latencies)
            if len(latencies) < _HEDGE_MIN_SAMPLES:
                return None
            p99 = float(np.percentile(latencies, 99))
            return max(3.0 * p99, 0.02)
        return mode / 1e3

    def _maybe_hedge(self):
        """Re-send requests pending past the straggler threshold.

        The hedge target is the least-loaded live worker with a writable
        pipe that the request has not tried yet (falling back to
        re-sending on an already-tried slot, which re-serves the same
        req_id — still exactly-once at the handle).  A worker whose pipe
        is full is never a target: that is what a hung worker looks like
        from here, and hedging *into* it would queue the rescue behind
        the very straggler it is rescuing.  Safe by the equivalence
        contract: both answers are bit-identical, the first one wins,
        the loser is dropped by the raced-result path.
        """
        threshold = self._hedge_threshold_s()
        if threshold is None or self.max_hedges == 0:
            return
        now = time.perf_counter()
        sends = []
        with self._lock:
            if not self._running:
                return
            writable = {id(slot): slot.writable() for slot in self._slots}
            for entry in self._pending.values():
                if entry.hedges >= self.max_hedges:
                    continue
                if now - entry.last_send <= threshold:
                    continue
                candidates = [slot for slot in self._slots
                              if not slot.closing and writable[id(slot)]
                              and slot not in entry.slots]
                if not candidates:
                    candidates = [slot for slot in self._slots
                                  if not slot.closing
                                  and writable[id(slot)]]
                if not candidates:
                    continue
                target = min(candidates,
                             key=lambda slot: len(slot.pending))
                entry.hedges += 1
                entry.last_send = now
                entry.slots.append(target)
                target.pending[entry.req_id] = entry
                self._counts["hedges"] += 1
                perfstats.increment("fleet.hedge.sent")
                if entry.request.trace is not None:
                    entry.request.trace.annotate("hedge.sent")
                sends.append((entry, target))
        for entry, target in sends:
            # Best-effort: a send that cannot proceed without blocking is
            # skipped — the entry stays registered on the target, so the
            # next scan (or the target's restart) re-ships it.
            target.send_nowait(entry.req_id, entry.request)

    # ------------------------------------------------------------------
    # Collection + supervision
    # ------------------------------------------------------------------
    def _spawn_collector(self, slot):
        thread = threading.Thread(
            target=self._collect, args=(slot, slot.epoch),
            name=f"repro-fleet-collect-{slot.index}", daemon=True)
        thread.start()

    def _collect(self, slot, epoch):
        """Poll-driven receive loop for one worker's pipe.

        Every inbound message — results, stats, heartbeat pongs —
        refreshes the slot's last-seen time for the liveness plane; the
        timed poll keeps the loop responsive to shutdown and never blocks
        forever on a wedged worker (that worker simply goes silent, and
        the liveness supervisor kills it into the EOF path handled here).
        """
        conn = slot.wp.conn
        while True:
            try:
                if not conn.poll(0.1):
                    continue
                message = conn.recv()
                slot.last_seen = time.monotonic()
                # A "raise" at the router's recv point models a torn
                # connection: tear it down into the restart path.
                if faults.check("fleet.pipe.recv") == "drop":
                    continue
            except (EOFError, OSError, faults.InjectedFault):
                break
            if message[0] == "res":
                self._on_results(slot, message[1])
            elif message[0] == "stats":
                payload = message[1]
                delta = payload.get("metrics")
                if delta:
                    # Each stats answer carries the worker's metric delta
                    # since its previous answer; merging every delta once
                    # yields the exact fleet-wide counters/histograms.
                    REGISTRY.merge(delta)
                slot.last_stats = payload
                slot.stats_event.set()
            # "pong" carries nothing beyond the last_seen refresh above.
        self._on_worker_exit(slot, epoch)

    def _on_results(self, slot, results):
        finished = []
        with self._lock:
            for result in results:
                entry = self._pending.pop(result[0], None)
                if entry is None:
                    # Result for a request that already completed: a hedge
                    # loser, or a supervisor re-send whose original answer
                    # raced the worker's death.  The handle completed
                    # exactly once either way.
                    if result[0] in self._hedged_done:
                        self._counts["hedge_wasted"] += 1
                        perfstats.increment("fleet.hedge.wasted")
                    continue
                for owner in entry.slots:
                    owner.pending.pop(entry.req_id, None)
                if entry.hedges:
                    self._hedged_done[entry.req_id] = True
                    while len(self._hedged_done) > _HEDGED_DONE_BOUND:
                        self._hedged_done.popitem(last=False)
                    if slot is not entry.slots[0]:
                        self._counts["hedge_wins"] += 1
                        perfstats.increment("fleet.hedge.won")
                        if entry.request.trace is not None:
                            entry.request.trace.annotate("hedge.won")
                finished.append((entry.request, result))
            self._outstanding -= len(finished)
            if finished:
                self._not_full.notify_all()
                if self._outstanding == 0:
                    self._all_drained.notify_all()
        now = time.perf_counter()
        for request, result in finished:
            (_, status, value, error, served_by, retries,
             trace_payload) = result
            request.retries = retries
            self._latencies.append(now - request.submitted_at)
            if request.trace is not None and trace_payload is not None:
                # Fold the winning worker's stages into the router-side
                # context before _finish finalizes the trace.  Hang-safe
                # by construction: span data only rides result messages
                # that arrived — nothing here waits on a worker.
                request.trace.merge_remote(trace_payload,
                                           proc=f"worker-{slot.index}")
            request._finish(RequestStatus(status), value=value,
                            error=_decode_error(error), served_by=served_by)

    def _on_worker_exit(self, slot, epoch):
        """Supervision: restart a dead worker, re-send unanswered requests.

        Every request whose result was not received goes to the
        replacement worker exactly once (results are popped from the
        pending maps on receipt, so nothing completed is re-sent, and a
        duplicate answer from a raced in-flight result is dropped by the
        pop).  The replacement forks *without* the explicit fault
        schedule the original carried — a hang-killed worker must come
        back healthy, not wedge again on its first batch.  A collector
        observing a normal shutdown, or a stale epoch (the slot was
        already restarted), does nothing.
        """
        with self._lock:
            if not self._running or slot.closing or slot.epoch != epoch:
                return
            slot.epoch += 1
            perfstats.increment("fleet.worker.restart")
            self._counts["worker_restarts"] += 1
            resend = list(slot.pending.items())
            self._counts["requeued"] += len(resend)
            perfstats.increment("serve.fault.requeued", len(resend))
            now = time.perf_counter()
            with slot.send_lock:
                slot.wp.restart(args=self._worker_args(slot.index, None))
                slot.tokens.clear()
                slot.next_token = 0
                slot.last_seen = time.monotonic()
                slot.last_ping = 0.0
                for req_id, entry in resend:
                    entry.last_send = now
                    if entry.request.trace is not None:
                        entry.request.trace.annotate("requeued")
                    slot.send_locked(req_id, entry.request)
            self._spawn_collector(slot)

    def kill_worker(self, index):
        """Test hook: SIGKILL one worker process (the supervisor restarts
        it and re-sends its unanswered requests).  Returns the pid."""
        process = self._slots[index].wp.process
        if process is None or not process.is_alive():
            return None
        pid = process.pid
        os.kill(pid, signal.SIGKILL)
        return pid

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def worker_pids(self):
        return [slot.wp.process.pid if slot.wp.process is not None else None
                for slot in self._slots]

    def _collect_worker_stats(self, timeout_s=2.0):
        """Latest per-worker core stats (live query; cached after stop).

        Hang-safe: a worker that does not answer within ``timeout_s`` is
        reported as an ``{"unresponsive": True}`` row instead of blocking
        the caller — stats must stay observable precisely when a worker
        is wedged.
        """
        pending_reply = []
        unresponsive = set()
        deadline = time.monotonic() + timeout_s
        for slot in self._slots:
            if not (self._running and slot.wp.alive):
                continue
            slot.stats_event.clear()
            # Never block on a wedged worker's lock or full pipe: retry
            # the non-blocking send until the stats deadline, then give
            # up on that worker — an unwritable pipe for the whole window
            # is exactly the hang stats() must survive.
            while not slot.send_control_nowait(("stats_req",)):
                if time.monotonic() >= deadline or not slot.wp.alive:
                    unresponsive.add(slot.index)
                    perfstats.increment("fleet.stats.unresponsive")
                    break
                time.sleep(0.01)
            else:
                pending_reply.append(slot)
        for slot in pending_reply:
            if not slot.stats_event.wait(max(0.0,
                                             deadline - time.monotonic())):
                unresponsive.add(slot.index)
                perfstats.increment("fleet.stats.unresponsive")
        return [({"unresponsive": True, "worker": slot.index}
                 if slot.index in unresponsive else slot.last_stats)
                for slot in self._slots]

    def stats(self, timeout_s=2.0):
        """Fleet-wide counters in the :meth:`PredictorServer.stats` shape,
        plus fleet extras (worker/restart/spill/hang/hedge/brownout
        counts, per-worker rows — ``unresponsive`` for workers that did
        not answer within ``timeout_s``)."""
        worker_stats = self._collect_worker_stats(timeout_s=timeout_s)
        summed = Counter()
        hist = Counter()
        breakers = {}
        fault_injected = Counter()
        cache_entries = 0
        unresponsive_workers = 0
        for index, stats in enumerate(worker_stats):
            if not stats:
                continue
            if stats.get("unresponsive"):
                unresponsive_workers += 1
                continue
            for key in ("completed", "cached", "degraded", "failed",
                        "swaps", "retries", "bisects", "batcher_crashes",
                        "deadline_expired", "hydrate_failures"):
                summed[key] += stats[key]
            for size, count in stats["batch_size_hist"].items():
                hist[int(size)] += count
            for key, state in stats["breakers"].items():
                breakers[f"w{index}:{key}"] = state
            fault_injected.update(stats.get("fault_injected", {}))
            cache_entries += stats["result_cache_entries"]
        batches = sum(hist.values())
        sizes = sum(size * count for size, count in hist.items())
        with self._lock:
            counts = Counter(self._counts)
            queue_high_water = self._queue_high_water
            outstanding = self._outstanding
        return {
            "requests": counts["requests"],
            "completed": summed["completed"],
            "cached": summed["cached"],
            "degraded": summed["degraded"] + counts["brownouts"],
            "shed": counts["shed"],
            "failed": summed["failed"] + counts["failed"],
            "swaps": summed["swaps"],
            "retries": summed["retries"],
            "bisects": summed["bisects"],
            "batcher_crashes": summed["batcher_crashes"],
            "requeued": counts["requeued"],
            "deadline_expired": summed["deadline_expired"],
            "hydrate_failures": summed["hydrate_failures"],
            "batches": batches,
            "batch_size_hist": dict(sorted(hist.items())),
            "mean_batch_size": (sizes / batches) if batches else 0.0,
            "queue_high_water": queue_high_water,
            "result_cache_entries": cache_entries,
            "breakers": breakers,
            "workers": self.n_workers,
            "worker_restarts": counts["worker_restarts"],
            "spills": counts["spills"],
            "outstanding": outstanding,
            "hangs": counts["hangs"],
            "hedges": counts["hedges"],
            "hedge_wins": counts["hedge_wins"],
            "hedge_wasted": counts["hedge_wasted"],
            "brownouts": counts["brownouts"],
            "unresponsive_workers": unresponsive_workers,
            "worker_fault_injected": dict(fault_injected),
            "worker_stats": worker_stats,
        }

    def __repr__(self):
        return (f"PredictorFleet(dbs={sorted(self._dbs)}, "
                f"workers={self.n_workers}, running={self._running})")
