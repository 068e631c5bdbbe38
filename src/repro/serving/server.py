"""The serving front end: a micro-batching predictor, hardened for chaos.

Clients — any number of threads — submit plans for any registered database
and get a :class:`PredictionRequest` handle back immediately.  A single
*supervised* batcher thread is work-conserving: whenever the backend is
free it takes every queued request (up to ``max_batch_size``) as one
micro-batch, so batches grow with load and a lone request never waits on a
timer.  The transport-agnostic :class:`~repro.serving.core.ServingCore`
routes each request to a compatible deployment by database fingerprint and
serves each deployment's share of a batch with one featurization call and
one graph-free ``predict_runtimes`` call.

This class is the only front end: submit, admission, brownout, tracing,
the result-cache probe, the micro-batcher and shutdown live here.  A
backend decides only what happens to a formed micro-batch: this class runs
it on the batcher thread; :class:`~repro.serving.fleet.PredictorFleet`
ships it to a forked worker with room for it.

Guarantees:

* **Bit-identical predictions** — a ``DONE`` value equals a direct
  ``predict_runtimes`` call on the same model for that plan, whatever
  shared its micro-batch and across retries, bisections, batcher restarts
  and hot-swaps.  This rests on the row-stable inference kernels
  (:func:`repro.nn.row_stable_matmul`): per-plan outputs are a pure
  function of the plan.
* **One bad plan fails alone** — model-path failures retry with
  exponential backoff; a group that keeps failing is *bisected* until the
  poisoned request is isolated.  A request's ``deadline_ms`` fails it
  typed with :class:`DeadlineExceededError`.
* **The batcher survives crashes** — on a crash of the loop machinery the
  in-flight micro-batch is re-enqueued **exactly once** (unfinished
  requests return to the queue head in order) and a replacement thread
  takes over.
* **Graceful degradation, never silent** — a per-deployment circuit
  breaker answers from the analytical
  :class:`~repro.optimizer.AnalyticalCostModel` while open, flagged
  ``DEGRADED``, never cached; :meth:`predict` refuses degraded values
  unless the caller opts in.
* **Repeat plans are cache hits** — a bounded result cache keyed on
  ``(checkpoint, plan fingerprint)`` answers repeats at submit; keys carry
  the checkpoint, so a hot-swap never serves a stale value.  The cache is
  probed only at submit; a batch predicts every request it holds.  A hit
  is answered with a handle born complete (no latch, no lock).
* **One completion path** — the core's batch path completes nothing; it
  yields each group's outcomes, and every pending handle is completed
  and counted by :meth:`~repro.serving.core.ServingCore.complete` alone
  (batch groups as they finish, followers, failures, a fleet's worker
  results).  ``stats()`` counts each delivery once, on this server and
  on a fleet alike, and hits and ``complete``'s deliveries feed the
  observation tap through :meth:`~repro.serving.core.ServingCore.
  observe`.
* **Single-flight misses** — with the result cache on, a miss whose
  ``(checkpoint, plan fingerprint)`` is already queued or in flight
  *follows* that request instead of queueing: no batch row, no model
  call.  It completes with its leader, in the same step, with the
  leader's value and ``served_by`` (``CACHED`` when the leader is
  ``DONE``, else the leader's status and typed error), and is counted
  once by ``serve.coalesced.count`` and ``stats()["coalesced"]``.  A miss
  that finds no leader re-probes the cache before it leads, so a
  duplicate racing its leader's completion is answered ``CACHED``.
  Followers pass the same admission and hold an admission slot, so
  ``queue_depth`` still bounds pending handles.  A leader requeued after
  a batcher crash (or, on a fleet, re-sent after a worker death or a
  hedge) keeps its followers.  Requests with a ``deadline_ms`` never lead
  or follow.
* **Zero-downtime hot-swap** — routes re-resolve only when
  ``registry.generation`` moves; in-flight batches finish on the model
  they started with.
* **Bounded, priority-classed admission** — admission counts requests
  admitted and not yet completed; each :class:`RequestPriority` has its
  own bound (:func:`~repro.serving.core.admission_limit`).  Over it a
  non-blocking submit is ``SHED`` — except LOW traffic, which is *browned
  out*: answered at once by the analytical model, flagged ``DEGRADED``
  with ``served_by ("analytical", "brownout")``.  ``block=True`` opts
  into backpressure.
* **Clean shutdown** — :meth:`stop` drains, or with ``drain=False`` fails
  queued requests with a typed :class:`ServerClosedError`.  Handles never
  hang.

Observability: the ``serve.*`` counters (see :mod:`repro.obs.catalog`),
:meth:`PredictorServer.stats`, and per-request spans once a
:class:`~repro.obs.trace.Tracer` is attached (:meth:`attach_tracer`).
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque

import numpy as np

from .. import perfstats
from ..robustness import faults
from .core import (_CACHED, _DEGRADED, _DONE, _FAILED, _LOW, _SHED,
                   DeadlineExceededError, DegradedResponseError,
                   PredictionRequest, RequestPriority, RequestShedError,
                   RequestStatus, ServerClosedError, ServerConfig,
                   ServingCore, ServingRecord, admission_limit)
from .registry import RoutingError

__all__ = ["PredictorServer", "ServerConfig", "PredictionRequest",
           "RequestStatus", "RequestPriority", "RequestShedError",
           "RoutingError", "DeadlineExceededError", "DegradedResponseError",
           "ServerClosedError", "ServingRecord"]


class PredictorServer:
    """Thread-based online prediction service over a model registry.

    ``dbs`` maps database names to :class:`~repro.storage.Database` objects
    the server accepts requests for.  Use as a context manager (starts and
    stops the batcher thread)::

        with PredictorServer(registry, {"imdb": db}) as server:
            request = server.submit(plan, "imdb")
            runtime_ms = request.result()
    """

    _name = "server"  # how shutdown errors name this transport

    def __init__(self, registry, dbs, config=None, estimator_cache=None,
                 core=None):
        self.core = core or ServingCore(registry, dbs, config=config,
                                        estimator_cache=estimator_cache)
        self.registry = self.core.registry
        self.config = self.core.config
        # The transport lock guards the queue, the in-flight batch and the
        # admission count; all serving state lives behind the core's lock.
        self._lock = threading.Lock()
        # Wakes the batcher: work was queued, or (fleet) a worker has room.
        self._wakeup = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._queue = deque()
        self._inflight = []
        self._outstanding = 0   # admitted and not yet completed
        # Single flight: (checkpoint key, digest) -> the queued or in-flight
        # request leading it; duplicates follow it instead of queueing.
        self._leaders = {}
        self._coalesced = 0
        self._running = False
        self._accepting = True  # False only after stop(); start() restores
        self._thread = None
        self._queue_high_water = 0
        # Observability: submit-order seq feeds deterministic trace ids
        # (next() on an itertools.count is atomic under the GIL).
        self._submit_seq = itertools.count()
        self._tracer = None

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def tracer(self):
        return self._tracer

    def attach_tracer(self, tracer):
        """Attach (or detach with ``None``) a span sink: an
        :class:`~repro.obs.trace.Tracer`, whose ``sample_every`` sets the
        sampling rate.  Per-request cost is zero when detached."""
        self._tracer = tracer
        return tracer

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self):
        if self._thread is not None:
            raise RuntimeError(f"{self._name} already started")
        self._running = True
        self._accepting = True
        self._thread = threading.Thread(target=self._batcher_main,
                                        name="repro-predictor", daemon=True)
        self._thread.start()
        return self

    def stop(self, drain=True):
        """Stop the batcher; every pending handle resolves, none hangs.

        ``drain=True`` (default): requests already queued are processed
        before the batcher exits.  ``drain=False``: queued requests fail
        immediately with a typed :class:`ServerClosedError` instead of
        being processed.  Submissions from this point on (including blocked
        backpressure waiters) are shed.  :meth:`start` re-opens admission.
        """
        with self._lock:
            if self._thread is None:
                return
            self._running = False
            self._accepting = False
            dropped = [] if drain else list(self._queue)
            if dropped:
                self._queue.clear()
                self._outstanding -= len(dropped)
            self._wakeup.notify_all()
            self._not_full.notify_all()
        self._fail(dropped, ServerClosedError(
            f"{self._name} stopped without draining"))
        # The batcher may crash and be replaced while we wait: join
        # whatever thread is current until it is both dead and current.
        while True:
            with self._lock:
                thread = self._thread
            if thread is None:
                return
            thread.join(timeout=5.0)
            with self._lock:
                if self._thread is thread and not thread.is_alive():
                    self._thread = None
                    return

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def submit(self, plan, db_name, block=False, timeout=None,
               priority=RequestPriority.NORMAL, deadline_ms=None):
        """Submit one plan; returns a :class:`PredictionRequest` handle.

        Repeat plans (by content fingerprint, under the currently routed
        checkpoint) complete immediately from the result cache; a repeat
        of a plan still queued or in flight follows that request (see
        "Single-flight misses" in the module docstring).  Admission
        is priority-classed over the requests admitted and not yet
        completed (see :func:`~repro.serving.core.admission_limit`; with
        the default config NORMAL and HIGH share the full queue).  Over
        its bound, ``block=False`` sheds the request (``status == SHED``)
        — or browns a LOW request out (see the module docstring);
        ``block=True`` waits for space (backpressure), shedding only once
        ``timeout`` (a total bound, not per-wakeup) elapses.
        ``deadline_ms`` sets this request's age cap; past it the request
        fails typed.  Submissions after :meth:`stop` are shed
        (nothing would ever process them); submissions *before*
        :meth:`start` queue up normally.
        """
        core = self.core
        if db_name not in core.dbs:
            raise KeyError(f"database {db_name!r} is not registered with "
                           f"this {self._name}")
        self._maybe_swap()
        submitted_at = time.perf_counter()
        if type(priority) is not RequestPriority:
            priority = RequestPriority(priority)
        # One core lock hold counts the request, resolves the route and
        # probes the digest memo and the result cache.  A first-seen plan
        # is hashed outside the lock, so concurrent first-seen submits
        # don't serialize behind each other's O(plan) digest walks.  An
        # admitted request carries the digest to the batcher, which reuses
        # it as the featurization-cache key, and the token it hashed,
        # which featurization encodes (a fleet ships its bytes instead).
        route, digest, token, token_bytes, value = core.lookup(db_name, plan)
        if route is None:
            core.count("failed")
            return PredictionRequest(
                db_name, plan, priority, deadline_ms, None, submitted_at,
                None, _FAILED, error=RoutingError(
                    f"no deployment serves {db_name!r} and the registry "
                    "has no default model"))
        # Sampling is decided from the seq first: an unsampled request
        # pays one next() and one modulo, nothing more.
        tracer, trace = self._tracer, None
        if tracer is not None:
            seq = next(self._submit_seq)
            if not seq % tracer.sample_every:
                trace = tracer.context_for(digest, seq, db_name,
                                           priority.name.lower(),
                                           submitted_at)
        if value is None:
            deadline = (None if timeout is None
                        else time.monotonic() + timeout)
            config = self.config
            limit = min(config.queue_depth,
                        admission_limit(priority, config.queue_depth, config))
            # Followers complete as CACHED: with the result cache off every
            # request is predicted, so nothing coalesces.
            flight = ((route.checkpoint_key, digest)
                      if deadline_ms is None and config.result_cache_size > 0
                      else None)
            leader = request = None
            with self._lock:
                while self._accepting and self._outstanding >= limit:
                    remaining = (None if deadline is None
                                 else deadline - time.monotonic())
                    if (not block
                            or (remaining is not None and remaining <= 0)
                            or not self._not_full.wait(remaining)):
                        break
                if flight is not None:
                    leader = self._leaders.get(flight)
                    if leader is None:
                        # A leader releases its flight only after its value
                        # is cached, so a duplicate whose lookup raced that
                        # completion finds the value here (transport lock,
                        # then core lock: the one order the two are ever
                        # taken in).
                        value = core.cached(flight)
                accepting = self._accepting
                if (accepting and value is None
                        and self._outstanding < limit):
                    # Only an admitted request is built pending, latch
                    # and all; every other outcome is born complete.
                    request = PredictionRequest(db_name, plan, priority,
                                                deadline_ms, digest,
                                                submitted_at, trace)
                    request.token, request.token_bytes = token, token_bytes
                    self._outstanding += 1
                    if self._outstanding > self._queue_high_water:
                        perfstats.increment(
                            "serve.queue.depth",
                            self._outstanding - self._queue_high_water)
                        self._queue_high_water = self._outstanding
                    if leader is not None:
                        if leader._followers is None:
                            leader._followers = []
                        leader._followers.append(request)
                        self._coalesced += 1
                        if trace is not None:
                            trace.annotate("coalesced")
                    else:
                        if flight is not None:
                            request._flight = flight
                            self._leaders[flight] = request
                        self._queue.append(request)
                        self._wakeup.notify_all()
            if request is not None:
                if leader is not None:
                    perfstats.increment("serve.coalesced.count")
                return request
        checkpoint = error = served_by = None
        if value is not None:
            # A hit, at the first probe or the admission re-probe: no
            # admission slot, no queue entry, no latch.
            perfstats.increment("serve.cache.hit")
            if trace is not None:
                trace.annotate("cache.hit")
                trace.add_stage("cache", submitted_at, time.perf_counter(),
                                "server")
            status, served_by, checkpoint = (_CACHED, route.served_by,
                                             route.checkpoint_key)
        elif accepting and priority is _LOW:
            status, value, error, served_by = self._brownout(db_name, plan,
                                                             trace)
        else:
            core.count("shed")
            perfstats.increment("serve.shed.count")
            perfstats.increment(
                f"serve.shed.priority.{priority.name.lower()}")
            status = _SHED
        request = PredictionRequest(db_name, plan, priority, deadline_ms,
                                    digest, submitted_at, trace, status,
                                    value, error, served_by, checkpoint)
        if status is _CACHED:
            core.observe(request)
        return request

    def submit_many(self, plans, db_name, block=False, timeout=None,
                    priority=RequestPriority.NORMAL, deadline_ms=None):
        return [self.submit(plan, db_name, block=block, timeout=timeout,
                            priority=priority, deadline_ms=deadline_ms)
                for plan in plans]

    def predict(self, plans, db_name, timeout=None, allow_degraded=False,
                priority=RequestPriority.NORMAL):
        """Blocking bulk prediction (backpressure, never sheds).

        Returns runtimes (ms) aligned with ``plans``; raises if any request
        failed.  A ``DEGRADED`` response (analytical fallback while the
        circuit breaker is open) raises :class:`DegradedResponseError`
        unless ``allow_degraded=True`` — degraded values are never handed
        out silently.
        """
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
        """Re-read the registry from disk and re-resolve routes (after an
        out-of-band registry change)."""
        self.registry.refresh()
        self._maybe_swap()

    def _maybe_swap(self):
        self.core.maybe_swap()

    def _brownout(self, db_name, plan, trace):
        """Answer an over-cap LOW request from the analytical model; returns
        its ``(status, value, error, served_by)``.

        Same contract as the core's circuit-breaker degradation: flagged
        ``DEGRADED``, never cached, ``served_by`` names the fallback —
        here ``("analytical", "brownout")`` so the two degradation causes
        stay distinguishable.
        """
        if trace is not None:
            trace.annotate("brownout")
        try:
            value = self.core.analytical_for(db_name).predict_plan(plan)
        except Exception as exc:  # noqa: BLE001 — even fallbacks fail
            self.core.count("failed")
            return _FAILED, None, exc, None
        perfstats.increment("serve.brownout.count")
        self.core.count("brownouts")
        self.core.count("degraded")
        return _DEGRADED, value, None, ("analytical", "brownout")

    def _fail(self, requests, error):
        """Fail ``requests`` typed, and release their followers."""
        self.core.complete(requests, [(_FAILED, error, None, None)]
                           * len(requests))
        self._release_followers(requests)

    def _release_followers(self, leaders):
        """Complete the followers of completed ``leaders``, each with its
        leader's outcome, and free their admission slots.

        Every path that completes a queued or dispatched request calls
        this after completing it (:meth:`_fail` does so itself).
        Unregistering the leader and taking its followers is one lock
        hold, and a follower joins only under that lock while its leader
        is registered, so none is missed.
        """
        with self._lock:
            pairs = []
            for leader in leaders:
                flight = leader._flight
                if flight is None:
                    continue
                leader._flight = None
                del self._leaders[flight]
                if leader._followers is not None:
                    pairs.append((leader, leader._followers))
                    leader._followers = None
        if not pairs:
            return
        requests, outcomes = [], []
        for leader, followers in pairs:
            status = leader.status
            if status is _DONE:
                status = _CACHED
            outcome = (status, (leader.error if status is _FAILED
                                else leader.value),
                       leader.served_by, leader.checkpoint)
            requests.extend(followers)
            outcomes.extend([outcome] * len(followers))
        self.core.complete(requests, outcomes)
        with self._lock:
            self._retire_locked(len(requests))

    # ------------------------------------------------------------------
    # Batcher (supervised)
    # ------------------------------------------------------------------
    def _batcher_main(self):
        """Supervision wrapper: detect a crash of the serve loop, re-enqueue
        the in-flight micro-batch exactly once, and hand over to a
        replacement thread."""
        try:
            self._serve_loop()
        except Exception:  # noqa: BLE001 — crash path must survive anything
            perfstats.increment("serve.fault.batcher_crash")
            self.core.count("batcher_crashes")
            with self._lock:
                # Exactly-once re-enqueue: unfinished in-flight requests go
                # back to the queue head in their original order; finished
                # ones are never duplicated.
                pending = [r for r in self._inflight if not r.done()]
                self._inflight = []
                for request in reversed(pending):
                    if request.trace is not None:
                        request.trace.annotate("requeued")
                    self._queue.appendleft(request)
                perfstats.increment("serve.fault.requeued", len(pending))
                replacement = threading.Thread(target=self._batcher_main,
                                               name="repro-predictor",
                                               daemon=True)
                self._thread = replacement
                self._wakeup.notify_all()
            self.core.count("requeued", len(pending))
            # Started outside the lock; stop() joins whichever thread is
            # current, so the handover is always observed.
            replacement.start()

    def _serve_loop(self):
        while True:
            with self._lock:
                # Work-conserving: the moment the backend can take a batch
                # it takes everything queued, up to max_batch_size.  While
                # the backend is busy arrivals queue, so batches grow with
                # load and a lone request never waits on a timer.
                while not (self._queue and self._ready_locked()):
                    if not self._queue and not self._running:
                        return  # stopped and drained
                    self._wakeup.wait()
                count = min(len(self._queue), self.config.max_batch_size)
                batch = [self._queue.popleft() for _ in range(count)]
                self._inflight = batch
            if self._tracer is not None:
                dispatched = time.perf_counter()
                for request in batch:
                    if request.trace is not None:
                        request.trace.add_stage("queue", request.submitted_at,
                                                dispatched, "server")
            # The batcher-loop injection point: a raise here unwinds into
            # _batcher_main's crash handler with the batch still in-flight
            # — exactly the torn state the supervisor must recover.
            faults.check("serve.batcher")
            self._dispatch(batch)

    # ------------------------------------------------------------------
    # Backend: what happens to a formed micro-batch
    # ------------------------------------------------------------------
    def _ready_locked(self):
        """True when the backend can take a batch now (caller holds the
        lock).  The batcher thread itself is this backend's only worker,
        and it is free whenever it asks."""
        return True

    def _dispatch(self, batch):
        """Run one micro-batch on the batcher thread, delivering each
        group's outcomes as the core yields them."""
        try:
            for requests, outcomes in self.core.process_batch(batch):
                self.core.complete(requests, outcomes)
        except Exception as exc:  # noqa: BLE001 — the loop must survive
            # A surprise error outside the hardened group path fails this
            # batch's requests instead of killing the batcher and
            # stranding every future request.
            self._fail([r for r in batch if not r.done()], exc)
        self._release_followers(batch)
        with self._lock:
            self._inflight = []
            self._retire_locked(len(batch))

    def _retire_locked(self, n):
        """``n`` admitted requests completed: free their admission slots
        (caller holds the lock)."""
        self._outstanding -= n
        self._not_full.notify_all()
        self._wakeup.notify_all()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self):
        """Request/batch/cache/swap/fault counters, batch-size histogram,
        and per-deployment breaker states.

        Routes are re-resolved first, so ``swaps`` (and the
        ``serve.swap.count`` counter) include a promote that landed after
        the last request.  ``coalesced`` counts the requests that followed
        a queued or in-flight duplicate; each is also counted under the
        status it completed with (``cached``, ``degraded`` or ``failed``).
        """
        self._maybe_swap()
        stats = self.core.stats()
        with self._lock:
            stats["queue_high_water"] = self._queue_high_water
            stats["coalesced"] = self._coalesced
        return stats

    def __repr__(self):
        return (f"{type(self).__name__}(dbs={sorted(self.core.dbs)}, "
                f"max_batch={self.config.max_batch_size}, "
                f"running={self._thread is not None})")
