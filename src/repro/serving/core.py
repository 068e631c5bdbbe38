"""Transport-agnostic serving core: the logic every predictor shares.

:class:`ServingCore` is the part of the prediction service that does not
care how requests arrive: request/route/cache state, micro-batch
processing, the hardened model path (retry with backoff, poisoned-batch
bisection, per-request deadlines), the per-deployment circuit breaker with
analytical degradation, and hot-swap route resolution against the registry.

It runs behind the one front end,
:class:`~repro.serving.server.PredictorServer`: on the server's batcher
thread, and inside each :class:`~repro.serving.fleet.PredictorFleet`
worker, which feeds every pipe-delivered micro-batch straight into
:meth:`ServingCore.process_batch`.  The guarantees documented on
:mod:`repro.serving.server` live *here*: a ``DONE`` value is bit-identical
to a direct ``predict_runtimes`` call on the same model, and every
departure from the model path (degraded, failed, deadline-expired) is
typed and flagged.

One completion path: :meth:`ServingCore.process_batch` completes nothing,
it yields each finished group's ``(requests, outcomes)``; the server
delivers them through :meth:`ServingCore.complete`, a fleet worker ships
them to the router, which does the same.  ``complete`` is the only code
that completes a pending handle or counts a delivery to one, so
``stats()`` counts each delivery once on both transports; a fleet worker
counts execution only (retries, bisects, deadlines, hydration).  The
result cache is probed only at submit, by :meth:`ServingCore.lookup`,
before any handle exists: a hit gets a :class:`PredictionRequest` born
complete (built with its final status: no latch, no lock), and only an
admitted miss builds a pending one.  Every ``DONE``/``CACHED`` delivery,
hits included, feeds the observation tap through one helper,
:meth:`ServingCore.observe`.  Fleet workers run without a result cache.

Served graphs hold plan operators only.  The core interns every
constant node (table, attribute, predicate, output) of the databases it
serves in one :class:`~repro.featurization.catalog.ConstantCatalog`, and
each route keeps the hidden states its model gave them
(:class:`~repro.featurization.catalog.ConstantStates`), so a batch
computes only its plan nodes and the constant nodes its route has not
seen; a swap starts the new route's states empty.  Before a batch the core
checks the catalog's cap (``CATALOG_CAP``): past it, the catalog resets
with the cached graphs that name its ids, and every route's states drop
theirs at their next batch.  Values stay bit-identical to the full-graph
``predict_runtimes(featurize_records(...))``.

The unit of model work is the *deployment*, not the database: a
micro-batch is grouped by resolved route, and each group costs one
``featurize_records`` call (which splits per database internally) and one
``predict_runtimes`` call, so under zero-shot routing a micro-batch
spanning many unseen databases is still one model call.  Each request
carries its plan digest, computed once at submit (or shipped with a fleet
batch) and reused as the featurization-cache key.

Thread-safety: one internal lock guards the result cache, the digest memo,
the routes, the breaker table and the counters.  Featurization and
inference run outside it.  The featurization cache, the constant-node
catalog, every route's states and each breaker's state are touched only
by the processing thread (the batcher thread, or a
fleet worker's main loop).  Brownout also reaches the analytical fallbacks
from client threads; ``setdefault`` keeps their creation race-free.
"""

from __future__ import annotations

import marshal
import threading
import time
from _thread import allocate_lock as _allocate_lock
from collections import Counter, OrderedDict, deque, namedtuple
from dataclasses import dataclass
from enum import Enum

from .. import perfstats
from ..obs.metrics import REGISTRY
from ..core.api import EstimatorCache, featurize_records
from ..core.training import predict_runtimes
from ..featurization import FeaturizationCache, database_digest, plan_token
from ..featurization.catalog import ConstantCatalog, ConstantStates
from ..featurization.fingerprint import token_digest
from ..optimizer.cost_model import AnalyticalCostModel
from ..robustness import faults
from .registry import RoutingError

__all__ = ["ServingCore", "ServerConfig", "PredictionRequest",
           "RequestStatus", "RequestPriority", "admission_limit",
           "RequestShedError", "DeadlineExceededError",
           "DegradedResponseError", "ServerClosedError", "ServingRecord",
           "Observation", "ObservationTap"]

# The unit of serving work: featurize_records only reads .db_name and .plan
# (a plan or its token), so this lightweight record stands in for an
# executed TraceRecord.
ServingRecord = namedtuple("ServingRecord", ["db_name", "plan"])

# One delivered model-path prediction, as seen by the observation tap:
# enough to recompute ground truth (db_name + plan), key the result
# (digest) and attribute the prediction to a deployment (served_by is the
# (model name, version) pair).  DEGRADED and FAILED deliveries are never
# observed — the tap watches the learned model, not the fallback.
# ``trace_id`` links the observation back to its request span tree when the
# delivery was traced (None otherwise), so controller decisions downstream
# can name the requests that fed them.
Observation = namedtuple(
    "Observation",
    ["db_name", "plan", "digest", "predicted_ms", "served_by", "trace_id"],
    defaults=(None,))


class ObservationTap:
    """Bounded, lock-protected queue feeding deliveries to a controller.

    The serving side calls :meth:`record` for every DONE/CACHED delivery;
    when the queue is full the *incoming* observation is dropped (counted,
    never blocking the batcher).  The consuming side reads with
    :meth:`peek` and acknowledges with :meth:`commit` — a consumer that
    crashes between the two re-reads the same observations on restart, so
    a controller crash loses nothing.
    """

    def __init__(self, max_pending=4096):
        self.max_pending = int(max_pending)
        self._lock = threading.Lock()
        self._items = deque()
        self.recorded = 0
        self.dropped = 0

    def record(self, observation):
        """Enqueue one observation; False (and a counter) when full."""
        with self._lock:
            if len(self._items) >= self.max_pending:
                self.dropped += 1
                perfstats.increment("controller.observe.dropped")
                return False
            self._items.append(observation)
            self.recorded += 1
        return True

    def peek(self, n=None):
        """Up to ``n`` oldest observations, without removing them."""
        with self._lock:
            if n is None:
                n = len(self._items)
            return [self._items[i] for i in range(min(n, len(self._items)))]

    def commit(self, n=1):
        """Acknowledge (remove) the ``n`` oldest observations."""
        with self._lock:
            for _ in range(min(n, len(self._items))):
                self._items.popleft()

    def __len__(self):
        with self._lock:
            return len(self._items)

    def stats(self):
        with self._lock:
            return {"pending": len(self._items), "recorded": self.recorded,
                    "dropped": self.dropped, "max_pending": self.max_pending}


class RequestStatus(Enum):
    PENDING = "pending"
    DONE = "done"        # predicted by a micro-batch
    CACHED = "cached"    # answered from the result cache
    DEGRADED = "degraded"  # answered by the analytical fallback (flagged)
    SHED = "shed"        # rejected by admission control
    FAILED = "failed"    # routing/featurization/prediction/deadline error


# Module aliases for the reads made once per request (submit, completion,
# the latency loop): an enum member lookup through its class costs ~0.2 us
# on CPython 3.11, a module global ~0.02 us.
_PENDING, _DONE, _CACHED = (RequestStatus.PENDING, RequestStatus.DONE,
                            RequestStatus.CACHED)
_DEGRADED, _SHED, _FAILED = (RequestStatus.DEGRADED, RequestStatus.SHED,
                             RequestStatus.FAILED)
# The deliveries the observation tap sees: the learned model's answers.
_OBSERVED = (_DONE, _CACHED)
# The stats() counter each delivered status lands in, and every counter
# stats() reports.
_COUNTED = {_DONE: "completed", _CACHED: "cached", _DEGRADED: "degraded",
            _FAILED: "failed"}
_STATS_COUNTERS = ("requests", "completed", "cached", "degraded",
                   "brownouts", "shed", "failed", "swaps", "retries",
                   "bisects", "batcher_crashes", "requeued",
                   "deadline_expired", "hydrate_failures")


class RequestPriority(Enum):
    """Admission-control class for a submitted request.

    Lower values are more important.  Priorities gate *admission*, not
    execution order: a LOW request stops being admitted once the queue is
    ``brownout_fraction`` full (and is then answered by the analytical
    fallback instead of queueing), a NORMAL request once the
    ``high_reserve_fraction`` headroom is all that remains, and only HIGH
    traffic may fill the queue to ``queue_depth``.  Already-admitted
    requests are served identically regardless of class — values never
    depend on priority.
    """

    HIGH = 0
    NORMAL = 1
    LOW = 2


_NORMAL, _LOW = RequestPriority.NORMAL, RequestPriority.LOW


def admission_limit(priority, queue_depth, config):
    """The effective queue bound for one priority class.

    HIGH may use the whole queue; NORMAL stops at ``queue_depth`` minus
    the reserved HIGH headroom (``high_reserve_fraction``, default 0 — no
    reservation unless configured); LOW stops at ``brownout_fraction`` of
    the queue.  Every class is always allowed at least one slot so tiny
    queues keep admitting.
    """
    if priority is _LOW:
        return max(1, int(queue_depth * config.brownout_fraction))
    if priority is _NORMAL:
        reserve = int(queue_depth * config.high_reserve_fraction)
        return max(1, queue_depth - reserve)
    return queue_depth


class RequestShedError(RuntimeError):
    """The bounded queue was full and the request was shed."""


class DeadlineExceededError(RuntimeError):
    """The request exceeded its per-request deadline before completing."""


class DegradedResponseError(RuntimeError):
    """A blocking ``predict`` received a DEGRADED (analytical-fallback)
    response and the caller did not opt in with ``allow_degraded=True``."""


class ServerClosedError(RuntimeError):
    """The server was stopped without draining; the request was dropped."""


class PredictionRequest:
    """Client-side handle for one submitted plan.

    The same handle class serves the in-process server and the fleet
    router (fleet workers build none); only :meth:`ServingCore.complete`
    completes a pending one, via :meth:`_finish`, whether the value was
    produced in this process or crossed a worker pipe.

    Handles are cheap.  An answer known at submit (a result-cache hit, a
    shed, a brownout, an unroutable database) gets a handle *born
    complete*, built with its final ``status``: no latch, no claim lock,
    :meth:`wait` returns ``True`` at once and a later :meth:`_finish`
    returns ``False``.  Only an admitted request is built pending: a raw
    latch lock, taken when the handle is built and released by the
    completing :meth:`_finish`, plus a ``claim`` lock that makes the first
    completion win atomically (a later ``_finish``, even a concurrent
    one, changes nothing and returns ``False``).  :meth:`done` reads a
    flag set only after every result field is written: ``status``,
    ``value``, ``error``, ``served_by``, ``checkpoint`` (the key of the
    checkpoint that produced a ``DONE`` or ``CACHED`` value) and
    ``completed_at``.  :meth:`wait` on a pending handle acquires and
    releases the latch, so any number of waiters wake, with the timeout
    semantics of an event's ``wait``.

    Single flight: a request the front end queued after a result-cache
    miss *leads* its ``(checkpoint, digest)`` flight (``_flight``) until
    it completes.  A duplicate admitted meanwhile *follows* it: it joins
    the leader's ``_followers`` instead of the queue, and completes with
    the leader's value, ``served_by`` and status (``CACHED`` for a
    ``DONE`` leader) or typed error, in the step that completes the
    leader.  A request with a ``deadline_ms`` neither leads nor follows.
    """

    __slots__ = ("db_name", "plan", "digest", "token", "token_bytes",
                 "status", "value", "error", "served_by", "checkpoint",
                 "submitted_at", "completed_at", "retries", "priority",
                 "deadline_ms", "trace", "_done", "_latch", "_claim",
                 "_flight", "_followers")

    def __init__(self, db_name, plan, priority=RequestPriority.NORMAL,
                 deadline_ms=None, digest=None, submitted_at=None,
                 trace=None, status=_PENDING, value=None, error=None,
                 served_by=None, checkpoint=None):
        self.db_name = db_name
        self.plan = plan
        self.digest = digest  # plan content fingerprint; None = not yet
        # The plan token the digest hashed and its marshal-v2 bytes, kept
        # from submit until completion (None when the digest came from the
        # memo): featurization encodes the token, a fleet ships the bytes.
        self.token = self.token_bytes = None
        self.priority = priority
        self.deadline_ms = deadline_ms  # per-request age cap (ms), or None
        self.status = status
        self.value = value
        self.error = error
        self.served_by = served_by  # (model name, version) that produced value
        self.checkpoint = checkpoint  # that model's checkpoint key
        self.submitted_at = (time.perf_counter() if submitted_at is None
                             else submitted_at)
        self.retries = 0
        self.trace = trace  # opt-in obs.trace.TraceContext; None = untraced
        # Single flight (front end only): the (checkpoint, digest) key this
        # request leads, and the duplicates riding on it (None when none).
        self._flight = self._followers = None
        if status is _PENDING:
            self.completed_at = None
            self._done = False
            self._latch = _allocate_lock()
            self._latch.acquire()   # held until the completing _finish
            self._claim = _allocate_lock()  # acquired by the first _finish
        else:
            # Born complete: the trace's stages are all added by now.
            self.completed_at = time.perf_counter()
            if trace is not None:
                trace.finalize(self.completed_at, status=status.value)
            self._latch = self._claim = None
            self._done = True

    # -- completion (server side) --------------------------------------
    def _finish(self, status, value=None, error=None, served_by=None,
                checkpoint=None):
        """Complete the handle; ``False`` (and no change) if it already
        was, or was born complete."""
        claim = self._claim
        if claim is None or not claim.acquire(False):
            return False
        self.token = self.token_bytes = None  # only processing reads them
        self.value = value
        self.error = error
        self.served_by = served_by
        self.checkpoint = checkpoint
        self.completed_at = time.perf_counter()
        self.status = status
        if self.trace is not None:
            self.trace.finalize(self.completed_at, status=status.value)
        self._done = True
        self._latch.release()
        return True

    # -- client side ----------------------------------------------------
    def done(self):
        return self._done

    @property
    def degraded(self):
        """True when the value came from the analytical fallback."""
        return self.status is _DEGRADED

    def wait(self, timeout=None):
        """Block until done; ``timeout`` as for an event's ``wait``
        (``None`` blocks, ``<= 0`` polls).  Returns :meth:`done`."""
        if self._done:
            return True
        if timeout is None:
            self._latch.acquire()
        elif timeout <= 0 or not self._latch.acquire(True, timeout):
            return self._done
        self._latch.release()  # pass the wake-up on to the next waiter
        return True

    def result(self, timeout=None):
        """The predicted runtime (ms); raises for shed/failed requests.

        A ``DEGRADED`` request returns its analytical-fallback value — the
        :attr:`status` / :attr:`degraded` flag is the explicit marker that
        the value did not come from the learned model.
        """
        if not self.wait(timeout):
            raise TimeoutError("prediction still pending")
        if self.status is _SHED:
            raise RequestShedError(
                f"request for {self.db_name!r} was shed (queue full)")
        if self.status is _FAILED:
            raise self.error
        return self.value

    @property
    def latency_ms(self):
        if self.completed_at is None:
            return None
        return (self.completed_at - self.submitted_at) * 1e3

    def __repr__(self):
        return (f"PredictionRequest({self.db_name!r}, "
                f"status={self.status.value})")


@dataclass(frozen=True)
class ServerConfig:
    """Micro-batching, admission-control, featurization and robustness
    settings (the README's "Serving options" table lists each one)."""

    max_batch_size: int = 64     # largest micro-batch (what is queued)
    queue_depth: int = 1024      # admission control: shed beyond this
    result_cache_size: int = 4096  # 0 disables the result cache
    cards: str = "exact"         # cardinality source for featurization
    # -- robustness ----------------------------------------------------
    max_retries: int = 2         # extra model-path attempts per group
    retry_backoff_ms: float = 1.0  # backoff base; doubles per retry
    breaker_threshold: int = 3   # consecutive failures that open the breaker
    breaker_reset_ms: float = 50.0  # open -> half-open probe delay
    # -- priority-aware overload control --------------------------------
    high_reserve_fraction: float = 0.0  # queue headroom reserved for HIGH
    brownout_fraction: float = 0.5      # LOW admission cap (x queue_depth);
    #    LOW over the cap is answered by the analytical fallback, DEGRADED


class _Route:
    """A database's resolved deployment with the loaded model, and the
    hidden states of the catalog's constant nodes under that model (kept
    for the route's lifetime: a swap starts an empty set)."""

    __slots__ = ("deployment", "model", "checkpoint_key", "served_by",
                 "states")

    def __init__(self, deployment, model, catalog):
        self.deployment = deployment
        self.model = model
        # Plain attributes, not properties: every cache hit reads both.
        self.checkpoint_key = deployment.checkpoint_key
        self.served_by = (deployment.name, deployment.version)
        self.states = ConstantStates(catalog)


class _Breaker:
    """Per-deployment circuit breaker (processing-thread state only)."""

    __slots__ = ("state", "failures", "opened_at")

    def __init__(self):
        self.state = "closed"     # closed | open | half-open
        self.failures = 0
        self.opened_at = 0.0

    def allows_model_path(self, reset_s):
        """Closed: yes.  Open: only once the reset delay elapsed, as a
        half-open probe.  (Called only by the processing thread.)"""
        if self.state == "closed":
            return True
        if time.monotonic() - self.opened_at >= reset_s:
            if self.state != "half-open":
                self.state = "half-open"
                perfstats.increment("serve.degraded.half_open")
            return True
        return False

    def record_success(self):
        if self.state != "closed":
            perfstats.increment("serve.degraded.close")
        self.state = "closed"
        self.failures = 0

    def record_failure(self, threshold):
        self.failures += 1
        if self.state == "half-open" or self.failures >= threshold:
            if self.state != "open":
                perfstats.increment("serve.degraded.open")
            self.state = "open"
            self.opened_at = time.monotonic()


class ServingCore:
    """Routing, caching and hardened batch prediction, minus the transport.

    ``mmap=True`` hydrates checkpoints through the registry's
    memory-mapped path (:meth:`~repro.serving.registry.ModelRegistry.
    load_mmap`): parameter arrays are read-only views of the
    content-addressed on-disk checkpoint, so forked workers over one
    registry share a single page-cache copy instead of deserializing per
    process.
    """

    def __init__(self, registry, dbs, config=None, estimator_cache=None,
                 mmap=False):
        self.registry = registry
        self.config = config or ServerConfig()
        self.mmap = bool(mmap)
        self._dbs = dict(dbs)
        self._db_digests = {name: database_digest(db).hex()
                            for name, db in self._dbs.items()}
        self._db_fingerprints = {name: db.fingerprint()
                                 for name, db in self._dbs.items()}
        # Catalog statistics are built now, not at first featurization: a
        # fleet router holds them before it forks, so its workers (and
        # their replacements) inherit them instead of each recomputing.
        for db in self._dbs.values():
            for table in db.tables.values():
                _ = table.stats  # computed once, cached on the table
        self._lock = threading.Lock()  # see the module's "Thread-safety"
        self._result_cache = OrderedDict()
        self._digest_memo = OrderedDict()  # (id(plan), db) -> (plan, digest)
        self._feat_cache = FeaturizationCache()
        # Constant nodes of every served database (processing thread only);
        # the featurization cache holds graphs that name its ids.
        self._catalog = ConstantCatalog()
        self._estimator_cache = estimator_cache or EstimatorCache()
        self._counts = Counter()
        self._batch_sizes = Counter()
        self._routes = {}
        self._breakers = {}     # checkpoint_key -> _Breaker
        self._analytical = {}   # db_name -> AnalyticalCostModel
        self._seen_generation = None
        self._observer = None   # opt-in ObservationTap (continuous learning)
        self.proc_label = "server"  # span proc tag; fleet workers relabel
        self.resolve_routes()

    # ------------------------------------------------------------------
    # Databases / counters
    # ------------------------------------------------------------------
    @property
    def dbs(self):
        return self._dbs

    def count(self, name, n=1):
        with self._lock:
            self._counts[name] += n

    def counts_snapshot(self):
        with self._lock:
            return Counter(self._counts)

    # ------------------------------------------------------------------
    # Observation tap (continuous learning)
    # ------------------------------------------------------------------
    def attach_observer(self, tap):
        """Opt in to observation: every DONE/CACHED delivery is recorded
        to ``tap`` (an :class:`ObservationTap`).  One observer at a time;
        ``None`` detaches."""
        self._observer = tap
        return tap

    @property
    def observer(self):
        return self._observer

    # ------------------------------------------------------------------
    # Routing / hot-swap
    # ------------------------------------------------------------------
    def maybe_swap(self):
        """Re-resolve routes if the registry changed; True when it did."""
        if self.registry.generation == self._seen_generation:
            return False
        self.resolve_routes()
        return True

    def resolve_routes(self):
        """Re-resolve every database's deployment from the registry.

        Runs between batches (or at submit time); in-flight work keeps the
        route object it started with, so a promote/rollback is a
        zero-downtime swap.  A deployment whose checkpoint fails hydration
        is quarantined by the registry (which re-resolves its manifest to
        the previous good version), and resolution retries against the
        updated registry state — serving falls back to known-good
        checkpoints instead of wedging.
        """
        generation = self.registry.generation
        # Databases resolving to one deployment share one route object: it
        # is the group key of process_batch.  Deployments are compared by
        # value, so two names publishing one checkpoint stay two groups
        # (each keeps its own served_by).
        shared = {}
        routes = {}
        for db_name, digest in self._db_digests.items():
            route = self._resolve_one(digest)
            if route is not None:
                route = shared.setdefault(route.deployment, route)
            routes[db_name] = route
        with self._lock:
            # Submits, the batcher and stats() may resolve concurrently.  A
            # resolution that read an older registry generation than the
            # routes already written holds stale routes: drop it instead of
            # swapping back (and counting two swaps).
            if (self._seen_generation is not None
                    and generation < self._seen_generation):
                return
            for db_name, route in routes.items():
                previous = self._routes.get(db_name)
                if (previous is not None and route is not None
                        and previous.checkpoint_key != route.checkpoint_key):
                    self._counts["swaps"] += 1
                    perfstats.increment("serve.swap.count")
            self._routes = routes
            self._seen_generation = generation

    def _resolve_one(self, digest):
        """Route one database digest to a loaded model, surviving
        quarantines: every HydrationError re-resolves against the
        registry's updated manifest until a good version loads or nothing
        routable remains."""
        for _ in range(8):  # bounded: each retry consumed a quarantine
            try:
                deployment = self.registry.route(digest)
            except RoutingError:
                return None
            if deployment is None:
                return None
            try:
                if self.mmap:
                    model = self.registry.load_mmap(deployment=deployment)
                else:
                    model = self.registry.load(deployment=deployment)
            except RoutingError:
                perfstats.increment("serve.fault.hydrate")
                with self._lock:
                    self._counts["hydrate_failures"] += 1
                continue
            return _Route(deployment, model, self._catalog)
        return None

    # ------------------------------------------------------------------
    # Caches
    # ------------------------------------------------------------------
    def lookup(self, db_name, plan):
        """The submit-side probe, before any handle exists: ``(route,
        digest, token, token_bytes, cached value)``.

        Counts the request, resolves the route, finds the plan's digest and
        probes the result cache (counting a hit) in one lock hold for a
        plan object seen before; its token and bytes are then ``None``.  A
        first-seen plan is tokenized and hashed outside the lock (so
        concurrent clients don't serialize behind each other's O(plan)
        walks) and the lock taken once more; its token and marshal bytes
        are returned for the request to keep.  Memo keys carry the
        database name: the digest hashes the database's fingerprint.
        Returns all ``None`` when no deployment serves ``db_name``, and a
        ``None`` value on a cache miss (counted at prediction time).
        """
        memo_key = (id(plan), db_name)
        with self._lock:
            self._counts["requests"] += 1
            route = self._routes.get(db_name)
            if route is None:
                return None, None, None, None, None
            entry = self._digest_memo.get(memo_key)
            if entry is not None and entry[0] is plan:
                digest = entry[1]
                return route, digest, None, None, self._cached_locked(
                    (route.checkpoint_key, digest))
        token = plan_token(plan)
        data = marshal.dumps(token, 2)
        digest = token_digest(self._db_fingerprints[db_name],
                              self.config.cards, None, data)
        with self._lock:
            memo = self._digest_memo
            memo[memo_key] = (plan, digest)
            while len(memo) > 4 * max(self.config.result_cache_size, 1024):
                memo.popitem(last=False)
            return route, digest, token, data, self._cached_locked(
                (route.checkpoint_key, digest))

    def cached(self, key):
        """Self-locking result-cache probe of ``(checkpoint_key, digest)``;
        counts a hit."""
        with self._lock:
            return self._cached_locked(key)

    def _cached_locked(self, key):
        """Result-cache probe of ``(checkpoint_key, digest)``; counts a
        hit."""
        if self.config.result_cache_size <= 0:
            return None
        value = self._result_cache.get(key)
        if value is not None:
            self._result_cache.move_to_end(key)
            self._counts["cached"] += 1
        return value

    def _cache_put_locked(self, key, value):
        if self.config.result_cache_size <= 0:
            return
        self._result_cache[key] = value
        while len(self._result_cache) > self.config.result_cache_size:
            self._result_cache.popitem(last=False)

    # ------------------------------------------------------------------
    # Completion: the one delivery routine
    # ------------------------------------------------------------------
    def complete(self, requests, outcomes):
        """Deliver one ``(status, result, served_by, checkpoint)`` outcome
        to each pending request (``result``: the value, or a ``FAILED``
        outcome's typed error).  Each caller owns the handles it passes
        (taken from a queue, a batch entry or a leader under the
        transport lock), so each delivery is counted here once, under its
        status's ``stats()`` key, before its handle completes: a client
        that sees every handle resolved reads every delivery counted.  A
        ``DONE`` value is cached under ``(checkpoint, digest)`` in the
        same lock hold, so a client resubmitting the moment the handle
        resolves hits; each ``DONE``/``CACHED`` delivery that completed
        its handle then feeds the tap (:meth:`observe`).  (One pass with a
        lock hold per delivery: a separate store pass would cost every
        delivery a second scan.)"""
        observed = self._observer is not None
        counts = self._counts
        for request, (status, result, served_by, checkpoint) in zip(
                requests, outcomes):
            with self._lock:
                counts[_COUNTED[status]] += 1
                if status is _DONE:
                    self._cache_put_locked((checkpoint, request.digest),
                                           result)
            if status is _FAILED:
                request._finish(status, None, result)
            elif (request._finish(status, result, None, served_by, checkpoint)
                  and observed and status in _OBSERVED):
                self.observe(request)

    def observe(self, request):
        """Feed the tap one completed ``DONE``/``CACHED`` handle (nothing
        when no tap is attached).  :meth:`complete` calls it per delivery;
        the front end calls it for a cache hit, whose handle is born
        complete."""
        observer = self._observer
        if observer is not None:
            trace = request.trace
            observer.record(Observation(
                request.db_name, request.plan, request.digest, request.value,
                request.served_by, None if trace is None else trace.trace_id))

    # ------------------------------------------------------------------
    # Batch processing (hardened model path)
    # ------------------------------------------------------------------
    def process_batch(self, batch):
        """Serve one micro-batch: yields ``(requests, outcomes)`` per
        finished group, one :meth:`complete` outcome per request.

        Groups by resolved deployment (not by database: every database
        routed to one deployment shares one model call), enforces
        deadlines, retries with backoff, bisects poisoned groups, degrades
        behind the circuit breaker — and yields exactly one outcome for
        every request in ``batch``: ``DONE``, ``DEGRADED`` or ``FAILED``
        (unroutable, deadline expired, retries exhausted, fallback
        raised).  The caller delivers each group as it is yielded.
        """
        self.maybe_swap()
        perfstats.increment("serve.batch.count")
        perfstats.increment("serve.batch.requests", len(batch))
        with self._lock:
            self._batch_sizes[len(batch)] += 1
            routes = self._routes
        started = time.perf_counter()
        by_route = {}
        for request in batch:
            by_route.setdefault(routes.get(request.db_name), []).append(
                request)
        answered = []  # (outcome time, requests, outcomes) per group
        for route, requests in by_route.items():
            for group, outcomes in self._process_group(route, requests):
                answered.append((time.perf_counter(), group, outcomes))
                yield group, outcomes
        REGISTRY.observe("serve.batch_ms",
                         (time.perf_counter() - started) * 1e3)
        for at, group, outcomes in answered:
            for request, outcome in zip(group, outcomes):
                if outcome[0] is _DONE or outcome[0] is _DEGRADED:
                    REGISTRY.observe("serve.latency_ms",
                                     (at - request.submitted_at) * 1e3)

    def _process_group(self, route, requests):
        """Yield the outcome groups of one route's requests."""
        if route is None:
            yield requests, [(_FAILED, RoutingError(
                f"no deployment serves {request.db_name!r}"), None, None)
                for request in requests]
            return
        # Every request here missed the result cache at submit.
        perfstats.increment("serve.cache.miss", len(requests))
        breaker = self._breaker_for(route.checkpoint_key)
        if not breaker.allows_model_path(self.config.breaker_reset_ms / 1e3):
            # Breaker open: the model path is known-bad; answer from the
            # analytical baseline without touching it.
            yield self._degraded(route, requests)
            return
        yield from self._predict_group(route, breaker, requests)

    def _breaker_for(self, checkpoint_key):
        with self._lock:  # stats() reads the table from client threads
            return self._breakers.setdefault(checkpoint_key, _Breaker())

    def _predict_group(self, route, breaker, requests):
        """Retry with backoff; on persistent failure bisect until the
        poisoned request is isolated; enforce per-request deadlines.
        Yields each outcome group as it finishes."""
        requests, expired = self._enforce_deadlines(requests)
        if expired:
            yield expired
        if not requests:
            return
        last_error = None
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                perfstats.increment("serve.retry.count")
                with self._lock:
                    self._counts["retries"] += 1
                for request in requests:
                    request.retries += 1
                    if request.trace is not None:
                        request.trace.annotate("retry")
                backoff_s = (self.config.retry_backoff_ms / 1e3
                             * (2 ** (attempt - 1)))
                backoff_start = time.perf_counter()
                time.sleep(backoff_s)
                backoff_end = time.perf_counter()
                for request in requests:
                    if request.trace is not None:
                        request.trace.add_stage("backoff", backoff_start,
                                                backoff_end, self.proc_label)
                requests, expired = self._enforce_deadlines(requests)
                if expired:
                    yield expired
                if not requests:
                    return
            try:
                values = self._attempt(requests, route)
            except Exception as exc:  # noqa: BLE001 — injected or real
                perfstats.increment("serve.fault.model_path")
                last_error = exc
                continue
            breaker.record_success()
            served_by, key = route.served_by, route.checkpoint_key
            yield requests, [(_DONE, float(value), served_by, key)
                             for value in values]
            return
        if len(requests) > 1:
            # Poisoned-batch bisection: the halves retry independently, so
            # everything except the poisoned request still completes.
            perfstats.increment("serve.fault.bisect")
            with self._lock:
                self._counts["bisects"] += 1
            for request in requests:
                if request.trace is not None:
                    request.trace.annotate("bisect")
            mid = len(requests) // 2
            yield from self._predict_group(route, breaker, requests[:mid])
            yield from self._predict_group(route, breaker, requests[mid:])
            return
        # A single request exhausted its retries: it fails alone — and the
        # breaker counts it; past the threshold the deployment degrades.
        breaker.record_failure(self.config.breaker_threshold)
        if breaker.state == "open":
            yield self._degraded(route, requests)
        else:
            yield requests, [(_FAILED, last_error, None, None)]

    def _attempt(self, requests, route):
        """One model-path attempt over a group (featurize + predict).

        The group may span databases: ``featurize_records`` splits per
        database internally, and the submit-time digests double as its
        cache keys, so no plan is hashed again here.

        Traced requests record the group's featurize and infer intervals:
        a batched request waits through the whole group operation, so the
        group interval *is* that request's stage time.  Timing is taken
        only when the group holds at least one traced request, so untraced
        traffic pays nothing.
        """
        traced = [request for request in requests
                  if request.trace is not None]
        digests = [request.digest for request in requests]
        faults.check("serve.featurize", keys=digests)
        # The token hashed at submit when there is one: no plan walk here.
        records = [ServingRecord(request.db_name,
                                 request.plan if request.token is None
                                 else request.token)
                   for request in requests]
        if traced:
            feat_start = time.perf_counter()
        catalog = self._catalog
        if catalog.full():
            # The cached graphs name the catalog's ids; every route's
            # states drop theirs at their next batch (new epoch).
            catalog.reset()
            self._feat_cache.clear()
        graphs = featurize_records(
            records, self._dbs, cards=self.config.cards,
            estimator_cache=self._estimator_cache,
            feat_cache=self._feat_cache, keys=digests, catalog=catalog)
        if traced:
            feat_end = time.perf_counter()
            for request in traced:
                request.trace.add_stage("featurize", feat_start, feat_end,
                                        self.proc_label)
        faults.check("serve.infer", keys=digests)
        # Served graphs hold plan nodes only; the route's states give the
        # constant rows (computing and keeping the first-seen ones).
        model = route.model
        values = predict_runtimes(
            model.model, graphs, model.feature_scalers,
            model.target_scaler, states=route.states)
        if traced:
            infer_end = time.perf_counter()
            for request in traced:
                request.trace.add_stage("infer", feat_end, infer_end,
                                        self.proc_label)
        return values

    def _enforce_deadlines(self, requests):
        """Split off requests whose age exceeds their deadline: ``(alive,
        expired)``, where ``expired`` is their ``FAILED`` outcome group
        (``None`` when none expired).

        The deadline is the request's own ``deadline_ms`` (it crosses the
        fleet pipe with the request).  Expiry is checked *before*
        featurization, so an already-dead request never costs model-path
        work.
        """
        if not any(request.deadline_ms is not None for request in requests):
            return requests, None
        now = time.perf_counter()
        alive, expired = [], []
        for request in requests:
            age_ms = (now - request.submitted_at) * 1e3
            if (request.deadline_ms is not None
                    and age_ms > request.deadline_ms):
                expired.append(request)
            else:
                alive.append(request)
        if not expired:
            return alive, None
        perfstats.increment("serve.fault.deadline", len(expired))
        with self._lock:
            self._counts["deadline_expired"] += len(expired)
        for request in expired:
            if request.trace is not None:
                request.trace.annotate("deadline")
        return alive, (expired, [(_FAILED, DeadlineExceededError(
            f"request exceeded its {request.deadline_ms:.0f} ms deadline"),
            None, None) for request in expired])

    def _degraded(self, route, requests):
        """The analytical cost model's outcome group for ``requests``,
        flagged ``DEGRADED`` (``FAILED`` where even the fallback raises).

        Each request is answered by its own database's analytical model
        (a group may span databases).  Degraded values never enter the
        result cache — a recovered model must never replay them — and
        ``served_by`` names the fallback, not the deployment.
        """
        served_by = ("analytical", route.deployment.name)
        perfstats.increment("serve.degraded.count", len(requests))
        outcomes = []
        for request in requests:
            if request.trace is not None:
                request.trace.annotate("degraded")
            try:
                value = self.analytical_for(request.db_name).predict_plan(
                    request.plan)
            except Exception as exc:  # noqa: BLE001 — even fallbacks fail
                outcomes.append((_FAILED, exc, None, None))
            else:
                outcomes.append((_DEGRADED, value, served_by, None))
        return requests, outcomes

    def analytical_for(self, db_name):
        """The database's analytical fallback model, created on first use
        (``setdefault`` keeps concurrent first uses to one instance)."""
        analytical = self._analytical.get(db_name)
        if analytical is None:
            analytical = self._analytical.setdefault(
                db_name, AnalyticalCostModel(self._dbs[db_name]))
        return analytical

    # ------------------------------------------------------------------
    def stats(self):
        """Core request/batch/cache/swap/fault counters, the batch-size
        histogram, and per-deployment breaker states."""
        with self._lock:
            breakers = {key: breaker.state
                        for key, breaker in self._breakers.items()}
            batches = sum(self._batch_sizes.values())
            sizes = sum(size * count
                        for size, count in self._batch_sizes.items())
            return {
                **{key: self._counts[key] for key in _STATS_COUNTERS},
                "batches": batches,
                "batch_size_hist": dict(sorted(self._batch_sizes.items())),
                "mean_batch_size": (sizes / batches) if batches else 0.0,
                "result_cache_entries": len(self._result_cache),
                "breakers": breakers,
            }
