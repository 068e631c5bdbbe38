"""Seeded open-loop load generator for the predictor server and fleet.

Drives a :class:`~repro.serving.PredictorServer` — or a
:class:`~repro.serving.PredictorFleet`, whose ``submit``/``stats`` surface
is identical — with concurrent client threads and measures what "How Good
are Learned Cost Models, Really?" argues offline Q-error misses:
prediction *latency under load*.  :func:`skewed_requests` builds
hot-database mixes, and every report carries a per-database
latency/degraded breakdown (``latency_by_db``) so a hot database's tail
is visible directly.

Open-loop means arrivals follow a seeded schedule (Poisson by default)
regardless of completions — the standard way to expose queueing delay: a
closed-loop client would slow its own arrival rate exactly when the server
struggles, hiding the latency it causes.  ``rate_per_s=None`` degenerates
to saturation mode (every client submits back-to-back), which is what the
throughput benchmarks use.

Latency is measured per request from ``submit()`` to completion (the
server stamps both ends), so client threads do not need to block on
results during the run; percentiles are computed after the fact — over
requests that actually *delivered* a value (``DONE``/``CACHED``/
``DEGRADED``); shed and failed requests are excluded, so admission-control
rejections cannot flatter the tail.  :class:`LoadReport` carries
throughput, **availability** (delivered / submitted — the chaos
benchmark's headline number), p50/p95/p99/mean/max latency, the per-status
request counts, and the server's batch-size histogram and
cache/shed/degraded counters — the numbers the perf harness records into
``BENCH_engine.json``.

Chaos mode: give :class:`LoadConfig` a ``faults`` schedule
(:class:`repro.robustness.faults.FaultSchedule`) and the run installs it
from the first submit until every handle resolves — deterministically
seeded, so a chaos run's fault decisions replay bit-identically — then
uninstalls it and snapshots the per-point injection counts into
``LoadReport.fault_stats``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..obs.export import latency_attribution as _span_attribution
from ..obs.trace import Tracer
from ..robustness import faults as fault_plane
from .server import RequestPriority, RequestStatus

__all__ = ["LoadConfig", "LoadReport", "run_load", "skewed_requests"]


def skewed_requests(requests_by_db, weights, n, seed=0):
    """A seeded hot-database request mix for skewed-load experiments.

    ``requests_by_db`` maps database names to lists of ``(db_name, plan)``
    pairs; ``weights`` maps the same names to relative arrival weights
    (e.g. ``{"hot": 0.9, "cold": 0.1}``).  Returns ``n`` requests drawn
    with replacement on the weighted mix, interleaved in one seeded
    arrival order — the skew a production workload has, and what the
    per-database latency breakdown is for.
    """
    names = sorted(requests_by_db)
    probabilities = np.array([float(weights[name]) for name in names])
    probabilities = probabilities / probabilities.sum()
    rng = np.random.default_rng(seed)
    choices = rng.choice(len(names), size=n, p=probabilities)
    positions = {name: 0 for name in names}
    mix = []
    for choice in choices:
        name = names[choice]
        pool = requests_by_db[name]
        mix.append(pool[positions[name] % len(pool)])
        positions[name] += 1
    return mix


@dataclass(frozen=True)
class LoadConfig:
    """Client count, arrival process, seed and chaos for one load run
    (tracing is :func:`run_load`'s ``trace`` argument)."""

    n_clients: int = 4
    rate_per_s: float | None = None  # aggregate arrival rate; None = saturate
    seed: int = 0
    timeout_s: float = 120.0  # wait bound for stragglers after arrivals end
    block: bool = False       # True: backpressure instead of shedding
    faults: object | None = None  # FaultSchedule to install for the run


@dataclass
class LoadReport:
    """Aggregate results of one load run."""

    n_requests: int
    completed: int      # predicted by a micro-batch
    cached: int         # answered from the result cache
    degraded: int       # answered by the analytical fallback (flagged)
    shed: int
    failed: int
    availability: float  # (completed + cached + degraded) / n_requests
    duration_s: float   # first submit -> last completion
    throughput_rps: float
    latency_ms: dict = field(default_factory=dict)  # p50/p95/p99/mean/max
    latency_by_db: dict = field(default_factory=dict)  # db -> percentiles
    batch_size_hist: dict = field(default_factory=dict)
    mean_batch_size: float = 0.0
    server_stats: dict = field(default_factory=dict)
    fault_stats: dict = field(default_factory=dict)  # per-point inject counts
    by_priority: dict = field(default_factory=dict)  # class -> counts/avail
    q_error_by_phase: dict = field(default_factory=dict)  # drift scenarios
    # Per-stage share of p50/p95/p99 from spans (traced runs only): the
    # obs.export.latency_attribution report, keyed "overall"/"by_class".
    latency_attribution: dict = field(default_factory=dict)
    spans: list = field(default_factory=list, repr=False)  # traced runs
    handles: list = field(default_factory=list, repr=False)  # per-request

    def compute_q_error_phases(self, truth_for, phases):
        """Per-phase Q-error summary for drift scenarios; stored and returned.

        ``phases`` maps phase names (e.g. ``"before"`` / ``"drift"`` /
        ``"after"``) to ``(start, end)`` index bounds over this report's
        handles in submission order; ``truth_for(handle)`` returns the
        ground-truth runtime (ms) for a handle.  Only model-path
        deliveries (``DONE``/``CACHED``) are scored — degraded fallback
        answers would conflate the fallback's error with the model's —
        so controller benchmarks and the quickstart can report recovery
        curves (Q-error before drift injection, during degradation, after
        recovery) without ad-hoc plumbing.
        """
        from ..nn import q_error
        ordered = sorted(self.handles, key=lambda handle: handle.submitted_at)
        scored = (RequestStatus.DONE, RequestStatus.CACHED)
        summary = {}
        for name, (start, end) in phases.items():
            predictions, truths = [], []
            for handle in ordered[start:end]:
                if handle.status in scored:
                    predictions.append(handle.value)
                    truths.append(truth_for(handle))
            if predictions:
                errors = q_error(np.asarray(predictions, dtype=float),
                                 np.asarray(truths, dtype=float))
                summary[name] = {
                    "count": int(errors.size),
                    "median": float(np.median(errors)),
                    "p95": float(np.percentile(errors, 95)),
                    "max": float(errors.max()),
                }
            else:
                summary[name] = {"count": 0}
        self.q_error_by_phase = summary
        return summary

    def as_dict(self):
        return {
            "n_requests": self.n_requests, "completed": self.completed,
            "cached": self.cached, "degraded": self.degraded,
            "shed": self.shed, "failed": self.failed,
            "availability": self.availability,
            "duration_s": self.duration_s,
            "throughput_rps": self.throughput_rps,
            "latency_ms": dict(self.latency_ms),
            "latency_by_db": {name: dict(summary) for name, summary
                              in self.latency_by_db.items()},
            "batch_size_hist": dict(self.batch_size_hist),
            "mean_batch_size": self.mean_batch_size,
            "fault_stats": dict(self.fault_stats),
            "by_priority": {name: dict(summary) for name, summary
                            in self.by_priority.items()},
            "q_error_by_phase": {name: dict(summary) for name, summary
                                 in self.q_error_by_phase.items()},
            "latency_attribution": dict(self.latency_attribution),
        }


def _latency_summary(latencies):
    """p50/p95/p99/mean/max over a latency list; empty dict when empty."""
    if not latencies:
        return {}
    values = np.asarray(latencies)
    p50, p95, p99 = np.percentile(values, [50, 95, 99])
    return {"p50": float(p50), "p95": float(p95), "p99": float(p99),
            "mean": float(values.mean()), "max": float(values.max())}


def _arrival_offsets(n, rate_per_s, rng):
    """Cumulative Poisson-process arrival times (seconds), or zeros."""
    if not rate_per_s:
        return np.zeros(n)
    return np.cumsum(rng.exponential(1.0 / rate_per_s, size=n))


def run_load(server, requests, config=None, trace=False):
    """Fire ``requests`` — ``(db_name, plan)`` pairs — at ``server``.

    A request may also be a ``(db_name, plan, priority)`` triple
    (:class:`~repro.serving.core.RequestPriority`), in which case the
    priority rides the submit and the report carries a per-class
    breakdown in ``by_priority`` — how overload-control experiments show
    that shedding concentrates on low-priority traffic.

    Requests are interleaved round-robin over ``n_clients`` threads; each
    thread submits on the seeded open-loop schedule and never waits for
    results mid-run.  When ``config.faults`` is set, the schedule is
    installed for the whole run — arrivals *and* drain (chaos mode).
    Returns a :class:`LoadReport`.

    ``trace`` opts the run into per-request spans: pass ``True`` (a
    :class:`~repro.obs.trace.Tracer` is attached to the server for the
    run and detached after, unless the server already has one), or a
    ``Tracer`` to use.  A traced report carries ``spans`` and the
    per-stage ``latency_attribution`` breakdown.
    """
    config = config or LoadConfig()
    tracer = attached = None
    if trace:
        tracer = trace if isinstance(trace, Tracer) else server.tracer
        if tracer is None:
            tracer = Tracer()
        if server.tracer is not tracer:
            attached = server.attach_tracer(tracer)
    requests = list(requests)
    per_client = [requests[i::config.n_clients]
                  for i in range(config.n_clients)]
    # One seeded arrival schedule per client; each client's share of the
    # aggregate rate keeps the fleet's total at rate_per_s.
    client_rate = (config.rate_per_s / config.n_clients
                   if config.rate_per_s else None)
    schedules = [_arrival_offsets(len(items), client_rate,
                                  np.random.default_rng(config.seed + index))
                 for index, items in enumerate(per_client)]
    handles = [[] for _ in per_client]
    barrier = threading.Barrier(config.n_clients + 1)

    def client(index):
        out = handles[index]
        barrier.wait()
        start = time.perf_counter()
        for item, offset in zip(per_client[index], schedules[index]):
            db_name, plan = item[0], item[1]
            kwargs = {}
            if len(item) > 2:
                kwargs["priority"] = item[2]
            delay = offset - (time.perf_counter() - start)
            if delay > 0:
                time.sleep(delay)
            out.append(server.submit(plan, db_name, block=config.block,
                                     **kwargs))

    threads = [threading.Thread(target=client, args=(index,), daemon=True)
               for index in range(config.n_clients)]
    fault_stats = {}
    if config.faults is not None:
        fault_plane.install(config.faults)
    try:
        # The schedule stays installed until every handle resolves (or the
        # straggler deadline passes): in saturation mode submission finishes
        # long before processing, so uninstalling at join time would leave
        # most of the run chaos-free.
        for thread in threads:
            thread.start()
        barrier.wait()
        for thread in threads:
            thread.join()
        flat = [handle for client_handles in handles
                for handle in client_handles]
        deadline = time.monotonic() + config.timeout_s
        for handle in flat:
            handle.wait(max(0.0, deadline - time.monotonic()))
        if config.faults is not None:
            fault_stats = config.faults.stats()
    finally:
        if config.faults is not None:
            fault_plane.uninstall()
        if attached is not None:
            server.attach_tracer(None)
    # Drain (not just read) so a reused tracer never leaks a previous
    # run's spans into this report's attribution.
    spans = tracer.drain() if tracer is not None else []
    attribution = _span_attribution(spans) if spans else {}

    by_status = {status: 0 for status in RequestStatus}
    latencies = []
    per_db = {}  # db -> {"latencies": [...], "degraded": int, "requests": int}
    first_submit, last_complete = np.inf, -np.inf
    delivered_statuses = (RequestStatus.DONE, RequestStatus.CACHED,
                          RequestStatus.DEGRADED)
    per_priority = {}  # class name -> status counts
    for handle in flat:
        by_status[handle.status] += 1
        first_submit = min(first_submit, handle.submitted_at)
        bucket = per_db.setdefault(handle.db_name,
                                   {"latencies": [], "degraded": 0,
                                    "requests": 0})
        bucket["requests"] += 1
        priority = getattr(handle, "priority", None) or \
            RequestPriority.NORMAL
        pr_bucket = per_priority.setdefault(
            priority.name.lower(),
            {"requests": 0, "delivered": 0, "degraded": 0,
             "shed": 0, "failed": 0})
        pr_bucket["requests"] += 1
        if handle.status is RequestStatus.DEGRADED:
            bucket["degraded"] += 1
            pr_bucket["degraded"] += 1
        if handle.status is RequestStatus.SHED:
            pr_bucket["shed"] += 1
        elif handle.status not in delivered_statuses:
            pr_bucket["failed"] += 1
        if handle.status in delivered_statuses:
            pr_bucket["delivered"] += 1
            latencies.append(handle.latency_ms)
            bucket["latencies"].append(handle.latency_ms)
            last_complete = max(last_complete, handle.completed_at)
    for summary in per_priority.values():
        summary["availability"] = (summary["delivered"] / summary["requests"]
                                   if summary["requests"] else 0.0)
    served = sum(by_status[status] for status in delivered_statuses)
    duration = max(last_complete - first_submit, 0.0) if served else 0.0
    latency_summary = _latency_summary(latencies)
    # Per-database breakdown: each database's latency tail under a skewed
    # mix, plus how often it fell back to the analytical model.
    latency_by_db = {}
    for db_name in sorted(per_db):
        bucket = per_db[db_name]
        summary = _latency_summary(bucket["latencies"])
        summary["requests"] = bucket["requests"]
        summary["delivered"] = len(bucket["latencies"])
        summary["degraded"] = bucket["degraded"]
        latency_by_db[db_name] = summary
    stats = server.stats()
    return LoadReport(
        n_requests=len(flat),
        completed=by_status[RequestStatus.DONE],
        cached=by_status[RequestStatus.CACHED],
        degraded=by_status[RequestStatus.DEGRADED],
        shed=by_status[RequestStatus.SHED],
        failed=(by_status[RequestStatus.FAILED]
                + by_status[RequestStatus.PENDING]),
        availability=(served / len(flat)) if flat else 0.0,
        duration_s=duration,
        throughput_rps=(served / duration) if duration > 0 else 0.0,
        latency_ms=latency_summary,
        latency_by_db=latency_by_db,
        batch_size_hist=stats["batch_size_hist"],
        mean_batch_size=stats["mean_batch_size"],
        server_stats=stats,
        fault_stats=fault_stats,
        by_priority=per_priority,
        latency_attribution=attribution,
        spans=spans,
        handles=flat,
    )
