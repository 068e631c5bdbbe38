"""Per-layer measurement for the traced run.

Offline layers are timed by shims the benchmark installs around public
entry points for the duration of the offline loop (:func:`offline_shims`);
serving layers come from the serving stack's own spans (the spans
``ServerConfig(trace=True)`` records) and metrics registry, read through
:func:`serving_layers`.  Nothing here changes a value: shims only time
calls and forward their results.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import ExitStack
from unittest import mock

import numpy as np

import repro.cardest.datadriven
import repro.core.api
import repro.workloads.trace
from repro.obs.metrics import REGISTRY
from repro.serving import ModelRegistry

# (module, attribute) -> layer metric; each shimmed callable is reached by
# the offline loop only through that module's global, and no shimmed call
# runs inside another, so the timed intervals never overlap.
OFFLINE_SHIMS = (
    (repro.workloads.trace, "plan_query", "optimizer.plan_s"),
    (repro.workloads.trace, "execute_trace", "executor.execute_s"),
    (repro.workloads.trace, "simulate_runtime_ms_batch",
     "executor.simulate_s"),
    (repro.core.api, "build_query_graphs", "featurization.busy_s"),
    (repro.core.api, "annotate_cardinalities", "cardest.annotate_s"),
    (repro.cardest.datadriven, "learn_spn", "cardest.spn_learn_s"),
    (repro.core.api, "train_model", "core.train_s"),
    (repro.core.api, "predict_runtimes", "core.predict_s"),
)

# Registry histogram the load shim observes into.  Fleet workers inherit
# the shim through fork and ship their registry deltas with stats().
LOAD_HISTOGRAM = "perfbench.registry.load_ms"


class LayerTimes:
    """Accumulated busy seconds per layer (single-threaded use)."""

    def __init__(self):
        self.seconds = defaultdict(float)

    def timed(self, metric, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[metric] += time.perf_counter() - start
        return wrapper

    def call(self, metric, fn, *args, **kwargs):
        return self.timed(metric, fn)(*args, **kwargs)


def _patched(patches):
    """One context manager applying ``(owner, attribute, replacement)``
    patches; the originals come back on exit."""
    stack = ExitStack()
    for owner, attribute, replacement in patches:
        stack.enter_context(mock.patch.object(owner, attribute, replacement))
    return stack


def offline_shims(times):
    """Context manager timing the offline layers into ``times``."""
    return _patched([(module, attribute,
                      times.timed(metric, getattr(module, attribute)))
                     for module, attribute, metric in OFFLINE_SHIMS])


def load_shims():
    """Context manager timing registry hydration (``load``/``load_mmap``)
    into the metrics registry, so fleet workers report theirs too."""
    def observed(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                REGISTRY.observe(LOAD_HISTOGRAM,
                                 (time.perf_counter() - start) * 1e3)
        return wrapper
    return _patched([(ModelRegistry, name, observed(getattr(ModelRegistry,
                                                            name)))
                     for name in ("load", "load_mmap")])


def _percentile(values, p):
    return float(np.percentile(values, p)) if len(values) else 0.0


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def executor_ratios(counters):
    scan_hit = counters.get("execute.scan_cache.hit", 0)
    scan_miss = counters.get("execute.scan_cache.miss", 0)
    join_hit = counters.get("execute.join_index.hit", 0)
    join_fallback = counters.get("execute.join_index.fallback", 0)
    return {
        "executor.scan_cache.hit_ratio": _ratio(scan_hit,
                                                scan_hit + scan_miss),
        "executor.join_index.hit_ratio": _ratio(join_hit,
                                                join_hit + join_fallback),
    }


def stage_ms_per_plan(spans, stage):
    """Busy milliseconds of ``stage`` per request that went through it.

    A micro-batch records one interval on every request it carried, so
    each distinct (process, interval) is counted once."""
    intervals = set()
    requests = 0
    for span in spans:
        if span.name == stage:
            intervals.add((span.proc, span.start, span.end))
            requests += 1
    busy_ms = sum(end - start for _, start, end in intervals) * 1e3
    return _ratio(busy_ms, requests)


def stage_durations_ms(spans, stage):
    return [span.duration_ms for span in spans if span.name == stage]


def serving_layers(spans, counters, stats, fleet):
    """Serving per-layer metrics from spans, counters and ``stats()``."""
    queue = stage_durations_ms(spans, "queue")
    hits = counters.get("serve.cache.hit", 0)
    misses = counters.get("serve.cache.miss", 0)
    load = REGISTRY.histogram(LOAD_HISTOGRAM)
    metrics = {
        "serving.featurize_ms_per_plan": stage_ms_per_plan(spans,
                                                           "featurize"),
        "serving.infer_ms_per_plan": stage_ms_per_plan(spans, "infer"),
        "serving.batch_size_mean": float(stats["mean_batch_size"]),
        "serving.queue_ms_p50": _percentile(queue, 50),
        "serving.queue_ms_p99": _percentile(queue, 99),
        "serving.result_cache.hit_ratio": _ratio(hits, hits + misses),
        "serving.swap_count": float(counters.get("serve.swap.count", 0)),
        "serving.shed": float(counters.get("serve.shed.count", 0)),
        "serving.retry": float(counters.get("serve.retry.count", 0)),
        "serving.degraded": float(counters.get("serve.degraded.count", 0)),
        "registry.load_ms": _ratio(load.sum, load.total),
        "fleet.worker.restart": float(counters.get("fleet.worker.restart",
                                                   0)),
        "fleet.worker_recv_ms_p99": 0.0,
        "fleet.spill_share": 0.0,
        "fleet.batch_size_mean": 0.0,
    }
    if fleet:
        metrics["fleet.worker_recv_ms_p99"] = _percentile(
            stage_durations_ms(spans, "worker.recv"), 99)
        metrics["fleet.spill_share"] = _ratio(stats["spills"],
                                              stats["requests"])
        metrics["fleet.batch_size_mean"] = float(stats["mean_batch_size"])
    return metrics
