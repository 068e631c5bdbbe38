"""Typed metrics registry: counters, gauges, exactly-mergeable histograms.

The registry is the single process-wide sink for serving metrics.  It is
thread-safe under the free-threaded assumptions the fleet already makes
(batcher thread + client threads + liveness thread all incrementing
concurrently), and it is **mergeable**: a worker process snapshots its
registry, ships the plain-dict payload over the control pipe, and the
router folds it into its own view with :meth:`MetricsRegistry.merge` —
counters add, gauges take the latest, and histograms add *element-wise*
because every histogram of a given name shares the same fixed log-bucket
boundaries.  Exact merge (not approximate) is the point: the fleet-wide
p95 computed at the router is the same number a single process observing
all samples would have computed, to bucket resolution.

Nothing here imports from the rest of :mod:`repro`; ``perfstats`` imports
this module, not the other way round.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_right

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "DEFAULT_LATENCY_BOUNDARIES_MS",
    "snapshot_delta",
]

# Fixed log-bucket ladder for latency histograms, in milliseconds: powers
# of two from ~1 µs to ~65 s.  Fixed and shared so that any two histograms
# with the same name merge exactly (element-wise count addition).
DEFAULT_LATENCY_BOUNDARIES_MS = tuple(2.0 ** e for e in range(-10, 17))


class Counter:
    """Monotonic counter.  ``inc`` is atomic under the registry lock."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name, lock):
        self.name = name
        self.value = 0
        self._lock = lock

    def inc(self, n=1):
        with self._lock:
            self.value += n


class Gauge:
    """Last-write-wins instantaneous value (queue depth, breaker state)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name, lock):
        self.name = name
        self.value = 0.0
        self._lock = lock

    def set(self, value):
        with self._lock:
            self.value = float(value)


class Histogram:
    """Log-bucket histogram with *fixed* boundaries → exact merges.

    ``counts`` has ``len(boundaries) + 1`` slots; sample ``v`` lands in the
    first bucket whose upper boundary is ``> v`` (the last slot is the
    overflow bucket).  Two histograms with equal boundaries merge by adding
    counts element-wise, which is exact: no sample is re-binned.
    """

    __slots__ = ("name", "boundaries", "counts", "total", "sum", "_lock")

    def __init__(self, name, boundaries=DEFAULT_LATENCY_BOUNDARIES_MS,
                 lock=None):
        self.name = name
        self.boundaries = tuple(float(b) for b in boundaries)
        if any(b <= a for a, b in zip(self.boundaries, self.boundaries[1:])):
            raise ValueError("histogram boundaries must be strictly increasing")
        self.counts = [0] * (len(self.boundaries) + 1)
        self.total = 0
        self.sum = 0.0
        self._lock = lock if lock is not None else threading.Lock()

    def observe(self, value):
        idx = bisect_right(self.boundaries, value)
        with self._lock:
            self.counts[idx] += 1
            self.total += 1
            self.sum += value

    def merge_counts(self, boundaries, counts, total, sum_):
        if tuple(boundaries) != self.boundaries:
            raise ValueError(
                f"histogram {self.name!r}: cannot merge mismatched boundaries")
        with self._lock:
            for i, c in enumerate(counts):
                self.counts[i] += c
            self.total += total
            self.sum += sum_

    def percentile(self, p):
        """Upper boundary of the bucket holding the ``p``-th percentile.

        Returns 0.0 for an empty histogram.  The answer is exact to bucket
        resolution, and identical whether samples were observed in one
        process or merged from many.
        """
        with self._lock:
            total = self.total
            counts = list(self.counts)
        if total == 0:
            return 0.0
        rank = max(1, int(p / 100.0 * total + 0.5))
        seen = 0
        for i, c in enumerate(counts):
            seen += c
            if seen >= rank:
                if i < len(self.boundaries):
                    return self.boundaries[i]
                return self.boundaries[-1] * 2.0  # overflow bucket
        return self.boundaries[-1] * 2.0

    def as_dict(self):
        with self._lock:
            return {
                "boundaries": list(self.boundaries),
                "counts": list(self.counts),
                "total": self.total,
                "sum": self.sum,
            }


class MetricsRegistry:
    """Thread-safe named registry of counters, gauges and histograms."""

    def __init__(self):
        self._lock = threading.RLock()
        self._counters = {}
        self._gauges = {}
        self._histograms = {}

    # -- construction / lookup ------------------------------------------
    def counter(self, name):
        with self._lock:
            c = self._counters.get(name)
            if c is None:
                c = self._counters[name] = Counter(name, self._lock)
            return c

    def gauge(self, name):
        with self._lock:
            g = self._gauges.get(name)
            if g is None:
                g = self._gauges[name] = Gauge(name, self._lock)
            return g

    def histogram(self, name, boundaries=DEFAULT_LATENCY_BOUNDARIES_MS):
        with self._lock:
            h = self._histograms.get(name)
            if h is None:
                h = self._histograms[name] = Histogram(
                    name, boundaries, lock=threading.Lock())
            return h

    # -- hot-path conveniences ------------------------------------------
    def increment(self, name, n=1):
        # One lock hold for the lookup and the add (counter() + inc() would
        # take the registry lock twice on every hot-path increment).
        with self._lock:
            c = self._counters.get(name)
            if c is None:
                c = self._counters[name] = Counter(name, self._lock)
            c.value += n

    def observe(self, name, value):
        self.histogram(name).observe(value)

    # -- snapshot / merge -----------------------------------------------
    def snapshot(self):
        """Plain-dict, pickle/JSON-safe copy of everything (for the wire)."""
        with self._lock:
            counters = {n: c.value for n, c in self._counters.items()}
            gauges = {n: g.value for n, g in self._gauges.items()}
            hist_items = list(self._histograms.items())
        histograms = {n: h.as_dict() for n, h in hist_items}
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    def merge(self, snapshot):
        """Fold a snapshot from another process into this registry.

        Counters add, gauges last-write-win, histograms merge exactly
        (element-wise) — boundaries must match, by construction they do
        because every histogram of a given name uses the same fixed ladder.
        """
        for name, value in snapshot.get("counters", {}).items():
            if value:
                self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, payload in snapshot.get("histograms", {}).items():
            h = self.histogram(name, payload["boundaries"])
            h.merge_counts(payload["boundaries"], payload["counts"],
                           payload["total"], payload["sum"])

    def counter_values(self, names=None):
        with self._lock:
            if names is None:
                return {n: c.value for n, c in self._counters.items()}
            return {n: (self._counters[n].value if n in self._counters else 0)
                    for n in names}

    def reset(self):
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def _renew_locks(self):
        """Give the registry and every metric fresh, unheld locks; values
        stay.  Runs in a forked child, where a lock some parent thread held
        at the fork stays held forever (its owner does not exist there)."""
        self._lock = threading.RLock()
        for metric in (*self._counters.values(), *self._gauges.values()):
            metric._lock = self._lock
        for histogram in self._histograms.values():
            histogram._lock = threading.Lock()


def snapshot_delta(new, old):
    """``new - old`` for two snapshots of the *same* registry.

    This is how workers ship metric *deltas* over the control pipe: each
    stats answer carries only what changed since the last one, so the
    router can merge every delta it receives without ever double-counting
    a cumulative value.  ``old=None`` means "everything is new".
    """
    if old is None:
        return new
    counters = {}
    for name, value in new.get("counters", {}).items():
        diff = value - old.get("counters", {}).get(name, 0)
        if diff:
            counters[name] = diff
    histograms = {}
    for name, payload in new.get("histograms", {}).items():
        prev = old.get("histograms", {}).get(name)
        if prev is None:
            histograms[name] = payload
            continue
        counts = [c - p for c, p in zip(payload["counts"], prev["counts"])]
        total = payload["total"] - prev["total"]
        if total:
            histograms[name] = {
                "boundaries": payload["boundaries"],
                "counts": counts,
                "total": total,
                "sum": payload["sum"] - prev["sum"],
            }
    return {"counters": counters, "gauges": dict(new.get("gauges", {})),
            "histograms": histograms}


#: Process-wide default registry.  ``perfstats`` and the serving stack all
#: write here; worker processes snapshot it into their stats payloads.
REGISTRY = MetricsRegistry()

# Fleet workers fork while client threads increment counters; without this
# a child forked mid-increment deadlocks on its first metric call.
os.register_at_fork(after_in_child=REGISTRY._renew_locks)
