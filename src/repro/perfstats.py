"""Process-wide dispatch counters for the engine's fast paths.

Every fast-path entry point (vectorized featurization, batched cardinality
annotation, fingerprint-cache hits, graph-free inference) bumps a named
counter here, and the loop oracles in ``tests/oracles`` bump their own.  The
perf harness records a snapshot into ``BENCH_engine.json`` and the tier-1
smoke test asserts that exercising the public API dispatches to the fast
paths — a regression that silently falls back to a loop implementation
fails the suite instead of only showing up as a slow benchmark.

Since the observability plane landed, this module is a thin facade over
:data:`repro.obs.metrics.REGISTRY`: every ``increment`` is a typed counter
in the registry, so the serving/fleet/controller counters show up next to
the latency histograms in one mergeable snapshot.  The facade keeps the
original ``increment``/``snapshot``/``reset`` API.

All operations are thread-safe.  The old implementation iterated a live
``defaultdict`` in ``snapshot`` while serving threads incremented it,
which could raise ``RuntimeError: dictionary changed size during
iteration`` under the fleet's free-threaded load; the registry copies
under its lock instead.
"""

from __future__ import annotations

from repro.obs.metrics import REGISTRY

__all__ = ["increment", "snapshot", "reset"]


def increment(name, n=1):
    """Bump counter ``name`` by ``n`` (thread-safe)."""
    REGISTRY.increment(name, n)


def snapshot(names=None):
    """A plain-dict copy of the counters (optionally restricted to ``names``).

    Missing names read as 0.  The copy is taken under the registry lock,
    so it is a consistent point-in-time view even under concurrent
    increments.
    """
    return REGISTRY.counter_values(names)


def reset():
    """Clear all counters (test isolation)."""
    REGISTRY.reset()
