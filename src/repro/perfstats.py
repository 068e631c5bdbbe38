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
original ``increment``/``snapshot``/``reset`` API and a live ``counters``
mapping view, so existing callers never notice.

All operations are thread-safe.  The old implementation iterated a live
``defaultdict`` in ``snapshot`` while serving threads incremented it,
which could raise ``RuntimeError: dictionary changed size during
iteration`` under the fleet's free-threaded load; the registry copies
under its lock instead.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.obs.metrics import REGISTRY

__all__ = ["counters", "increment", "snapshot", "reset"]


class _CounterView(Mapping):
    """Read-only live view of the registry's counters.

    Supports the mapping surface legacy callers use (``items()``,
    ``[name]``, ``get``, iteration, ``len``).  Iteration works on a copy
    taken under the registry lock, so concurrent increments cannot raise
    mid-iteration.
    """

    def __getitem__(self, name):
        # defaultdict-compatible: missing names read as 0.
        return REGISTRY.counter_values([name])[name]

    def __iter__(self):
        return iter(REGISTRY.counter_values())

    def __len__(self):
        return len(REGISTRY.counter_values())

    def items(self):
        return REGISTRY.counter_values().items()

    def clear(self):
        REGISTRY.reset()


counters = _CounterView()


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
