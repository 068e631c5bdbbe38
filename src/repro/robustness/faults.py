"""Deterministic, seeded fault-injection plane for the serving stack.

Chaos testing is only useful when a failing run can be *replayed*: the same
schedule must produce the same faults at the same places, every time.  This
module gives the repo that property:

* **Injection points are registered by name.**  Production code calls
  :func:`check` (or :func:`corrupt` / :func:`delay_ms`) at eleven named
  choke points — registry checkpoint hydration (``registry.hydrate``),
  artifact-store reads (``store.read``), featurization
  (``serve.featurize``), inference (``serve.infer``), the batcher loop
  itself (``serve.batcher``), the continuous-learning control plane's
  observation ingest (``controller.observe``), retrain/publish step
  (``controller.retrain``) and shadow evaluation (``controller.shadow``),
  and the fleet's IPC plane — pipe sends (``fleet.pipe.send``), pipe
  receives (``fleet.pipe.recv``) and the worker compute loop
  (``fleet.worker.hang``).  With no schedule installed these calls are a
  single ``is None`` check — the fault plane costs nothing when idle.
* **A seeded :class:`FaultSchedule` decides per call.**  Every injection
  point owns an independent counted RNG stream seeded from
  ``(schedule seed, point name)``; the *n*-th call at a point always sees
  the same draw, regardless of wall-clock time or what other points did in
  between.  All the hardened points are driven by the single batcher
  thread (or by per-test callers), so the per-point call sequence — and
  therefore the whole chaos run — replays bit-identically.
* **Five fault actions.**  ``raise`` (an :class:`InjectedFault`, or an
  exception type the spec names), ``delay`` (a bounded sleep, for deadline
  and tail-latency testing), ``corrupt`` (the caller passes payload
  bytes through :func:`corrupt`, which flips deterministic bits — how torn
  checkpoint reads are simulated), ``drop`` (:func:`check` returns the
  string ``"drop"`` and the call site discards the message — how lost IPC
  traffic is simulated) and ``hang`` (a long sleep — ``delay_ms``, or
  effectively forever when unset — simulating a wedged worker; ended by
  the supervisor's SIGKILL).  :func:`check` returns the fired action name
  (or ``None``), so pipe call sites can honor ``drop`` without exceptions.
* **Targeted poisoning.**  A spec may carry ``keys`` — opaque identifiers
  (the server passes plan digests) that make specific *requests* poisonous
  instead of sampling by rate.  This is what the poisoned-batch bisection
  tests use: one key fails alone, its micro-batch neighbours succeed.

Usage::

    schedule = FaultSchedule([
        FaultSpec("serve.infer", rate=0.2, max_faults=5),
        FaultSpec("registry.hydrate", action="corrupt", rate=1.0,
                  max_faults=1),
    ], seed=7)
    with inject(schedule):
        ... drive the server ...
    schedule.stats()   # calls/faults per point, for assertions

Every triggered fault bumps a ``fault.injected.<point>`` perfstats counter
so chaos runs are observable through the same plane as everything else.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from hashlib import blake2b

import numpy as np

from .. import perfstats

__all__ = ["FaultSpec", "FaultSchedule", "InjectedFault", "inject",
           "install", "uninstall", "active_schedule", "check", "corrupt",
           "POINTS"]

# The registered injection-point names (documentation + typo guard: a spec
# naming an unknown point fails fast at schedule construction).
POINTS = (
    "store.read",          # ArtifactStore.load payload reads
    "registry.hydrate",    # ModelRegistry checkpoint hydration
    "serve.featurize",     # batcher-side featurization of a request group
    "serve.infer",         # batcher-side predict_runtimes call
    "serve.batcher",       # the batcher loop machinery itself (crash tests)
    "controller.observe",  # control-plane observation ingest (per record)
    "controller.retrain",  # drift retrain: train start + pre-publish
    "controller.shadow",   # shadow evaluation of an unactivated candidate
    "fleet.pipe.send",     # router<->worker pipe sends (+ corrupt frames)
    "fleet.pipe.recv",     # router<->worker pipe receives (drop/delay/raise)
    "fleet.worker.hang",   # worker compute loop: wedge before a batch
)

# How long a "hang" action sleeps when the spec leaves delay_ms at 0 —
# effectively forever; the fleet supervisor's SIGKILL is what ends it.
_HANG_FOREVER_MS = 3_600_000.0


class InjectedFault(RuntimeError):
    """An error raised by the fault plane (never by real code paths)."""


@dataclass(frozen=True)
class FaultSpec:
    """What can go wrong at one injection point.

    ``rate`` is the per-call fault probability drawn from the point's
    seeded stream; ``keys`` instead (or additionally) poisons specific
    request identifiers.  ``max_faults`` bounds how many times the spec
    fires (``None`` = unbounded); ``skip_calls`` lets the first *n* calls
    through untouched, so a schedule can hit "mid-load" deterministically.
    """

    point: str
    rate: float = 0.0
    action: str = "raise"    # "raise" | "delay" | "corrupt" | "drop" | "hang"
    error: type = InjectedFault
    message: str = ""
    delay_ms: float = 0.0
    max_faults: int | None = None
    skip_calls: int = 0
    keys: frozenset = frozenset()

    def __post_init__(self):
        if self.point not in POINTS:
            raise ValueError(f"unknown injection point {self.point!r}; "
                             f"registered points: {POINTS}")
        if self.action not in ("raise", "delay", "corrupt", "drop", "hang"):
            raise ValueError(f"unknown fault action {self.action!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        object.__setattr__(self, "keys", frozenset(self.keys))


@dataclass
class _PointState:
    """Per-point deterministic stream + counters (lock-protected)."""

    rng: np.random.Generator
    calls: int = 0
    faults: int = 0
    by_action: dict = field(default_factory=dict)


class FaultSchedule:
    """A seeded, replayable decision procedure over the injection points.

    Decisions are a pure function of ``(seed, point, call index at that
    point, request keys)`` — two runs that issue the same per-point call
    sequences observe identical faults.  Thread-safe: a lock serializes the
    per-point counters and RNG draws.
    """

    def __init__(self, specs, seed=0):
        self.specs = list(specs)
        self.seed = int(seed)
        self._by_point = {}
        for spec in self.specs:
            self._by_point.setdefault(spec.point, []).append(spec)
        self._lock = threading.Lock()
        self._state = {}
        for point in self._by_point:
            point_seed = int.from_bytes(
                blake2b(f"{self.seed}:{point}".encode(),
                        digest_size=8).digest(), "big")
            self._state[point] = _PointState(
                rng=np.random.default_rng(point_seed))
        self._fired = {id(spec): 0 for spec in self.specs}

    # ------------------------------------------------------------------
    def decide(self, point, keys=()):
        """The first firing spec for this call, or ``None``.

        Exactly one uniform draw is consumed per call *per rate-bearing
        spec* at the point, fired or not, so earlier specs exhausting
        ``max_faults`` never shifts the stream of later calls.
        """
        specs = self._by_point.get(point)
        if not specs:
            return None
        with self._lock:
            state = self._state[point]
            state.calls += 1
            fired = None
            for spec in specs:
                hit = False
                if spec.rate > 0.0:
                    draw = float(state.rng.random())
                    hit = draw < spec.rate
                if spec.keys and not hit:
                    hit = any(key in spec.keys for key in keys)
                if not hit or fired is not None:
                    continue
                if state.calls <= spec.skip_calls:
                    continue
                if (spec.max_faults is not None
                        and self._fired[id(spec)] >= spec.max_faults):
                    continue
                self._fired[id(spec)] += 1
                state.faults += 1
                state.by_action[spec.action] = \
                    state.by_action.get(spec.action, 0) + 1
                fired = spec
            return fired

    def stats(self):
        """Per-point call/fault counts (for replay assertions)."""
        with self._lock:
            return {point: {"calls": state.calls, "faults": state.faults,
                            "by_action": dict(state.by_action)}
                    for point, state in self._state.items()}

    def total_faults(self):
        with self._lock:
            return sum(state.faults for state in self._state.values())

    def __repr__(self):
        return (f"FaultSchedule(seed={self.seed}, "
                f"specs={len(self.specs)}, points={sorted(self._by_point)})")


# ----------------------------------------------------------------------
# Installation (module-level, explicitly scoped)
# ----------------------------------------------------------------------
_active: FaultSchedule | None = None
_install_lock = threading.Lock()


def install(schedule):
    """Install ``schedule`` as the process-wide active fault schedule."""
    global _active
    with _install_lock:
        if _active is not None:
            raise RuntimeError("a fault schedule is already installed")
        _active = schedule
    return schedule


def uninstall():
    """Remove the active schedule (idempotent)."""
    global _active
    with _install_lock:
        _active = None


def active_schedule():
    return _active


def _renew_locks_after_fork():
    """Fresh locks for the installer and the inherited schedule (its
    counters and streams stay as inherited): a lock a parent thread held at
    the fork would stay held forever in the child."""
    global _install_lock
    _install_lock = threading.Lock()
    if _active is not None:
        _active._lock = threading.Lock()


os.register_at_fork(after_in_child=_renew_locks_after_fork)


class inject:
    """Context manager: install a schedule for the duration of a block."""

    def __init__(self, schedule):
        self.schedule = schedule

    def __enter__(self):
        install(self.schedule)
        return self.schedule

    def __exit__(self, exc_type, exc, tb):
        uninstall()
        return False


# ----------------------------------------------------------------------
# Injection-point API (what production code calls)
# ----------------------------------------------------------------------
def check(point, keys=()):
    """Consult the active schedule at ``point``; act, return the action.

    ``keys`` are opaque request identifiers a targeted spec can poison.
    Returns the fired action name (``"delay"``, ``"drop"``, ``"hang"``)
    after performing any sleep, so pipe call sites can honor ``drop`` by
    discarding the message; ``raise`` raises.  A ``corrupt`` decision
    returns ``"corrupt"`` at ``fleet.pipe.send`` (the sender writes a
    garbage frame) and raises anywhere else (byte-stream call sites honor
    it via :func:`corrupt`).  No fault — or no schedule installed, a single
    attribute read — returns ``None``.
    """
    schedule = _active
    if schedule is None:
        return None
    spec = schedule.decide(point, keys)
    if spec is None:
        return None
    perfstats.increment(f"fault.injected.{point}")
    if spec.action == "delay":
        time.sleep(spec.delay_ms / 1e3)
        return "delay"
    if spec.action == "drop":
        return "drop"
    if spec.action == "hang":
        time.sleep((spec.delay_ms or _HANG_FOREVER_MS) / 1e3)
        return "hang"
    if spec.action == "raise":
        raise spec.error(spec.message
                         or f"injected fault at {point!r}")
    if point == "fleet.pipe.send":
        return "corrupt"
    # "corrupt" at any other non-byte call site: treated as a raise so
    # schedules stay meaningful wherever they are pointed.
    raise InjectedFault(f"injected corruption at non-byte point {point!r}")


def corrupt(point, payload, keys=()):
    """Pass ``payload`` bytes through the fault plane.

    A ``corrupt`` decision returns a deterministically damaged copy (first
    and middle bytes XOR-flipped — enough to break any checksum); ``raise``
    and ``delay`` behave as in :func:`check`.  No fault: the payload is
    returned untouched, zero-copy.
    """
    schedule = _active
    if schedule is None:
        return payload
    spec = schedule.decide(point, keys)
    if spec is None:
        return payload
    perfstats.increment(f"fault.injected.{point}")
    if spec.action == "delay":
        time.sleep(spec.delay_ms / 1e3)
        return payload
    if spec.action == "drop":
        # At a byte call site a dropped message has no meaning; counted,
        # payload passes untouched.
        return payload
    if spec.action == "hang":
        time.sleep((spec.delay_ms or _HANG_FOREVER_MS) / 1e3)
        return payload
    if spec.action == "raise":
        raise spec.error(spec.message or f"injected fault at {point!r}")
    if not payload:
        return payload
    damaged = bytearray(payload)
    damaged[0] ^= 0xFF
    damaged[len(damaged) // 2] ^= 0xFF
    return bytes(damaged)
