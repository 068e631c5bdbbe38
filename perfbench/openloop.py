"""Load drivers for the end-to-end benchmark.

Two ways to offer traffic to anything with the predictor ``submit`` surface
(:class:`~repro.serving.PredictorServer`, :class:`~repro.serving.
PredictorFleet`):

* :func:`saturate` — closed loop: clients submit back to back with
  ``block=True`` (backpressure, never shedding).  Gives the delivered rate
  at saturation.
* :func:`open_loop` — open loop: one seeded Poisson schedule at a fixed
  aggregate rate, split round-robin over client threads that never wait for
  results.  Every request is timed from its **due time**, not from the
  moment ``submit()`` returned control, so a generator that falls behind
  (the client threads share the interpreter lock with the server's batcher)
  charges that stall to the requests it delayed.  How late the generator
  ran is reported next to the latencies.

Both return a :class:`Phase`.  Once every handle has resolved, the phase
keeps only compact arrays (status, value, serving version, timestamps), so
the benchmark's bookkeeping adds no garbage-collector work to later phases.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

STATUSES = ("pending", "done", "cached", "degraded", "shed", "failed")
PENDING, DONE, CACHED = 0, 1, 2


@dataclass
class Phase:
    """Requests and client-side timings of one load phase.

    ``items`` are the ``(db_name, plan)`` pairs submitted, in order; the
    arrays are aligned with them.  ``served_by[i]`` indexes
    ``served_by_names`` (``-1`` when the request carries none)."""

    name: str
    items: list = field(default_factory=list)
    status: np.ndarray = None
    value: np.ndarray = None
    served_by: np.ndarray = None
    served_by_names: list = field(default_factory=list)
    completed: np.ndarray = None
    due: np.ndarray = None
    submitted: np.ndarray = None
    submit_s: np.ndarray = None
    started: float = 0.0

    def record(self, handles):
        """Copy the resolved handles into compact arrays."""
        names = {}
        self.status = np.array([STATUSES.index(h.status.value)
                                for h in handles], dtype=np.int8)
        self.value = np.array([np.nan if h.value is None else h.value
                               for h in handles], dtype=np.float64)
        self.completed = np.array([np.nan if h.completed_at is None
                                   else h.completed_at for h in handles])
        self.served_by = np.array(
            [-1 if h.served_by is None
             else names.setdefault(tuple(h.served_by), len(names))
             for h in handles], dtype=np.int32)
        self.served_by_names = list(names)

    def answered_mask(self):
        return (self.status == DONE) | (self.status == CACHED)

    def answered(self):
        return int(self.answered_mask().sum())

    def elapsed_s(self):
        """Phase start to the last model answer."""
        done = self.completed[self.answered_mask()]
        return float(done.max() - self.started) if done.size else 0.0

    def throughput_rps(self):
        elapsed = self.elapsed_s()
        return self.answered() / elapsed if elapsed > 0 else 0.0

    def due_latencies_ms(self):
        """Due time -> completion, per request; unanswered are ``inf``
        (a failed request misses every latency limit)."""
        return np.where(self.answered_mask(),
                        (self.completed - self.due) * 1e3, np.inf)

    def late_ms(self):
        return (self.submitted - self.due) * 1e3

    def achieved_rate(self):
        """Submissions per second actually issued by the generator."""
        span = self.submitted.max() - self.submitted.min()
        return (len(self.submitted) - 1) / span if span > 0 else 0.0


def _run_clients(phase, items, offsets, n_clients, submit, block,
                 timeout_s, actions):
    """Start ``n_clients`` threads over interleaved shares of ``items``;
    ``offsets`` (seconds after start) are due times, ``None`` = now.
    ``actions`` maps item positions to callables run (by the client that
    owns the position, at its due time) just before that item's submit."""
    n = len(items)
    due = np.zeros(n)
    submitted = np.zeros(n)
    submit_s = np.zeros(n)
    handles = [None] * n
    barrier = threading.Barrier(n_clients + 1)
    errors = []

    def client(index):
        try:
            barrier.wait()
            start = phase.started
            for position in range(index, n, n_clients):
                db_name, plan = items[position]
                if offsets is None:
                    target = time.perf_counter()
                else:
                    target = start + offsets[position]
                    delay = target - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                action = actions.get(position)
                if action is not None:
                    action()
                entered = time.perf_counter()
                handle = submit(plan, db_name, block=block)
                submit_s[position] = time.perf_counter() - entered
                due[position] = target
                submitted[position] = entered
                handles[position] = handle
        except BaseException as exc:  # reported to the caller, re-raised
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(index,),
                                name=f"bench-client-{index}", daemon=True)
               for index in range(n_clients)]
    for thread in threads:
        thread.start()
    phase.started = time.perf_counter() + 0.002
    barrier.wait()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    deadline = time.monotonic() + timeout_s
    for handle in handles:
        handle.wait(max(0.0, deadline - time.monotonic()))
    phase.items = items
    phase.record(handles)
    phase.due, phase.submitted, phase.submit_s = due, submitted, submit_s
    return phase


def saturate(submit, items, n_clients, timeout_s=60.0, name="saturation",
             actions=None):
    """Closed loop at saturation: ``block=True`` back-to-back submits."""
    return _run_clients(Phase(name), items, None, n_clients, submit,
                        block=True, timeout_s=timeout_s,
                        actions=actions or {})


def open_loop(submit, items, rate, n_clients, seed, timeout_s=60.0,
              name="open_loop", actions=None):
    """Seeded Poisson arrivals at ``rate`` requests/s in aggregate."""
    rng = np.random.default_rng(seed)
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=len(items)))
    return _run_clients(Phase(name), items, offsets.tolist(), n_clients,
                        submit, block=False, timeout_s=timeout_s,
                        actions=actions or {})


def sequential(submit, items, timeout_s=60.0, name="warmup"):
    """One request at a time, each waited for (set-up warm-up)."""
    phase = Phase(name)
    phase.started = time.perf_counter()
    handles, due = [], []
    for db_name, plan in items:
        due.append(time.perf_counter())
        handle = submit(plan, db_name, block=True)
        handle.wait(timeout_s)
        handles.append(handle)
    phase.items = list(items)
    phase.record(handles)
    phase.due = phase.submitted = np.asarray(due)
    phase.submit_s = np.zeros(len(due))
    return phase
