"""Deterministic multiprocessing fan-out for independent experiment tasks.

The expensive experiments are embarrassingly parallel: fig5 trains 20
leave-one-out models, fig12 sweeps database counts, fig6 trains per-count
baseline models — every task is a pure function of (suite config, task
parameters) with all randomness behind explicit seeds.  :func:`parallel_map`
fans such tasks out over forked worker processes and returns results in
task order, so the output is **bit-identical** to running each task serially
from the same process state.

Workers are started with the ``fork`` method: they inherit the parent's
artifact caches copy-on-write (databases, traces, featurized graphs and the
main model materialized before the fan-out are simply *there*), and hydrate
anything else from the shared disk :class:`~repro.bench.store.ArtifactStore`
when ``REPRO_ARTIFACT_DIR`` is set.  Task functions must be module-level
(picklable by reference) and should resolve their artifacts through
:func:`repro.bench.suite.artifacts_for` with the config carried in the task
tuple.

Worker-side cache warm-up (featurization entries, DeepDB estimators) stays
in the worker — it does not flow back to the parent.  Results do: only the
returned row dicts / model payloads cross the process boundary.

``REPRO_PARALLEL`` controls the fan-out: unset uses ``os.cpu_count()``
workers, an integer pins the worker count, and ``0``/``1`` force serial
execution (useful for debugging and for the determinism tests' reference
runs).  Platforms without ``fork`` run serially as well.

Besides the one-shot :func:`parallel_map` fan-out, :class:`WorkerProcess`
runs a *long-lived* forked worker connected to the parent by a duplex pipe
— the building block of the serving fleet (:mod:`repro.serving.fleet`),
where workers outlive any single request and are restarted on death.
"""

from __future__ import annotations

import multiprocessing
import os
import time

from .. import perfstats
from ..obs.metrics import REGISTRY

__all__ = ["parallel_map", "worker_count", "WorkerProcess"]


def worker_count(n_tasks):
    """Effective worker count for ``n_tasks`` under ``REPRO_PARALLEL``."""
    env = os.environ.get("REPRO_PARALLEL")
    if env is not None:
        try:
            workers = int(env)
        except ValueError:
            raise ValueError("REPRO_PARALLEL must be an integer") from None
    else:
        workers = os.cpu_count() or 1
    return max(1, min(workers, n_tasks))


def parallel_map(fn, tasks, processes=None):
    """``[fn(t) for t in tasks]`` fanned out over forked workers, in order.

    Falls back to the serial loop when only one worker is effective or the
    platform lacks ``fork``; either way the results (and their order) are
    identical.
    """
    tasks = list(tasks)
    processes = (worker_count(len(tasks)) if processes is None
                 else max(1, min(processes, len(tasks))))
    if processes <= 1 or len(tasks) <= 1:
        perfstats.increment("parallel.serial_tasks", len(tasks))
        return [fn(task) for task in tasks]
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        perfstats.increment("parallel.serial_tasks", len(tasks))
        return [fn(task) for task in tasks]
    perfstats.increment("parallel.fanout")
    perfstats.increment("parallel.worker_tasks", len(tasks))
    start = time.perf_counter()
    with context.Pool(processes) as pool:
        # chunksize=1: tasks are few and heavy; order is preserved by map.
        results = pool.map(fn, tasks, chunksize=1)
    REGISTRY.observe("parallel.map_ms", (time.perf_counter() - start) * 1e3)
    return results


class WorkerProcess:
    """A long-lived forked worker connected to the parent by a duplex pipe.

    ``target(conn, *args)`` runs in the child with its end of the pipe;
    ``args`` reach it copy-on-write through the fork (nothing is pickled),
    so heavyweight state — databases, a registry root path — costs no
    serialization.  The parent talks through :attr:`conn` (``send`` /
    ``poll`` / ``recv``) and watches :attr:`sentinel` (selectable alongside
    the pipe via ``multiprocessing.connection.wait``) for death.

    Protocol and supervision policy belong to the caller: the fleet router
    defines its own message framing, detects a dead worker through the
    sentinel / ``EOFError`` on the pipe, and calls :meth:`restart` to fork
    a replacement on a fresh pipe.  Workers are daemons — they can never
    outlive the parent.

    Fork hygiene: each end of the pipe is closed in the process that does
    not own it (the child closes the parent end, the parent closes the
    child end right after the fork), so a dead peer is observable as
    ``EOFError``/``BrokenPipeError`` instead of a silent hang.

    Raises :class:`RuntimeError` on platforms without the ``fork`` start
    method.
    """

    def __init__(self, target, args=(), name=None):
        self._target = target
        self._args = tuple(args)
        self.name = name or getattr(target, "__name__", "worker")
        self.process = None
        self.conn = None
        self.restarts = 0

    # ------------------------------------------------------------------
    def start(self):
        if self.process is not None and self.process.is_alive():
            raise RuntimeError(f"worker {self.name!r} already running")
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:
            raise RuntimeError(
                "WorkerProcess requires the fork start method") from None
        parent_conn, child_conn = context.Pipe(duplex=True)
        self.process = context.Process(
            target=self._child_main, args=(child_conn, parent_conn),
            name=self.name, daemon=True)
        self.process.start()
        child_conn.close()  # the parent's copy of the child end
        self.conn = parent_conn
        return self

    def _child_main(self, child_conn, parent_conn):
        parent_conn.close()  # the child's copy of the parent end
        self._target(child_conn, *self._args)

    def restart(self, args=None):
        """Fork a replacement worker on a fresh pipe (old pipe closed).

        ``args`` optionally replaces the child arguments for the new fork
        (and any later restarts) — the fleet uses this to bring hang-killed
        workers back up *without* the fault schedule that wedged them.
        """
        if args is not None:
            self._args = tuple(args)
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self.process is not None:
            if self.process.is_alive():
                self.process.terminate()
            self.process.join(timeout=5.0)
        self.process = None
        self.restarts += 1
        return self.start()

    # ------------------------------------------------------------------
    @property
    def alive(self):
        process = self.process  # one read: restart() swaps it concurrently
        return process is not None and process.is_alive()

    @property
    def sentinel(self):
        """Selectable handle that becomes ready when the process exits."""
        return self.process.sentinel

    @property
    def exitcode(self):
        return None if self.process is None else self.process.exitcode

    def send(self, message):
        self.conn.send(message)

    def poll(self, timeout=0):
        return self.conn.poll(timeout)

    def recv(self):
        return self.conn.recv()

    # ------------------------------------------------------------------
    def stop(self, timeout=5.0):
        """Close the pipe (the worker loop sees EOF) and reap the process.

        A worker that does not exit within ``timeout`` is terminated; stop
        never hangs.
        """
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self.process is not None:
            self.process.join(timeout=timeout)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=timeout)
            self.process = None

    def __repr__(self):
        return (f"WorkerProcess({self.name!r}, alive={self.alive}, "
                f"restarts={self.restarts})")
