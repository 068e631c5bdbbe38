"""Online cost-prediction service over trained zero-shot models.

The paper's pitch is that zero-shot cost models predict runtimes on unseen
databases *out of the box*; systems like BRAD route live queries through
exactly such models.  This package turns the repo's offline experiment
engine into that online service:

* :class:`ModelRegistry` (``registry.py``) — versioned, content-addressed
  model deployments over the disk artifact store, with database-fingerprint
  compatibility metadata, atomic promote/rollback, hot-swap signalling,
  checksum-verified hydration, checkpoint quarantine (corrupt deployments
  are moved aside — never deleted blind — and the manifest re-resolves to
  the previous good version) and a :meth:`~ModelRegistry.verify` audit.
* :class:`PredictorServer` (``server.py``) — the one serving front end:
  priority-classed admission with LOW brownout, a fingerprint-keyed
  result cache probed at submit (a hit's handle is born complete: no
  latch, no lock; only an admitted request builds one), and a
  supervised, work-conserving batcher: whenever the backend is free,
  everything queued (up to ``max_batch_size``) goes as one micro-batch.
  Every ``DONE``/``CACHED`` delivery, hits included, reaches an attached
  observation tap through one helper, ``ServingCore.observe``.  Each
  batch runs through :class:`~repro.serving.core.ServingCore`
  (``core.py``): routing by database fingerprint, one graph-free model
  call per deployment, retry with backoff, poisoned-batch bisection,
  deadlines, and a circuit breaker that degrades to the analytical cost
  model — always flagged ``DEGRADED``, never silently substituted.
* :class:`PredictorFleet` (``fleet.py``) — the same front end over a pool
  of long-lived *forked* workers: an idle worker takes the next whole
  micro-batch (one pipe message, one result message) and runs the core
  over checkpoints hydrated via the registry's mmap path.  Worker death,
  hangs and torn pipes are supervised (fork-restart + exactly-once
  completion of re-sent batches); stragglers are hedged; promote/rollback
  broadcasts on ``registry.generation`` changes.
* :class:`ContinuousLearningController` (``controller.py``) — the
  drift-aware control plane: an :class:`~repro.serving.core.
  ObservationTap` on the serving core feeds delivered predictions to a
  supervised daemon that joins them with seeded-simulator ground truth,
  drives per-deployment :class:`~repro.robustness.DriftDetector`\\ s,
  fine-tunes a candidate on drift, shadow-evaluates it on mirrored
  traffic, promotes it atomically behind a Q-error-margin gate, and
  auto-rolls-back on regression inside a probation window — every
  decision counted (``controller.*`` perfstats) and journaled to a
  typed, replayable event log.
* :func:`run_load` (``loadgen.py``) — a seeded open-loop load harness
  recording throughput, availability, p50/p95/p99 latency (completed
  requests only), batch-size histograms and cache/shed/degraded counters,
  with a chaos mode that installs a deterministic fault schedule
  (:mod:`repro.robustness.faults`) for the duration of the run.

Serving equivalence contract: for any request mix, every ``DONE``/``CACHED``
prediction is bit-identical to a direct
:func:`~repro.core.training.predict_runtimes` call on the same model —
micro-batch composition, cache hits, hot-swaps, retries, bisections and
batcher restarts never change a value.  ``DEGRADED`` responses come from
:class:`~repro.optimizer.AnalyticalCostModel` and are flagged as such.
This rests on the row-stable inference kernels
(:func:`repro.nn.row_stable_matmul`); see ``tests/test_serving.py`` and
``tests/test_faults.py``.

Perfstats counters: ``serve.batch.count`` / ``serve.batch.requests``,
``serve.cache.hit`` / ``serve.cache.miss``, ``serve.shed.count``,
``serve.swap.count``, ``serve.registry.*``, plus the robustness families
``serve.fault.*``, ``serve.retry.*`` and ``serve.degraded.*``.
"""

from .registry import (HydrationError, ModelDeployment, ModelRegistry,
                       RoutingError)
from .core import Observation, ObservationTap, RequestPriority, ServingCore
from .server import (DeadlineExceededError, DegradedResponseError,
                     PredictionRequest, PredictorServer, RequestShedError,
                     RequestStatus, ServerClosedError, ServerConfig,
                     ServingRecord)
from .fleet import PredictorFleet, WorkerStartError
from .loadgen import LoadConfig, LoadReport, run_load, skewed_requests
from .controller import (ContinuousLearningController, ControllerConfig,
                         ControllerEvent, ControllerJournal, ObservedRecord)

__all__ = [
    "HydrationError", "ModelDeployment", "ModelRegistry", "RoutingError",
    "DeadlineExceededError", "DegradedResponseError",
    "PredictionRequest", "PredictorFleet", "PredictorServer",
    "RequestPriority", "RequestShedError", "RequestStatus",
    "ServerClosedError", "ServerConfig", "WorkerStartError",
    "ServingCore", "ServingRecord", "Observation", "ObservationTap",
    "LoadConfig", "LoadReport", "run_load", "skewed_requests",
    "ContinuousLearningController", "ControllerConfig", "ControllerEvent",
    "ControllerJournal", "ObservedRecord",
]
