"""Drift-aware continuous-learning control plane for the serving stack.

The paper's answer to off-distribution degradation is few-shot fine-tuning
once observed Q-error drifts (Section 4.2); BRAD-style systems keep that
decision in a long-running daemon.  This module is that daemon for the
repro: :class:`ContinuousLearningController` closes the loop

    observe -> detect -> retrain -> shadow-evaluate -> promote -> probation

over the serving stack built in PRs 5-7, with every recovery path guarded,
counted and journaled:

* **Observe.** The controller attaches an
  :class:`~repro.serving.core.ObservationTap` to the
  :class:`~repro.serving.core.ServingCore`: every delivered DONE/CACHED
  prediction lands in a bounded queue as ``(db_name, plan, digest,
  predicted_ms, served_by)``.  Each :meth:`tick` joins pending
  observations with *ground-truth* runtimes — the seeded runtime
  simulator replays the plan (executing it first through the trace engine
  when its cardinalities are not yet annotated), so residuals are
  computable online — and feeds a per-deployment
  :class:`~repro.robustness.drift.DriftDetector`.  Observations are
  consumed peek-then-commit: a controller crash mid-tick re-reads the
  same observations on restart, losing nothing.
* **Detect & retrain.** When the active deployment's detector trips, the
  controller fine-tunes the active model on the detector's retained
  observed records (ground-truth labelled, keep-latest bounded) via the
  seeded few-shot trainer and publishes the candidate *unactivated*.
  Publication is idempotent: checkpoints are content-addressed and the
  deterministic retrain reproduces the same digest, so a crash-and-retry
  finds the already-published version via ``registry.find_version``
  instead of minting a duplicate.
* **Shadow-evaluate.** While the active model keeps serving, subsequent
  observations are mirrored through the candidate (never served to
  clients).  Promotion requires the candidate's median Q-error to beat
  the active model's by a configured margin over a minimum sample count;
  a candidate that loses is journaled ``candidate-rejected`` and dropped.
* **Guarded promote + probation.** Promotion is the registry's atomic
  ``promote`` (exactly once: an already-active candidate is never
  re-promoted).  A fresh detector then scores the new deployment through
  a probation window; a regression inside the window triggers automatic
  ``rollback`` — never silent: every decision bumps a ``controller.*``
  perfstats counter and appends a typed :class:`ControllerEvent` to a
  replayable journal.

Determinism: decisions are made at tick boundaries, ground truth comes
from the seeded simulator, fine-tuning uses the seeded trainer, and events
carry tick indexes (never wall-clock) — the same drift scenario driven
through :meth:`tick` replays bit-identically, journal and all.  The
``controller.observe`` / ``controller.retrain`` / ``controller.shadow``
fault points (:mod:`repro.robustness.faults`) let chaos tests crash the
controller mid-loop and assert exactly-once promotion.

The controller can run supervised (:meth:`start` — a daemon thread ticking
on a cadence, restarted on crash like the server's batcher) or be driven
synchronously (:meth:`tick` / :meth:`drain`) for deterministic tests,
benchmarks and examples.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque, namedtuple
from dataclasses import dataclass, field

import numpy as np

from .. import perfstats
from ..core.api import EstimatorCache
from ..executor import execute_trace, simulate_runtime_ms_batch
from ..featurization import FeaturizationCache
from ..nn import q_error
from ..robustness import faults
from ..robustness.drift import DriftDetector
from .core import ObservationTap

__all__ = ["ContinuousLearningController", "ControllerConfig",
           "ControllerEvent", "ControllerJournal", "ObservedRecord"]

# A ground-truth-labelled observation: what the drift detector retains and
# the few-shot fine-tune trains on (featurize_records reads .db_name/.plan;
# fine_tune reads .runtime_ms).
ObservedRecord = namedtuple("ObservedRecord", ["db_name", "plan",
                                               "runtime_ms"])


@dataclass(frozen=True)
class ControllerConfig:
    """Knobs for the observe/detect/retrain/shadow/promote loop."""

    model_name: str | None = None  # managed model (default: registry default)
    truth_seed: int = 0            # runtime-simulator seed for ground truth
    cards: str = "exact"           # cardinality source for retrain/shadow
    # -- drift detection ------------------------------------------------
    drift_threshold: float = 2.0   # rolling-median q-error trip point
    drift_window: int = 50
    min_observations: int = 10
    max_fine_tune_records: int = 256  # keep-latest bound on retained records
    # -- retraining -----------------------------------------------------
    fine_tune_epochs: int = 10
    fine_tune_lr: float = 4e-4
    # -- shadow evaluation / promotion gate -----------------------------
    shadow_margin: float = 1.05    # candidate must win by this factor
    min_shadow_samples: int = 16
    # -- probation ------------------------------------------------------
    probation_observations: int = 48  # clean observations to leave probation
    probation_threshold: float | None = None  # default: drift_threshold
    # -- ingest / daemon ------------------------------------------------
    max_observations_per_tick: int = 256
    max_pending_observations: int = 4096
    cadence_s: float = 0.05        # daemon tick period
    journal_path: str | None = None  # optional JSONL event log on disk
    journal_max_events: int = 4096  # keep-latest bound on in-memory events


@dataclass(frozen=True)
class ControllerEvent:
    """One journaled control-plane decision (typed, replay-comparable).

    ``detail`` is a tuple of ``(key, value)`` pairs — hashable and
    order-stable, so two runs' event streams compare with ``==``.  Events
    carry tick indexes, never wall-clock times.
    """

    seq: int
    tick: int
    kind: str          # drift-detected | candidate-published |
    #                    candidate-rejected | promoted | rolled-back |
    #                    probation-passed | retrain-skipped
    model: str
    version: int | None = None            # deployment the event is about
    candidate_version: int | None = None  # candidate involved (if any)
    digest: str | None = None             # candidate checkpoint key (if any)
    detail: tuple = ()

    def as_dict(self):
        return {"seq": self.seq, "tick": self.tick, "kind": self.kind,
                "model": self.model, "version": self.version,
                "candidate_version": self.candidate_version,
                "digest": self.digest, "detail": dict(self.detail)}

    @classmethod
    def from_dict(cls, payload):
        return cls(seq=payload["seq"], tick=payload["tick"],
                   kind=payload["kind"], model=payload["model"],
                   version=payload["version"],
                   candidate_version=payload["candidate_version"],
                   digest=payload["digest"],
                   detail=tuple(sorted(payload["detail"].items())))


class ControllerJournal:
    """Append-only, typed, replayable event log.

    In memory always, bounded keep-latest at ``max_events`` so a
    long-lived controller cannot grow without limit; mirrored *complete*
    to a JSONL file when ``path`` is given (append + flush per event, so
    a crash loses at most the event being written).  :meth:`read_jsonl`
    reconstructs typed events for replay comparison; ``total_appended``
    and ``dropped`` record how much history the memory window has shed.
    """

    def __init__(self, path=None, max_events=4096):
        self.path = path
        self.max_events = max(1, int(max_events))
        self.total_appended = 0
        self.dropped = 0
        self._lock = threading.Lock()
        self._events = deque(maxlen=self.max_events)

    def append(self, event):
        with self._lock:
            if len(self._events) == self.max_events:
                self.dropped += 1
            self._events.append(event)
            self.total_appended += 1
            if self.path is not None:
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(event.as_dict()) + "\n")
                    fh.flush()
        return event

    def events(self, kind=None):
        with self._lock:
            events = list(self._events)
        if kind is not None:
            events = [e for e in events if e.kind == kind]
        return events

    def __len__(self):
        with self._lock:
            return len(self._events)

    @staticmethod
    def read_jsonl(path):
        events = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    events.append(ControllerEvent.from_dict(json.loads(line)))
        return events


class ContinuousLearningController:
    """The control-plane daemon: notices the model going stale, heals it.

    ``server`` is a :class:`~repro.serving.server.PredictorServer`, a
    :class:`~repro.serving.core.ServingCore`, or anything exposing
    ``.core``.  The controller attaches an observation tap to the core and
    manages exactly one model name (``config.model_name``, defaulting to
    the registry's default model).

    State machine (one state at a time, advanced at tick boundaries)::

        monitoring --drift--> retrain-pending --publish--> shadowing
        shadowing --win-->  probation --clean window--> monitoring
        shadowing --loss--> monitoring            (candidate-rejected)
        probation --regression--> monitoring      (rolled-back)

    A crash in any state leaves durable progress intact: observations are
    peek/commit, the retrain is deterministic and its publication
    content-addressed, promotion is guarded against repetition — so retry
    converges without double-promoting or losing data.
    """

    STATES = ("monitoring", "retrain-pending", "shadowing", "probation")

    def __init__(self, registry, server, config=None, estimator_cache=None):
        self.registry = registry
        self.core = getattr(server, "core", server)
        self.config = config or ControllerConfig()
        name = self.config.model_name or registry.default_model
        if name is None:
            raise ValueError("no model to manage: pass "
                             "ControllerConfig(model_name=...) or set a "
                             "registry default model")
        self.model_name = name
        self.tap = ObservationTap(self.config.max_pending_observations)
        self.core.attach_observer(self.tap)
        self.journal = ControllerJournal(
            path=self.config.journal_path,
            max_events=self.config.journal_max_events)
        self._estimator_cache = estimator_cache or EstimatorCache()
        self._feat_cache = FeaturizationCache()
        self._state = "monitoring"
        self._detectors = {}     # deployment version -> DriftDetector
        self._candidate = None   # (ModelDeployment, ZeroShotCostModel)
        self._shadow_pending = []      # (ObservedRecord, active q-error)
        self._shadow_active_q = []
        self._shadow_candidate_q = []
        self._promoted_version = None  # version under probation
        self._probation_seen = 0
        self._last_trace = {}    # version -> trace id of last traced obs
        self._ticks = 0
        self._seq = 0
        self._crashes = 0
        self._last_crash = None  # repr of the last daemon exception
        # Daemon supervision (same shape as the server's batcher).
        self._thread = None
        self._running = False
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def state(self):
        return self._state

    @property
    def ticks(self):
        return self._ticks

    def detector_for(self, version):
        """The (lazily created) drift detector scoring ``version``."""
        detector = self._detectors.get(version)
        if detector is None:
            detector = DriftDetector(
                threshold=self.config.drift_threshold,
                window=self.config.drift_window,
                min_observations=self.config.min_observations,
                max_records=self.config.max_fine_tune_records)
            self._detectors[version] = detector
        return detector

    def stats(self):
        active = self.registry.active(self.model_name)
        detector = (self.detector_for(active.version)
                    if active is not None else None)
        return {
            "state": self._state,
            "ticks": self._ticks,
            "events": len(self.journal),
            "crashes": self._crashes,
            "last_crash": self._last_crash,
            "tap": self.tap.stats(),
            "active_version": active.version if active else None,
            "detector": detector.stats() if detector else None,
            "shadow_samples": len(self._shadow_candidate_q),
            "probation_seen": self._probation_seen,
        }

    # ------------------------------------------------------------------
    # The tick: ingest observations, then advance the state machine
    # ------------------------------------------------------------------
    def tick(self):
        """One decision round; returns the number of observations ingested.

        Safe to call synchronously (tests, benchmarks) or from the daemon
        thread — but from one thread at a time.
        """
        self._ticks += 1
        perfstats.increment("controller.tick.count")
        batch = self.tap.peek(self.config.max_observations_per_tick)
        processed = 0
        if batch:
            truths = self._ground_truths(batch)
            for observation, truth in zip(batch, truths):
                faults.check("controller.observe")
                self._ingest(observation, truth)
                self.tap.commit(1)
                processed += 1
        self._decide()
        return processed

    def drain(self, max_ticks=1000):
        """Tick until no observations are pending; returns ticks spent."""
        ticks = 0
        while len(self.tap) and ticks < max_ticks:
            self.tick()
            ticks += 1
        return ticks

    def _ground_truths(self, batch):
        """Ground-truth runtimes for a batch, joined per database.

        The seeded runtime simulator is a pure function of the executed
        plan and the seed, so the truth for a served plan equals the
        runtime a trace run with the same seed would have recorded.  Plans
        arriving without executed cardinalities are executed first through
        the trace engine (the corpus-engine join the retrain needs anyway).
        """
        by_db = {}
        for index, observation in enumerate(batch):
            by_db.setdefault(observation.db_name, []).append(index)
        truths = [None] * len(batch)
        for db_name, indexes in by_db.items():
            db = self.core.dbs[db_name]
            plans = [batch[i].plan for i in indexes]
            fresh = [plan for plan in plans if plan.true_rows is None]
            if fresh:
                perfstats.increment("controller.observe.executed",
                                    len(fresh))
                execute_trace(db, fresh)
            runtimes = simulate_runtime_ms_batch(
                db, plans, seed=self.config.truth_seed)
            for i, runtime in zip(indexes, runtimes):
                truths[i] = float(runtime)
        return truths

    def _ingest(self, observation, truth):
        """Feed one (prediction, truth) pair to its deployment's detector."""
        name, version = observation.served_by
        if name != self.model_name:
            return
        perfstats.increment("controller.observe.count")
        trace_id = getattr(observation, "trace_id", None)
        if trace_id is not None:
            # Remember which traced request most recently fed this
            # deployment's detector, so a drift verdict can name it.
            self._last_trace[version] = trace_id
        record = ObservedRecord(observation.db_name, observation.plan, truth)
        detector = self.detector_for(version)
        error = detector.observe(observation.predicted_ms, truth, record)
        if self._state == "probation" and version == self._promoted_version:
            self._probation_seen += 1
        elif self._state == "shadowing":
            self._shadow_pending.append((record, error))

    def _decide(self):
        if self._state == "monitoring":
            active = self.registry.active(self.model_name)
            if active is not None and self.detector_for(
                    active.version).drifted:
                detector = self.detector_for(active.version)
                perfstats.increment("controller.drift.detected")
                detail = [("observations", detector.observed_total),
                          ("rolling_median",
                           round(detector.rolling_median, 6))]
                trace_id = self._last_trace.get(active.version)
                if trace_id is not None:
                    # Only traced runs carry the key, so untraced event
                    # streams stay bit-identical to pre-tracing replays.
                    detail.append(("trace_id", trace_id))
                self._journal(
                    "drift-detected", version=active.version,
                    detail=tuple(detail))
                self._state = "retrain-pending"
        if self._state == "retrain-pending":
            self._retrain()
        if self._state == "shadowing":
            self._shadow_step()
        elif self._state == "probation":
            self._probation_step()

    # ------------------------------------------------------------------
    # Retrain & publish (unactivated)
    # ------------------------------------------------------------------
    def _retrain(self):
        faults.check("controller.retrain")
        active = self.registry.active(self.model_name)
        detector = self.detector_for(active.version)
        records = detector.fine_tuning_records()
        if not records:
            # Nothing to train on (observations arrived without records) —
            # back off and re-arm rather than wedge in retrain-pending.
            self._journal("retrain-skipped", version=active.version)
            detector.reset()
            self._state = "monitoring"
            return
        perfstats.increment("controller.retrain.count")
        base = self.registry.load(deployment=active)
        candidate = base.fine_tune(
            records, self.core.dbs, cards=self.config.cards,
            epochs=self.config.fine_tune_epochs,
            learning_rate=self.config.fine_tune_lr,
            estimator_cache=self._estimator_cache,
            feat_cache=self._feat_cache)
        # Second crash window: after training, before publication.  The
        # retrain is deterministic, so a retry reproduces this candidate
        # bit-identically and the content-addressed publish below stays
        # idempotent.
        faults.check("controller.retrain")
        digest = candidate.state_digest()
        existing = self.registry.find_version(self.model_name, digest)
        if existing is None:
            deployment = self.registry.publish(
                self.model_name, candidate,
                db_digests=active.db_digests, activate=False)
        else:
            deployment = self.registry.deployments(self.model_name)[
                existing - 1]
        perfstats.increment("controller.candidate.published")
        self._candidate = (deployment, candidate)
        self._shadow_pending = []
        self._shadow_active_q = []
        self._shadow_candidate_q = []
        self._journal("candidate-published", version=active.version,
                      candidate_version=deployment.version, digest=digest,
                      detail=(("records", len(records)),))
        self._state = "shadowing"

    # ------------------------------------------------------------------
    # Shadow evaluation & guarded promotion
    # ------------------------------------------------------------------
    def _shadow_step(self):
        if self._shadow_pending:
            faults.check("controller.shadow")
            pending = list(self._shadow_pending)
            records = [record for record, _ in pending]
            deployment, candidate = self._candidate
            predictions = candidate.predict_records(
                records, self.core.dbs, cards=self.config.cards,
                estimator_cache=self._estimator_cache,
                feat_cache=self._feat_cache)
            truths = np.array([record.runtime_ms for record in records])
            errors = q_error(np.asarray(predictions), truths)
            # Only now — after the mirror prediction succeeded — are the
            # pending samples consumed; a crash above retries them.
            self._shadow_pending = []
            self._shadow_candidate_q.extend(float(e) for e in errors)
            self._shadow_active_q.extend(error for _, error in pending)
            perfstats.increment("controller.shadow.samples", len(records))
        if len(self._shadow_candidate_q) < self.config.min_shadow_samples:
            return
        active_median = float(np.median(self._shadow_active_q))
        candidate_median = float(np.median(self._shadow_candidate_q))
        deployment, _ = self._candidate
        detail = (("active_median", round(active_median, 6)),
                  ("candidate_median", round(candidate_median, 6)),
                  ("samples", len(self._shadow_candidate_q)))
        if candidate_median * self.config.shadow_margin <= active_median:
            self._promote(deployment, detail)
        else:
            perfstats.increment("controller.candidate.rejected")
            self._journal("candidate-rejected",
                          candidate_version=deployment.version,
                          digest=deployment.checkpoint_key, detail=detail)
            self._reset_shadow()
            active = self.registry.active(self.model_name)
            if active is not None:
                # Re-arm: fresh observations must accumulate before the
                # detector may trip again, so a losing candidate does not
                # cause an immediate identical retrain.
                self.detector_for(active.version).reset()
            self._state = "monitoring"

    def _promote(self, deployment, detail):
        previous = self.registry.active(self.model_name)
        if previous is None or previous.version != deployment.version:
            # Exactly-once: a crash after the registry promote but before
            # the journal append re-enters here with the candidate already
            # active and must not promote (or journal) twice.
            self.registry.promote(self.model_name, deployment.version)
        perfstats.increment("controller.promote.count")
        self._journal("promoted",
                      version=previous.version if previous else None,
                      candidate_version=deployment.version,
                      digest=deployment.checkpoint_key, detail=detail)
        self._promoted_version = deployment.version
        self._probation_seen = 0
        # Probation scores the new deployment with a fresh detector.
        self._detectors[deployment.version] = DriftDetector(
            threshold=(self.config.probation_threshold
                       if self.config.probation_threshold is not None
                       else self.config.drift_threshold),
            window=self.config.drift_window,
            min_observations=self.config.min_observations,
            max_records=self.config.max_fine_tune_records)
        self._candidate = None
        self._reset_shadow()
        self._state = "probation"

    def _reset_shadow(self):
        self._shadow_pending = []
        self._shadow_active_q = []
        self._shadow_candidate_q = []

    # ------------------------------------------------------------------
    # Probation & auto-rollback
    # ------------------------------------------------------------------
    def _probation_step(self):
        detector = self.detector_for(self._promoted_version)
        if detector.drifted:
            current = self.registry.active(self.model_name)
            restored = None
            if (current is not None
                    and current.version == self._promoted_version):
                restored = self.registry.rollback(self.model_name)
            perfstats.increment("controller.rollback.count")
            self._journal(
                "rolled-back", version=self._promoted_version,
                detail=(("restored_version",
                         restored.version if restored else None),
                        ("rolling_median",
                         round(detector.rolling_median, 6)),
                        ("probation_seen", self._probation_seen)))
            # The promoted version is disgraced; re-arm the restored
            # deployment's detector so recovery needs fresh evidence.
            if restored is not None:
                self.detector_for(restored.version).reset()
            self._exit_probation()
        elif self._probation_seen >= self.config.probation_observations:
            perfstats.increment("controller.probation.passed")
            self._journal(
                "probation-passed", version=self._promoted_version,
                detail=(("probation_seen", self._probation_seen),
                        ("rolling_median",
                         round(detector.rolling_median, 6))))
            self._exit_probation()

    def _exit_probation(self):
        self._promoted_version = None
        self._probation_seen = 0
        self._state = "monitoring"

    # ------------------------------------------------------------------
    # Journal helper
    # ------------------------------------------------------------------
    def _journal(self, kind, version=None, candidate_version=None,
                 digest=None, detail=()):
        event = ControllerEvent(
            seq=self._seq, tick=self._ticks, kind=kind,
            model=self.model_name, version=version,
            candidate_version=candidate_version, digest=digest,
            detail=tuple(detail))
        self._seq += 1
        self.journal.append(event)
        return event

    # ------------------------------------------------------------------
    # Supervised daemon mode
    # ------------------------------------------------------------------
    def start(self):
        """Run the loop in a supervised daemon thread (crash -> restart)."""
        with self._lock:
            if self._thread is not None:
                raise RuntimeError("controller already running")
            self._running = True
            self._thread = threading.Thread(
                target=self._daemon_main, name="repro-controller",
                daemon=True)
            self._thread.start()
        return self

    def stop(self):
        """Stop the daemon (the supervisor may have swapped the thread)."""
        self._running = False
        while True:
            with self._lock:
                thread = self._thread
            if thread is None:
                return
            thread.join(timeout=5.0)
            with self._lock:
                if self._thread is thread and not thread.is_alive():
                    self._thread = None
                    return

    def _daemon_main(self):
        try:
            while self._running:
                self.tick()
                time.sleep(self.config.cadence_s)
        except Exception as exc:  # noqa: BLE001 — injected or real: supervise
            perfstats.increment("controller.crash.count")
            self._crashes += 1
            self._last_crash = repr(exc)
            if not self._running:
                return
            # Observations survive (peek/commit); state survives (object
            # fields); restart the loop like the batcher supervisor does.
            with self._lock:
                if not self._running:
                    return
                replacement = threading.Thread(
                    target=self._daemon_main, name="repro-controller",
                    daemon=True)
                self._thread = replacement
            replacement.start()

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False
