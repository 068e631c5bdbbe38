"""The calibrated drift world of the continuous-learning scenario.

Three databases: a small training database (``ctl_db``), a drift database
the base model has never seen (``drift_db``) and a heavy database the
fine-tuned *candidate* never learns (``heavy_db``).  The float32 base
model learns single-join ``ctl_db`` queries only; the controller
fine-tunes it on a handful of observed ``drift_db`` queries, the paper's
few-shot mode.  Calibrated so the base model's Q-error on drift traffic
(~3x) clears the 2.0 drift threshold, the fine-tuned candidate's
(~1.3-1.7x) stays under it, and the candidate's on heavy traffic (~4-12x)
clears the 2.5 probation threshold, with margin to spare under
cross-process (hash-seed) training jitter.

``run.py controller``, ``tests/test_controller.py`` and
``examples/controller_quickstart.py`` all drive this one world.  It is not
re-exported from :mod:`repro.bench`: it imports :mod:`repro.serving`,
whose registry imports :mod:`repro.bench.store`.
"""

from __future__ import annotations

from typing import NamedTuple

from ..core import TrainingConfig, ZeroShotCostModel
from ..datagen import generate_database, random_database_spec
from ..serving import ControllerConfig
from ..workloads import WorkloadConfig, WorkloadGenerator, generate_trace

__all__ = ["CONTROLLER_CONFIG", "DriftWorld", "build_drift_world"]

#: The controller thresholds the world is calibrated against.
CONTROLLER_CONFIG = ControllerConfig(
    truth_seed=7, drift_threshold=2.0, drift_window=16, min_observations=8,
    max_fine_tune_records=16, fine_tune_epochs=20, fine_tune_lr=1e-3,
    shadow_margin=1.05, min_shadow_samples=16,
    probation_observations=64, probation_threshold=2.5,
    max_observations_per_tick=16)


class DriftWorld(NamedTuple):
    """What :func:`build_drift_world` returns."""

    dbs: dict                # the three databases, by name
    trace_a: list            # 40 single-join ctl_db records (base training)
    trace_b: list            # 120 drift_db records, 2-4 joins
    trace_c: list            # 32 heavy_db records, 3-5 joins
    base: ZeroShotCostModel  # trained on trace_a only

    def phases(self, regression=False):
        """The scenario's traffic as ``(name, [(db_name, plan), ...])``.

        ``before`` is in-distribution, ``drift`` trips the detector,
        ``recovery`` is served while the candidate is shadowed and
        promoted, and ``after`` is the rest of the drift traffic (probation
        graduates) or, with ``regression``, all heavy traffic (probation
        rolls back).
        """
        a, b, c = self.trace_a, self.trace_b, self.trace_c
        slices = [("before", "ctl_db", a[:24]),
                  ("drift", "drift_db", b[:48]),
                  ("recovery", "drift_db", b[48:80]),
                  ("after", *(("heavy_db", c) if regression
                              else ("drift_db", b[80:120])))]
        return [(name, [(db_name, record.plan) for record in records])
                for name, db_name, records in slices]


def _trace(db, workload, query_seed, n_queries):
    """``n_queries`` generated with ``query_seed``, executed with seed 7."""
    queries = WorkloadGenerator(db, workload, seed=query_seed).generate(
        n_queries)
    return list(generate_trace(db, queries, seed=7))


def build_drift_world():
    """Generate the three databases and traces and train the base model."""
    db = generate_database(random_database_spec(
        "ctl_db", seed=31, layout="snowflake", base_rows=400, n_tables=4,
        complexity=0.6))
    drift_db = generate_database(random_database_spec(
        "drift_db", seed=77, layout="star", base_rows=900, n_tables=5,
        complexity=0.9))
    heavy_db = generate_database(random_database_spec(
        "heavy_db", seed=5, layout="star", base_rows=20000, n_tables=6,
        complexity=0.9))
    dbs = {d.name: d for d in (db, drift_db, heavy_db)}
    trace_a = _trace(db, WorkloadConfig(max_joins=1), 7, 40)
    trace_b = _trace(drift_db, WorkloadConfig(min_joins=2, max_joins=4), 99,
                     120)
    trace_c = _trace(heavy_db, WorkloadConfig(min_joins=3, max_joins=5), 13,
                     32)
    base = ZeroShotCostModel.train(
        [trace_a], dbs, cards="exact",
        config=TrainingConfig(hidden_dim=24, epochs=12, dtype="float32",
                              seed=0))
    return DriftWorld(dbs, trace_a, trace_b, trace_c, base)
