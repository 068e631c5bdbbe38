"""Output audit: every served value against a direct model call.

The serving stack promises that a ``DONE``/``CACHED`` value equals, bit for
bit, a direct ``predict_runtimes`` call over ``featurize_records(...,
cards=...)`` on the model version named in ``served_by``.  The audit
recomputes that reference for every distinct (version, database, plan)
the run delivered and compares exactly.  It also counts requests that
never resolved (lost): any mismatch or lost request fails the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.api import featurize_records
from repro.core.training import predict_runtimes
from repro.serving import ServingRecord

from openloop import PENDING


@dataclass
class AuditReport:
    attempted: int = 0
    checked: int = 0          # model answers compared bit for bit
    wrong: int = 0            # value differs from the direct call
    lost: int = 0             # never resolved (still PENDING) or missing
    unanswered: int = 0       # SHED / FAILED / DEGRADED (counted, not wrong)
    examples: list = field(default_factory=list)

    @property
    def correct(self):
        return self.wrong == 0 and self.lost == 0


def reference_values(model, dbs, pairs, cards):
    """Direct model predictions for ``(db_name, plan)`` pairs."""
    records = [ServingRecord(db_name, plan) for db_name, plan in pairs]
    graphs = featurize_records(records, dbs, cards=cards)
    return predict_runtimes(model.model, graphs, model.feature_scalers,
                            model.target_scaler, batch_cache=False)


def audit(phases, models, dbs, cards):
    """Audit every request of ``phases`` (:class:`openloop.Phase`).

    ``models`` maps ``served_by`` pairs ``(name, version)`` to the
    :class:`~repro.core.ZeroShotCostModel` of that version.  Requests equal
    in (version, database, plan object) are recomputed once.
    """
    report = AuditReport()
    groups = {}  # served_by -> {(db, id(plan)): [db, plan, [values]]}
    for phase in phases:
        report.attempted += len(phase.items)
        # A phase that recorded fewer outcomes than it was given lost some.
        report.lost += len(phase.items) - len(phase.status)
        answered = phase.answered_mask()
        report.lost += int((phase.status == PENDING).sum())
        report.unanswered += int((~answered & (phase.status != PENDING))
                                 .sum())
        for position in np.flatnonzero(answered):
            db_name, plan = phase.items[position]
            served_by = phase.served_by_names[phase.served_by[position]]
            entry = groups.setdefault(served_by, {}).setdefault(
                (db_name, id(plan)), [db_name, plan, []])
            entry[2].append(phase.value[position])
    for served_by, entries in groups.items():
        model = models.get(served_by)
        entries = list(entries.values())
        if model is None:  # checked, and wrong: no such version was served
            count = sum(len(values) for _, _, values in entries)
            report.checked += count
            report.wrong += count
            report.examples.append(f"unknown version {served_by}")
            continue
        expected = reference_values(
            model, dbs, [(db, plan) for db, plan, _ in entries], cards)
        for (db_name, _, values), reference in zip(entries, expected):
            reference = np.float64(reference)
            for value in values:
                report.checked += 1
                if np.float64(value).tobytes() != reference.tobytes():
                    report.wrong += 1
                    if len(report.examples) < 3:
                        report.examples.append(
                            f"{served_by} {db_name}: served {value!r}, "
                            f"direct {float(reference)!r}")
    return report
