"""Self-check: the benchmark's audit must fail a run that serves a wrong
value or loses a request, and the offline loop must repeat exactly.

Run from the repository root::

    python3 -m pytest -q perfbench
"""

import copy
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import workloads  # noqa: E402
from audit import audit  # noqa: E402
from openloop import PENDING, saturate  # noqa: E402
from repro.serving import ModelRegistry, PredictorServer, ServerConfig  # noqa: E402

TINY = workloads.Build(train_queries=20, eval_queries=20, epochs=2,
                       serve_dbs=("imdb",))


@pytest.fixture(scope="module")
def served_run():
    """A tiny model serving 40 never-seen plans; the audited phase."""
    _, dbs, traces, model, _ = workloads.offline_loop(TINY,
                                                      layers.LayerTimes())
    plans = [(record.db_name, record.plan) for record in traces["imdb"]]
    models = {(workloads.MODEL_NAME, 1): model}
    serve_dbs = {"imdb": dbs["imdb"]}
    with tempfile.TemporaryDirectory() as root:
        ModelRegistry(root).publish(workloads.MODEL_NAME, model,
                                    default=True)
        config = ServerConfig(cards=workloads.SERVE_CARDS)
        with PredictorServer(ModelRegistry(root), serve_dbs,
                             config) as server:
            phase = saturate(server.submit, plans, 2)
    return phase, models, serve_dbs


def _audit(phase, models, dbs):
    return audit([phase], models, dbs, workloads.SERVE_CARDS)


def test_clean_run_passes(served_run):
    phase, models, dbs = served_run
    report = _audit(phase, models, dbs)
    assert report.correct
    assert report.checked == report.attempted == len(phase.items)


def test_perturbed_value_fails(served_run):
    phase, models, dbs = served_run
    bad = copy.deepcopy(phase)
    bad.value[3] = np.nextafter(bad.value[3], np.inf)  # one ulp off
    report = _audit(bad, models, dbs)
    assert not report.correct
    assert report.wrong == 1


def test_unknown_version_fails(served_run):
    phase, models, dbs = served_run
    report = _audit(phase, {(workloads.MODEL_NAME, 2):
                            models[(workloads.MODEL_NAME, 1)]}, dbs)
    assert not report.correct
    # Each such request is checked once and wrong once, never more.
    assert report.checked == report.wrong == report.attempted


def test_dropped_request_fails(served_run):
    phase, models, dbs = served_run
    dropped = copy.deepcopy(phase)
    dropped.status = dropped.status[:-1]  # submitted, never recorded
    assert not _audit(dropped, models, dbs).correct
    pending = copy.deepcopy(phase)
    pending.status[0] = PENDING  # never resolved
    report = _audit(pending, models, dbs)
    assert not report.correct
    assert report.lost == 1


def test_offline_loop_repeats_exactly():
    first = workloads.offline_loop(TINY, layers.LayerTimes())[4]
    second = workloads.offline_loop(TINY, layers.LayerTimes())[4]
    assert first == second


def test_offline_shims_attribute_and_restore():
    import repro.core.api
    original = repro.core.api.train_model
    times = layers.LayerTimes()
    with layers.offline_shims(times):
        seconds = workloads.offline_loop(TINY, times)[0]
    assert repro.core.api.train_model is original
    attributed = sum(times.seconds.values())
    assert 0 < attributed <= seconds
    assert times.seconds["core.train_s"] > 0
