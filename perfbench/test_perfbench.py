"""Self-tests of the benchmark: the invariants its numbers rely on.

    python3 -m pytest -q perfbench/test_perfbench.py

They use reduced inputs (a 4-point sweep, rho_f=0.2 trials) and take a few
seconds on two cores.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import measure  # noqa: E402
import spans  # noqa: E402
from ivasim import harness  # noqa: E402

SMALL_SWEEP = harness.SweepSpec(
    rho_f=(0.2, 0.3), speeds=(10.0,), headings=(270.0, 300.0), n_mc=2
)


@pytest.fixture(scope="module")
def small_sweep():
    work = measure.SweepWorkload(seed=5)
    work.spec = SMALL_SWEEP
    return work


def test_sweep_digest_independent_of_worker_count(small_sweep, tmp_path):
    runs = {}
    for workers in (1, 2):
        small_sweep.workers = workers
        runs[workers] = small_sweep.sweep(0, str(tmp_path / f"w{workers}"), measure.ROOT_ONLY)
    assert runs[1]["problems"] == [] and runs[2]["problems"] == []
    assert runs[1]["digest"] == runs[2]["digest"]


def test_traced_sweep_matches_untraced(small_sweep, tmp_path):
    small_sweep.workers = 2
    plain = small_sweep.sweep(0, str(tmp_path / "plain"), measure.ROOT_ONLY)
    traced = small_sweep.sweep(0, str(tmp_path / "traced"), spans.LAYER_FUNCS)
    assert plain["digest"] == traced["digest"]
    layer = spans.layer_metrics(traced["spans"])
    # every worker handed its spans back: one trial span per sweep job
    assert layer["harness.run_trial.calls"] == 1.0
    assert layer["numerics.unwrap_phase.calls"] == 4.0
    assert 0.0 < layer["harness.windowed_rows_frac"] < 1.0


def test_traced_trial_matches_untraced():
    cfg = harness.load_run_config(measure.CONFIG, overrides={"rho_f": 0.2})
    seed = harness.trial_seed(3, 0, 0)
    plain = harness.run_trial(cfg, seed)
    tracer = spans.Tracer()
    with spans.installed(tracer, spans.LAYER_FUNCS):
        traced = harness.run_trial(cfg, seed)
    assert measure.result_line(plain) == measure.result_line(traced)
    assert harness.run_trial.__name__ == "run_trial"  # wrappers removed again
    names = {s["name"] for s in tracer.spans}
    assert {"frontend.sensing_matrix", "tmc.align", "harness.windowed_metrics"} <= names
    assert {s["trial"] for s in tracer.spans} == {"3:0:0"}


def test_windowed_and_full_agree():
    overrides = {"rho_f": 0.2, "heading_deg": 300.0, "speed": 10.0}
    seed = harness.trial_seed(11, 0, 0)
    reports = {
        mode: harness.run_trial(
            harness.load_run_config(measure.CONFIG, overrides={**overrides, "image_mode": mode}),
            seed,
        )
        for mode in ("windowed", "full")
    }
    assert reports["windowed"].ic == pytest.approx(reports["full"].ic, rel=1e-9)
    assert reports["windowed"].centroid_range_est == pytest.approx(
        reports["full"].centroid_range_est, rel=1e-12
    )


def test_tail_leaves_ten_samples_beyond():
    values = [float(v) for v in range(40)]
    value, pct = measure.tail(values)
    assert sum(v > value for v in values) == measure.TAIL_SAMPLES
    assert pct == 75.0
    with pytest.raises(ValueError):
        measure.tail(values[:10])


def test_layer_self_time_excludes_children():
    spans_ = [
        {"id": "1:0", "name": "harness.run_trial", "parent": None, "pid": 1, "start": 0.0, "end": 1.0},
        {"id": "1:1", "name": "tmc.align", "parent": "1:0", "pid": 1, "start": 0.1, "end": 0.5},
        {"id": "1:2", "name": "tmc.estimate_shifts", "parent": "1:1", "pid": 1, "start": 0.1, "end": 0.4},
    ]
    layer = spans.layer_metrics(spans_)
    assert layer["harness.run_trial.self_ms"] == pytest.approx(600.0)
    assert layer["tmc.align.self_ms"] == pytest.approx(100.0)
    assert layer["tmc.estimate_shifts.self_ms"] == pytest.approx(300.0)
    assert layer["imaging.form_image.calls"] == 0.0
