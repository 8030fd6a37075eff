"""What the benchmark in perfbench/ relies on from ivasim.

perfbench wraps the module functions named in ``perfbench/spans.py``
``LAYER_FUNCS``, calls the entry points in ``ENTRY_POINTS`` and drives sweeps
through ``harness._sweep_worker`` jobs. Its own self-tests
(``perfbench/test_perfbench.py``, in the default test paths too) check its
measurements; these checks name what it needs of ivasim, so a refactor of
ivasim cannot silently break it. The file is read, not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

from ivasim import harness
from ivasim.metrics import MetricsReport
from test_harness import FAST

SPANS = Path(__file__).parent.parent / "perfbench" / "spans.py"


def layer_funcs() -> tuple:
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYER_FUNCS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYER_FUNCS in {SPANS}")


def resolve(name: str):
    module, attr = name.split(".")
    return importlib.import_module(f"ivasim.{module}"), attr


# the entry points perfbench/measure.py calls besides the wrapped functions
ENTRY_POINTS = ("harness.run_sweep", "harness.load_run_config", "harness.run_config_from_raw",
                "harness.load_sweep_spec", "harness.SweepSpec", "harness.trial_seed",
                "scenario.parse_config_file")


@pytest.mark.parametrize("name", layer_funcs() + ENTRY_POINTS)
def test_layer_func_is_callable(name):
    module, attr = resolve(name)
    assert callable(getattr(module, attr, None))


def test_sweep_worker_job():
    point_idx, trial_idx, report, error = harness._sweep_worker(
        (FAST, 7, 3, (300.0, 30.0, 1.0), 2)
    )
    assert (point_idx, trial_idx, error) == (3, 2, None)
    assert isinstance(report, MetricsReport)
    assert report.seed_key == (7, 3, 2) and report.trial == 2
    failed = harness._sweep_worker((FAST, 7, 0, (300.0, 0.0, 1.0), 0))
    assert failed[:3] == (0, 0, None) and failed[3].startswith("GeometryError")


def test_layer_funcs_on_the_trial_path(monkeypatch):
    """Every wrapped function runs in a windowed or a full-image sweep job, and
    unwrap_phase runs 4 times per trial."""
    calls = dict.fromkeys(layer_funcs(), 0)
    for name in calls:
        module, attr = resolve(name)
        original = getattr(module, attr)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)
    for mode in ("windowed", "full"):
        before = calls["numerics.unwrap_phase"]
        job = ({**FAST, "image_mode": mode}, 1, 0, (300.0, 30.0, 1.0), 0)
        assert harness._sweep_worker(job)[3] is None
        assert calls["numerics.unwrap_phase"] - before == 4
    assert [name for name, n in calls.items() if n == 0] == []
