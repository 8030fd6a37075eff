"""Span recording around calls into ivasim's layers, from outside the package.

ivasim's modules call each other through module attributes looked up at call
time (``frontend.sensing_matrix``, ``tmc.estimate_shifts``, ...), so replacing
those attributes with timing wrappers records one span per call without
changing any file of the package. A span is (name, start, end, parent, trial
id); spans of one trial share the trial id ``"<entropy>:<point>:<trial>"``.

Spans stay in memory. With a ``sink_dir`` every process appends the spans of a
finished trial to its own ``spans-<pid>.jsonl`` there, which is how the
workers of a forked ``multiprocessing`` pool hand their spans back. Forked
workers inherit the wrapped attributes; the wrapped ``harness._sweep_worker``
keeps its name through ``functools.wraps``, so the pool pickles it by
reference to the wrapper itself.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import os
import resource
import time
from collections import defaultdict

import numpy as np

# Every layer function the traced run wraps, as "<module>.<function>". Each is
# reported per trial as <name>.ms (total), <name>.self_ms and <name>.calls.
LAYER_FUNCS = (
    "numerics.fft",
    "numerics.unwrap_phase",
    "scenario.scenario_from_raw",
    "scenario.derive",
    "target.centroid_kinematics",
    "frontend.qpsk_grid",
    "frontend.make_beams",
    "frontend.sensing_matrix",
    "tmc.align",
    "tmc.estimate_shifts",
    "tmc.regularize_shifts",
    "tmc.compensate_delays",
    "tmc.range_profiles",
    "tmc.select_reference_cells",
    "tmc.estimate_cpe",
    "tmc.apply_phase_correction",
    "imaging.form_image",
    "metrics.threshold_image",
    "metrics.centroid_range",
    "metrics.image_contrast",
    "harness.run_trial",
    "harness._windowed_image_metrics",
    "harness._sweep_worker",
)

# Private functions are reported under public-looking span names.
SPAN_NAMES = {
    "harness._windowed_image_metrics": "harness.windowed_metrics",
    "harness._sweep_worker": "harness.sweep_worker",
}

TRIAL_SPAN = "harness.run_trial"
SWEEP_TRIAL_SPAN = "harness.sweep_worker"


def span_name(func: str) -> str:
    return SPAN_NAMES.get(func, func)


def _trial_id_from_run_trial(args, kwargs):
    seed_seq = args[1] if len(args) > 1 else kwargs["seed_seq"]
    key = tuple(np.atleast_1d(seed_seq.entropy)) + tuple(seed_seq.spawn_key)
    return ":".join(str(int(v)) for v in key)


def _trial_id_from_sweep_job(args, kwargs):
    _, master_seed, point_idx, _, trial_idx = args[0]
    return f"{master_seed}:{point_idx}:{trial_idx}"


_TRIAL_IDS = {
    "harness.run_trial": _trial_id_from_run_trial,
    "harness._sweep_worker": _trial_id_from_sweep_job,
}


def _fft_attrs(args, kwargs) -> dict:
    """Rows transformed and the 5 N log2 N flop count they are computed at."""
    x = np.asarray(args[0])
    n = int(args[1] if len(args) > 1 else kwargs["n"])
    axis = args[2] if len(args) > 2 else kwargs.get("axis", -1)
    rows = x.size // max(x.shape[axis], 1)
    return {"rows": rows, "flop": 5.0 * n * math.log2(n) * rows}


class Tracer:
    """In-memory span recorder for one process (reset in a forked child)."""

    def __init__(self, sink_dir: str | None = None):
        self.sink_dir = sink_dir
        self._reset(inherited_parent=None)

    def _reset(self, inherited_parent):
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.trial = None
        self.next_id = 0
        self.inherited_parent = inherited_parent

    def _adopt_fork(self):
        if os.getpid() != self.pid:
            parent = self.stack[-1]["id"] if self.stack else self.inherited_parent
            self._reset(inherited_parent=parent)

    def open(self, name: str, trial=None) -> dict:
        self._adopt_fork()
        if trial is not None:
            self.trial = trial
        span = {
            "id": f"{self.pid}:{self.next_id}",
            "name": name,
            "parent": self.stack[-1]["id"] if self.stack else self.inherited_parent,
            "trial": self.trial,
            "pid": self.pid,
            "start": time.perf_counter(),
            "end": None,
        }
        self.next_id += 1
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self.stack.pop()
        if not self.stack:
            self.trial = None
            if self.sink_dir:
                self.flush()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def flush(self) -> None:
        """Append this process's finished spans to its sink file."""
        if not self.spans:
            return
        path = os.path.join(self.sink_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def wrap(self, func: str, fn):
        name = span_name(func)
        trial_of = _TRIAL_IDS.get(func)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            trial = trial_of(args, kwargs) if trial_of else None
            span = self.open(name, trial=trial)
            try:
                if func == "numerics.fft":
                    span.update(_fft_attrs(args, kwargs))
                if func == "harness._windowed_image_metrics":
                    with _count_fft_rows(span):
                        span["k_p"] = int(args[0].s.shape[0])
                        return fn(*args, **kwargs)
                return fn(*args, **kwargs)
            finally:
                if trial_of:  # a trial's span: note its process's peak RSS so far
                    span["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                self.close(span)

        return wrapper


@contextlib.contextmanager
def _count_fft_rows(span: dict):
    """Count the rows numpy.fft.fft transforms while the span is open; the
    windowed evaluator calls numpy's FFT directly, one block of rows at a time."""
    original = np.fft.fft

    def counting_fft(a, n=None, axis=-1, **kwargs):
        a_arr = np.asarray(a)
        span["rows"] = span.get("rows", 0) + a_arr.size // max(a_arr.shape[axis], 1)
        return original(a, n=n, axis=axis, **kwargs)

    np.fft.fft = counting_fft
    try:
        yield
    finally:
        np.fft.fft = original


@contextlib.contextmanager
def installed(tracer: Tracer, funcs):
    """Replace each "<module>.<function>" of ivasim with a tracing wrapper."""
    patched = []
    try:
        for func in funcs:
            module_name, attr = func.split(".")
            module = importlib.import_module(f"ivasim.{module_name}")
            original = getattr(module, attr)
            setattr(module, attr, tracer.wrap(func, original))
            patched.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


def read_sink(sink_dir: str) -> list[dict]:
    spans = []
    for entry in sorted(os.listdir(sink_dir)):
        if entry.startswith("spans-") and entry.endswith(".jsonl"):
            with open(os.path.join(sink_dir, entry), encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh)
    return spans


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-trial totals of every layer span, its self time and call count.

    Self time is the span's duration minus that of its child spans in the same
    process; a sweep's spans in the pool workers do not count against it.
    """
    by_id = {s["id"]: s for s in spans}
    child_s = defaultdict(float)
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["pid"] == s["pid"]:
            child_s[s["parent"]] += duration(s)
    n_trials = sum(1 for s in spans if s["name"] == TRIAL_SPAN)
    if n_trials == 0:
        raise RuntimeError("no traced trial spans were recorded")

    totals = defaultdict(lambda: [0.0, 0.0, 0])
    for s in spans:
        acc = totals[s["name"]]
        acc[0] += duration(s)
        acc[1] += duration(s) - child_s[s["id"]]
        acc[2] += 1
    out = {}
    for func in LAYER_FUNCS:
        total_s, self_s, calls = totals[span_name(func)]
        name = span_name(func)
        out[f"{name}.ms"] = 1e3 * total_s / n_trials
        out[f"{name}.self_ms"] = 1e3 * self_s / n_trials
        out[f"{name}.calls"] = calls / n_trials

    flop = sum(s.get("flop", 0.0) for s in spans if s["name"] == "numerics.fft")
    out["numerics.fft.gflop_computed"] = flop / 1e9 / n_trials
    windowed = [s for s in spans if s["name"] == "harness.windowed_metrics"]
    out["harness.windowed_rows_frac"] = (
        sum(s.get("rows", 0) / s["k_p"] for s in windowed) / len(windowed)
        if windowed else 0.0
    )
    # the uncertified branch transforms every remaining row, so all k_p are done
    out["harness.windowed_fallbacks"] = float(
        sum(1 for s in windowed if s.get("rows", 0) >= s["k_p"])
    )
    return out


def write_spans(path: str, spans: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in sorted(spans, key=lambda s: s["start"]):
            fh.write(json.dumps(span) + "\n")
