"""One measured process of the ivasim benchmark: set up, time, check.

run.py starts this script once per set-up sample (``--probe``: set up, print
READY, exit) and once for the measurement, which prints READY when set up,
then runs the timed loop and ends with ``RESULT <json>``. Set-up covers
imports, config parsing, RunConfig build and one untimed warm-up trial; the
READY line carries the process's peak RSS in MB at that point.

Untraced (``--trace 0``) runs report the end-to-end metrics. Traced runs
execute every unit twice on the same inputs, plain and with the layer
wrappers of spans.py installed, alternating which goes first; the per-layer
metrics come from the traced copies, the tracing overhead from the pair, and
the two results must be identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import ivasim  # noqa: E402
from ivasim import harness, scenario  # noqa: E402

import spans  # noqa: E402

if not os.path.abspath(ivasim.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    raise ImportError(f"ivasim imported from {ivasim.__file__}, not from {ROOT}/src")

CONFIG = os.path.join(ROOT, "configs", "default.cfg")
SWEEP = os.path.join(ROOT, "configs", "sweep_full.txt")
SWEEP_WORKERS = 2
CSV_FILES = ("ic_mean_vs_rhof.csv", "rmse_vs_rhof.csv", "trials.csv")

DIGEST_TRIALS = 5       # trials hashed into a trial workload's result digest
TAIL_SAMPLES = 10       # samples beyond the reported tail percentile
# Throughput and CPU per trial are medians over rounds: a block of trials, or
# one sweep. About 0.4% of trials take the windowed evaluator's uncertified
# full-image fallback (1.8 s and 3.4 GB at rho_f=1); a mean over one run
# moves by up to 8% with whether such a trial falls in it, a median does not.
ROUND_TRIALS = {"windowed": 5, "full": 2}
# Sanity limits for one trial at any of the workloads' grid points: centroid
# errors stay within a few tenths of a metre, and contrast stays above 1 where
# a noise-only (Rayleigh) crop would give about 0.52.
MAX_CENTROID_ERROR_M = 2.0
MIN_CONTRAST = 0.8


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_SAMPLES beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_SAMPLES:
        raise ValueError(f"{n} samples leave no percentile with {TAIL_SAMPLES} beyond it")
    return ordered[n - TAIL_SAMPLES - 1], 100.0 * (n - TAIL_SAMPLES) / n


def cpu_s() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process; ru_maxrss is in KiB on Linux."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report_ok(report) -> bool:
    return (
        math.isfinite(report.ic)
        and report.ic > MIN_CONTRAST
        and math.isfinite(report.centroid_range_est)
        and abs(report.centroid_error) < MAX_CENTROID_ERROR_M
    )


def result_line(report) -> str:
    return f"{report.ic:.10g} {report.centroid_range_est:.10g}\n"


# --------------------------------------------------------------------------
# Trial workloads: serial run_trial calls at rho_f=1, 270 deg, 30 m/s
# --------------------------------------------------------------------------


class TrialWorkload:
    """run_trial back to back over distinct trial seeds (seed, 0, i)."""

    def __init__(self, seed: int, image_mode: str, setup_index: int = 0):
        self.seed = seed
        self.round_trials = ROUND_TRIALS[image_mode]
        self.cfg = harness.load_run_config(CONFIG, overrides={"image_mode": image_mode})
        derived = scenario.derive(self.cfg.scenario)
        sizes = (derived.k_s, derived.k_p, derived.m_p)
        if sizes != (13200, 32768, 4096):
            raise RuntimeError(f"{CONFIG} no longer gives the rho_f=1 corner: {sizes}")
        harness.run_trial(self.cfg, harness.trial_seed(seed, 1, setup_index))  # warm-up

    def seeds_text(self, n: int) -> str:
        return (
            f"trial i uses SeedSequence(entropy={self.seed}, spawn_key=(0, i)), "
            f"i = 0..{n - 1}; the warm-up of set-up process k uses spawn_key=(1, k)"
        )

    def trial(self, i: int):
        return harness.run_trial(self.cfg, harness.trial_seed(self.seed, 0, i), trial=i)


def run_trial_checked(work: TrialWorkload, i: int, log: list):
    """(report or None, seconds). A raised error or a failed check is a failure."""
    t0 = time.perf_counter()
    try:
        report = work.trial(i)
    except Exception as exc:  # counted as a failed trial, and the run goes on
        elapsed = time.perf_counter() - t0
        log.append(f"trial {i} failed: {type(exc).__name__}: {exc}")
        return None, elapsed
    elapsed = time.perf_counter() - t0
    if not report_ok(report):
        log.append(f"trial {i} failed its check: {report}")
        return None, elapsed
    return report, elapsed


def end_round(done: int, attempted: int, t0: float, cpu0: float) -> dict:
    return {"done": done, "attempted": attempted,
            "wall": time.perf_counter() - t0, "cpu": cpu_s() - cpu0}


def round_metrics(rounds: list[dict]) -> dict:
    return {
        "trials_per_s": statistics.median(r["done"] / r["wall"] for r in rounds),
        "cpu_s_per_trial": statistics.median(r["cpu"] / r["attempted"] for r in rounds),
    }


def rounds_note(rounds: list[dict]) -> str:
    def total(key):
        return sum(r[key] for r in rounds)
    return (
        f"{len(rounds)} rounds; over the whole timed part {total('done') / total('wall'):.4g} "
        f"trials/s and {total('cpu') / total('attempted'):.4g} CPU s per trial"
    )


def trial_digest(reports) -> str:
    h = hashlib.sha256()
    for report in reports[:DIGEST_TRIALS]:
        h.update((result_line(report) if report else "failed\n").encode())
    return h.hexdigest()


def measure_trials(work: TrialWorkload, seconds: float) -> dict:
    log, reports, times, rounds = [], [], [], []
    start = time.perf_counter()
    while len(reports) <= TAIL_SAMPLES or time.perf_counter() - start < seconds:
        cpu0, t0, n_done = cpu_s(), time.perf_counter(), 0
        for _ in range(work.round_trials):
            report, elapsed = run_trial_checked(work, len(reports), log)
            reports.append(report)
            times.append(elapsed)
            n_done += report is not None
        rounds.append(end_round(n_done, work.round_trials, t0, cpu0))

    done = [t for r, t in zip(reports, times) if r is not None]
    tail_s, tail_pct = tail(done)
    return {
        "attempted": len(reports),
        "failed": len(reports) - len(done),
        "correct": len(done) == len(reports),
        "log": log,
        "digest": trial_digest(reports),
        "seeds": work.seeds_text(len(reports)),
        "notes": [
            f"trial_s_tail is p{tail_pct:.1f} of {len(done)} trial times",
            f"peak RSS of the measuring process after the timed loop: {peak_rss_mb():.1f} MB",
            rounds_note(rounds),
        ],
        "metrics": {
            **round_metrics(rounds),
            "trial_s_p50": statistics.median(done),
            "trial_s_tail": tail_s,
        },
    }


def trace_trials(work: TrialWorkload, seconds: float) -> dict:
    tracer = spans.Tracer()
    log, plain_times, traced_times = [], [], []
    plain_reports, traced_reports = [], []
    mismatches = 0
    start = time.perf_counter()
    i = 0
    while i < DIGEST_TRIALS or time.perf_counter() - start < seconds:
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                with spans.installed(tracer, spans.LAYER_FUNCS):
                    report, elapsed = run_trial_checked(work, i, log)
                traced_reports.append(report)
                traced_times.append(elapsed)
            else:
                report, elapsed = run_trial_checked(work, i, log)
                plain_reports.append(report)
                plain_times.append(elapsed)
        a, b = plain_reports[-1], traced_reports[-1]
        if a and b and result_line(a) != result_line(b):
            mismatches += 1
            log.append(f"trial {i}: traced result {b} differs from untraced {a}")
        i += 1

    digest, traced_digest = trial_digest(plain_reports), trial_digest(traced_reports)
    attempted = len(plain_reports) + len(traced_reports)
    failed = sum(r is None for r in plain_reports + traced_reports) + mismatches
    plain_p50 = statistics.median(plain_times)
    layer = spans.layer_metrics(tracer.spans)
    trial_s = sum(spans.duration(s) for s in tracer.spans if s["name"] == spans.TRIAL_SPAN)
    layer.update({
        "trace.overhead_frac": (statistics.median(traced_times) - plain_p50) / plain_p50,
        "harness.worker_busy_frac": trial_s / sum(traced_times),
        "harness.failed_frac": failed / attempted,
    })
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": mismatches == 0 and digest == traced_digest,
        "log": log,
        "digest": digest,
        "seeds": work.seeds_text(i),
        "notes": [f"traced digest {traced_digest}"],
        "spans": tracer.spans,
        "metrics": layer,
    }


# --------------------------------------------------------------------------
# Sweep workload: run_sweep over the 54-point grid, n_mc=1, 2 workers
# --------------------------------------------------------------------------


def csv_digest(out_dir: str) -> str:
    """SHA-256 of the sweep CSVs' data rows; '#' header lines carry the git
    revision and config digest, so they are left out."""
    h = hashlib.sha256()
    for name in CSV_FILES:
        h.update(f"{name}\n".encode())
        with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
            for line in fh:
                if not line.startswith("#"):
                    h.update(line.encode())
    return h.hexdigest()


def _csv_rows(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    return [line.split(",") for line in lines[1:]]  # drop the column header


def check_sweep(out_dir: str, summary: dict, spec) -> list[str]:
    """Problems found in the sweep CSVs, checked against run_sweep's summary."""
    problems = []
    points = spec.points()
    rmse_rows = _csv_rows(os.path.join(out_dir, "rmse_vs_rhof.csv"))
    if len(rmse_rows) != len(points):
        problems.append(f"rmse_vs_rhof.csv has {len(rmse_rows)} rows, want {len(points)}")
    for row, point in zip(rmse_rows, points):
        agg = summary[point]
        want = [f"{v:.10g}" for v in point] + [
            str(agg["n_ok"]), str(agg["n_failed"]), f"{agg['rmse_c']:.10g}"
        ]
        if row != want:
            problems.append(f"rmse_vs_rhof.csv row {row} != summary {want}")
    ic_rows = _csv_rows(os.path.join(out_dir, "ic_mean_vs_rhof.csv"))
    n_300 = sum(1 for p in points if p[0] == 300.0)
    if len(ic_rows) != n_300 or any(float(r[4]) <= MIN_CONTRAST for r in ic_rows):
        problems.append(f"ic_mean_vs_rhof.csv: bad rows {ic_rows}")
    trial_rows = _csv_rows(os.path.join(out_dir, "trials.csv"))
    if len(trial_rows) != len(points) * spec.n_mc + 1 or trial_rows[-1][0] != "summary":
        problems.append(f"trials.csv has {len(trial_rows)} rows")
    for row in trial_rows[:-1]:
        ic, error = float(row[5]), float(row[7])
        if not (math.isfinite(ic) and ic > MIN_CONTRAST and abs(error) < MAX_CENTROID_ERROR_M):
            problems.append(f"trials.csv row {row} fails the sanity limits")
    return problems


class SweepWorkload:
    """harness.run_sweep over configs/sweep_full.txt at n_mc=1 with 2 workers."""

    def __init__(self, seed: int, workers: int = SWEEP_WORKERS, setup_index: int = 0):
        self.seed = seed
        self.workers = workers
        self.base_raw = scenario.parse_config_file(CONFIG)
        self.spec = replace(harness.load_sweep_spec(SWEEP), n_mc=1)
        if len(self.spec.points()) != 54:
            raise RuntimeError(f"{SWEEP} no longer gives the 54-point grid")
        heading, speed, rho = self.spec.points()[0]
        cfg = harness.run_config_from_raw({
            **self.base_raw, "heading_deg": str(heading), "speed": str(speed), "rho_f": str(rho),
        })
        harness.run_trial(cfg, harness.trial_seed(seed, 1, setup_index))  # warm-up

    def master_seed(self, j: int) -> int:
        return int(np.random.SeedSequence([self.seed, j]).generate_state(1)[0])

    def seeds_text(self, n: int) -> str:
        masters = ", ".join(str(self.master_seed(j)) for j in range(n))
        return f"sweep j uses master seed SeedSequence([{self.seed}, j]).generate_state(1)[0]: {masters}"

    def sweep(self, j: int, out_dir: str, funcs) -> dict:
        """One sweep, with `funcs` wrapped; the worker-side trial spans are
        always recorded, because they give the per-trial wall times."""
        os.makedirs(out_dir)
        tracer = spans.Tracer(sink_dir=out_dir)
        with spans.installed(tracer, funcs), tracer.span("harness.run_sweep"):
            cpu0, t0 = cpu_s(), time.perf_counter()
            summary = harness.run_sweep(
                self.base_raw, self.spec, self.master_seed(j), out_dir,
                workers=self.workers, trials_csv=True,
            )
            failed = sum(agg["n_failed"] for agg in summary.values())
            n_trials = len(self.spec.points()) * self.spec.n_mc
            stats = end_round(n_trials - failed, n_trials, t0, cpu0)
        recorded = spans.read_sink(out_dir)
        jobs = [s for s in recorded if s["name"] == spans.SWEEP_TRIAL_SPAN]
        times = [spans.duration(s) for s in jobs]
        worker_peaks_kb = {}
        for s in jobs:
            worker_peaks_kb[s["pid"]] = max(worker_peaks_kb.get(s["pid"], 0), s["maxrss_kb"])
        if len(times) != n_trials:
            raise RuntimeError(f"{len(times)} of {n_trials} worker trial spans came back")
        problems = check_sweep(out_dir, summary, self.spec)
        return {
            "round": stats,
            "times": times,
            "worker_peaks_mb": [kb / 1024.0 for kb in worker_peaks_kb.values()],
            "spans": recorded,
            "attempted": n_trials,
            "failed": failed,
            "problems": problems,
            "digest": csv_digest(out_dir),
        }


ROOT_ONLY = ("harness._sweep_worker",)


def measure_sweeps(work: SweepWorkload, seconds: float, out_dir: str) -> dict:
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        j = len(runs)
        runs.append(work.sweep(j, os.path.join(out_dir, f"sweep{j}"), ROOT_ONLY))
    rounds = [r["round"] for r in runs]

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    times = [t for r in runs for t in r["times"]]
    tail_s, tail_pct = tail(times)
    worker_peaks = [p for r in runs for p in r["worker_peaks_mb"]]
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": not any(r["problems"] for r in runs),
        "log": [p for r in runs for p in r["problems"]],
        "digest": runs[0]["digest"],
        "seeds": work.seeds_text(len(runs)),
        "notes": [
            "sweep digests: " + " ".join(r["digest"][:16] for r in runs),
            f"trial_s_tail is p{tail_pct:.1f} of {len(times)} worker trial times",
            "peak RSS per pool worker: " + " ".join(f"{p:.1f}" for p in worker_peaks) + " MB",
            rounds_note(rounds),
        ],
        "spans": [s for r in runs for s in r["spans"]],
        "metrics": {
            **round_metrics(rounds),
            "trial_s_p50": statistics.median(times),
            "trial_s_tail": tail_s,
            "peak_rss_mb": statistics.median(worker_peaks),
        },
    }


def trace_sweeps(work: SweepWorkload, seconds: float, out_dir: str) -> dict:
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        j = len(traced)
        order = (False, True) if j % 2 == 0 else (True, False)
        for with_layers in order:
            funcs = spans.LAYER_FUNCS if with_layers else ROOT_ONLY
            run = work.sweep(j, os.path.join(out_dir, f"sweep{j}-trace{int(with_layers)}"), funcs)
            (traced if with_layers else plain).append(run)

    mismatched = [j for j, (a, b) in enumerate(zip(plain, traced)) if a["digest"] != b["digest"]]
    runs = plain + traced
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    traced_spans = [s for r in traced for s in r["spans"]]
    plain_p50 = statistics.median(t for r in plain for t in r["times"])
    layer = spans.layer_metrics(traced_spans)
    busy = sum(t for r in traced for t in r["times"])
    layer.update({
        "trace.overhead_frac": (
            statistics.median(t for r in traced for t in r["times"]) - plain_p50
        ) / plain_p50,
        "harness.worker_busy_frac": busy / (work.workers * sum(r["round"]["wall"] for r in traced)),
        "harness.failed_frac": failed / attempted,
    })
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": not mismatched and not any(r["problems"] for r in runs),
        "log": [p for r in runs for p in r["problems"]]
        + [f"sweep {j}: traced digest differs from untraced" for j in mismatched],
        "digest": plain[0]["digest"],
        "seeds": work.seeds_text(len(traced)),
        "notes": ["traced sweep digests: " + " ".join(r["digest"][:16] for r in traced)],
        "spans": [s for r in runs for s in r["spans"]],
        "metrics": layer,
    }


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def set_up(workload: str, seed: int, setup_index: int):
    if workload == "trial-wide":
        return TrialWorkload(seed, "windowed", setup_index=setup_index)
    if workload == "trial-full":
        return TrialWorkload(seed, "full", setup_index=setup_index)
    if workload == "sweep-grid":
        return SweepWorkload(seed, setup_index=setup_index)
    raise ValueError(f"unknown workload {workload!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True, help="directory for sweep CSVs and spans")
    parser.add_argument("--probe", action="store_true", help="set up, print READY, exit")
    parser.add_argument("--setup-index", type=int, default=0, help="picks the warm-up seed")
    args = parser.parse_args(argv)

    work = set_up(args.workload, args.seed, args.setup_index)
    print(f"READY {peak_rss_mb():.3f}", flush=True)
    if args.probe:
        return 0

    if isinstance(work, SweepWorkload):
        run = (trace_sweeps if args.trace else measure_sweeps)(work, args.seconds, args.out)
    else:
        run = (trace_trials if args.trace else measure_trials)(work, args.seconds)

    for line in run["log"]:
        print(f"problem: {line}")
    print(f"seeds: {run['seeds']}")
    for note in run["notes"]:
        print(note)
    print(f"digest: {run['digest']}")
    if run.get("spans"):
        path = os.path.join(args.out, "spans.jsonl")
        spans.write_spans(path, run["spans"])
        print(f"spans: {len(run['spans'])} written to {os.path.relpath(path, ROOT)}")
    result = {k: run[k] for k in ("correct", "attempted", "failed", "metrics")}
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
