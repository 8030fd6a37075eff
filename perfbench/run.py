"""ivasim benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload trial-wide --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. Set-up time is the median over
SETUP_SAMPLES fresh processes, each timed from its start until it reports
that it is set up; the last of them goes on to measure (see measure.py).
The metrics printed, and their units, are the ones BENCHMARK.json lists:
``end_to_end`` for ``--trace 0``, ``per_layer`` for ``--trace 1``. The last
line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MEASURE = os.path.join(ROOT, "perfbench", "measure.py")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("trial-wide", "trial-full", "sweep-grid")
SETUP_SAMPLES = 5
RUN_TIMEOUT_S = 170.0
# trial-full peaks near 3.6 GB RSS (the 32768 x 4096 float64 image and the
# temporaries of thresholding it); start it only with this much headroom.
TRIAL_FULL_MIN_AVAILABLE_MB = 4600
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    pass


def meminfo_mb() -> dict:
    values = {}
    with open("/proc/meminfo", encoding="ascii") as fh:
        for line in fh:
            key, rest = line.split(":", 1)
            if key in ("MemTotal", "MemAvailable"):
                values[key] = int(rest.split()[0]) // 1024
    return values


def git_revision() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
    )
    return out.stdout.strip() or "unknown"


def environment() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    mem = meminfo_mb()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": mem.get("MemTotal"),
        "mem_available_mb": mem.get("MemAvailable"),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "git": git_revision(),
        "machine": platform.machine(),
    }


def check_memory(workload: str) -> None:
    if workload != "trial-full":
        return
    available = meminfo_mb().get("MemAvailable", 0)
    if available < TRIAL_FULL_MIN_AVAILABLE_MB:
        raise BenchError(
            f"SKIPPED trial-full: {available} MB available, "
            f"{TRIAL_FULL_MIN_AVAILABLE_MB} MB needed to run it without risking an OOM kill"
        )


def run_child(cmd: list[str], deadline: float) -> tuple[float, float, dict | None]:
    """Run measure.py; return (seconds from start to READY, peak RSS in MB
    at READY, RESULT or None).

    Lines other than READY and RESULT are passed through to standard output.
    The child is killed at the deadline and always waited for.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    ready_s, ready_rss_mb, result = None, None, None
    try:
        for line in proc.stdout:
            if line.startswith("READY ") and ready_s is None:
                ready_s = time.perf_counter() - t0
                ready_rss_mb = float(line.split()[1])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stdout.write(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready_s is None:
        raise BenchError(f"{' '.join(cmd[1:3])}... exited with code {code}")
    return ready_s, ready_rss_mb, result


def declared_metrics(trace: int) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ivasim benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        declared = declared_metrics(args.trace)
        for needed in ("src/ivasim/harness.py", "configs/default.cfg", "configs/sweep_full.txt"):
            if not os.path.exists(os.path.join(ROOT, needed)):
                raise BenchError(f"{needed} not found under {ROOT}: not a source checkout")
        env = environment()
        print("env: " + json.dumps(env), flush=True)
        check_memory(args.workload)

        out_dir = os.path.join(OUT_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        cmd = [
            sys.executable, MEASURE, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out_dir,
        ]
        deadline = time.monotonic() + RUN_TIMEOUT_S
        # the traced run reports per-layer metrics only, so it takes no set-up samples
        n_setups = 1 if args.trace else SETUP_SAMPLES
        setup_samples, setup_rss_mb = [], []
        for k in range(n_setups):
            check_memory(args.workload)
            probe = ["--probe"] if k < n_setups - 1 else []
            ready_s, ready_rss_mb, result = run_child(cmd + ["--setup-index", str(k)] + probe, deadline)
            setup_samples.append(ready_s)
            setup_rss_mb.append(ready_rss_mb)
        if result is None:
            raise BenchError("measure.py printed no result")
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 2

    values = dict(result["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setup_samples)
        print("setup_s samples: " + " ".join(f"{s:.4f}" for s in setup_samples))
        print("peak RSS per set-up process: " + " ".join(f"{m:.1f}" for m in setup_rss_mb) + " MB")
        if args.workload != "sweep-grid":
            # A trial workload's memory is that of a process running its
            # trials. The median over the set-up processes, one warm-up trial
            # each, is not moved by a rare trial that falls back to the full
            # image; the sweep reports the median over its pool workers.
            values["peak_rss_mb"] = statistics.median(setup_rss_mb)
    print(f"failed_frac: {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} trials)")
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        missing = sorted(set(names) - set(values))
        extra = sorted(set(values) - set(names))
        print(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}",
              file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")

    final = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "env": env, "result": final}, fh, indent=1)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
