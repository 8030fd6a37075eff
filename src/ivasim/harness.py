"""Batch orchestration and CLI.

A trial composes the full chain: QPSK grid draw, sensing-matrix synthesis,
range alignment, phase adjustment, range-Doppler imaging, and metrics. Sweeps
run Monte Carlo trials over a (heading x speed x subcarrier-fraction) grid
with a worker pool and write the contrast/RMSE result tables.

Monte Carlo trials evaluate the image metrics through a windowed evaluator
that only Doppler-processes rows which can mathematically contribute to the
peak, the thresholded support, or the contrast crop (each row's transform
magnitude is bounded by its slow-time L1 norm). The evaluator certifies that
its result is identical to the full-image computation and falls back to the
full image when the certification margin is violated.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import multiprocessing
import os
import subprocess
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import frontend, imaging, metrics, scenario, target, tmc
from .errors import ConfigurationError, GeometryError, SimulationError
from .metrics import MetricsReport
from .scenario import DerivedParams, ScenarioConfig
from .target import ExtendedTarget, KinematicSnapshot, TrajectoryState


@dataclass(frozen=True)
class SimOptions:
    """Simulation knobs that are not part of the waveform configuration."""

    noise: bool = True
    beam: str = "ls"              # "ls" wide-beam synthesis or "ideal" indicator
    cell_gate: float = 0.1        # energy gate for reference-cell selection
    crop_half_range: float = 6.0       # m, contrast crop half extent in range
    crop_half_crossrange: float = 4.0  # m, crop half extent in cross-range
    image_mode: str = "windowed"  # "windowed" fast path or "full"


@dataclass(frozen=True)
class RunConfig:
    scenario: ScenarioConfig
    target: ExtendedTarget
    traj: TrajectoryState
    options: SimOptions = field(default_factory=SimOptions)


def run_config_from_raw(raw: dict) -> RunConfig:
    """Assemble the full run configuration from parsed key=value pairs."""
    values = scenario.read_values(raw)
    return RunConfig(
        scenario=scenario.scenario_from_raw(raw),
        target=(
            ExtendedTarget(*values["scatterers"])
            if "scatterers" in values
            else target.default_vehicle()
        ),
        traj=target.trajectory_from_values(values),
        options=SimOptions(**scenario.field_values(SimOptions, values)),
    )


def load_run_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Load a config file (defaults when absent) with optional raw overrides."""
    raw = scenario.parse_config_file(path) if path else {}
    raw.update((key, str(value)) for key, value in (overrides or {}).items())
    return run_config_from_raw(raw)


def trial_seed(master_seed: int, point_index: int, trial_index: int) -> np.random.SeedSequence:
    """Fixed seed-splitting function: master entropy plus the sweep-point and
    trial indices as the spawn key, independent of execution order."""
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(point_index, trial_index))


# --------------------------------------------------------------------------
# Windowed image metrics (exact-equivalence certified)
# --------------------------------------------------------------------------


_FALLBACK_ROWS = 256  # rows per block of the uncertified pass: 16 MiB at m_p = 4096


def _certified(rows: dict, delta_lo: float, delta_hi: float) -> bool:
    """No stored bin in [delta_lo, delta_hi): thresholding at delta_hi is exact."""
    return not any(np.any((v >= delta_lo) & (v < delta_hi)) for v in rows.values())


def _windowed_image_metrics(
    profiles: tmc.RangeProfileSet,
    derived: DerivedParams,
    scen: ScenarioConfig,
    snapshot: KinematicSnapshot,
    options: SimOptions,
) -> tuple[float, float]:
    """(contrast, centroid range) without materializing the full image.

    Row n of the image is bounded by the slow-time L1 norm of profile row n,
    so rows below the detection threshold bound can be skipped. The survivor
    set is provably identical to the full computation whenever no bin falls
    inside the interval [eps*(pmax - pmin_ub), eps*pmax), where pmin_ub is the
    smallest computed bin. Otherwise the unstored rows, whose bounds all lie
    below that interval, are transformed in blocks only for their minimum.
    """
    s = profiles.s
    k_p = s.shape[0]
    m_p = derived.m_p
    eps = scen.epsilon

    doppler = (np.arange(m_p) - m_p // 2) / (m_p * scen.t_sri)
    u_axis = derived.wavelength / (2.0 * snapshot.omega0 * math.cos(snapshot.phi)) * doppler
    range_axis = profiles.axis
    crop_rows = np.flatnonzero(np.abs(range_axis - snapshot.r0) <= options.crop_half_range)
    crop_cols = np.flatnonzero(np.abs(u_axis) <= options.crop_half_crossrange)
    if crop_rows.size == 0 or crop_cols.size == 0:
        raise ConfigurationError("crop window does not intersect the image")

    bound = np.abs(s).sum(axis=1)  # max_q |row DFT| <= sum_m |s[n, m]|
    if bound.max() <= 0.0:
        raise SimulationError("all-zero profiles: image metrics undefined")

    rows = {}

    def compute(indices: np.ndarray) -> None:
        todo = np.asarray([i for i in indices if i not in rows], dtype=int)
        if todo.size == 0:
            return
        block = np.fft.fftshift(np.abs(np.fft.fft(s[todo], n=m_p, axis=1)), axes=1)
        rows.update(zip(todo.tolist(), block))

    by_bound = np.argsort(bound, kind="stable")
    compute(crop_rows)
    compute(by_bound[-64:])  # strongest rows: resolves the global peak
    compute(by_bound[:4])    # weakest rows: tightens the min upper bound

    # exact global peak: any row whose bound exceeds the current max may hide it
    while True:
        pmax = max(float(v.max()) for v in rows.values())
        pending = [i for i in np.flatnonzero(bound > pmax) if i not in rows]
        if not pending:
            break
        compute(np.asarray(pending))
    pmin_ub = min(float(v.min()) for v in rows.values())

    # rows that could contain thresholded survivors
    while True:
        delta_lo = eps * (pmax - pmin_ub)
        pending = [i for i in np.flatnonzero(bound >= delta_lo) if i not in rows]
        if not pending:
            break
        compute(np.asarray(pending))
        pmin_ub = min(pmin_ub, min(float(rows[i].min()) for i in pending))

    delta_lo = eps * (pmax - pmin_ub)
    delta_hi = eps * pmax
    if not _certified(rows, delta_lo, delta_hi):
        rest = np.setdiff1d(np.arange(k_p), np.fromiter(rows, dtype=int))
        pmin = pmin_ub
        for start in range(0, rest.size, _FALLBACK_ROWS):
            block = np.fft.fft(s[rest[start:start + _FALLBACK_ROWS]], n=m_p, axis=1)
            pmin = min(pmin, float(np.abs(block).min()))
        delta_hi = eps * (pmax - pmin)

    # contrast over the crop
    crop = np.stack([rows[int(r)] for r in crop_rows])[:, crop_cols]
    mu = float(crop.mean())
    if mu == 0.0:
        raise SimulationError("contrast undefined: zero-mean crop")
    ic = float(np.linalg.norm(crop - mu) / (mu * np.sqrt(crop.size)))

    # intensity-weighted centroid of the thresholded support
    weight_total = moment_total = 0.0
    for idx in sorted(rows):
        values = rows[idx]
        mask = values >= delta_hi
        if mask.any():
            w = float(values[mask].sum())
            weight_total += w
            moment_total += w * float(range_axis[idx])
    if weight_total <= 0.0:
        raise SimulationError("no detection: empty thresholded support")
    return ic, moment_total / weight_total


# --------------------------------------------------------------------------
# Single trial
# --------------------------------------------------------------------------


def run_trial(
    cfg: RunConfig,
    seed_seq: np.random.SeedSequence,
    trial: int = 0,
    point: tuple[float, float, float] | None = None,
    export_image_path: str | None = None,
    export_csv_path: str | None = None,
    dump_gs_path: str | None = None,
    dump_tmc_path: str | None = None,
) -> MetricsReport:
    """Run the full chain once, deterministically for (cfg, seed_seq)."""
    scen = cfg.scenario
    derived = scenario.derive(scen)
    snapshot = target.centroid_kinematics(cfg.target, cfg.traj, scen)
    if snapshot.omega0 <= 0.0:
        raise GeometryError(
            "apparent rotation rate is zero: cross-range imaging undefined"
        )

    rng = np.random.default_rng(seed_seq)
    grid = frontend.qpsk_grid(derived.k_s, scen.m_s, rng)
    gain = frontend.make_beams(scen, derived, cfg.options.beam)
    gs = frontend.sensing_matrix(
        cfg.target, cfg.traj, scen, derived, gain, grid, rng, noise=cfg.options.noise
    )
    if dump_gs_path:
        frontend.dump_sensing_matrix(dump_gs_path, gs)

    aligned = tmc.align(gs, scen.delta_f)
    profiles = tmc.range_profiles(aligned.gamma, derived.k_p, scen.delta_f)
    cells = tmc.select_reference_cells(profiles, scen.n_ref, cfg.options.cell_gate)
    cpe = tmc.estimate_cpe(profiles, cells)
    corrected = tmc.apply_phase_correction(profiles, cpe)
    if dump_tmc_path:
        tmc.write_debug_csv(dump_tmc_path, aligned, cpe)

    rho, speed, heading = point if point else (
        scen.rho_f, cfg.traj.speed, cfg.traj.heading_deg
    )
    seed_key = tuple(np.atleast_1d(seed_seq.entropy)) + tuple(seed_seq.spawn_key)
    want_full = cfg.options.image_mode == "full" or export_image_path or export_csv_path
    if want_full:
        image = imaging.form_image(corrected, derived.m_p, scen.t_sri)
        image = imaging.attach_crossrange(image, snapshot, derived.wavelength)
        window = metrics.make_crop_window(
            image, snapshot.r0, cfg.options.crop_half_range, cfg.options.crop_half_crossrange
        )
        ic = metrics.image_contrast(image, window)
        r_hat = metrics.centroid_range(metrics.threshold_image(image, scen.epsilon))
        if export_image_path:
            imaging.export_pgm(image, export_image_path, rows=window.rows, cols=window.cols)
        if export_csv_path:
            imaging.export_csv(image, export_csv_path, rows=window.rows, cols=window.cols)
    else:
        ic, r_hat = _windowed_image_metrics(
            corrected, derived, scen, snapshot, cfg.options
        )

    return MetricsReport(
        trial=trial,
        seed_key=seed_key,
        rho_f=rho,
        speed=speed,
        heading_deg=heading,
        ic=ic,
        centroid_range_est=r_hat,
        truth_range=snapshot.r0,
    )


# --------------------------------------------------------------------------
# Sweeps
# --------------------------------------------------------------------------

FULL_RHO_GRID = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


@dataclass(frozen=True)
class SweepSpec:
    rho_f: tuple = FULL_RHO_GRID
    speeds: tuple = (10.0, 20.0, 30.0)
    headings: tuple = (270.0, 300.0)
    n_mc: int = 50

    def __post_init__(self):
        if not self.rho_f or not self.speeds or not self.headings:
            raise ConfigurationError("sweep lists must be nonempty")
        if self.n_mc < 1:
            raise ConfigurationError(f"n_mc must be >= 1, got {self.n_mc}")

    def points(self) -> list[tuple[float, float, float]]:
        """(heading, speed, rho_f) grid in deterministic order."""
        return [
            (h, v, r) for h in self.headings for v in self.speeds for r in self.rho_f
        ]


def load_sweep_spec(path: str | None) -> SweepSpec:
    if path is None:
        return SweepSpec()
    readers = scenario.field_readers(SweepSpec)
    raw = scenario.parse_config_file(path, readers)
    return SweepSpec(**scenario.read_values(raw, readers, path))


def _point_config(base_raw: dict, heading: float, speed: float, rho: float) -> RunConfig:
    raw = dict(base_raw)
    raw["heading_deg"] = f"{heading:.10g}"
    raw["speed"] = f"{speed:.10g}"
    raw["rho_f"] = f"{rho:.10g}"
    return run_config_from_raw(raw)


def _sweep_worker(args):
    base_raw, master_seed, point_idx, point, trial_idx = args
    heading, speed, rho = point
    try:
        cfg = _point_config(base_raw, heading, speed, rho)
        report = run_trial(
            cfg,
            trial_seed(master_seed, point_idx, trial_idx),
            trial=trial_idx,
            point=(rho, speed, heading),
        )
        return point_idx, trial_idx, report, None
    except SimulationError as exc:
        return point_idx, trial_idx, None, f"{type(exc).__name__}: {exc}"


def _config_digest(base_raw: dict, spec: SweepSpec, master_seed: int) -> str:
    """Digest of the resolved config of every sweep point, the spec and the
    seed: equal values written differently, or left at their defaults, give
    the same digest. Resolving the points also rejects a bad one up front."""
    canon = repr([
        (c.scenario, c.traj, c.options, c.target.scatterers.tolist(), c.target.rcs.tolist())
        for c in (_point_config(base_raw, *point) for point in spec.points())
    ]) + repr(spec) + repr(master_seed)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def run_sweep(
    base_raw: dict,
    spec: SweepSpec,
    master_seed: int,
    out_dir: str,
    workers: int = 1,
    trials_csv: bool = False,
    log=sys.stderr,
) -> dict:
    """Run the Monte Carlo grid and write the result CSVs.

    Returns a summary dict keyed by (heading, speed, rho_f) with per-point
    aggregates. Failed trials are logged and excluded; their count is reported
    in the CSVs. Results are independent of worker count and execution order.
    """
    digest = _config_digest(base_raw, spec, master_seed)
    os.makedirs(out_dir, exist_ok=True)
    points = spec.points()
    jobs = [
        (base_raw, master_seed, p_idx, point, t_idx)
        for p_idx, point in enumerate(points)
        for t_idx in range(spec.n_mc)
    ]
    results = {}
    if workers > 1:
        with multiprocessing.Pool(processes=workers) as pool:
            for item in pool.imap_unordered(_sweep_worker, jobs, chunksize=1):
                results[(item[0], item[1])] = item[2:]
    else:
        for job in jobs:
            item = _sweep_worker(job)
            results[(item[0], item[1])] = item[2:]

    summary = {}
    all_reports = []
    for p_idx, point in enumerate(points):
        reports, failures = [], []
        for t_idx in range(spec.n_mc):
            report, error = results[(p_idx, t_idx)]
            if report is None:
                failures.append((t_idx, error))
            else:
                reports.append(report)
        for t_idx, error in failures:
            print(
                f"trial failed: point={point} trial={t_idx}: {error}", file=log
            )
        if reports:
            ic_mean, rmse = metrics.aggregate(reports)
        else:
            ic_mean, rmse = float("nan"), float("nan")
        summary[point] = {
            "ic_mean": ic_mean,
            "rmse_c": rmse,
            "n_ok": len(reports),
            "n_failed": len(failures),
        }
        all_reports.extend(reports)

    header = (
        f"ivasim sweep seed={master_seed} n_mc={spec.n_mc} "
        f"config_sha={digest} git={_git_revision()}"
    )

    ic_path = os.path.join(out_dir, "ic_mean_vs_rhof.csv")
    with open(ic_path, "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\n")
        fh.write("rho_f,speed,n_trials,n_failed,ic_mean\n")
        for (heading, speed, rho), agg in summary.items():
            if abs(heading - 300.0) > 1e-9:
                continue
            fh.write(
                f"{rho:.10g},{speed:.10g},{agg['n_ok']},{agg['n_failed']},"
                f"{agg['ic_mean']:.10g}\n"
            )

    rmse_path = os.path.join(out_dir, "rmse_vs_rhof.csv")
    with open(rmse_path, "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\n")
        fh.write("heading_deg,speed,rho_f,n_trials,n_failed,rmse_c\n")
        for (heading, speed, rho), agg in summary.items():
            fh.write(
                f"{heading:.10g},{speed:.10g},{rho:.10g},{agg['n_ok']},"
                f"{agg['n_failed']},{agg['rmse_c']:.10g}\n"
            )

    if trials_csv:
        metrics.write_trials_csv(
            os.path.join(out_dir, "trials.csv"), all_reports, header
        )
    return summary


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ivasim",
        description="OFDM-ISAC inverse-virtual-aperture imaging simulator",
    )
    parser.add_argument("--config", help="key=value scenario config file")
    parser.add_argument("--sweep", help="sweep spec file (runs the Monte Carlo grid)")
    parser.add_argument("--seed", type=int, default=None, help="master RNG seed")
    parser.add_argument("--n-mc", type=int, default=None, help="Monte Carlo trials per point")
    parser.add_argument("--full", action="store_true", help="use 1000 trials per point")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--export-image", action="store_true", help="write PGM + CSV image exports")
    parser.add_argument("--dump-gs", action="store_true", help="dump the sensing matrix")
    parser.add_argument(
        "--dump-tmc", action="store_true", help="write per-symbol alignment diagnostics"
    )
    parser.add_argument("--workers", type=int, default=None, help="worker processes for sweeps")
    parser.add_argument("--trials-csv", action="store_true", help="write per-trial CSV in sweeps")
    parser.add_argument(
        "--image-mode", choices=("windowed", "full"), default=None,
        help="image metrics evaluation path (default: windowed)",
    )
    args = parser.parse_args(argv)

    try:
        if args.workers is not None and args.workers < 1:
            raise ConfigurationError(f"--workers must be >= 1, got {args.workers}")
        raw = scenario.parse_config_file(args.config) if args.config else {}
        if args.image_mode is not None:
            raw["image_mode"] = args.image_mode
        cfg = run_config_from_raw(raw)
        seed = args.seed if args.seed is not None else cfg.scenario.seed
        if args.sweep is not None or args.n_mc is not None or args.full:
            spec = load_sweep_spec(args.sweep)
            if args.full:
                spec = replace(spec, n_mc=1000)
            if args.n_mc is not None:
                spec = replace(spec, n_mc=args.n_mc)
            workers = args.workers or max(1, multiprocessing.cpu_count())
            summary = run_sweep(
                raw, spec, seed, args.out,
                workers=workers, trials_csv=args.trials_csv,
            )
            for point, agg in summary.items():
                heading, speed, rho = point
                print(
                    f"heading={heading:g} speed={speed:g} rho_f={rho:g} "
                    f"ic_mean={agg['ic_mean']:.4f} rmse_c={agg['rmse_c']:.4f} "
                    f"({agg['n_ok']} ok, {agg['n_failed']} failed)"
                )
            return 0

        os.makedirs(args.out, exist_ok=True)
        image_path = os.path.join(args.out, "image.pgm") if args.export_image else None
        csv_path = os.path.join(args.out, "image.csv") if args.export_image else None
        gs_path = os.path.join(args.out, "gs.bin") if args.dump_gs else None
        tmc_path = os.path.join(args.out, "tmc_debug.csv") if args.dump_tmc else None
        report = run_trial(
            cfg,
            trial_seed(seed, 0, 0),
            export_image_path=image_path,
            export_csv_path=csv_path,
            dump_gs_path=gs_path,
            dump_tmc_path=tmc_path,
        )
        print(
            f"rho_f={report.rho_f:g} speed={report.speed:g} "
            f"heading={report.heading_deg:g} ic={report.ic:.4f} "
            f"r_hat={report.centroid_range_est:.4f} m "
            f"truth={report.truth_range:.4f} m error={report.centroid_error:+.4f} m"
        )
        return 0
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
