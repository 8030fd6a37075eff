"""Batch orchestration and CLI.

A trial composes the full chain: QPSK grid draw, sensing-matrix synthesis,
range alignment, phase adjustment, range-Doppler imaging, and metrics. Sweeps
run Monte Carlo trials over a (heading x speed x subcarrier-fraction) grid
with a worker pool and write the contrast/RMSE result tables.

Both image modes run one pass over the image rows, a block at a time, that
keeps only the rows the metrics read (the contrast crop, rows that can clear
the detection threshold, and the minimum row) and never holds the (k_p, m_p)
image. It gets the uncorrected profiles and the common phase error, and
corrects each block of rows as it forms it, so the profiles are the only
(k_p, m_s) array next to the pass; from the rows it keeps it builds the one
image of the trial. Full mode forms every row in index order.
Windowed mode (default) takes rows in descending order of their slow-time L1
norm, which bounds each image row, and stops once the rows left are certified
to hold neither the peak nor a survivor. Either mode holds every crop row, so
the image exports of a trial are the same bytes in both.
"""

from __future__ import annotations

import argparse
import hashlib
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
# Image metrics over the rows that matter
# --------------------------------------------------------------------------


WINDOW_BLOCK = 64  # rows per windowed-mode block, taken in descending bound order


def _certified(p: np.ndarray, delta_lo: float, delta_hi: float) -> bool:
    """No bin of p in [delta_lo, delta_hi): thresholds between them agree."""
    return not np.any((p >= delta_lo) & (p < delta_hi))


def _image_pass(
    profiles: tmc.RangeProfileSet, cpe: np.ndarray, derived: DerivedParams,
    scen: ScenarioConfig, snapshot: KinematicSnapshot, options: SimOptions, blocks: list,
    bound=None,
) -> tuple[imaging.RangeDopplerImage, metrics.CropWindow, float, float]:
    """(image, crop window, contrast, centroid range) from forming ``blocks``
    (row slices or index arrays, the crop rows first) in turn, each block of
    profile rows phase-corrected by ``cpe`` and transformed in one call. The
    image holds the kept rows in index order, every crop row among them.

    Besides the crop rows and the row holding the minimum seen so far, a row
    is kept while its peak exceeds the floor eps/2 * (max - min) seen so far,
    which only rises and stays below the threshold eps * (max - min). With
    ``bound`` (a bound on each row's peak, blocks in descending bound order)
    the pass stops before a block bounded below delta_lo = eps * (max - min)
    if no kept bin lies in [delta_lo, eps * max), which holds the full
    image's threshold: the rows left hold neither the peak nor a survivor.
    """
    s, axis, eps = profiles.s, profiles.axis, scen.epsilon
    row_ids = np.arange(s.shape[0])
    in_crop = np.isin(row_ids, row_ids[blocks[0]])
    rows, peaks = {}, {}
    pmax, pmin, min_row = -np.inf, np.inf, None
    for part in blocks:
        delta_lo = eps * (pmax - pmin)
        if bound is not None and bound[part].max() < delta_lo and all(
            _certified(row, delta_lo, eps * pmax) for row in rows.values()
        ):
            break
        block = imaging.form_image(tmc.apply_phase_correction(s[part], cpe), derived.m_p)
        ids = row_ids[part]
        row_max, row_min = block.max(axis=1), block.min(axis=1)
        low = int(np.argmin(row_min))
        if row_min[low] < pmin:
            pmin, min_row = float(row_min[low]), (ids[low], block[low].copy())
        pmax = max(pmax, float(row_max.max()))
        floor = 0.5 * eps * (pmax - pmin)
        for i in np.flatnonzero(in_crop[ids] | (row_max > floor)):
            rows[ids[i]], peaks[ids[i]] = block[i].copy(), row_max[i]
        for i in [i for i, peak in peaks.items() if peak <= floor and not in_crop[i]]:
            del rows[i], peaks[i]
    rows.setdefault(*min_row)

    picked = sorted(rows)
    doppler = imaging.doppler_axis(derived.m_p, scen.t_sri)
    image = imaging.RangeDopplerImage(
        p=np.stack([rows[i] for i in picked]), range_axis=axis[picked], doppler_axis=doppler,
        crossrange_axis=imaging.crossrange_axis(doppler, snapshot, derived.wavelength),
    )
    window = metrics.make_crop_window(
        image, snapshot.r0, options.crop_half_range, options.crop_half_crossrange
    )
    return (image, window, metrics.image_contrast(image, window),
            metrics.centroid_range(metrics.threshold_image(image, eps)))


def _windowed_image_metrics(
    profiles: tmc.RangeProfileSet, cpe: np.ndarray, derived: DerivedParams,
    scen: ScenarioConfig, snapshot: KinematicSnapshot, options: SimOptions,
) -> tuple[imaging.RangeDopplerImage, metrics.CropWindow, float, float]:
    """``_image_pass`` over the crop rows and the rows that can hold the peak
    or a survivor. Row n of the image is bounded by the slow-time L1 norm of
    profile row n, so the other rows go in descending bound order."""
    # max_q |row DFT| <= sum_m |s[n, m]|. The cached sums are taken from the
    # uncorrected rows, and |s e^{-i cpe}| equals |s| only up to rounding (row
    # sums apart by about 4.4e-16 relative), so a margin of 4 m_s eps keeps
    # the bound above every corrected row's transform. The bound only decides
    # which rows get formed, never ic or r_hat.
    bound = profiles.row_l1 * (1 + 4 * profiles.s.shape[1] * np.finfo(float).eps)
    crop = metrics.crop_rows(profiles.axis, snapshot.r0, options.crop_half_range)
    order = np.argsort(-bound, kind="stable")
    order = order[(order < crop[0]) | (order > crop[-1])]
    blocks = [order[i:i + WINDOW_BLOCK] for i in range(0, order.size, WINDOW_BLOCK)]
    return _image_pass(profiles, cpe, derived, scen, snapshot, options, [crop, *blocks], bound)


def _full_image_metrics(
    profiles: tmc.RangeProfileSet, cpe: np.ndarray, derived: DerivedParams,
    scen: ScenarioConfig, snapshot: KinematicSnapshot, options: SimOptions,
) -> tuple[imaging.RangeDopplerImage, metrics.CropWindow, float, float]:
    """``_image_pass`` over every row, those outside the crop in index order
    ``tmc.ROW_BLOCK`` at a time: the full image's contrast and centroid."""
    crop = metrics.crop_rows(profiles.axis, snapshot.r0, options.crop_half_range)
    k_p, size = profiles.s.shape[0], tmc.ROW_BLOCK
    blocks = [crop] + [slice(i, min(i + size, stop))
                       for start, stop in ((0, crop[0]), (crop[-1] + 1, k_p))
                       for i in range(start, stop, size)]
    return _image_pass(profiles, cpe, derived, scen, snapshot, options, blocks)


# --------------------------------------------------------------------------
# Single trial
# --------------------------------------------------------------------------


def run_trial(
    cfg: RunConfig,
    seed_seq: np.random.SeedSequence,
    trial: int = 0,
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
    del grid
    if dump_gs_path:
        frontend.dump_sensing_matrix(dump_gs_path, gs)

    # each large array is dropped after its last read, and the image pass
    # phase-corrects only the rows it forms, so it runs next to the
    # uncorrected profiles alone
    gamma, aligned = tmc.align(gs, scen.delta_f)
    del gs
    profiles = tmc.range_profiles(gamma, derived.k_p, scen.delta_f)
    del gamma
    cells = tmc.select_reference_cells(profiles, scen.n_ref, cfg.options.cell_gate)
    cpe = tmc.estimate_cpe(profiles, cells)
    if dump_tmc_path:
        tmc.write_debug_csv(dump_tmc_path, aligned, cpe)

    evaluate = _full_image_metrics if cfg.options.image_mode == "full" else _windowed_image_metrics
    image, window, ic, r_hat = evaluate(profiles, cpe, derived, scen, snapshot, cfg.options)
    if export_image_path:
        imaging.export_pgm(image, export_image_path, window.rows, window.cols)
    if export_csv_path:
        imaging.export_csv(image, export_csv_path, window.rows, window.cols)

    return MetricsReport(
        trial=trial,
        seed_key=tuple(np.atleast_1d(seed_seq.entropy)) + tuple(seed_seq.spawn_key),
        rho_f=scen.rho_f,
        speed=cfg.traj.speed,
        heading_deg=cfg.traj.heading_deg,
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
    point = {"heading_deg": heading, "speed": speed, "rho_f": rho}
    return run_config_from_raw({**base_raw, **{k: repr(float(v)) for k, v in point.items()}})


def _sweep_worker(args):
    base_raw, master_seed, point_idx, point, trial_idx = args
    try:
        cfg = _point_config(base_raw, *point)
        report = run_trial(cfg, trial_seed(master_seed, point_idx, trial_idx), trial=trial_idx)
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
    if workers > 1:
        with multiprocessing.Pool(processes=workers) as pool:
            results = list(pool.imap(_sweep_worker, jobs, chunksize=1))
    else:
        results = [_sweep_worker(job) for job in jobs]

    summary = {}
    all_reports = []
    for p_idx, point in enumerate(points):
        outcomes = results[p_idx * spec.n_mc:(p_idx + 1) * spec.n_mc]
        reports = [report for _, _, report, _ in outcomes if report is not None]
        for _, t_idx, report, error in outcomes:
            if report is None:
                print(f"trial failed: point={point} trial={t_idx}: {error}", file=log)
        if reports:
            ic_mean, rmse = metrics.aggregate(reports)
        else:
            ic_mean, rmse = float("nan"), float("nan")
        summary[point] = {
            "ic_mean": ic_mean,
            "rmse_c": rmse,
            "n_ok": len(reports),
            "n_failed": spec.n_mc - len(reports),
        }
        all_reports.extend(reports)

    header = (
        f"ivasim sweep seed={master_seed} n_mc={spec.n_mc} "
        f"config_sha={digest} git={_git_revision()}"
    )
    metrics.write_table(
        os.path.join(out_dir, "ic_mean_vs_rhof.csv"), header,
        ("rho_f", "speed", "n_trials", "n_failed", "ic_mean"),
        [(rho, speed, agg["n_ok"], agg["n_failed"], agg["ic_mean"])
         for (heading, speed, rho), agg in summary.items() if abs(heading - 300.0) <= 1e-9],
    )
    metrics.write_table(
        os.path.join(out_dir, "rmse_vs_rhof.csv"), header,
        ("heading_deg", "speed", "rho_f", "n_trials", "n_failed", "rmse_c"),
        [(heading, speed, rho, agg["n_ok"], agg["n_failed"], agg["rmse_c"])
         for (heading, speed, rho), agg in summary.items()],
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
        if seed < 0:
            raise ConfigurationError(f"--seed must be >= 0, got {seed}")
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
    except (SimulationError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
