"""Acceptance suite: every release criterion at its stated tolerance.

Each check prints one `[criterion N] PASS/FAIL` line (run with -s to see them
all). Criteria 6 and 7 share one Monte Carlo sweep over the full
(heading x speed x subcarrier-fraction) grid at 50 trials per point; expect
tens of minutes for the whole module on a 2-core machine. Both carry the
``slow`` marker, so ``pytest -m "not slow"`` leaves that sweep out.
"""

import numpy as np
import pytest

from conftest import run_pipeline, whole_image
from ivasim import frontend, harness, imaging, metrics, scenario, target, tmc
from ivasim.numerics import fft, unwrap_phase
from ivasim.scenario import C_LIGHT, ScenarioConfig, derive
from ivasim.target import TrajectoryState, centroid_kinematics, cross_range_resolution


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


# --------------------------------------------------------------------------
# 1. Derived-parameter reproduction
# --------------------------------------------------------------------------


def test_criterion_1_derived_parameters():
    d_full = derive(ScenarioConfig(rho_f=1.0))
    d_fifth = derive(ScenarioConfig(rho_f=0.2))
    checks = [
        abs(d_full.delta_r - 0.38) <= 0.01,
        abs(d_fifth.delta_r - 1.89) <= 0.01,
        abs(d_full.rho_t - 0.036) <= 0.001,
        d_full.k_p == 32768,
        derive(ScenarioConfig(m_s=200)).m_p == 2048,
        derive(ScenarioConfig(m_s=220)).m_p == 4096,
    ]
    ok = all(checks)
    report(
        1,
        ok,
        f"delta_r={d_full.delta_r:.4f}/{d_fifth.delta_r:.4f} m, "
        f"rho_t={d_full.rho_t:.4f}, K_p={d_full.k_p}, "
        f"M_p(200)={derive(ScenarioConfig(m_s=200)).m_p}, "
        f"M_p(220)={derive(ScenarioConfig(m_s=220)).m_p}",
    )
    assert ok


# --------------------------------------------------------------------------
# 2. Cross-range resolution table
# --------------------------------------------------------------------------


def test_criterion_2_cross_range_table():
    table = {
        (270.0, 220): ((10.0, 0.66), (20.0, 0.33), (30.0, 0.22)),
        (300.0, 200): ((10.0, 0.81), (20.0, 0.41), (30.0, 0.27)),
    }
    tol = {270.0: 0.02, 300.0: 0.03}
    results = []
    ok = True
    for (heading, m_s), rows in table.items():
        scen = ScenarioConfig(m_s=m_s)
        d = derive(scen)
        for speed, expect in rows:
            traj = TrajectoryState(heading_deg=heading, speed=speed)
            snap = centroid_kinematics(target.default_vehicle(), traj, scen)
            du = cross_range_resolution(snap, d)
            ok &= abs(du - expect) <= tol[heading]
            results.append(f"{heading:g}/{speed:g}: {du:.3f} (want {expect})")
    report(2, ok, "; ".join(results))
    assert ok


# --------------------------------------------------------------------------
# 3. Single-scatterer oracle
# --------------------------------------------------------------------------


def test_criterion_3_single_scatterer_localization():
    scen = ScenarioConfig(k=2048, m_s=64, n_ref=1)
    derived = derive(scen)
    tgt = target.ExtendedTarget(np.zeros((1, 3)), np.ones(1))
    traj = TrajectoryState(midpoint=(60.0, 5.0), speed=0.0)
    rng = np.random.default_rng(0)
    grid = frontend.qpsk_grid(derived.k_s, scen.m_s, rng)
    gs = frontend.sensing_matrix(
        tgt, traj, scen, derived, frontend.ideal_sector_gain(0.0, 30.0), grid, rng,
        noise=False,
    )
    gamma, _ = tmc.align(gs, scen.delta_f)
    profiles = tmc.range_profiles(gamma, derived.k_p, scen.delta_f)
    cells = tmc.select_reference_cells(profiles, 1)
    corrected = tmc.apply_phase_correction(profiles.s, tmc.estimate_cpe(profiles, cells))
    p = imaging.form_image(corrected, derived.m_p)
    row, col = np.unravel_index(np.argmax(p), p.shape)
    r_true = target.exact_range(traj.bs_position, (60.0, 5.0, 1.6))
    want_row = round(r_true / derived.range_bin_m)
    ok = abs(row - want_row) < 1 and col == derived.m_p // 2
    report(
        3,
        ok,
        f"peak at range bin {row} (true {want_row}), Doppler column {col} "
        f"(zero at {derived.m_p // 2})",
    )
    assert ok


# --------------------------------------------------------------------------
# 4. TMC end-to-end
# --------------------------------------------------------------------------

TMC_CASES = [(270.0, 10.0), (270.0, 20.0), (270.0, 30.0),
             (300.0, 10.0), (300.0, 20.0), (300.0, 30.0)]


@pytest.mark.parametrize("heading,speed", TMC_CASES)
def test_criterion_4_tmc_end_to_end(heading, speed):
    """Noise-off reference scenario: roof peak migration after alignment stays
    within one range-resolution cell; the strongest reference cell's slow-time
    phase after correction is linear to < 0.1 rad RMS.

    The 0.1 rad bound is unattainable at the fast combinations: the
    per-scatterer range-curvature phase (quadratic, ~omega0^2) alone reaches
    0.07-0.10 rad RMS and inter-scatterer leakage adds comparable wobble, so
    those cases report an honest FAIL.
    """
    run = run_pipeline({"heading_deg": heading, "speed": speed, "noise": "off"})
    scen, derived, snap = run["scenario"], run["derived"], run["snapshot"]
    corrected, cells = run["corrected"], run["cells"]
    env = np.abs(corrected.s)

    # roof scatterer: local peak within one resolution cell of its reference cell
    roof_range = snap.ranges[2]
    nominal = int(round(roof_range / derived.range_bin_m))
    half = int(np.ceil(derived.delta_r / derived.range_bin_m))
    window = env[nominal - half : nominal + half + 1, :]
    peak_r = roof_range + (np.argmax(window, axis=0) - half) * derived.range_bin_m
    cell_drift = np.abs(
        np.round(peak_r / derived.delta_r) - round(roof_range / derived.delta_r)
    ).max()
    spread_ok = cell_drift <= 1

    # dominant (strongest) reference cell: residual from a linear phase fit
    dominant = cells[int(np.argmax(env[cells].mean(axis=1)))]
    phase = np.unwrap(np.angle(corrected.s[dominant]))
    m = np.arange(scen.m_s)
    residual = phase - np.polyval(np.polyfit(m, phase, 1), m)
    rms = float(np.sqrt(np.mean(residual**2)))
    resid_ok = rms < 0.1

    ok = spread_ok and resid_ok
    report(
        4,
        ok,
        f"heading {heading:g} v {speed:g}: roof cell drift {cell_drift:g} "
        f"(<=1), linear residual {rms:.3f} rad (<0.1)",
    )
    assert ok


# --------------------------------------------------------------------------
# 5. Five-scatterer image geometry
# --------------------------------------------------------------------------


def test_criterion_5_five_scatterer_geometry():
    """Noiseless v=30, rho_f=1 image shows the five scatterers at their
    predicted (range, cross-range) positions.

    Heading 270 deg: there the minimum-variance reference cells all lie at
    zero cross-range, so the phase correction anchors the centroid Doppler at
    zero as the cross-range axis assumes. (On the oblique heading the selected
    cells are cross-range-asymmetric and the whole image carries a common
    cross-range offset of a few tenths of a meter.)
    """
    run = run_pipeline({"heading_deg": 270.0, "speed": 30.0, "noise": "off"})
    derived, snap = run["derived"], run["snapshot"]
    image = whole_image(run)
    window = metrics.make_crop_window(image, snap.r0, 6.0, 4.0)
    crop = image.p[np.ix_(window.rows, window.cols)]

    # local maxima above 0.3 of the crop peak, 8-neighborhood
    interior = crop[1:-1, 1:-1]
    neighbors = [
        crop[1 + dr : crop.shape[0] - 1 + dr, 1 + dc : crop.shape[1] - 1 + dc]
        for dr in (-1, 0, 1)
        for dc in (-1, 0, 1)
        if (dr, dc) != (0, 0)
    ]
    is_peak = np.all([interior >= nb for nb in neighbors], axis=0)
    is_peak &= interior >= 0.3 * crop.max()
    rows, cols = np.nonzero(is_peak)
    order = np.argsort(interior[rows, cols])[::-1]
    peaks = [
        (
            image.range_axis[window.rows[r + 1]],
            image.crossrange_axis[window.cols[c + 1]],
            interior[r, c],
        )
        for r, c in zip(rows[order], cols[order])
    ]

    # iso-range / Doppler-decomposition predictions
    cphi, spsi, cpsi = np.cos(snap.phi), np.sin(snap.psi0), np.cos(snap.psi0)
    predictions = []
    for x, y, z in run["cfg"].target.scatterers:
        r_pred = snap.r0 + (x * cpsi - y * spsi) * cphi + z * np.sin(snap.phi)
        u_pred = x * spsi + y * cpsi
        predictions.append((r_pred, u_pred))

    du = cross_range_resolution(snap, derived)
    matched = 0
    used = set()
    for r_pred, u_pred in predictions:
        for i, (r_peak, u_peak, _) in enumerate(peaks[:8]):
            if i in used:
                continue
            if abs(r_peak - r_pred) <= derived.delta_r and abs(u_peak - u_pred) <= du:
                matched += 1
                used.add(i)
                break
    ok = matched >= 4
    report(
        5,
        ok,
        f"{matched}/5 scatterers matched within (delta_r={derived.delta_r:.3f} m, "
        f"delta_u={du:.3f} m); {len(peaks)} candidate maxima",
    )
    assert ok


# --------------------------------------------------------------------------
# 6 & 7. Monte Carlo sweep: contrast trend and centroid RMSE
# --------------------------------------------------------------------------

N_MC = 50


@pytest.fixture(scope="module")
def sweep_summary(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("sweep")
    spec = harness.SweepSpec(n_mc=N_MC)  # full grid, both headings, 3 speeds
    return harness.run_sweep({}, spec, master_seed=0, out_dir=str(out_dir), workers=2)


@pytest.mark.slow
def test_criterion_6_contrast_trend(sweep_summary):
    rho_grid = harness.FULL_RHO_GRID
    ok = True
    details = []
    for speed in (10.0, 20.0, 30.0):
        ic = [sweep_summary[(300.0, speed, rho)]["ic_mean"] for rho in rho_grid]
        inversions = [
            (ic[i] - ic[i + 1]) / ic[i] for i in range(len(ic) - 1) if ic[i + 1] < ic[i]
        ]
        speed_ok = len(inversions) <= 1 and all(g <= 0.02 for g in inversions)
        ok &= speed_ok
        details.append(f"v={speed:g}: IC {ic[0]:.2f}->{ic[-1]:.2f}, inversions={len(inversions)}")
    ic30 = sweep_summary[(300.0, 30.0, 1.0)]["ic_mean"]
    ic10 = sweep_summary[(300.0, 10.0, 1.0)]["ic_mean"]
    ok &= ic30 > ic10
    details.append(f"IC(v30)={ic30:.2f} > IC(v10)={ic10:.2f} at rho_f=1")
    report(6, ok, "; ".join(details))
    assert ok


@pytest.mark.slow
def test_criterion_7_rmse_targets(sweep_summary):
    ok = True
    details = []
    for heading in (270.0, 300.0):
        for speed in (10.0, 20.0, 30.0):
            for rho in harness.FULL_RHO_GRID:
                rmse = sweep_summary[(heading, speed, rho)]["rmse_c"]
                if rho >= 0.5:
                    ok &= rmse < 0.3
                if rho > 0.8:
                    ok &= rmse < 0.15
                if heading == 270.0 and rho == 0.4:
                    ok &= rmse < 0.3
    worst_high = max(
        sweep_summary[(h, v, r)]["rmse_c"]
        for h in (270.0, 300.0)
        for v in (10.0, 20.0, 30.0)
        for r in harness.FULL_RHO_GRID
        if r > 0.8
    )
    worst_mid = max(
        sweep_summary[(h, v, r)]["rmse_c"]
        for h in (270.0, 300.0)
        for v in (10.0, 20.0, 30.0)
        for r in harness.FULL_RHO_GRID
        if r >= 0.5
    )
    worst_270_04 = max(
        sweep_summary[(270.0, v, 0.4)]["rmse_c"] for v in (10.0, 20.0, 30.0)
    )
    details.append(f"worst RMSE rho>=0.5: {worst_mid:.3f} (<0.3)")
    details.append(f"worst RMSE rho>0.8: {worst_high:.3f} (<0.15)")
    details.append(f"worst RMSE 270deg rho=0.4: {worst_270_04:.3f} (<0.3)")
    report(7, ok, "; ".join(details))
    assert ok


# --------------------------------------------------------------------------
# 8. Statistical / numerical suites
# --------------------------------------------------------------------------


def test_criterion_8_statistical_suites(tmp_path):
    checks = {}

    # FFT round trip + Parseval at 1e-9
    rng = np.random.default_rng(0)
    x = rng.standard_normal(32768) + 1j * rng.standard_normal(32768)
    spec_x = fft(x, 32768)
    checks["fft"] = (
        np.abs(np.fft.ifft(spec_x, 32768) - x).max() < 1e-9
        and abs(np.sum(np.abs(x) ** 2) - np.sum(np.abs(spec_x) ** 2) / 32768)
        / np.sum(np.abs(x) ** 2)
        < 1e-9
    )

    # unwrap contract
    phi = rng.uniform(-10, 10, 500)
    d = np.diff(unwrap_phase(phi))
    k = (unwrap_phase(phi) - phi) / (2 * np.pi)
    checks["unwrap"] = (
        np.all(d > -np.pi) and np.all(d <= np.pi) and np.allclose(k, np.round(k))
    )

    # QPSK reciprocal-filter noise-variance preservation (5% at 1e5 samples)
    scen = ScenarioConfig(k=2048, m_s=50, n_ref=1)
    derived = derive(scen)
    tgt = target.ExtendedTarget(np.zeros((1, 3)), np.ones(1))
    traj = TrajectoryState(speed=0.0, midpoint=(0.0, 60.0))  # outside the sector
    grid = frontend.qpsk_grid(derived.k_s, scen.m_s, rng)
    gs = frontend.sensing_matrix(
        tgt, traj, scen, derived, frontend.ideal_sector_gain(0.0, 30.0), grid, rng,
        noise=True,
    )
    checks["noise_var"] = (
        gs.size >= 1e5
        and abs(np.mean(np.abs(gs) ** 2) - derived.sigma2) / derived.sigma2 < 0.05
    )

    # sensing-matrix linearity
    scen2 = ScenarioConfig(k=1024, m_s=16, n_ref=1)
    d2 = derive(scen2)
    traj2 = TrajectoryState(heading_deg=300.0, speed=20.0)
    grid2 = frontend.qpsk_grid(d2.k_s, scen2.m_s, rng)
    gain = frontend.ideal_sector_gain(0.0, 30.0)
    phases = np.array([0.3, 5.1])
    pair = target.ExtendedTarget(np.array([[2.5, 0, 0], [0, -1, 0]]), np.ones(2))
    lone = [
        target.ExtendedTarget(pair.scatterers[i : i + 1], np.ones(1)) for i in (0, 1)
    ]
    gs_pair = frontend.sensing_matrix(
        pair, traj2, scen2, d2, gain, grid2, rng, noise=False, scatter_phases=phases
    )
    gs_sum = sum(
        frontend.sensing_matrix(
            lone[i], traj2, scen2, d2, gain, grid2, rng, noise=False,
            scatter_phases=phases[i : i + 1],
        )
        for i in (0, 1)
    )
    checks["linearity"] = np.abs(gs_pair - gs_sum).max() < 1e-12

    # IC and centroid scale invariance
    p = rng.uniform(0.1, 2.0, (8, 8))
    image = imaging.RangeDopplerImage(
        p=p,
        range_axis=np.arange(8.0),
        doppler_axis=np.arange(8.0) - 4,
        crossrange_axis=np.arange(8.0) - 4,
    )
    scaled = imaging.RangeDopplerImage(
        p=5.0 * p,
        range_axis=np.arange(8.0),
        doppler_axis=np.arange(8.0) - 4,
        crossrange_axis=np.arange(8.0) - 4,
    )
    window = metrics.make_crop_window(image, 3.5, 4.0, 4.0)
    checks["scale_invariance"] = metrics.image_contrast(
        image, window
    ) == pytest.approx(
        metrics.image_contrast(scaled, window), rel=1e-12
    ) and metrics.centroid_range(image) == pytest.approx(
        metrics.centroid_range(scaled), rel=1e-12
    )

    # sweep determinism: byte-identical CSVs
    fast = {
        "k": "1024", "m_s": "16", "n_ref": "1", "beam": "ideal",
        "crop_half_range": "20", "crop_half_crossrange": "30",
    }
    spec = harness.SweepSpec(rho_f=(1.0,), speeds=(30.0,), headings=(300.0,), n_mc=3)
    harness.run_sweep(fast, spec, 11, str(tmp_path / "a"), trials_csv=True)
    harness.run_sweep(fast, spec, 11, str(tmp_path / "b"), trials_csv=True)
    checks["determinism"] = all(
        (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
        for n in ("ic_mean_vs_rhof.csv", "rmse_vs_rhof.csv", "trials.csv")
    )

    ok = all(checks.values())
    report(8, ok, ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()))
    assert ok
