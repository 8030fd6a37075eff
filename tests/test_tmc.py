"""Translational motion compensation: alignment, regularization, phase adjustment."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import run_pipeline
from ivasim import frontend, imaging, numerics, scenario, target, tmc
from ivasim.errors import ConfigurationError, DataError
from ivasim.scenario import C_LIGHT, ScenarioConfig, derive
from ivasim.target import TrajectoryState, exact_range, reference_index, slow_time
from ivasim.tmc import (
    align,
    apply_phase_correction,
    compensate_delays,
    estimate_cpe,
    estimate_shifts,
    range_profiles,
    regularize_shifts,
    select_reference_cells,
)


def ramp_matrix(k_s, delays_bins):
    """Columns with pure integer-bin circular delays (impulse envelopes)."""
    k = np.arange(k_s)[:, None]
    return np.exp(-2j * np.pi * k * np.asarray(delays_bins)[None, :] / k_s)


class TestEstimateShifts:
    def test_static_scatterer_all_zero(self):
        gs = ramp_matrix(64, np.full(8, 5))
        assert np.array_equal(estimate_shifts(gs), np.zeros(8, dtype=int))

    def test_known_circular_delays_recovered_exactly(self):
        delays = np.array([7, 8, 9, 10, 11, 12, 13, 14])
        gs = ramp_matrix(64, delays)
        ref = delays[len(delays) // 2 - 1]
        assert np.array_equal(estimate_shifts(gs), delays - ref)

    def test_negative_and_wrapped_shifts(self):
        delays = np.array([60, 62, 0, 2, 4, 6, 8, 10])  # crosses the alias boundary
        gs = ramp_matrix(64, delays)
        got = estimate_shifts(gs)
        ref = delays[len(delays) // 2 - 1]
        want = (delays - ref + 32) % 64 - 32
        assert np.array_equal(got, want)

    def test_reference_scenario_matches_geometry_oracle(self, ref_run_300):
        """Estimated shifts track the exact centroid-range drift. The integer
        argmax of the five-scatterer envelope correlation flips to a
        cross-scatterer lobe at isolated symbols near half-cell crossings, so
        the raw shifts are checked at the 95% level; the regularized drift
        (what compensation actually uses) must match everywhere."""
        run = ref_run_300
        scen, derived, cfg = run["scenario"], run["derived"], run["cfg"]
        m_ref = reference_index(scen.m_s)
        center = np.array([cfg.traj.midpoint[0], cfg.traj.midpoint[1], cfg.traj.z_c])
        rc = np.array(
            [
                exact_range(
                    cfg.traj.bs_position,
                    center + cfg.traj.velocity * float(slow_time(scen, m)),
                )
                for m in range(scen.m_s)
            ]
        )
        drift_cells = 2 * (rc - rc[m_ref]) / C_LIGHT / derived.delta_tau
        raw_ok = np.abs(run["aligned"].raw_shifts - np.round(drift_cells)) <= 1
        assert raw_ok.mean() >= 0.95
        assert run["aligned"].raw_shifts[m_ref] == 0
        assert np.abs(run["aligned"].regularized_shifts - drift_cells).max() <= 1.0

    def test_global_scaling_invariance(self):
        delays = np.array([3, 4, 5, 6, 7, 8, 9, 10])
        gs = ramp_matrix(64, delays)
        assert np.array_equal(estimate_shifts(gs), estimate_shifts(gs * (3.0 - 4.0j)))

    def test_all_zero_column_rejected(self):
        gs = ramp_matrix(32, [0, 0, 0, 0])
        gs[:, 1] = 0.0
        with pytest.raises(DataError):
            estimate_shifts(gs)


class TestRegularizeShifts:
    def test_exact_quadratic_reproduced(self):
        j = np.arange(1, 41)
        true = 2.0 + 0.3 * j - 0.004 * j**2
        reg = regularize_shifts(true, k_s=256)
        assert np.abs(reg - true).max() < 1e-6

    def test_constant_shifts(self):
        reg = regularize_shifts(np.full(12, 7.0), k_s=64)
        assert np.allclose(reg, 7.0, atol=1e-9)

    def test_alias_boundary_unwrapped(self):
        k_s = 64
        j = np.arange(40)
        true = 20.0 + 0.8 * j  # drifts through +32 and wraps
        wrapped = (np.round(true) + k_s // 2) % k_s - k_s // 2
        reg = regularize_shifts(wrapped, k_s)
        assert np.abs(reg - np.round(true)).max() < 1.0  # continuity restored

    def test_quadratic_with_subcell_noise_stays_within_cell(self):
        rng = np.random.default_rng(0)
        j = np.arange(1, 101)
        true = -3.0 + 0.1 * j + 0.001 * j**2
        raw = np.round(true + rng.uniform(-0.4, 0.4, j.size))
        reg = regularize_shifts(raw, k_s=512)
        assert np.abs(reg - raw).max() < 1.0


class TestCompensateDelays:
    def test_zero_delays_identity(self):
        gs = ramp_matrix(32, [1, 2, 3, 4])
        assert np.array_equal(compensate_delays(gs, np.zeros(4), 30e3), gs.T)

    def test_forward_backward_inverse(self):
        rng = np.random.default_rng(1)
        gs = rng.standard_normal((32, 4)) + 1j * rng.standard_normal((32, 4))
        delays = rng.uniform(-1e-7, 1e-7, 4)
        back = compensate_delays(compensate_delays(gs, delays, 30e3).T, -delays, 30e3)
        assert np.abs(back.T - gs).max() < 1e-12

    def test_oracle_delays_align_profiles(self):
        # drifting single scatterer, compensated with true delays, peaks in one bin
        scen = ScenarioConfig(k=1024, m_s=16, n_ref=1)
        derived = derive(scen)
        tgt = target.ExtendedTarget(np.zeros((1, 3)), np.ones(1))
        traj = TrajectoryState(heading_deg=300.0, speed=200.0)  # exaggerated drift
        rng = np.random.default_rng(2)
        grid = frontend.qpsk_grid(derived.k_s, scen.m_s, rng)
        gs = frontend.sensing_matrix(
            tgt, traj, scen, derived, frontend.ideal_sector_gain(0.0, 40.0), grid, rng,
            noise=False,
        )
        m_ref = reference_index(scen.m_s)
        center = np.array([traj.midpoint[0], traj.midpoint[1], traj.z_c])
        rc = np.array(
            [
                exact_range(
                    traj.bs_position, center + traj.velocity * float(slow_time(scen, m))
                )
                for m in range(scen.m_s)
            ]
        )
        delays = 2 * (rc - rc[m_ref]) / C_LIGHT
        profiles = range_profiles(
            compensate_delays(gs, delays, scen.delta_f), derived.k_p, scen.delta_f
        )
        peaks = np.argmax(np.abs(profiles.s), axis=0)
        assert np.ptp(peaks) == 0


class TestRangeProfiles:
    def test_phase_ramp_peaks_at_range_bin(self):
        k_s, k_p = 1024, 2048
        r = 37.3 * C_LIGHT / (2 * k_p * 30e3)  # 37.3 padded bins
        k = np.arange(k_s)
        column = np.exp(-4j * np.pi * k * 30e3 * r / C_LIGHT)
        profiles = range_profiles(column[None, :], k_p, 30e3)
        assert np.argmax(np.abs(profiles.s[:, 0])) == 37
        assert profiles.axis[1] == pytest.approx(C_LIGHT / (2 * k_p * 30e3))

    def test_constant_column_peaks_at_zero(self):
        profiles = range_profiles(np.ones((2, 64), dtype=complex), 128, 30e3)
        assert np.argmax(np.abs(profiles.s[:, 0])) == 0

    def test_parseval_per_column(self):
        rng = np.random.default_rng(3)
        gamma = rng.standard_normal((64, 3)) + 1j * rng.standard_normal((64, 3))
        profiles = range_profiles(gamma.T, 128, 30e3)
        for col in range(3):
            lhs = np.sum(np.abs(profiles.s[:, col]) ** 2) / 128
            rhs = np.sum(np.abs(gamma[:, col]) ** 2)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_k_p_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            range_profiles(np.ones((2, 64), dtype=complex), 32, 30e3)


class TestSelectReferenceCells:
    def _profiles(self, s):
        return tmc.RangeProfileSet(s=s, axis=np.arange(s.shape[0], dtype=float))

    def test_static_scatterer_peak_selected(self):
        gs = ramp_matrix(64, np.full(8, 9))
        profiles = range_profiles(gs.T, 64, 30e3)
        cells = select_reference_cells(profiles, 1)
        assert np.argmax(np.abs(profiles.s[:, 0])) in cells

    def test_constant_cell_beats_fluctuating(self):
        m = np.arange(10)
        s = np.ones((4, 10), dtype=complex) * 1e-9
        s[1] = 5.0
        s[2] = 5.0 + 3.0 * np.cos(2 * np.pi * m / 10)
        cells = select_reference_cells(self._profiles(s), 1)
        assert cells[0] == 1

    def test_gate_excludes_empty_cells(self):
        # weak cell with tiny absolute variance must not be picked
        rng = np.random.default_rng(4)
        s = np.ones((6, 12), dtype=complex) * 0.001
        s[3] = 10.0 + 0.5 * rng.standard_normal(12)
        cells = select_reference_cells(self._profiles(s), 1, gate=0.1)
        assert cells[0] == 3

    def test_insufficient_cells_error(self):
        s = np.zeros((4, 6), dtype=complex)
        s[0] = 1.0
        with pytest.raises(DataError):
            select_reference_cells(self._profiles(s), 3)

    def test_reference_scenario_cells_on_target(self, ref_run_300):
        run = ref_run_300
        bins = run["snapshot"].ranges / run["derived"].range_bin_m
        lo, hi = bins.min() - 2, bins.max() + 2
        assert np.all((run["cells"] >= lo) & (run["cells"] <= hi))


class TestEstimateCpe:
    def _profiles(self, s):
        return tmc.RangeProfileSet(s=s, axis=np.arange(s.shape[0], dtype=float))

    def test_identical_histories(self):
        m = np.arange(20)
        history = 0.3 * m - 0.001 * m**2
        s = np.exp(1j * history)[None, :] * np.ones((5, 1))
        cpe = estimate_cpe(self._profiles(s), np.array([0, 2, 4]))
        assert np.allclose(cpe, history, atol=1e-9)

    def test_single_cell_collapses(self):
        m = np.arange(16)
        history = 0.2 * m
        s = np.zeros((3, 16), dtype=complex)
        s[1] = 2.0 * np.exp(1j * history)
        cpe = estimate_cpe(self._profiles(s), np.array([1]))
        assert np.allclose(cpe, history, atol=1e-9)

    def test_injected_translational_phase_recovered(self):
        # common phase of the quadratic displacement model plus per-cell
        # constants; motion mild enough that the phase is unwrap-recoverable
        scen = ScenarioConfig()
        derived = derive(scen)
        v0, a0 = 1.0, 5.0
        m = np.arange(scen.m_s)
        t = m * scen.t_sri
        phi0 = -4 * np.pi / derived.wavelength * (v0 * t + 0.5 * a0 * t**2)
        offsets = np.array([0.4, -1.1, 2.7])
        amps = np.array([2.0, 1.0, 3.0])
        s = amps[:, None] * np.exp(1j * (phi0[None, :] + offsets[:, None]))
        cpe = estimate_cpe(self._profiles(s), np.array([0, 1, 2]))
        residual = cpe - phi0
        assert np.ptp(residual) < 1e-6

    def test_zero_magnitude_rejected(self):
        s = np.ones((2, 8), dtype=complex)
        s[0, 3] = 0.0
        with pytest.raises(DataError):
            estimate_cpe(self._profiles(s), np.array([0]))


class TestApplyPhaseCorrection:
    def test_zero_cpe_identity(self):
        rng = np.random.default_rng(5)
        s = rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6))
        assert np.array_equal(apply_phase_correction(s, np.zeros(6)), s)

    def test_magnitude_preserved(self):
        rng = np.random.default_rng(6)
        s = rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6))
        out = apply_phase_correction(s, rng.uniform(-9, 9, 6))
        assert np.allclose(np.abs(out), np.abs(s), rtol=1e-12)

    def test_column_energy_preserved(self):
        rng = np.random.default_rng(7)
        s = rng.standard_normal((16, 5)) + 1j * rng.standard_normal((16, 5))
        out = apply_phase_correction(s, rng.uniform(-9, 9, 5))
        assert np.allclose(
            np.sum(np.abs(out) ** 2, axis=0), np.sum(np.abs(s) ** 2, axis=0),
            rtol=1e-12,
        )

    def test_dominant_cell_phase_linear_after_correction(self):
        """Noise-off pipeline at the gentle crossing geometry: the strongest
        reference cell's slow-time phase is linear to < 0.1 rad RMS."""
        run = run_pipeline({"heading_deg": 270.0, "speed": 10.0, "noise": "off"})
        corrected, cells = run["corrected"], run["cells"]
        env_mean = np.abs(corrected.s[cells]).mean(axis=1)
        dominant = cells[int(np.argmax(env_mean))]
        phase = np.unwrap(np.angle(corrected.s[dominant]))
        m = np.arange(phase.size)
        fit = np.polyfit(m, phase, 1)
        residual = phase - np.polyval(fit, m)
        assert np.sqrt(np.mean(residual**2)) < 0.1


    def test_transposed_view_gives_c_ordered_block(self):
        """Blocks of the (k_p, m_s) view range_profiles returns come back
        C-ordered and bit-equal to those of a C-ordered copy, so each row
        reaches the Doppler transform contiguous."""
        rng = np.random.default_rng(8)
        buf = rng.standard_normal((12, 65)) + 1j * rng.standard_normal((12, 65))
        s = buf[:, 64:0:-1].T
        cpe = rng.uniform(-9, 9, 12)
        for rows in (slice(3, 40), np.array([5, 1, 60]), slice(None)):
            out = apply_phase_correction(s[rows], cpe)
            assert out.flags.c_contiguous
            want = apply_phase_correction(np.ascontiguousarray(s[rows]), cpe)
            assert out.tobytes() == want.tobytes()


EPS = np.finfo(float).eps


@settings(max_examples=40, deadline=None)
@given(m_s=st.integers(2, 250).filter(lambda m: m % 16), k_p_log2=st.integers(3, 12),
       band=st.floats(0.05, 1.0), tone=st.floats(0.0, 1e3), seed=st.integers(0, 2**32 - 1))
@example(m_s=220, k_p_log2=12, band=1.0, tone=1e3, seed=0)
@example(m_s=3, k_p_log2=3, band=1.0, tone=1e3, seed=1)
def test_row_l1_bounds_every_corrected_row(m_s, k_p_log2, band, tone, seed):
    """The window bound of harness._windowed_image_metrics: row_l1, summed
    symbol by symbol over the symbol-major buffer, is within 4 m_s eps
    (relative) of sum_m |s[n, m]|, and row_l1 (1 + 4 m_s eps) is at least
    the peak of every phase-corrected image row. A tone whose phase the CPE
    cancels makes one row's peak its L1 norm, the tight case."""
    k_p = 2**k_p_log2
    k_s = max(1, round(band * k_p))
    rng = np.random.default_rng(seed)
    cpe = rng.uniform(-np.pi, np.pi, m_s)
    n0 = rng.integers(k_p)
    amp = rng.uniform(0.5, 2.0, m_s) * np.exp(1j * cpe)
    gamma = rng.standard_normal((m_s, k_s)) + 1j * rng.standard_normal((m_s, k_s))
    gamma += tone * amp[:, None] * np.exp(-2j * np.pi * n0 * np.arange(k_s) / k_p)
    profiles = tmc.range_profiles(gamma, k_p, 30e3)
    s, row_l1 = profiles.s, profiles.row_l1
    margin = 4 * m_s * EPS
    direct = np.abs(s).sum(axis=1)
    assert np.all(np.abs(row_l1 - direct) <= margin * direct)
    m_p = numerics.next_pow2(10 * m_s)
    for i in range(0, k_p, tmc.ROW_BLOCK):
        rows = slice(i, i + tmc.ROW_BLOCK)
        peak = imaging.form_image(apply_phase_correction(s[rows], cpe), m_p).max(axis=1)
        assert np.all(row_l1[rows] * (1 + margin) >= peak)


class TestDebugCsv:
    def test_columns_and_rows(self, tmp_path):
        delays = np.array([7, 8, 9, 10, 11, 12, 13, 14])
        _, result = align(ramp_matrix(64, delays), 30e3)
        path = tmp_path / "tmc.csv"
        tmc.write_debug_csv(str(path), result, cpe=np.linspace(0, 1, 8))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "m_s,q_raw,q_unwrapped,q_fitted,tau_s,cpe_rad"
        assert len(lines) == 9
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == str(result.raw_shifts[0])


class TestEndToEndAlignment:
    def test_scatterers_stay_within_one_range_cell(self, ref_run_300):
        """After alignment + correction, each scatterer's local peak stays
        within one range-resolution cell of its reference-time cell."""
        run = ref_run_300
        derived = run["derived"]
        env = np.abs(run["corrected"].s)
        cell_bins = derived.delta_r / derived.range_bin_m  # padded bins per cell
        for r in run["snapshot"].ranges:
            nominal = int(round(r / derived.range_bin_m))
            half = int(np.ceil(cell_bins))
            window = env[nominal - half : nominal + half + 1, :]
            peaks_m = (np.argmax(window, axis=0) - half) * derived.range_bin_m
            cells_idx = np.round((r + peaks_m) / derived.delta_r)
            ref_cell = np.round(r / derived.delta_r)
            assert np.abs(cells_idx - ref_cell).max() <= 1
