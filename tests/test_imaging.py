"""Range-Doppler image formation, axis mapping, and exports."""

import numpy as np
import pytest

from ivasim import frontend, target, tmc
from ivasim.errors import ConfigurationError, GeometryError
from ivasim.imaging import attach_crossrange, crossrange_axis, export_csv, export_pgm, form_image
from ivasim.scenario import ScenarioConfig, derive
from ivasim.target import ExtendedTarget, TrajectoryState, centroid_kinematics, default_vehicle

T_SRI = 1e-3


def make_profiles(s):
    return tmc.RangeProfileSet(
        s=np.asarray(s, dtype=complex),
        axis=np.arange(np.asarray(s).shape[0], dtype=float),
    )


def naive_dft_mag(x, n):
    j = np.arange(n)
    out = np.array([np.abs(np.sum(x * np.exp(-2j * np.pi * q * np.arange(len(x)) / n)))
                    for q in range(n)])
    return np.fft.fftshift(out)


class TestFormImage:
    def test_dc_row_peaks_at_center(self):
        m_s, m_p = 12, 128
        s = np.zeros((4, m_s), dtype=complex)
        s[2] = 3.0
        image = form_image(make_profiles(s), m_p, T_SRI)
        assert image.p.shape == (4, m_p)
        peak = np.unravel_index(np.argmax(image.p), image.p.shape)
        assert peak == (2, m_p // 2)
        assert image.p[2, m_p // 2] == pytest.approx(m_s * 3.0)
        assert image.doppler_axis[m_p // 2] == 0.0

    def test_tone_row_peaks_at_tone_frequency(self):
        m_s, m_p = 16, 256
        delta_fd = 1.0 / (m_s * T_SRI)
        m = np.arange(m_s)
        for j in (-3, 1, 5):
            f = j * delta_fd
            row = np.exp(2j * np.pi * f * m * T_SRI)
            image = form_image(make_profiles(row[None, :]), m_p, T_SRI)
            got_col = int(np.argmax(image.p[0]))
            want_col = int(np.argmin(np.abs(image.doppler_axis - f)))
            assert got_col == want_col
            # cross-check the whole row against a brute-force DFT
            assert np.allclose(image.p[0], naive_dft_mag(row, m_p), atol=1e-9)

    def test_all_zero_profiles(self):
        image = form_image(make_profiles(np.zeros((3, 8))), 128, T_SRI)
        assert not image.p.any()

    def test_energy_parseval(self):
        rng = np.random.default_rng(0)
        s = rng.standard_normal((6, 20)) + 1j * rng.standard_normal((6, 20))
        m_p = 256
        image = form_image(make_profiles(s), m_p, T_SRI)
        lhs = np.sum(image.p**2)
        rhs = m_p * np.sum(np.abs(s) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(1)
        s = rng.standard_normal((4, 10)) + 1j * rng.standard_normal((4, 10))
        base = form_image(make_profiles(s), 128, T_SRI)
        rotated = form_image(make_profiles(s * np.exp(1j * 1.234)), 128, T_SRI)
        assert np.allclose(base.p, rotated.p, rtol=1e-12)

    def test_padding_floor_enforced(self):
        with pytest.raises(ConfigurationError):
            form_image(make_profiles(np.ones((2, 16))), 64, T_SRI)  # 64 < 160


class TestCrossrangeAxis:
    def _snapshot(self, speed=30.0):
        scen = ScenarioConfig()
        traj = TrajectoryState(heading_deg=270.0, speed=speed)
        return scen, centroid_kinematics(default_vehicle(), traj, scen)

    def test_zero_doppler_maps_to_zero(self):
        scen, snap = self._snapshot()
        image = form_image(make_profiles(np.ones((2, 8))), 128, scen.t_sri)
        u = crossrange_axis(image, snap, derive(scen).wavelength)
        assert u[128 // 2] == 0.0

    def test_one_resolution_cell(self):
        # a Doppler offset of one resolution cell maps to one cross-range cell
        scen, snap = self._snapshot()
        derived = derive(scen)
        image = form_image(make_profiles(np.ones((2, scen.m_s))), derived.m_p, scen.t_sri)
        u = crossrange_axis(image, snap, derived.wavelength)
        du = target.cross_range_resolution(snap, derived)
        scale = u[1] - u[0]
        assert scale * derived.delta_fd * derived.m_p * scen.t_sri == pytest.approx(
            du, rel=1e-9
        )
        assert np.allclose(
            u, image.doppler_axis * du / derived.delta_fd, rtol=1e-9
        )

    def test_static_target_rejected(self):
        scen, _ = self._snapshot()
        snap = centroid_kinematics(
            default_vehicle(), TrajectoryState(speed=0.0), scen
        )
        image = form_image(make_profiles(np.ones((2, 8))), 128, scen.t_sri)
        with pytest.raises(GeometryError):
            crossrange_axis(image, snap, derive(scen).wavelength)


class TestMainlobeWidths:
    def test_single_scatterer_resolutions(self):
        """Noiseless point response: -3 dB widths near the range/cross-range
        resolutions (rectangular-window mainlobe, 30% margin)."""
        scen = ScenarioConfig(k=1024, m_s=64, n_ref=1)
        derived = derive(scen)
        tgt = ExtendedTarget(np.zeros((1, 3)), np.ones(1))
        traj = TrajectoryState(heading_deg=270.0, speed=30.0)
        snap = centroid_kinematics(tgt, traj, scen)
        rng = np.random.default_rng(3)
        grid = frontend.qpsk_grid(derived.k_s, scen.m_s, rng)
        gs = frontend.sensing_matrix(
            tgt, traj, scen, derived, frontend.ideal_sector_gain(0.0, 30.0), grid, rng,
            noise=False,
        )
        gamma, _ = tmc.align(gs, scen.delta_f)
        profiles = tmc.range_profiles(gamma, derived.k_p, scen.delta_f)
        cells = tmc.select_reference_cells(profiles, 1)
        corrected = tmc.apply_phase_correction(
            profiles, tmc.estimate_cpe(profiles, cells)
        )
        image = form_image(corrected, derived.m_p, scen.t_sri)

        def width_3db(values, axis_step):
            peak = values.max()
            above = np.flatnonzero(values >= peak / np.sqrt(2))
            return (above[-1] - above[0] + 1) * axis_step

        row, col = np.unravel_index(np.argmax(image.p), image.p.shape)
        range_width = width_3db(image.p[:, col], derived.range_bin_m)
        doppler_width = width_3db(image.p[row, :], 1.0 / (derived.m_p * scen.t_sri))
        crossrange_width = doppler_width * derived.wavelength / (
            2 * snap.omega0 * np.cos(snap.phi)
        )
        du = target.cross_range_resolution(snap, derived)
        # rectangular-window -3 dB mainlobe is 0.886x the resolution spacing
        assert range_width == pytest.approx(derived.delta_r, rel=0.3)
        assert crossrange_width == pytest.approx(du, rel=0.3)


class TestExports:
    def _image(self):
        s = np.zeros((8, 12), dtype=complex)
        s[3] = 2.0
        image = form_image(make_profiles(s), 128, T_SRI)
        scen = ScenarioConfig()
        snap = centroid_kinematics(
            default_vehicle(), TrajectoryState(heading_deg=270.0, speed=30.0), scen
        )
        return attach_crossrange(image, snap, derive(scen).wavelength)

    def test_pgm_format(self, tmp_path):
        image = self._image()
        path = tmp_path / "img.pgm"
        export_pgm(image, str(path), np.arange(8), np.arange(128))
        raw = path.read_bytes()
        header, rest = raw.split(b"\n", 1)
        assert header == b"P5"
        dims, rest = rest.split(b"\n", 1)
        w, h = (int(v) for v in dims.split())
        assert (w, h) == (128, 8)
        maxval, payload = rest.split(b"\n", 1)
        assert maxval == b"65535"
        data = np.frombuffer(payload, dtype=">u2").reshape(8, 128)
        assert data.max() == 65535
        assert data[3, 64] == 65535  # peak at zero Doppler row 3

    def test_pgm_window(self, tmp_path):
        image = self._image()
        path = tmp_path / "win.pgm"
        export_pgm(image, str(path), np.array([2, 3, 4]), np.arange(10, 20))
        raw = path.read_bytes()
        dims = raw.split(b"\n")[1]
        assert dims == b"10 3"

    def test_csv_round_trip(self, tmp_path):
        image = self._image()
        path = tmp_path / "img.csv"
        export_csv(image, str(path), np.arange(8), np.arange(128))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + 8
        header = lines[0].split(",")
        assert len(header) == 1 + 128
        assert np.allclose(
            [float(v) for v in header[1:]], image.crossrange_axis, rtol=1e-9
        )
        row3 = lines[4].split(",")
        assert float(row3[0]) == pytest.approx(image.range_axis[3])
        assert np.allclose([float(v) for v in row3[1:]], image.p[3], rtol=1e-9)
