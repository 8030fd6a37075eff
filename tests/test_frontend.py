"""Signal synthesis: array responses, wide beams, channel gains, sensing matrix."""

import struct

import numpy as np
import pytest

from ivasim import frontend, scenario, target
from ivasim.errors import ConfigurationError, DataError, GeometryError, SynthesisError
from ivasim.frontend import (
    array_response,
    channel_gain,
    composite_gain,
    dump_sensing_matrix,
    ideal_sector_gain,
    qpsk_grid,
    sensing_matrix,
    synthesize_wide_beam,
)
from ivasim.scenario import ScenarioConfig, derive
from ivasim.target import ExtendedTarget, TrajectoryState, exact_range, reference_index


class TestArrayResponse:
    def test_broadside_all_ones(self):
        assert np.allclose(array_response(8, 0.0), np.ones(8))

    def test_two_element_endfire(self):
        got = array_response(2, np.pi / 2)
        assert np.allclose(got, [np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])

    def test_conjugate_symmetry(self):
        theta = 0.7
        assert np.allclose(array_response(10, -theta), np.conj(array_response(10, theta)))

    def test_vectorized(self):
        thetas = np.array([-0.3, 0.0, 0.4])
        got = array_response(4, thetas)
        assert got.shape == (4, 3)
        assert np.allclose(got[:, 1], np.ones(4))


class TestWideBeam:
    def test_sector_ripple_and_sidelobes(self):
        beam = synthesize_wide_beam(10, 30.0, 0.0, norm=1.0)
        theta = np.radians(np.linspace(-89.5, 89.5, 3581))
        pattern = np.abs(beam.pattern(theta))
        sector = np.abs(np.degrees(theta)) <= 15.0
        ripple = 20 * np.log10(pattern[sector].max() / pattern[sector].min())
        assert ripple <= 3.0
        # first sidelobe: local maxima beyond the transition skirt
        outside = np.abs(np.degrees(theta)) > 15.0 + np.degrees(0.75 * 0.2)
        local_max = np.zeros_like(pattern, dtype=bool)
        local_max[1:-1] = (pattern[1:-1] > pattern[:-2]) & (pattern[1:-1] > pattern[2:])
        sidelobes = pattern[local_max & outside]
        assert 20 * np.log10(sidelobes.max() / pattern[sector].max()) <= -10.0

    def test_norm_scaling(self):
        beam = synthesize_wide_beam(10, 30.0, 0.0, norm=7.5e-5)
        assert np.vdot(beam.w, beam.w).real == pytest.approx(7.5e-5, rel=1e-12)

    def test_single_element(self):
        beam = synthesize_wide_beam(1, 30.0, 0.0, norm=4.0)
        assert beam.w.shape == (1,)
        assert abs(beam.w[0]) == pytest.approx(2.0)
        theta = np.linspace(-1.2, 1.2, 41)
        assert np.allclose(np.abs(beam.pattern(theta)), 2.0)

    def test_symmetric_sector_even_pattern(self):
        beam = synthesize_wide_beam(10, 30.0, 0.0, norm=1.0)
        theta = np.linspace(0.0, 1.3, 57)
        assert np.allclose(
            np.abs(beam.pattern(theta)), np.abs(beam.pattern(-theta)), atol=1e-9
        )

    def test_pattern_of_an_azimuth_grid(self):
        """w^H a(theta) over an (L, m_s) grid, as the sensing matrix takes it,
        equals the explicit element sum to a few eps of its magnitude bound."""
        beam = synthesize_wide_beam(10, 30.0, 0.0, norm=3.0)
        theta = np.random.default_rng(1).uniform(-0.6, 0.6, (5, 220))
        a = array_response(10, theta)
        want = sum(np.conj(w) * a[p] for p, w in enumerate(beam.w))
        bound = 4 * 10 * np.finfo(float).eps * np.abs(beam.w).sum()
        got = beam.pattern(theta)
        assert got.shape == theta.shape and np.abs(got - want).max() <= bound
        assert abs(beam.pattern(0.25) - np.sum(np.conj(beam.w) * array_response(10, 0.25))) <= bound

    def test_infeasible_beamwidth(self):
        with pytest.raises(SynthesisError):
            synthesize_wide_beam(4, 5.0, 0.0, norm=1.0)  # 5 deg < 2/4 rad

    def test_ideal_gain_indicator(self):
        gain = ideal_sector_gain(0.0, 30.0)
        theta = np.radians(np.array([-20.0, -14.0, 0.0, 14.0, 20.0]))
        assert np.allclose(gain(theta), [0, 1, 1, 1, 0])


class TestChannelGain:
    def test_reference_value(self):
        # radar equation at R = 64.40 m, unit RCS, unit gains, 6.7 GHz
        assert channel_gain(64.40, 1.0, 6.7e9) == pytest.approx(2.4219e-7, rel=1e-3)

    def test_inverse_square_amplitude(self):
        assert channel_gain(100.0, 1.0, 6.7e9) / channel_gain(200.0, 1.0, 6.7e9) == (
            pytest.approx(4.0)
        )

    def test_sqrt_rcs_scaling(self):
        assert channel_gain(80.0, 4.0, 6.7e9) / channel_gain(80.0, 1.0, 6.7e9) == (
            pytest.approx(2.0)
        )

    def test_nonpositive_range(self):
        with pytest.raises(GeometryError):
            channel_gain(0.0, 1.0, 6.7e9)


class TestQpskGrid:
    def test_unit_modulus_exact(self):
        grid = qpsk_grid(64, 16, np.random.default_rng(0))
        assert grid.shape == (64, 16)
        assert np.all(np.abs(grid) == 1.0)
        assert set(np.unique(grid)) <= {1 + 0j, 1j, -1 + 0j, -1j}


def _single_scatterer_setup(seed=0, k=1024, m_s=16):
    scen = ScenarioConfig(k=k, m_s=m_s, n_ref=1)
    derived = derive(scen)
    tgt = ExtendedTarget(np.zeros((1, 3)), np.ones(1))
    traj = TrajectoryState(speed=0.0)
    rng = np.random.default_rng(seed)
    grid = qpsk_grid(derived.k_s, scen.m_s, rng)
    return scen, derived, tgt, traj, grid, rng


class TestSensingMatrix:
    def test_static_point_phase_ramp(self):
        scen, derived, tgt, traj, grid, rng = _single_scatterer_setup()
        gs = sensing_matrix(
            tgt, traj, scen, derived, ideal_sector_gain(0.0, 30.0), grid, rng, noise=False
        )
        # constant across slow time, geometric across subcarriers
        assert np.abs(gs - gs[:, :1]).max() < 1e-18
        r = exact_range(traj.bs_position, (60.0, 0.0, 1.6))
        ratio = np.exp(-4j * np.pi * scen.delta_f * r / scenario.C_LIGHT)
        assert np.allclose(gs[1:, 0] / gs[:-1, 0], ratio, atol=1e-12)
        assert np.abs(gs[0, 0]) == pytest.approx(
            channel_gain(r, 1.0, scen.f_c), rel=1e-12
        )

    def test_range_profile_peak_bin(self):
        scen, derived, tgt, traj, grid, rng = _single_scatterer_setup()
        gs = sensing_matrix(
            tgt, traj, scen, derived, ideal_sector_gain(0.0, 30.0), grid, rng, noise=False
        )
        # k_s-point profile with the zero-delay-at-bin-0 reindexing
        raw = np.fft.fft(gs[:, 0], derived.k_s)
        profile = np.abs(np.roll(raw[::-1], 1))
        r = exact_range(traj.bs_position, (60.0, 0.0, 1.6))
        expect = round(2 * r / scenario.C_LIGHT * derived.b_s) % derived.k_s
        assert np.argmax(profile) == expect

    def test_noise_only_variance(self):
        # target steered outside the ideal sector: pure reciprocal-filtered noise
        scen = ScenarioConfig(k=2048, m_s=50, n_ref=1)
        derived = derive(scen)
        tgt = ExtendedTarget(np.zeros((1, 3)), np.ones(1))
        traj = TrajectoryState(speed=0.0, midpoint=(0.0, 60.0))  # azimuth 90 deg
        rng = np.random.default_rng(5)
        grid = qpsk_grid(derived.k_s, scen.m_s, rng)
        gs = sensing_matrix(
            tgt, traj, scen, derived, ideal_sector_gain(0.0, 30.0), grid, rng, noise=True
        )
        assert gs.size >= 1e5
        sample_var = np.mean(np.abs(gs) ** 2)
        assert sample_var == pytest.approx(derived.sigma2, rel=0.05)

    def test_linearity(self):
        scen = ScenarioConfig(k=1024, m_s=16, n_ref=1)
        derived = derive(scen)
        traj = TrajectoryState(heading_deg=300.0, speed=20.0)
        rng = np.random.default_rng(2)
        grid = qpsk_grid(derived.k_s, scen.m_s, rng)
        gain = ideal_sector_gain(0.0, 30.0)
        phases = np.array([0.8, 4.1])
        both = ExtendedTarget(np.array([[2.5, 0, 0], [0, 1, 0]]), np.ones(2))
        one = ExtendedTarget(np.array([[2.5, 0, 0]]), np.ones(1))
        two = ExtendedTarget(np.array([[0, 1, 0]]), np.ones(1))
        gs_both = sensing_matrix(
            both, traj, scen, derived, gain, grid, rng, noise=False, scatter_phases=phases
        )
        gs_one = sensing_matrix(
            one, traj, scen, derived, gain, grid, rng, noise=False,
            scatter_phases=phases[:1],
        )
        gs_two = sensing_matrix(
            two, traj, scen, derived, gain, grid, rng, noise=False,
            scatter_phases=phases[1:],
        )
        assert np.abs(gs_both - (gs_one + gs_two)).max() < 1e-12

    def test_transmit_power_doubling(self):
        scen1 = ScenarioConfig(k=1024, m_s=16, n_ref=1)
        p2 = 10 * np.log10(2 * 10 ** (scen1.p_t_dbm / 10))
        scen2 = ScenarioConfig(k=1024, m_s=16, n_ref=1, p_t_dbm=p2)
        d1, d2 = derive(scen1), derive(scen2)
        tx1 = synthesize_wide_beam(scen1.n_t, 30.0, 0.0, norm=d1.p_avg)
        tx2 = synthesize_wide_beam(scen2.n_t, 30.0, 0.0, norm=d2.p_avg)
        assert np.vdot(tx2.w, tx2.w).real == pytest.approx(
            2 * np.vdot(tx1.w, tx1.w).real, rel=1e-9
        )
        rx = synthesize_wide_beam(scen1.n_r, 30.0, 0.0, norm=1.0)
        tgt = ExtendedTarget(np.zeros((1, 3)), np.ones(1))
        traj = TrajectoryState(speed=0.0)
        rng = np.random.default_rng(4)
        grid = qpsk_grid(d1.k_s, scen1.m_s, rng)
        phases = np.array([1.0])
        gs1 = sensing_matrix(
            tgt, traj, scen1, d1, composite_gain(tx1, rx), grid, rng,
            noise=False, scatter_phases=phases,
        )
        gs2 = sensing_matrix(
            tgt, traj, scen2, d2, composite_gain(tx2, rx), grid, rng,
            noise=False, scatter_phases=phases,
        )
        assert np.allclose(np.abs(gs2), np.sqrt(2) * np.abs(gs1), rtol=1e-9)

    def test_grid_shape_validated(self):
        scen, derived, tgt, traj, grid, rng = _single_scatterer_setup()
        with pytest.raises(ConfigurationError):
            sensing_matrix(
                tgt, traj, scen, derived, ideal_sector_gain(0.0, 30.0),
                grid[:, :-1], rng, noise=False,
            )


def load_sensing_matrix(path: str) -> np.ndarray:
    """Read a matrix written by frontend.dump_sensing_matrix, following the
    gs.bin format the README documents."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16 or header[:4] != frontend.GS_MAGIC:
            raise DataError(f"{path}: not a sensing-matrix dump")
        k_s, m_s, _ = struct.unpack("<III", header[4:])
        payload = np.frombuffer(fh.read(), dtype="<c16")
    if payload.size != k_s * m_s:
        raise DataError(f"{path}: truncated payload")
    return payload.reshape(k_s, m_s).astype(np.complex128)


class TestDumpFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        gs = rng.standard_normal((12, 5)) + 1j * rng.standard_normal((12, 5))
        path = tmp_path / "gs.bin"
        dump_sensing_matrix(str(path), gs)
        raw = path.read_bytes()
        assert raw[:4] == b"IVAG"
        assert len(raw) == 16 + 12 * 5 * 16
        back = load_sensing_matrix(str(path))
        assert np.array_equal(back, gs)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(DataError):
            load_sensing_matrix(str(path))
