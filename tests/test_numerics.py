"""Numerical primitives: FFT contract, phase unwrapping, quadratic fit."""

import numpy as np
import pytest

from ivasim.errors import ConfigurationError, DataError
from ivasim.numerics import RAMP_BLOCK, fft, next_pow2, quadratic_ls_fit, ramp_tables, unwrap_phase


def naive_dft(x, n):
    """O(n^2) reference DFT."""
    x = np.concatenate([x, np.zeros(n - len(x), dtype=complex)])
    j = np.arange(n)
    return np.array([np.sum(x * np.exp(-2j * np.pi * i * j / n)) for i in range(n)])


class TestFFT:
    def test_impulse(self):
        assert np.allclose(fft(np.array([1, 0, 0, 0]), 4), np.ones(4))

    def test_dc(self):
        assert np.allclose(fft(np.array([1, 1, 1, 1]), 4), [4, 0, 0, 0])

    def test_matches_naive_dft(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        got = fft(x, 16)
        want = naive_dft(x, 16)
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-10

    def test_zero_padding_matches_naive(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(11) + 1j * rng.standard_normal(11)
        assert np.allclose(fft(x, 32), naive_dft(x, 32), atol=1e-10)

    @pytest.mark.parametrize("n", [2, 64, 1024, 32768])
    def test_round_trip(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.abs(np.fft.ifft(fft(x, n), n) - x).max() < 1e-10

    def test_parseval(self):
        rng = np.random.default_rng(7)
        for n in (16, 256, 4096):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            lhs = np.sum(np.abs(x) ** 2)
            rhs = np.sum(np.abs(fft(x, n)) ** 2) / n
            assert abs(lhs - rhs) / lhs < 1e-9

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigurationError):
            fft(np.ones(3), 12)

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            fft(np.array([1.0, np.nan]), 4)

    def test_too_long_input_rejected(self):
        with pytest.raises(ConfigurationError):
            fft(np.ones(5), 4)

    def test_batched_axis(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
        batch = fft(x, 8, axis=1)
        for i in range(3):
            assert np.allclose(batch[i], fft(x[i], 8))


class TestNextPow2:
    def test_values(self):
        assert next_pow2(1) == 1
        assert next_pow2(2 * 13200) == 32768
        assert next_pow2(2048) == 2048
        assert next_pow2(2049) == 4096


class TestRampTables:
    def test_shapes_and_partial_last_block(self):
        rates = np.random.default_rng(5).uniform(-0.1, 0.1, (2, 3, 7))  # (..., m)
        n = 2 * RAMP_BLOCK + 80  # the last block holds 80 of its 128 rows
        lo, hi = ramp_tables(rates, n)
        assert lo.shape == (2, 3, RAMP_BLOCK, 7) and hi.shape == (2, 3, 3, 7)
        k = np.arange(n)
        rows = hi[..., k // RAMP_BLOCK, :] * lo[..., k % RAMP_BLOCK, :]
        assert np.allclose(rows, np.exp(1j * k[:, None] * rates[..., None, :]), rtol=0, atol=1e-13)
        assert np.array_equal(hi[..., 2, :], np.exp(1j * (2 * RAMP_BLOCK * rates)))

    def test_fewer_rows_than_one_block(self):
        lo, hi = ramp_tables(np.array([0.3, -0.2]), 40)
        assert lo.shape == (RAMP_BLOCK, 2) and hi.shape == (1, 2)
        assert np.array_equal(hi, np.ones((1, 2), dtype=complex))


class TestUnwrap:
    def test_already_smooth(self):
        assert np.allclose(unwrap_phase([0.0, 0.1, 0.2]), [0.0, 0.1, 0.2])

    def test_negative_jump(self):
        # jump of -6.0 < -pi corrected by +2*pi: -3.0 + 2*pi = 3.2831853
        got = unwrap_phase([0.0, 3.0, -3.0])
        assert np.allclose(got, [0.0, 3.0, 3.2831853], atol=1e-6)

    def test_alternating_wrap(self):
        got = unwrap_phase([3.1, -3.1, 3.1])
        assert np.allclose(got, [3.1, 3.1831853, 3.1], atol=1e-6)

    def test_output_mod_2pi_equals_input(self):
        rng = np.random.default_rng(0)
        phi = np.cumsum(rng.uniform(-4, 4, 100))
        out = unwrap_phase(phi)
        k = (out - phi) / (2 * np.pi)
        assert np.allclose(k, np.round(k), atol=1e-9)
        assert out[0] == phi[0]

    def test_adjacent_diffs_in_half_open_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            phi = rng.uniform(-10, 10, 50)
            d = np.diff(unwrap_phase(phi))
            assert np.all(d > -np.pi) and np.all(d <= np.pi)

    def test_exact_negative_pi_jump_maps_to_positive(self):
        d = np.diff(unwrap_phase([0.0, -np.pi]))
        assert d[0] == pytest.approx(np.pi)

    def test_suffix_offset_invariance(self):
        rng = np.random.default_rng(2)
        phi = rng.uniform(-3, 3, 40)
        shifted = phi.copy()
        shifted[25:] += 2 * np.pi
        assert np.allclose(unwrap_phase(phi), unwrap_phase(shifted), atol=1e-12)


class TestQuadraticFit:
    def test_exact_linear(self):
        j = np.arange(1, 21)
        fit = quadratic_ls_fit(2.0 + 0.5 * j)
        assert fit.a0 == pytest.approx(2.0, abs=1e-9)
        assert fit.a1 == pytest.approx(0.5, abs=1e-9)
        assert fit.a2 == pytest.approx(0.0, abs=1e-9)

    def test_exact_quadratic(self):
        j = np.arange(1, 31)
        fit = quadratic_ls_fit(1.0 - 0.1 * j + 0.02 * j**2)
        assert np.allclose([fit.a0, fit.a1, fit.a2], [1.0, -0.1, 0.02], atol=1e-9)

    def test_noisy_matches_normal_equations(self):
        rng = np.random.default_rng(11)
        m = 220
        j = np.arange(1, m + 1, dtype=float)
        samples = 3.0 + 0.02 * j - 1e-4 * j**2 + 0.3 * rng.standard_normal(m)
        fit = quadratic_ls_fit(samples)
        # independent oracle: explicit 3x3 normal equations
        basis = np.column_stack([np.ones(m), j, j * j])
        oracle = np.linalg.solve(basis.T @ basis, basis.T @ samples)
        assert np.allclose([fit.a0, fit.a1, fit.a2], oracle, atol=1e-8)

    def test_residual_orthogonal_to_basis(self):
        rng = np.random.default_rng(12)
        m = 50
        j = np.arange(1, m + 1, dtype=float)
        samples = rng.standard_normal(m)
        fit = quadratic_ls_fit(samples)
        residual = samples - fit.evaluate(j)
        for basis_vec in (np.ones(m), j, j * j):
            assert abs(residual @ basis_vec) / np.linalg.norm(basis_vec) < 1e-8

    def test_too_few_samples(self):
        with pytest.raises(DataError):
            quadratic_ls_fit(np.array([1.0, 2.0]))
