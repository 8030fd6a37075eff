"""Deterministic numerical primitives shared by all processing stages.

Transforms are restricted to power-of-two sizes: every padded size used by the
processing chain (range padding, Doppler padding) is a power of two by
construction, and the restriction is enforced here so a bad size fails loudly
instead of silently changing bin spacing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Quadratic:
    """Coefficients of a0 + a1*j + a2*j**2 over a 1-based sample index j."""

    a0: float
    a1: float
    a2: float

    def evaluate(self, j: np.ndarray | float) -> np.ndarray | float:
        j = np.asarray(j, dtype=float)
        return self.a0 + self.a1 * j + self.a2 * j * j


def _check_pow2(n: int) -> int:
    n = int(n)
    if n < 1 or (n & (n - 1)) != 0:
        raise ConfigurationError(f"transform size must be a power of two, got {n}")
    return n


def _check_finite(x: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(x)):
        raise DataError(f"non-finite values in {what}")


def fft(x: np.ndarray, n: int, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """n-point DFT, X[j] = sum_i x[i] exp(-i 2 pi i j / n), zero-padding to n.

    n must be a power of two; input length along `axis` must not exceed n.
    With `out`, the result is written there (any strides) and `out` returned.
    """
    n = _check_pow2(n)
    x = np.asarray(x)
    if x.shape[axis] > n:
        raise ConfigurationError(
            f"input length {x.shape[axis]} exceeds transform size {n}"
        )
    _check_finite(x, "fft input")
    return np.fft.fft(x, n=n, axis=axis, out=out)


# exp(i a k) for k = j*B + b is exp(i a j B) * exp(i a b): two small tables.
RAMP_BLOCK = 128


def ramp_tables(rates: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tables of exp(i k rates) over k = 0..n-1 for rates of shape (..., m):
    lo (..., B, m) over k = 0..B-1 and hi (..., ceil(n/B), m) over k = 0, B,
    2B, ..., with B = RAMP_BLOCK; row k is hi[..., k // B, :] * lo[..., k % B, :]."""
    lo = np.exp(1j * (np.arange(RAMP_BLOCK)[:, None] * rates[..., None, :]))
    hi = np.exp(1j * (np.arange(0, n, RAMP_BLOCK)[:, None] * rates[..., None, :]))
    return lo, hi


def next_pow2(n: int) -> int:
    """Smallest power of two >= n."""
    if n < 1:
        raise ConfigurationError(f"next_pow2 needs a positive argument, got {n}")
    return 1 << (int(n) - 1).bit_length()


def unwrap_phase(phi: np.ndarray, axis: int = -1) -> np.ndarray:
    """Remove 2*pi discontinuities so adjacent differences lie in (-pi, pi].

    The first sample is kept as-is and every output sample differs from the
    corresponding input by an integer multiple of 2*pi.
    """
    phi = np.asarray(phi, dtype=float)
    _check_finite(phi, "phase sequence")
    if phi.shape[axis] < 2:
        return phi.copy()
    d = np.diff(phi, axis=axis)
    # k = ceil((d - pi) / 2pi) maps the adjusted difference d - 2pi*k into (-pi, pi]
    k = np.ceil((d - np.pi) / TWO_PI)
    adjusted = d - TWO_PI * k
    out = np.cumsum(adjusted, axis=axis)
    first = np.take(phi, [0], axis=axis)
    return np.concatenate([first, first + out], axis=axis)


def quadratic_ls_fit(samples: np.ndarray) -> Quadratic:
    """Least-squares quadratic over the 1-based index j = 1..M of `samples`.

    Minimizes sum_j (samples[j] - a0 - a1*j - a2*j^2)^2; solved through the
    QR-based lstsq rather than explicit normal equations for conditioning.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1:
        raise DataError("quadratic fit expects a 1-D sample sequence")
    m = samples.size
    if m < 3:
        raise DataError(f"quadratic fit needs at least 3 samples, got {m}")
    _check_finite(samples, "fit samples")
    j = np.arange(1, m + 1, dtype=float)
    basis = np.column_stack([np.ones(m), j, j * j])
    coef, *_ = np.linalg.lstsq(basis, samples, rcond=None)
    return Quadratic(a0=float(coef[0]), a1=float(coef[1]), a2=float(coef[2]))
