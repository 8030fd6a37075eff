"""Translational motion compensation.

Range alignment estimates per-symbol integer range shifts by circularly
cross-correlating envelope range profiles against the mid-CPI reference
profile, regularizes them with an unwrap + quadratic least-squares fit, and
compensates the fitted delays with a phase ramp across subcarriers. Phase
adjustment then removes the common phase error estimated over the
minimum-variance reference range cells.

The alignment correlation runs at the native sensing-band size (generally not
a power of two); only the padded range/Doppler transforms go through the
power-of-two primitives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numerics
from .errors import ConfigurationError, DataError
from .scenario import C_LIGHT
from .target import reference_index

ROW_BLOCK = 256  # rows per block of a row-wise pass: 16 MiB of complex image bins at m_p = 4096


@dataclass(frozen=True)
class AlignmentResult:
    """Outcome of range alignment over one CPI.

    The compensated delays are re-anchored so the reference symbol's delay is
    exactly zero: raw shifts are measured relative to the reference profile
    (whose own shift is zero by construction), so the smoothed drift must pass
    through zero there too or a fit offset would displace the whole aligned
    range axis. delays = (regularized - regularized[ref]) * delta_tau.
    """

    raw_shifts: np.ndarray         # (m_s,) integer shifts, range cells
    unwrapped_shifts: np.ndarray   # (m_s,) raw shifts unwrapped through phase space, cells
    regularized_shifts: np.ndarray  # (m_s,) fitted shifts, range cells
    delays: np.ndarray             # (m_s,) compensated delays, s
    residual_rms: float            # RMS of (unwrapped - fitted) shifts, cells


@dataclass(frozen=True)
class RangeProfileSet:
    """Range profiles: rows are range bins, columns slow time. They carry no
    correction state: in a trial the image pass phase-corrects each block of
    rows of ``s`` it forms (``apply_phase_correction``).

    From ``range_profiles``, ``s`` is a (k_p, m_s) view of a symbol-major
    (m_s, k_p + 1) buffer: a profile row gathers one element per symbol."""

    s: np.ndarray                  # (k_p, m_s) complex
    axis: np.ndarray               # (k_p,) range per bin, m

    @cached_property
    def row_l1(self) -> np.ndarray:
        """(k_p,) slow-time L1 norm sum_m |s[n, m]| of every row, one symbol
        at a time along the rows of ``s.T[:, ::-1]`` (its column k_p - 1 - n
        is row n of s), so no full-size |s| array is made and every read runs
        forward through the symbol-major buffer."""
        forward = self.s.T[:, ::-1]
        acc, env = np.zeros(forward.shape[1]), np.empty(forward.shape[1])
        for symbol in forward:
            acc += np.abs(symbol, out=env)
        return acc[::-1]


def _signed_shift(index: np.ndarray, k_s: int) -> np.ndarray:
    half = k_s // 2
    return (index + half) % k_s - half


def estimate_shifts(gs: np.ndarray) -> np.ndarray:
    """Integer range shift of every symbol relative to the mid-CPI reference.

    Pipeline: FFT across subcarriers (time-reversed range profiles),
    element-wise modulus, IFFT, conjugate-reference multiply, IFFT; the
    per-symbol correlation argmax maps to a signed shift in
    [-k_s/2, k_s/2 - 1]. Ties pick the smallest-magnitude shift. The
    transforms run in place on one contiguous symbol-major copy of gs.
    """
    gs = np.asarray(gs)
    if gs.ndim != 2 or gs.shape[1] < 2:
        raise DataError("sensing matrix needs at least two slow-time columns")
    k_s, m_s = gs.shape
    if np.any(~np.any(gs != 0, axis=0)):
        raise DataError("all-zero slow-time column: correlation undefined")

    buf = np.array(gs.T, dtype=complex, order="C")  # (m_s, k_s), one row per symbol
    np.fft.fft(buf, axis=1, out=buf)
    np.abs(buf, out=buf)                            # envelopes, imaginary parts +0
    np.fft.ifft(buf, axis=1, out=buf)
    reference = np.conj(buf[reference_index(m_s)])
    np.multiply(buf, reference, out=buf)
    np.fft.ifft(buf, axis=1, out=buf)
    correlation = np.abs(buf)

    peak = np.argmax(correlation, axis=1)
    shifts = _signed_shift(peak, k_s)
    row_max = correlation[np.arange(m_s), peak]
    tie_rows = np.flatnonzero((correlation == row_max[:, None]).sum(axis=1) > 1)
    for row in tie_rows:
        cands = _signed_shift(np.flatnonzero(correlation[row] == row_max[row]), k_s)
        shifts[row] = min(cands, key=lambda q: (abs(q), q))
    return shifts.astype(int)


def regularize_shifts(raw_shifts: np.ndarray, k_s: int) -> np.ndarray:
    """Unwrap the shifts through phase space and fit a quadratic drift.

    Shifts map to phases 2*pi*q/k_s, get unwrapped to remove +-k_s/2 aliasing,
    map back to cells, and a quadratic least-squares fit over the 1-based
    symbol index returns the regularized drift evaluated at every symbol.
    """
    raw_shifts = np.asarray(raw_shifts, dtype=float)
    if raw_shifts.size < 3:
        raise DataError("need at least 3 symbols to regularize shifts")
    phase = 2.0 * np.pi * raw_shifts / k_s
    unwrapped_cells = k_s / (2.0 * np.pi) * numerics.unwrap_phase(phase)
    j = np.arange(1, raw_shifts.size + 1, dtype=float)
    return numerics.quadratic_ls_fit(unwrapped_cells).evaluate(j)


def compensate_delays(gs: np.ndarray, delays: np.ndarray, delta_f: float) -> np.ndarray:
    """Apply the per-symbol delay compensation phase ramp across subcarriers
    and return the grid symbol-major, (m_s, k_s):
    gamma[m, k] = gs[k, m] * exp(i 2 pi k delta_f tau[m]). The ramp comes from
    the two tables of ``numerics.ramp_tables``, one block of subcarriers at a
    time in a (RAMP_BLOCK, m_s) scratch block that is then written transposed;
    it is within a few ulp of the direct exp (checked in
    tests/test_bit_identity.py against an extended-precision reference).
    """
    gs = np.asarray(gs)
    delays = np.asarray(delays, dtype=float)
    if not np.all(np.isfinite(delays)):
        raise DataError("non-finite delays")
    k_s, m_s = gs.shape
    if delays.shape != (m_s,):
        raise ConfigurationError("one delay per slow-time column required")
    lo, hi = numerics.ramp_tables(2.0 * np.pi * delta_f * delays, k_s)
    gamma = np.empty((m_s, k_s), dtype=np.result_type(gs, 1j))
    scratch = np.empty((numerics.RAMP_BLOCK, m_s), dtype=gamma.dtype)
    for j, top in enumerate(hi):
        rows = slice(j * numerics.RAMP_BLOCK, (j + 1) * numerics.RAMP_BLOCK)
        block = gs[rows]
        out = scratch[: block.shape[0]]
        np.multiply(top, lo[: out.shape[0]], out=out)
        np.multiply(out, block, out=out)
        gamma[:, rows] = out.T
    return gamma


def align(gs: np.ndarray, delta_f: float) -> tuple[np.ndarray, AlignmentResult]:
    """Full range alignment: estimate, regularize, and compensate. Returns the
    symbol-major (m_s, k_s) delay-compensated grid gamma and the per-symbol
    outcome."""
    k_s = gs.shape[0]
    raw = estimate_shifts(gs)
    regularized = regularize_shifts(raw, k_s)
    delta_tau = 1.0 / (k_s * delta_f)
    delays = (regularized - regularized[reference_index(gs.shape[1])]) * delta_tau
    gamma = compensate_delays(gs, delays, delta_f)
    phase = 2.0 * np.pi * raw / k_s
    unwrapped_cells = k_s / (2.0 * np.pi) * numerics.unwrap_phase(phase)
    residual = unwrapped_cells - regularized
    return gamma, AlignmentResult(
        raw_shifts=raw,
        unwrapped_shifts=unwrapped_cells,
        regularized_shifts=regularized,
        delays=delays,
        residual_rms=float(np.sqrt(np.mean(residual**2))),
    )


def range_profiles(gamma: np.ndarray, k_p: int, delta_f: float) -> RangeProfileSet:
    """Zero-padded range profiles with an increasing range axis, from the
    symbol-major (m_s, k_s) grid gamma.

    k_p-point FFT across subcarriers, along the contiguous symbol-major axis;
    the result is time-reversed and circularly offset, so a one-bin rotation
    plus a flip places zero delay at bin 0 with range increasing. Writing the
    transform into buf[:, :k_p], setting buf[:, k_p] = buf[:, 0] and reading
    s = buf[:, k_p:0:-1].T does both: s is the (k_p, m_s) profiles, rows
    range bins.
    """
    gamma = np.asarray(gamma)
    m_s, k_s = gamma.shape
    if k_p < k_s:
        raise ConfigurationError(f"k_p={k_p} smaller than the sensing band {k_s}")
    buf = np.empty((m_s, k_p + 1), dtype=complex)
    numerics.fft(gamma, k_p, axis=1, out=buf[:, :k_p])
    buf[:, k_p] = buf[:, 0]
    range_bin = C_LIGHT / (2.0 * k_p * delta_f)
    return RangeProfileSet(s=buf[:, k_p:0:-1].T, axis=np.arange(k_p) * range_bin)


def write_debug_csv(path: str, result: AlignmentResult, cpe: np.ndarray) -> None:
    """Per-symbol alignment diagnostics from ``result``: raw shift, unwrapped
    shift, fitted shift, compensated delay, and the estimated common phase."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("m_s,q_raw,q_unwrapped,q_fitted,tau_s,cpe_rad\n")
        for m in range(result.raw_shifts.size):
            fh.write(
                f"{m},{result.raw_shifts[m]},{result.unwrapped_shifts[m]:.10g},"
                f"{result.regularized_shifts[m]:.10g},{result.delays[m]:.10g},{cpe[m]:.10g}\n"
            )


def select_reference_cells(
    profiles: RangeProfileSet, n_ref: int, gate: float = 0.1
) -> np.ndarray:
    """Indices of the n_ref lowest normalized-variance range cells.

    Cells must pass an energy gate (mean envelope above `gate` of the peak mean
    envelope) so empty noise-only cells, whose absolute variance is small, are
    never selected. Returned in ascending variance order. The mean envelopes
    come from the cached row sums; only the eligible rows' envelopes are made.
    """
    if n_ref < 1:
        raise ConfigurationError(f"n_ref must be >= 1, got {n_ref}")
    mean_env = profiles.row_l1 / profiles.s.shape[1]
    eligible = np.flatnonzero(mean_env > gate * mean_env.max())
    if eligible.size < n_ref:
        raise DataError(
            f"only {eligible.size} cells pass the energy gate, need {n_ref}"
        )
    norm_var = np.abs(profiles.s[eligible]).var(axis=1) / mean_env[eligible] ** 2
    order = np.lexsort((eligible, norm_var))
    return eligible[order[:n_ref]]


def estimate_cpe(profiles: RangeProfileSet, cells: np.ndarray) -> np.ndarray:
    """Common phase error per symbol, averaged over the reference cells.

    Each cell's phase history is referenced to the first selected cell,
    unwrapped along slow time, averaged, and the (unwrapped) first-cell history
    is added back.
    """
    cells = np.asarray(cells, dtype=int)
    if cells.size == 0:
        raise ConfigurationError("need at least one reference cell")
    selected = profiles.s[cells, :]
    if np.any(np.abs(selected) == 0):
        raise DataError("zero-magnitude sample in a reference cell: phase undefined")
    phases = np.angle(selected)
    ref = phases[0]
    diffs = numerics.unwrap_phase(phases - ref[None, :], axis=1)
    return diffs.mean(axis=0) + numerics.unwrap_phase(ref)


def apply_phase_correction(s: np.ndarray, cpe: np.ndarray) -> np.ndarray:
    """Element-wise phase correction s[n, m] * exp(-i cpe[m]) of profile rows
    s, returned C-ordered whatever the layout of s, so the rows reach the
    Doppler transform contiguous."""
    cpe = np.asarray(cpe, dtype=float)
    if cpe.shape != (s.shape[1],):
        raise ConfigurationError("one phase-correction value per symbol required")
    return np.multiply(s, np.exp(-1j * cpe)[None, :], out=np.empty(s.shape, dtype=complex))
