"""Range-Doppler image formation with physical axis mapping.

Each range row of the phase-corrected profiles is zero-padded and transformed
over slow time; magnitudes are kept and the Doppler axis is circularly shifted
so zero Doppler sits at the center column. No amplitude window is applied, so
sidelobes are rectangular-window sidelobes. The cross-range axis maps Doppler
through the apparent rotation rate in the image plane. ``form_image`` works on
arrays of rows; the caller assembles the rows it keeps, with both axes, into a
``RangeDopplerImage``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import ConfigurationError, DataError, GeometryError
from .target import KinematicSnapshot


@dataclass(frozen=True)
class RangeDopplerImage:
    """Magnitude image with range rows and zero-centered Doppler columns."""

    p: np.ndarray                # (k_p, m_p) nonnegative magnitudes
    range_axis: np.ndarray       # (k_p,) m
    doppler_axis: np.ndarray     # (m_p,) Hz, zero at center column
    crossrange_axis: np.ndarray  # (m_p,) m


def doppler_axis(m_p: int, t_sri: float) -> np.ndarray:
    """Doppler frequency per image column, Hz: zero at the center column,
    bin spacing 1 / (m_p * t_sri)."""
    return (np.arange(m_p) - m_p // 2) / (m_p * t_sri)


def form_image(s: np.ndarray, m_p: int) -> np.ndarray:
    """Image rows of phase-corrected slow-time samples s (rows are range
    bins): the magnitude of each row's m_p-point transform (zero-padded), zero
    Doppler circularly shifted to the center column."""
    if m_p < 10 * s.shape[1]:
        raise ConfigurationError(f"m_p={m_p} below the 10x slow-time padding floor")
    return np.fft.fftshift(np.abs(numerics.fft(s, m_p, axis=1)), axes=1)


def crossrange_axis(
    doppler: np.ndarray, snapshot: KinematicSnapshot, wavelength: float
) -> np.ndarray:
    """Cross-range coordinate per Doppler column: u = lambda f_D / (2 w0 cos(phi)),
    with the centroid Doppler at zero after phase correction."""
    if snapshot.omega0 <= 0.0:
        raise GeometryError("cross-range axis undefined for a static target")
    return wavelength / (2.0 * snapshot.omega0 * math.cos(snapshot.phi)) * doppler


def export_csv(image: RangeDopplerImage, path: str, rows, cols) -> None:
    """CSV export of the window (rows, cols): first row carries the
    cross-range axis, first column the range axis."""
    with open(path, "w", encoding="utf-8") as fh:
        header = ",".join(f"{image.crossrange_axis[c]:.10g}" for c in cols)
        fh.write(f"range_m\\crossrange_m,{header}\n")
        for r in rows:
            values = ",".join(f"{v:.10g}" for v in image.p[r, cols])
            fh.write(f"{image.range_axis[r]:.10g},{values}\n")


def export_pgm(image: RangeDopplerImage, path: str, rows, cols) -> None:
    """16-bit binary portable graymap of the window (rows, cols): row = range
    bin, column = cross-range bin, linear amplitude mapped to full scale
    (big-endian per P5)."""
    window = image.p[np.ix_(rows, cols)]
    peak = window.max()
    if peak <= 0:
        raise DataError("cannot export an all-zero image window")
    scaled = np.round(window / peak * 65535.0).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{scaled.shape[1]} {scaled.shape[0]}\n65535\n".encode("ascii"))
        fh.write(scaled.tobytes(order="C"))
