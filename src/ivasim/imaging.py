"""Range-Doppler image formation with physical axis mapping.

Each range row of the phase-corrected profiles is zero-padded and transformed
over slow time; magnitudes are kept and the Doppler axis is circularly shifted
so zero Doppler sits at the center column. No amplitude window is applied, so
sidelobes are rectangular-window sidelobes. The cross-range axis maps Doppler
through the apparent rotation rate in the image plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import numerics
from .errors import ConfigurationError, DataError, GeometryError
from .target import KinematicSnapshot
from .tmc import ROW_BLOCK, RangeProfileSet


@dataclass(frozen=True)
class RangeDopplerImage:
    """Magnitude image with range rows and zero-centered Doppler columns."""

    p: np.ndarray                        # (k_p, m_p) nonnegative magnitudes
    range_axis: np.ndarray               # (k_p,) m
    doppler_axis: np.ndarray             # (m_p,) Hz, zero at center column
    crossrange_axis: np.ndarray | None = None  # (m_p,) m, set when motion known


def doppler_axis(m_p: int, t_sri: float) -> np.ndarray:
    """Doppler frequency per image column, Hz: zero at the center column,
    bin spacing 1 / (m_p * t_sri)."""
    return (np.arange(m_p) - m_p // 2) / (m_p * t_sri)


def doppler_rows(s: np.ndarray, m_p: int) -> np.ndarray:
    """Image rows of slow-time samples s: the magnitude of each row's m_p-point
    transform (zero-padded), zero Doppler circularly shifted to the center."""
    return np.fft.fftshift(np.abs(numerics.fft(s, m_p, axis=1)), axes=1)


def form_image(profiles: RangeProfileSet, m_p: int, t_sri: float) -> RangeDopplerImage:
    """Doppler-process phase-corrected profiles into a magnitude image, one
    block of rows at a time."""
    k_p, m_s = profiles.s.shape
    if m_p < 10 * m_s:
        raise ConfigurationError(f"m_p={m_p} below the 10x slow-time padding floor")
    p = np.empty((k_p, m_p), dtype=float)
    for start in range(0, k_p, ROW_BLOCK):
        p[start:start + ROW_BLOCK] = doppler_rows(profiles.s[start:start + ROW_BLOCK], m_p)
    return RangeDopplerImage(
        p=p, range_axis=profiles.axis.copy(), doppler_axis=doppler_axis(m_p, t_sri)
    )


def crossrange_axis(
    image: RangeDopplerImage, snapshot: KinematicSnapshot, wavelength: float
) -> np.ndarray:
    """Cross-range coordinate per Doppler column: u = lambda f_D / (2 w0 cos(phi)),
    with the centroid Doppler at zero after phase correction."""
    if snapshot.omega0 <= 0.0:
        raise GeometryError("cross-range axis undefined for a static target")
    scale = wavelength / (2.0 * snapshot.omega0 * math.cos(snapshot.phi))
    return scale * image.doppler_axis


def attach_crossrange(
    image: RangeDopplerImage, snapshot: KinematicSnapshot, wavelength: float
) -> RangeDopplerImage:
    return replace(image, crossrange_axis=crossrange_axis(image, snapshot, wavelength))


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
