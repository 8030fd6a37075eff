"""Image-quality and localization metrics.

Image contrast is the normalized standard deviation of the image over a crop
centered at the ground-truth target-centroid range. The centroid range comes
from the amplitude-thresholded, peak-normalized image as the intensity-weighted
mean of the range axis. Per-trial reports aggregate into mean contrast and the
RMSE of the centroid range.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, DataError
from .imaging import RangeDopplerImage


@dataclass(frozen=True)
class CropWindow:
    """Index bounds of the contrast region of interest."""

    rows: np.ndarray
    cols: np.ndarray


def make_crop_window(
    image: RangeDopplerImage,
    center_range: float,
    half_range: float,
    half_crossrange: float,
) -> CropWindow:
    """Resolve a physical crop (range x cross-range) into index sets."""
    if image.crossrange_axis is None:
        raise ConfigurationError("crop window needs a cross-range axis")
    rows = np.flatnonzero(np.abs(image.range_axis - center_range) <= half_range)
    cols = np.flatnonzero(np.abs(image.crossrange_axis) <= half_crossrange)
    if rows.size == 0 or cols.size == 0:
        raise ConfigurationError("crop window does not intersect the image")
    return CropWindow(rows=rows, cols=cols)


def image_contrast(image: RangeDopplerImage, window: CropWindow) -> float:
    """Normalized standard deviation of the cropped image."""
    crop = image.p[np.ix_(window.rows, window.cols)]
    mu = float(crop.mean())
    if mu == 0.0:
        raise DataError("contrast undefined: zero-mean crop")
    deviation = np.linalg.norm(crop - mu)
    return float(deviation / (mu * np.sqrt(crop.size)))


def threshold_image(image: RangeDopplerImage, epsilon: float) -> RangeDopplerImage:
    """Peak-normalize and zero every bin below the amplitude-span threshold
    delta = epsilon * (max - min) of the normalized image."""
    if not (0.0 < epsilon < 1.0):
        raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
    peak = float(image.p.max())
    if peak <= 0.0:
        raise DataError("threshold undefined for an all-zero image")
    normalized = image.p / peak
    delta = epsilon * (normalized.max() - normalized.min())
    return replace(image, p=np.where(normalized >= delta, normalized, 0.0))


def centroid_range(image: RangeDopplerImage) -> float:
    """Intensity-weighted centroid of the (thresholded) image along range."""
    weights = image.p.sum(axis=1)
    total = float(weights.sum())
    if total <= 0.0:
        raise DataError("no detection: empty thresholded support")
    return float(weights @ image.range_axis / total)


@dataclass(frozen=True)
class MetricsReport:
    """Per-trial metrics with the sweep coordinates that produced them."""

    trial: int
    seed_key: tuple
    rho_f: float
    speed: float
    heading_deg: float
    ic: float
    centroid_range_est: float
    truth_range: float

    @property
    def centroid_error(self) -> float:
        return self.centroid_range_est - self.truth_range


def aggregate(reports: Sequence[MetricsReport]) -> tuple[float, float]:
    """Mean image contrast and centroid-range RMSE over trials."""
    if len(reports) == 0:
        raise DataError("cannot aggregate zero trials")
    ic_mean = float(np.mean([r.ic for r in reports]))
    rmse = float(np.sqrt(np.mean([r.centroid_error**2 for r in reports])))
    return ic_mean, rmse


def write_trials_csv(path: str, reports: Iterable[MetricsReport], header: str) -> None:
    reports = list(reports)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\n")
        fh.write("trial,seed_key,rho_f,speed,heading_deg,ic,r_hat_m,error_m\n")
        for r in reports:
            seed_key = ":".join(str(v) for v in r.seed_key)
            fh.write(
                f"{r.trial},{seed_key},{r.rho_f:.10g},{r.speed:.10g},"
                f"{r.heading_deg:.10g},{r.ic:.10g},{r.centroid_range_est:.10g},"
                f"{r.centroid_error:.10g}\n"
            )
        if reports:
            ic_mean, rmse = aggregate(reports)
            fh.write(f"summary,,,,,{ic_mean:.10g},,{rmse:.10g}\n")
