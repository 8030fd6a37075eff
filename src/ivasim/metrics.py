"""Image-quality and localization metrics.

Image contrast is the normalized standard deviation of the image over a crop
centered at the ground-truth target-centroid range. The centroid range comes
from the amplitude-thresholded image as the intensity-weighted mean of the
range axis; the threshold is a fraction of the image's amplitude span, so
scaling the image changes only rounding. Per-trial reports aggregate into
mean contrast and the RMSE of the centroid range.
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


def crop_rows(axis: np.ndarray, center: float, half: float) -> np.ndarray:
    """Indices of the bins of ``axis`` within ``half`` of ``center``: the
    contrast crop's rows, contiguous on a sorted range axis."""
    rows = np.flatnonzero(np.abs(axis - center) <= half)
    if rows.size == 0:
        raise ConfigurationError("crop window does not intersect the image")
    return rows


def make_crop_window(
    image: RangeDopplerImage,
    center_range: float,
    half_range: float,
    half_crossrange: float,
) -> CropWindow:
    """Resolve a physical crop (range x cross-range) into index sets."""
    rows = crop_rows(image.range_axis, center_range, half_range)
    cols = np.flatnonzero(np.abs(image.crossrange_axis) <= half_crossrange)
    if cols.size == 0:
        raise ConfigurationError("crop window does not intersect the image")
    return CropWindow(rows=rows, cols=cols)


def image_contrast(image: RangeDopplerImage, window: CropWindow) -> float:
    """Normalized standard deviation of the cropped image."""
    crop = image.p[window.rows][:, window.cols]
    mu = float(crop.mean())
    if mu == 0.0:
        raise DataError("contrast undefined: zero-mean crop")
    deviation = np.sqrt(np.square(crop - mu).sum())
    return float(deviation / (mu * np.sqrt(crop.size)))


def threshold_image(image: RangeDopplerImage, epsilon: float) -> RangeDopplerImage:
    """Zero every bin below the amplitude-span threshold
    delta = epsilon * (max - min) of the image."""
    if not (0.0 < epsilon < 1.0):
        raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
    peak = float(image.p.max())
    if peak <= 0.0:
        raise DataError("threshold undefined for an all-zero image")
    delta = epsilon * (peak - float(image.p.min()))
    return replace(image, p=np.where(image.p >= delta, image.p, 0.0))


def centroid_range(image: RangeDopplerImage) -> float:
    """Intensity-weighted centroid of the (thresholded) image along range.

    Row weights are summed over the nonzero bins only and accumulated in
    row-index order, so an image holding a subset of the rows gives the same
    bits as the full image whenever the omitted rows are all zero.
    """
    weight_total = moment_total = 0.0
    for idx in np.flatnonzero(image.p.any(axis=1)):
        row = image.p[idx]
        w = float(row[row != 0].sum())
        weight_total += w
        moment_total += w * float(image.range_axis[idx])
    if weight_total <= 0.0:
        raise DataError("no detection: empty thresholded support")
    return moment_total / weight_total


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


def write_table(path: str, header: str, columns: Sequence[str], rows: Iterable) -> None:
    """CSV result table: a '# header' comment line, the column names, then one
    line per row with floats printed as .10g and anything else with str."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(
                ",".join(f"{v:.10g}" if isinstance(v, float) else str(v) for v in row) + "\n"
            )


def write_trials_csv(path: str, reports: Iterable[MetricsReport], header: str) -> None:
    reports = list(reports)
    rows = [
        (r.trial, ":".join(str(v) for v in r.seed_key), r.rho_f, r.speed, r.heading_deg,
         r.ic, r.centroid_range_est, r.centroid_error)
        for r in reports
    ]
    if reports:
        ic_mean, rmse = aggregate(reports)
        rows.append(("summary", "", "", "", "", ic_mean, "", rmse))
    columns = ("trial", "seed_key", "rho_f", "speed", "heading_deg", "ic", "r_hat_m", "error_m")
    write_table(path, header, columns, rows)
