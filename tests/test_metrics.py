"""Contrast, thresholding, centroid estimation, and aggregation."""

import numpy as np
import pytest

from ivasim import imaging, metrics
from ivasim.errors import ConfigurationError, DataError
from ivasim.metrics import (
    MetricsReport,
    aggregate,
    centroid_range,
    image_contrast,
    make_crop_window,
    threshold_image,
)


def make_image(p, range_axis=None, crossrange_axis=None):
    p = np.asarray(p, dtype=float)
    k, m = p.shape
    return imaging.RangeDopplerImage(
        p=p,
        range_axis=np.arange(k, dtype=float) if range_axis is None else range_axis,
        doppler_axis=np.arange(m, dtype=float) - m // 2,
        crossrange_axis=(
            np.arange(m, dtype=float) - m // 2
            if crossrange_axis is None
            else crossrange_axis
        ),
    )


def full_window(image):
    return make_crop_window(
        image,
        center_range=float(image.range_axis.mean()),
        half_range=float(image.range_axis.max()),
        half_crossrange=float(np.abs(image.crossrange_axis).max()),
    )


class TestImageContrast:
    def test_constant_crop_zero(self):
        image = make_image(np.full((4, 4), 2.5))
        assert image_contrast(image, full_window(image)) == 0.0

    def test_hand_computed_value(self):
        image = make_image([[2.0, 0.0], [0.0, 0.0]])
        assert image_contrast(image, full_window(image)) == pytest.approx(np.sqrt(3.0))

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(0.1, 3.0, (6, 8))
        base = image_contrast(make_image(p), full_window(make_image(p)))
        scaled = image_contrast(make_image(7.5 * p), full_window(make_image(p)))
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_equals_std_over_mean(self):
        """Above BLAS's threading size (10,000 bins), the same value as the
        population std over the mean, to rounding."""
        p = np.random.default_rng(2).uniform(0.0, 2.0, (78, 683))
        image = make_image(p)
        assert image_contrast(image, full_window(image)) == pytest.approx(p.std() / p.mean(), rel=1e-13)

    def test_zero_mean_crop_rejected(self):
        image = make_image(np.zeros((3, 3)))
        with pytest.raises(DataError):
            image_contrast(image, full_window(image))

    def test_crop_restricts_region(self):
        p = np.zeros((10, 11))
        p[5, 5] = 1.0
        image = make_image(p)
        window = make_crop_window(image, 5.0, 1.0, 1.0)
        assert window.rows.tolist() == [4, 5, 6]
        crop = image.p[np.ix_(window.rows, window.cols)]
        assert crop.shape == (3, 3)

    def test_window_outside_image(self):
        image = make_image(np.ones((4, 4)))
        with pytest.raises(ConfigurationError):
            make_crop_window(image, 100.0, 1.0, 1.0)


class TestThreshold:
    def test_definition(self):
        image = make_image([[1.0, 0.31], [0.29, 0.0]])
        out = threshold_image(image, 0.3)
        assert np.array_equal(out.p, [[1.0, 0.31], [0.0, 0.0]])

    def test_constant_image_all_kept(self):
        image = make_image(np.full((3, 3), 4.0))
        out = threshold_image(image, 0.3)
        assert np.array_equal(out.p, np.full((3, 3), 4.0))

    def test_raw_values_kept(self):
        """delta = 0.3 * (5 - 0) = 1.5; survivors keep their raw values."""
        out = threshold_image(make_image([[5.0, 2.0], [1.0, 0.0]]), 0.3)
        assert np.array_equal(out.p, [[5.0, 2.0], [0.0, 0.0]])

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(0.0, 1.0, (12, 12))
        p[3, 4] = 2.0
        p[0, 0] = 0.0
        once = threshold_image(make_image(p), 0.3)
        twice = threshold_image(once, 0.3)
        assert np.array_equal(once.p, twice.p)

    def test_all_zero_rejected(self):
        with pytest.raises(DataError):
            threshold_image(make_image(np.zeros((2, 2))), 0.3)

    def test_mainlobe_support(self):
        """Thresholding a noiseless sinc-like response at 0.3 keeps only the
        mainlobe region around the peak (0.3 amplitude is below -10 dB)."""
        n = 256
        x = (np.arange(n) - 128) / 8.0
        response = np.abs(np.sinc(x))
        image = make_image(response[:, None] * np.ones((1, 3)))
        out = threshold_image(image, 0.3)
        kept_rows = np.flatnonzero(out.p.any(axis=1))
        # mainlobe: |x| < 1 -> rows 121..135; first sidelobe peaks at 0.217
        assert kept_rows.min() >= 121 and kept_rows.max() <= 135


class TestCentroidRange:
    def test_single_bin(self):
        p = np.zeros((5, 4))
        p[3, 1] = 0.7
        image = make_image(p, range_axis=np.linspace(10, 14, 5))
        assert centroid_range(image) == pytest.approx(13.0)

    def test_two_equal_bins(self):
        p = np.zeros((5, 4))
        p[1, 0] = 0.5
        p[3, 2] = 0.5
        image = make_image(p, range_axis=np.linspace(10, 14, 5))
        assert centroid_range(image) == pytest.approx(12.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        p = rng.uniform(0, 1, (6, 6))
        image = make_image(p)
        assert centroid_range(make_image(3.3 * p)) == pytest.approx(
            centroid_range(image), rel=1e-12
        )

    def test_empty_support_rejected(self):
        with pytest.raises(DataError):
            centroid_range(make_image(np.zeros((3, 3))))


class TestAggregate:
    def _report(self, ic, err, trial=0):
        return MetricsReport(
            trial=trial,
            seed_key=(0,),
            rho_f=1.0,
            speed=30.0,
            heading_deg=270.0,
            ic=ic,
            centroid_range_est=64.0 + err,
            truth_range=64.0,
        )

    def test_single_trial(self):
        ic_mean, rmse = aggregate([self._report(2.0, -0.25)])
        assert ic_mean == 2.0
        assert rmse == pytest.approx(0.25)

    def test_symmetric_errors(self):
        ic_mean, rmse = aggregate([self._report(1.0, 1.0), self._report(3.0, -1.0)])
        assert ic_mean == 2.0
        assert rmse == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            aggregate([])


class TestTrialsCsv:
    def test_format(self, tmp_path):
        path = tmp_path / "trials.csv"
        reports = [
            MetricsReport(
                trial=i,
                seed_key=(7, 0, i),
                rho_f=0.5,
                speed=20.0,
                heading_deg=300.0,
                ic=1.5 + i,
                centroid_range_est=64.4,
                truth_range=64.3,
            )
            for i in range(2)
        ]
        metrics.write_trials_csv(str(path), reports, "test header")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "# test header"
        assert lines[1].startswith("trial,seed_key,")
        assert len(lines) == 5  # comment, header, 2 trials, summary
        assert lines[2].split(",")[1] == "7:0:0"
        summary = lines[4].split(",")
        assert summary[0] == "summary"
        assert float(summary[5]) == pytest.approx(2.0)  # mean ic
        assert float(summary[7]) == pytest.approx(0.1, rel=1e-9)  # rmse
