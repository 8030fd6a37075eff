"""Trial orchestration: determinism, sweeps, CLI, config assembly."""

import math
import subprocess
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import run_pipeline, whole_image
from ivasim import frontend, harness, imaging, metrics, scenario, target, tmc
from ivasim.errors import ConfigurationError, DataError, GeometryError
from ivasim.harness import (
    SweepSpec,
    load_run_config,
    load_sweep_spec,
    main,
    run_sweep,
    run_trial,
    trial_seed,
)

# small but complete scenario for sweep tests: full chain in ~10 ms per trial
FAST = {
    "k": "1024",
    "m_s": "16",
    "n_ref": "1",
    "beam": "ideal",
    "crop_half_range": "20",
    "crop_half_crossrange": "30",
}


def fast_raw(**extra):
    raw = dict(FAST)
    raw.update({k: str(v) for k, v in extra.items()})
    return raw


class TestRunConfig:
    def test_defaults(self):
        cfg = load_run_config()
        assert cfg.scenario.k == 13200
        assert cfg.traj.heading_deg == 270.0
        assert cfg.target.count == 5
        assert cfg.options.noise is True

    def test_scatterer_list_parsed(self):
        cfg = load_run_config(overrides={"scatterers": "1 0 0 2; 0 1 0 0.5"})
        assert cfg.target.count == 2
        assert np.allclose(cfg.target.rcs, [2.0, 0.5])

    def test_bad_scatterer_entry(self):
        with pytest.raises(ConfigurationError):
            load_run_config(overrides={"scatterers": "1 0 0"})

    def test_bool_parsing(self):
        assert load_run_config(overrides={"noise": "off"}).options.noise is False
        assert load_run_config(overrides={"noise": "true"}).options.noise is True
        with pytest.raises(ConfigurationError):
            load_run_config(overrides={"noise": "maybe"})

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigurationError):
            load_run_config(overrides={"bogus": 1})

    def test_each_value_read_once(self, monkeypatch):
        """Resolving a config reads its raw values in one pass."""
        calls, read = [], scenario.read_values

        def counted(raw, *args):
            calls.append(raw)
            return read(raw, *args)

        monkeypatch.setattr(scenario, "read_values", counted)
        raw = {"rho_f": "0.4", "heading_deg": "300", "scatterers": "1 0 0 2", "noise": "off"}
        cfg = harness.run_config_from_raw(raw)
        assert calls == [raw]
        assert (cfg.scenario.m_s, cfg.target.count, cfg.options.noise) == (200, 1, False)

    def test_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("rho_f = 0.4\nspeed = 20\nheading_deg = 300\nbeam = ideal\n")
        cfg = load_run_config(str(path))
        assert cfg.scenario.rho_f == 0.4
        assert cfg.scenario.m_s == 200  # heading-based default
        assert cfg.traj.speed == 20.0
        assert cfg.options.beam == "ideal"


class TestRunTrial:
    def test_deterministic(self):
        cfg = load_run_config(overrides=fast_raw())
        a = run_trial(cfg, trial_seed(3, 0, 0))
        b = run_trial(cfg, trial_seed(3, 0, 0))
        assert a == b

    def test_seed_changes_result(self):
        cfg = load_run_config(overrides=fast_raw())
        a = run_trial(cfg, trial_seed(3, 0, 0))
        b = run_trial(cfg, trial_seed(4, 0, 0))
        assert a.ic != b.ic

    def test_static_target_aborts(self):
        cfg = load_run_config(overrides=fast_raw(speed=0))
        with pytest.raises(GeometryError):
            run_trial(cfg, trial_seed(0, 0, 0))

    # FAST-sized scenarios on which the windowed evaluator must give the full
    # image's ic and r_hat bit for bit (both modes threshold the raw image)
    SCENARIOS = dict(
        seed=st.integers(0, 2**16),
        k=st.sampled_from([512, 768, 1024, 2048]),
        m_s=st.sampled_from([8, 12, 16, 24]),
        noise=st.booleans(),
        crop_half_range=st.floats(3.0, 30.0),
        crop_half_crossrange=st.floats(1.0, 40.0),
    )

    @staticmethod
    def _trial(mode, seed, **overrides):
        cfg = load_run_config(overrides=fast_raw(image_mode=mode, **overrides))
        return run_trial(cfg, trial_seed(seed, 0, 0))

    @settings(max_examples=100, deadline=None)
    @given(**SCENARIOS)
    def test_windowed_matches_full(self, seed, **overrides):
        win, full = (self._trial(mode, seed, **overrides) for mode in ("windowed", "full"))
        assert win.ic == full.ic
        assert win.centroid_range_est == full.centroid_range_est

    @settings(max_examples=50, deadline=None)
    @given(mode=st.sampled_from(["windowed", "full"]), **SCENARIOS)
    def test_lazy_correction_equals_eager(self, mode, seed, **overrides):
        """The trial, which corrects only the rows its image pass forms, gives
        the bits of the whole profiles corrected at once (``run_pipeline``
        calls apply_phase_correction on all k_p rows) and the whole image."""
        report = self._trial(mode, seed, **overrides)
        run = run_pipeline(fast_raw(image_mode=mode, **overrides), seed)
        reference = TestFullImageStream._whole_image_reference(run)
        assert (report.ic, report.centroid_range_est) == reference

    @settings(max_examples=10, deadline=None)
    @given(**SCENARIOS)
    def test_zero_mean_crop_rejected_in_both_modes(self, seed, **overrides):
        cfg = load_run_config(overrides=fast_raw(**overrides))
        r0 = target.centroid_kinematics(cfg.target, cfg.traj, cfg.scenario).r0

        def crop_zeroed(evaluate):
            # hands the evaluator profiles whose crop rows are all zero
            def zeroed(profiles, *args):
                s = profiles.s.copy()
                s[np.abs(profiles.axis - r0) <= cfg.options.crop_half_range] = 0.0
                return evaluate(tmc.RangeProfileSet(s, profiles.axis), *args)
            return zeroed

        with pytest.MonkeyPatch.context() as mp:
            for name in ("_windowed_image_metrics", "_full_image_metrics"):
                mp.setattr(harness, name, crop_zeroed(getattr(harness, name)))
            for mode in ("windowed", "full"):
                with pytest.raises(DataError, match="zero-mean crop"):
                    self._trial(mode, seed, **overrides)

    @pytest.mark.parametrize("mode", ["windowed", "full"])
    def test_crop_between_range_bins_rejected(self, mode):
        cfg = load_run_config(overrides=fast_raw(image_mode=mode, crop_half_range=1e-4))
        with pytest.raises(ConfigurationError, match="crop window does not intersect"):
            run_trial(cfg, trial_seed(0, 0, 0))

    def test_exports_written(self, tmp_path):
        cfg = load_run_config(overrides=fast_raw(noise="off"))
        image_path = tmp_path / "img.pgm"
        csv_path = tmp_path / "img.csv"
        gs_path = tmp_path / "gs.bin"
        tmc_path = tmp_path / "tmc.csv"
        run_trial(
            cfg,
            trial_seed(0, 0, 0),
            export_image_path=str(image_path),
            export_csv_path=str(csv_path),
            dump_gs_path=str(gs_path),
            dump_tmc_path=str(tmc_path),
        )
        assert image_path.read_bytes()[:2] == b"P5"
        assert csv_path.exists()
        assert gs_path.read_bytes()[:4] == b"IVAG"
        assert tmc_path.read_text().startswith("m_s,q_raw,")

    def test_one_profile_sized_array_at_a_time(self, monkeypatch):
        """A windowed k=2640, m_s=200 trial allocates under 1.5x the bytes of
        its (k_p, m_s) complex profiles from the end of the sensing matrix on:
        no corrected copy of the profiles, and no |profiles| array, is made."""
        build = frontend.sensing_matrix

        def then_trace(*args, **kwargs):
            out = build(*args, **kwargs)
            tracemalloc.start()
            return out

        monkeypatch.setattr(frontend, "sensing_matrix", then_trace)
        cfg = load_run_config(overrides={"k": 2640, "m_s": 200})
        assert cfg.options.image_mode == "windowed"
        profile_bytes = scenario.derive(cfg.scenario).k_p * cfg.scenario.m_s * 16
        try:
            run_trial(cfg, trial_seed(2, 0, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * profile_bytes


class TestSeedSplitting:
    def test_distinct_streams(self):
        seqs = {
            tuple(np.random.default_rng(trial_seed(1, p, t)).integers(0, 2**31, 4))
            for p in range(3)
            for t in range(3)
        }
        assert len(seqs) == 9

    def test_reproducible(self):
        a = np.random.default_rng(trial_seed(9, 2, 5)).integers(0, 2**31, 4)
        b = np.random.default_rng(trial_seed(9, 2, 5)).integers(0, 2**31, 4)
        assert np.array_equal(a, b)


class TestSweep:
    def test_single_point_csvs(self, tmp_path):
        spec = SweepSpec(rho_f=(1.0,), speeds=(30.0,), headings=(300.0,), n_mc=1)
        run_sweep(fast_raw(), spec, master_seed=0, out_dir=str(tmp_path))
        ic_lines = (tmp_path / "ic_mean_vs_rhof.csv").read_text().strip().splitlines()
        rmse_lines = (tmp_path / "rmse_vs_rhof.csv").read_text().strip().splitlines()
        assert len(ic_lines) == 3  # comment, header, one row
        assert len(rmse_lines) == 3
        assert ic_lines[2].startswith("1,30,1,0,")

    def test_header_revision_of_the_package_checkout(self, tmp_path, monkeypatch):
        """The header's git= field names the revision of the checkout holding
        the package, wherever the sweep is started."""
        package = Path(harness.__file__).parent
        try:
            rev = subprocess.run(["git", "-C", str(package), "rev-parse", "--short", "HEAD"],
                                 capture_output=True, text=True, timeout=5).stdout.strip()
        except OSError:
            rev = ""
        if not rev:
            pytest.skip("the package is not in a git checkout")
        monkeypatch.chdir(tmp_path)
        spec = SweepSpec(rho_f=(1.0,), speeds=(30.0,), headings=(300.0,), n_mc=1)
        run_sweep(fast_raw(), spec, master_seed=0, out_dir="out")
        header = (tmp_path / "out" / "ic_mean_vs_rhof.csv").read_text().splitlines()[0]
        assert header.endswith(f" git={rev}")

    def test_rerun_byte_identical(self, tmp_path):
        spec = SweepSpec(rho_f=(0.5, 1.0), speeds=(30.0,), headings=(300.0,), n_mc=2)
        run_sweep(fast_raw(), spec, master_seed=3, out_dir=str(tmp_path / "a"),
                  trials_csv=True)
        run_sweep(fast_raw(), spec, master_seed=3, out_dir=str(tmp_path / "b"),
                  trials_csv=True)
        for name in ("ic_mean_vs_rhof.csv", "rmse_vs_rhof.csv", "trials.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_worker_count_invariance(self, tmp_path):
        spec = SweepSpec(rho_f=(1.0,), speeds=(10.0, 30.0), headings=(300.0,), n_mc=2)
        run_sweep(fast_raw(), spec, master_seed=1, out_dir=str(tmp_path / "w1"), workers=1)
        run_sweep(fast_raw(), spec, master_seed=1, out_dir=str(tmp_path / "w2"), workers=2)
        for name in ("ic_mean_vs_rhof.csv", "rmse_vs_rhof.csv"):
            assert (tmp_path / "w1" / name).read_bytes() == (
                tmp_path / "w2" / name
            ).read_bytes()

    def test_failed_trials_excluded_and_counted(self, tmp_path, capsys):
        spec = SweepSpec(rho_f=(1.0,), speeds=(0.0,), headings=(300.0,), n_mc=2)
        summary = run_sweep(fast_raw(), spec, master_seed=0, out_dir=str(tmp_path))
        point = (300.0, 0.0, 1.0)
        assert summary[point]["n_failed"] == 2
        assert summary[point]["n_ok"] == 0
        rmse_row = (tmp_path / "rmse_vs_rhof.csv").read_text().strip().splitlines()[2]
        assert rmse_row.split(",")[3] == "0" and rmse_row.split(",")[4] == "2"

    @settings(max_examples=20, deadline=None)
    @given(heading=st.sampled_from([270.0, 300.0]), speed=st.floats(5.0, 40.0),
           rho=st.sampled_from([0.5, 1.0]))
    @example(heading=270.0, speed=30.000000000001, rho=1.0)
    def test_sweep_trial_equals_run_trial(self, heading, speed, rho):
        """A sweep job runs the trial of its point's exact values: its ic and
        r_hat equal those of run_trial on the same heading, speed and rho_f."""
        _, _, report, error = harness._sweep_worker((fast_raw(), 5, 0, (heading, speed, rho), 0))
        cfg = load_run_config(overrides=fast_raw(heading_deg=heading, speed=speed, rho_f=rho))
        single = run_trial(cfg, trial_seed(5, 0, 0))
        assert error is None
        assert (report.ic, report.centroid_range_est) == (single.ic, single.centroid_range_est)

    def test_ic_file_restricted_to_300(self, tmp_path):
        spec = SweepSpec(rho_f=(1.0,), speeds=(30.0,), headings=(270.0, 300.0), n_mc=1)
        run_sweep(fast_raw(), spec, master_seed=0, out_dir=str(tmp_path))
        ic_lines = (tmp_path / "ic_mean_vs_rhof.csv").read_text().strip().splitlines()
        assert len(ic_lines) == 3  # only the 300-degree point
        rmse_lines = (tmp_path / "rmse_vs_rhof.csv").read_text().strip().splitlines()
        assert len(rmse_lines) == 4  # both headings


class TestSweepSpecFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "sweep.txt"
        path.write_text("rho_f = 0.2, 0.6, 1.0\nspeeds = 10 30\nheadings = 300\nn_mc = 5\n")
        spec = load_sweep_spec(str(path))
        assert spec.rho_f == (0.2, 0.6, 1.0)
        assert spec.speeds == (10.0, 30.0)
        assert spec.headings == (300.0,)
        assert spec.n_mc == 5

    def test_defaults(self):
        spec = load_sweep_spec(None)
        assert spec.rho_f == harness.FULL_RHO_GRID
        assert spec.n_mc == 50

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "sweep.txt"
        path.write_text("bogus = 1\n")
        with pytest.raises(ConfigurationError):
            load_sweep_spec(str(path))


class TestCli:
    def _write_fast_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "\n".join(f"{k} = {v}" for k, v in fast_raw(noise="off").items()) + "\n"
        )
        return path

    def test_single_trial(self, tmp_path, capsys):
        cfg = self._write_fast_config(tmp_path)
        code = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "r_hat=" in out and "ic=" in out

    def test_single_trial_with_exports(self, tmp_path, capsys):
        cfg = self._write_fast_config(tmp_path)
        out_dir = tmp_path / "out"
        code = main(
            ["--config", str(cfg), "--out", str(out_dir), "--export-image", "--dump-gs"]
        )
        assert code == 0
        assert (out_dir / "image.pgm").exists()
        assert (out_dir / "image.csv").exists()
        assert (out_dir / "gs.bin").exists()

    def test_dump_tmc(self, tmp_path, capsys):
        """One diagnostics row per symbol (m_s = 16), every column filled."""
        cfg = self._write_fast_config(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out_dir), "--dump-tmc"]) == 0
        header, *rows = (out_dir / "tmc_debug.csv").read_text().splitlines()
        assert header == "m_s,q_raw,q_unwrapped,q_fitted,tau_s,cpe_rad"
        fields = [row.split(",") for row in rows]
        assert [f[0] for f in fields] == [str(m) for m in range(16)]
        assert all(len(f) == 6 and all(f) for f in fields)

    def test_sweep_mode(self, tmp_path, capsys):
        cfg = self._write_fast_config(tmp_path)
        sweep = tmp_path / "sweep.txt"
        sweep.write_text("rho_f = 1.0\nspeeds = 30\nheadings = 300\nn_mc = 2\n")
        out_dir = tmp_path / "out"
        code = main(
            [
                "--config", str(cfg), "--sweep", str(sweep),
                "--out", str(out_dir), "--workers", "1", "--seed", "0",
            ]
        )
        assert code == 0
        assert (out_dir / "ic_mean_vs_rhof.csv").exists()
        assert (out_dir / "rmse_vs_rhof.csv").exists()

    def test_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("rho_f = 9\n")
        assert main(["--config", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err


class TestWindowedFallback:
    """Certification refused at every block: the windowed pass goes on
    through every row, keeps no more rows than the floor allows, and gives
    the all-rows result."""

    @staticmethod
    def _all_rows_reference(profiles, derived, scen, snapshot, options):
        """The former fallback: every row transformed and stored, then the
        crop contrast and the centroid over rows in index order."""
        s = profiles.s
        image = np.fft.fftshift(np.abs(np.fft.fft(s, n=derived.m_p, axis=1)), axes=1)
        doppler = (np.arange(derived.m_p) - derived.m_p // 2) / (derived.m_p * scen.t_sri)
        u_axis = derived.wavelength / (
            2.0 * snapshot.omega0 * math.cos(snapshot.phi)
        ) * doppler
        crop_rows = np.flatnonzero(
            np.abs(profiles.axis - snapshot.r0) <= options.crop_half_range
        )
        crop_cols = np.flatnonzero(np.abs(u_axis) <= options.crop_half_crossrange)
        crop = image[crop_rows][:, crop_cols]
        mu = float(crop.mean())
        ic = float(np.sqrt(np.square(crop - mu).sum()) / (mu * np.sqrt(crop.size)))
        delta = scen.epsilon * (float(image.max()) - float(image.min()))
        weight_total = moment_total = 0.0
        for idx in range(s.shape[0]):
            mask = image[idx] >= delta
            if mask.any():
                w = float(image[idx][mask].sum())
                weight_total += w
                moment_total += w * float(profiles.axis[idx])
        return ic, moment_total / weight_total

    def _forced_fallback(self, run, trace=False):
        """Check that the windowed pass with certification refused forms every
        row and gives the all-rows (ic, r_hat); return its tracemalloc peak
        when ``trace``."""
        args = (run["derived"], run["scenario"], run["snapshot"], run["cfg"].options)
        form, formed = imaging.form_image, []

        def counted(s, m_p):
            formed.append(s.shape[0])
            return form(s, m_p)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "_certified", lambda *a: False)
            mp.setattr(imaging, "form_image", counted)
            if trace:
                tracemalloc.start()
            try:
                got = harness._windowed_image_metrics(run["profiles"], run["cpe"], *args)
                peak = tracemalloc.get_traced_memory()[1] if trace else None
            finally:
                tracemalloc.stop()
        assert sum(formed) == run["derived"].k_p
        assert got[2:] == self._all_rows_reference(run["corrected"], *args)
        return peak

    @settings(max_examples=30, deadline=None)
    @given(**TestRunTrial.SCENARIOS)
    def test_forced_fallback_equals_all_rows_property(self, seed, **overrides):
        self._forced_fallback(run_pipeline(fast_raw(**overrides), seed))

    @pytest.mark.parametrize("noise", ["on", "off"])
    def test_forced_fallback_matches_all_rows(self, noise):
        """The property at k=2640, where the pass also stays under a quarter
        of the image's bytes."""
        run = run_pipeline({"k": 2640, "m_s": 48, "noise": noise}, seed=2)
        k_p, m_p = run["derived"].k_p, run["derived"].m_p
        assert self._forced_fallback(run, trace=True) < k_p * m_p * 8 / 4


class TestFullImageStream:
    """Full mode streams the image in row blocks: the bits of the metrics
    taken over the whole image, without allocating it."""

    @staticmethod
    def _whole_image_reference(run):
        """Contrast and the thresholded centroid over the whole image."""
        image, snapshot, options = whole_image(run), run["snapshot"], run["cfg"].options
        window = metrics.make_crop_window(
            image, snapshot.r0, options.crop_half_range, options.crop_half_crossrange
        )
        ic = metrics.image_contrast(image, window)
        return ic, metrics.centroid_range(metrics.threshold_image(image, run["scenario"].epsilon))

    @staticmethod
    def _args(run):
        return (run["profiles"], run["cpe"], run["derived"], run["scenario"], run["snapshot"],
                run["cfg"].options)

    @classmethod
    def _streamed(cls, run):
        """(ic, r_hat) of the full-mode pass."""
        return harness._full_image_metrics(*cls._args(run))[2:]

    @staticmethod
    def _constant_rows(run, values):
        """The run with profiles whose image row n is constant at values[n]:
        each profile row holds one sample, at the first symbol, and with a
        zero common phase error, so they are their own corrected profiles."""
        s = np.zeros_like(run["corrected"].s)
        s[:, 0] = values
        profiles = replace(run["corrected"], s=s)
        return dict(run, profiles=profiles, corrected=profiles, cpe=np.zeros_like(run["cpe"]))

    @settings(max_examples=50, deadline=None)
    @given(**TestRunTrial.SCENARIOS)
    # the global-minimum row (2307) lies far outside the crop
    @example(seed=1, k=2048, m_s=16, noise=True, crop_half_range=3.0, crop_half_crossrange=4.0)
    def test_streamed_equals_whole_image(self, seed, **overrides):
        raw = fast_raw(image_mode="full", **overrides)
        report = run_trial(load_run_config(overrides=raw), trial_seed(seed, 0, 0))
        reference = self._whole_image_reference(run_pipeline(raw, seed))
        assert (report.ic, report.centroid_range_est) == reference

    def test_minimum_row_outside_crop_sets_threshold(self):
        """Crop rows at 1, the first row at 0.3, the last at 0.29, every other
        row 0. The zero rows sit below every floor, yet the image minimum among
        them sets the threshold 0.3, which the first row meets and the last
        misses; without it the threshold would be 0.3 * (1 - 0.29) and the last
        row would survive too."""
        run = run_pipeline(fast_raw(noise="off", crop_half_range=3.0), seed=1)
        in_crop = np.abs(run["corrected"].axis - run["snapshot"].r0) <= 3.0
        values = np.where(in_crop, 1.0, 0.0)
        values[0], values[-1] = 0.3, 0.29
        assert not in_crop[0] and not in_crop[-1]
        run = self._constant_rows(run, values)
        assert self._streamed(run) == self._whole_image_reference(run)

    def test_rows_that_fall_below_the_floor_are_released(self):
        """The crop rows, at 0.05, come first; the first 200 other rows, at
        0.1, then clear the floor 0.015 set by them and the zero rows. The
        last 10 rows, at 1, raise the floor to 0.15 and the 0.1 rows are let
        go. Kept at the end: the crop, the last 10 rows and one zero row for
        the minimum."""
        run = run_pipeline(fast_raw(noise="off", crop_half_range=3.0), seed=1)
        in_crop = np.abs(run["corrected"].axis - run["snapshot"].r0) <= 3.0
        values = np.zeros(in_crop.size)
        values[:200] = 0.1
        values[in_crop] = 0.05
        values[-10:] = 1.0
        assert not in_crop[-10:].any() and run["derived"].k_p > 2 * tmc.ROW_BLOCK
        run = self._constant_rows(run, values)
        image, _, ic, r_hat = harness._full_image_metrics(*self._args(run))
        assert (ic, r_hat) == self._whole_image_reference(run)
        assert image.p.shape[0] == in_crop.sum() + 10 + 1

    def test_all_zero_profiles_rejected_as_before(self):
        """Both modes reject all-zero profiles as the whole image does."""
        run = self._constant_rows(run_pipeline(fast_raw(noise="off"), seed=1), 0.0)
        windowed = harness._windowed_image_metrics
        for evaluate in (self._streamed, self._whole_image_reference,
                         lambda run: windowed(*self._args(run))):
            with pytest.raises(DataError, match="zero-mean crop"):
                evaluate(run)

    @pytest.mark.parametrize("noise", ["on", "off"])
    def test_metrics_step_peak_below_quarter_image(self, monkeypatch, noise):
        """At k=2640, m_s=200 the image is 8192 x 2048 float64, 128 MiB. The
        trial allocates under a quarter of that from the start of the image
        pass on, the phase correction of the rows it forms included."""
        stream = harness._full_image_metrics

        def traced(*args):
            tracemalloc.start()
            return stream(*args)

        monkeypatch.setattr(harness, "_full_image_metrics", traced)
        cfg = load_run_config(
            overrides={"k": 2640, "m_s": 200, "noise": noise, "image_mode": "full"}
        )
        derived = scenario.derive(cfg.scenario)
        assert (derived.k_p, derived.m_p) == (8192, 2048)
        try:
            run_trial(cfg, trial_seed(2, 0, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < derived.k_p * derived.m_p * 8 / 4


class TestCliRejectsBadInput:
    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one(self, tmp_path, capsys, workers):
        sweep = tmp_path / "sweep.txt"
        sweep.write_text("rho_f = 1.0\nspeeds = 30\nheadings = 300\nn_mc = 1\n")
        out_dir = tmp_path / "out"
        code = main(["--sweep", str(sweep), "--workers", workers, "--out", str(out_dir)])
        assert code == 1
        assert "--workers must be >= 1" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("workers", [None, "1", "2"], ids=["single", "sweep1", "sweep2"])
    def test_memory_refused_ends_in_error_line(self, tmp_path, capsys, workers):
        """k = 1e12 asks numpy for a QPSK grid of hundreds of TiB, more than
        the address space, so the request is refused before anything is
        allocated; the CLI prints an error line and exits 1."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rho_f = 0.2\nk = 1000000000000\n")
        argv = ["--config", str(cfg), "--out", str(tmp_path / "out")]
        if workers:
            sweep = tmp_path / "sweep.txt"
            sweep.write_text("rho_f = 0.2\nspeeds = 10\nheadings = 300\nn_mc = 1\n")
            argv += ["--sweep", str(sweep), "--workers", workers]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and "Traceback" not in err

    @pytest.mark.parametrize(
        "line, key", [("n_mc = 2.5", "n_mc"), ("speeds = 10 x", "speeds"),
                      ("rho_f = 1.5", "rho_f"), ("speeds = -5", "speeds")]
    )
    def test_bad_sweep_value_names_file_and_line(self, tmp_path, capsys, line, key):
        sweep = tmp_path / "sweep.txt"
        sweep.write_text(f"# one bad value on line 2\n{line}\n")
        code = main(["--sweep", str(sweep), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{sweep}:2: bad value for {key!r}" in err
        with pytest.raises(ConfigurationError):
            load_sweep_spec(str(sweep))


@pytest.fixture
def no_trials(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "run_trial", forbidden)


@pytest.mark.usefixtures("no_trials")
class TestConfigValuesCheckedAtParse:
    """Every bad value ends at the line that holds it, before any trial runs."""

    CONFIG_CASES = [
        ("speed = fast", "speed"),
        ("cell_gate = abc", "cell_gate"),
        ("scatterers = 1 2 x 1", "scatterers"),
        ("heading_deg = nan", "heading_deg"),
        ("speed = inf", "speed"),
        ("beam = wide", "beam"),
        ("scatterers = 1 0 0 -1", "scatterers"),
    ]
    SWEEP_CONFIG_CASES = CONFIG_CASES + [("seed = fast", "seed"), ("z_c = nan", "z_c")]

    @staticmethod
    def _check_cli(argv, path, key, capsys, out_dir):
        assert main(argv + ["--out", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert f"{path}:2: bad value for {key!r}" in err
        assert "Traceback" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("line, key", CONFIG_CASES)
    def test_single_trial(self, tmp_path, capsys, line, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"rho_f = 0.2\n{line}\n")
        self._check_cli(["--config", str(cfg)], cfg, key, capsys, tmp_path / "out")

    @pytest.mark.parametrize("line, key", SWEEP_CONFIG_CASES)
    def test_sweep_config(self, tmp_path, capsys, line, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"rho_f = 0.2\n{line}\n")
        sweep = tmp_path / "sweep.txt"
        sweep.write_text("rho_f = 0.2\nspeeds = 10\nheadings = 300\nn_mc = 1\n")
        argv = ["--config", str(cfg), "--sweep", str(sweep), "--workers", "1"]
        self._check_cli(argv, cfg, key, capsys, tmp_path / "out")

    def test_sweep_file(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.txt"
        sweep.write_text("rho_f = 0.2\nspeeds = 10 nan\n")
        argv = ["--sweep", str(sweep), "--workers", "1"]
        self._check_cli(argv, sweep, "speeds", capsys, tmp_path / "out")

    @pytest.mark.parametrize("line, key", SWEEP_CONFIG_CASES)
    def test_override(self, line, key):
        value = line.split("=", 1)[1].strip()
        with pytest.raises(ConfigurationError, match=f"bad value for {key!r}"):
            load_run_config(overrides={key: value})


@pytest.mark.usefixtures("no_trials")
class TestConfigsThatBreakDerive:
    """Values that would divide by zero or overflow in scenario.derive, crash
    a trial later (no array elements, a negative noise temperature or seed),
    or mean nothing (no symbols per frame, a frame too short for its sensing
    symbols, a negative cell gate, an empty crop), end in an error line and
    exit 1, before any trial runs."""

    LINES = ["f_c = 0", "t_f = 0", "p_t_dbm = 1e308", "noise_figure_db = 1e308",
             "n_t = 0", "n_r = 0", "t0 = -1", "seed = -3", "m = 0", "cell_gate = -1",
             "crop_half_range = -1", "crop_half_crossrange = 0", "t_f = 1e-4", "t_f = 1e-300",
             "k = 0", "delta_f = -30e3"]

    @staticmethod
    def _check_rejected(tmp_path, capsys, line, sweep, flags=()):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"rho_f = 0.2\n{line}\n")
        argv = ["--config", str(cfg), "--out", str(tmp_path / "out"), *flags]
        if sweep:
            spec = tmp_path / "sweep.txt"
            spec.write_text("rho_f = 0.2\nspeeds = 10\nheadings = 300\nn_mc = 1\n")
            argv += ["--sweep", str(spec), "--workers", "1"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and line.split()[0] in err
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("sweep", [False, True], ids=["single", "sweep"])
    @pytest.mark.parametrize("line", LINES)
    def test_rejected(self, tmp_path, capsys, line, sweep):
        self._check_rejected(tmp_path, capsys, line, sweep)

    @pytest.mark.parametrize("sweep", [False, True], ids=["single", "sweep"])
    def test_negative_band(self, tmp_path, capsys, sweep):
        """delta_f < 0 and k < 0 give a positive k * delta_f; each sign is
        checked on its own, so the error names delta_f."""
        err = self._check_rejected(tmp_path, capsys, "delta_f = -30e3\nk = -13200", sweep)
        assert err == "error: delta_f must be positive, got -30000.0\n"

    @pytest.mark.parametrize("sweep", [False, True], ids=["single", "sweep"])
    def test_negative_seed_flag(self, tmp_path, capsys, sweep):
        """--seed -1 overrides the valid seed of the config file."""
        self._check_rejected(tmp_path, capsys, "seed = 0", sweep, ["--seed", "-1"])


@pytest.mark.usefixtures("no_trials")
class TestGeometryThatOverflows:
    """Finite geometry values whose echo ranges, amplitudes or phases overflow
    float64, or whose radar-equation terms overflow so that the amplitudes
    are zero (f_c = 1e150), end in a GeometryError that names the key, before
    any trial runs and before numpy warns, in single mode and in sweeps. A
    sweep takes the speed from its own list, so there the speed is set in the
    sweep file."""

    @pytest.mark.parametrize("workers", [0, 1, 2], ids=["single", "sweep1", "sweep2"])
    @pytest.mark.parametrize("line", ["f_c = 1e-300", "bs_z = 1e300", "speed = 1e300",
                                      "f_c = 1e300", "f_c = 1e200", "f_c = 1e150",
                                      "g_t_dbi = 1e308", "g_r_dbi = 1e308"])
    def test_rejected(self, tmp_path, capsys, line, workers):
        key, _, value = line.split()
        in_spec = workers and key == "speed"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rho_f = 0.2\n" + ("" if in_spec else f"{line}\n"))
        argv = ["--config", str(cfg), "--out", str(tmp_path / "out")]
        if workers:
            spec = tmp_path / "sweep.txt"
            speeds = value if in_spec else "10"
            spec.write_text(f"rho_f = 0.2\nspeeds = {speeds}\nheadings = 300\nn_mc = 1\n")
            argv += ["--sweep", str(spec), "--workers", str(workers)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: echo geometry overflows") and key in err
        assert "Traceback" not in err and "RuntimeWarning" not in err


class TestDefaultConfig:
    DEFAULT_CFG = str(Path(__file__).parent.parent / "configs" / "default.cfg")

    def test_default_file_equals_empty_config(self):
        from_file, empty = load_run_config(self.DEFAULT_CFG), load_run_config()
        assert from_file.scenario == empty.scenario
        assert from_file.traj == empty.traj
        assert from_file.options == empty.options
        assert np.array_equal(from_file.target.scatterers, empty.target.scatterers)
        assert np.array_equal(from_file.target.rcs, empty.target.rcs)

    def test_config_digest_hashes_resolved_values(self):
        spec = SweepSpec(rho_f=(0.2,), speeds=(10.0,), headings=(270.0, 300.0), n_mc=1)

        def digest(raw):
            return harness._config_digest(raw, spec, 0)

        base = digest({})
        assert digest(scenario.parse_config_file(self.DEFAULT_CFG)) == base
        assert digest({"z_c": "1.6", "noise": "on"}) == digest({"z_c": "1.60", "noise": "yes"})
        assert digest({"z_c": "1.7"}) != base
        # at 300 deg the explicit 270-deg values differ from the heading default
        assert digest({"m_s": "220", "n_ref": "3"}) != base

    def test_config_digest_of_the_default_file_is_pinned(self):
        """The digest hashes the reprs of the resolved config types, so a
        change to their names, fields or values moves this pinned value."""
        spec = SweepSpec(rho_f=(0.2,), speeds=(10.0,), headings=(300.0,), n_mc=1)
        raw = scenario.parse_config_file(self.DEFAULT_CFG)
        assert harness._config_digest(raw, spec, 0) == "b56f0ad1de97"

    def test_header_digest_ignores_spelling(self, tmp_path):
        spec = SweepSpec(rho_f=(1.0,), speeds=(30.0,), headings=(300.0,), n_mc=1)
        headers = []
        for name, z_c in (("a", "1.6"), ("b", "1.60")):
            run_sweep(fast_raw(z_c=z_c), spec, master_seed=0, out_dir=str(tmp_path / name))
            headers.append((tmp_path / name / "rmse_vs_rhof.csv").read_text().splitlines()[0])
        assert headers[0] == headers[1]
