"""Trial orchestration: determinism, sweeps, CLI, config assembly."""

import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import run_pipeline
from ivasim import harness, scenario
from ivasim.errors import ConfigurationError, GeometryError
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

    def test_windowed_matches_full(self):
        raw = fast_raw()
        cfg = load_run_config(overrides=raw)
        cfg_full = dataclasses.replace(
            cfg, options=dataclasses.replace(cfg.options, image_mode="full")
        )
        win = run_trial(cfg, trial_seed(5, 0, 0))
        full = run_trial(cfg_full, trial_seed(5, 0, 0))
        assert win.ic == pytest.approx(full.ic, rel=1e-12)
        assert win.centroid_range_est == pytest.approx(
            full.centroid_range_est, rel=1e-12
        )

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
    """The uncertified branch, forced: exact threshold from row-block minima."""

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
        ic = float(np.linalg.norm(crop - mu) / (mu * np.sqrt(crop.size)))
        delta = scen.epsilon * (float(image.max()) - float(image.min()))
        weight_total = moment_total = 0.0
        for idx in range(s.shape[0]):
            mask = image[idx] >= delta
            if mask.any():
                w = float(image[idx][mask].sum())
                weight_total += w
                moment_total += w * float(profiles.axis[idx])
        return ic, moment_total / weight_total

    @pytest.mark.parametrize("noise", ["on", "off"])
    def test_forced_fallback_matches_all_rows(self, monkeypatch, noise):
        run = run_pipeline({"k": 2640, "m_s": 48, "noise": noise}, seed=2)
        args = (run["corrected"], run["derived"], run["scenario"], run["snapshot"],
                run["cfg"].options)
        calls = []

        def uncertified(*a):
            calls.append(a)
            return False

        monkeypatch.setattr(harness, "_certified", uncertified)
        tracemalloc.start()
        try:
            got = harness._windowed_image_metrics(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls, "certification was not consulted"
        assert got == self._all_rows_reference(*args)
        k_p, m_p = run["derived"].k_p, run["derived"].m_p
        assert peak < k_p * m_p * 8 / 4


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

    @pytest.mark.parametrize(
        "line, key", [("n_mc = 2.5", "n_mc"), ("speeds = 10 x", "speeds")]
    )
    def test_bad_sweep_value_names_file_and_line(self, tmp_path, capsys, line, key):
        sweep = tmp_path / "sweep.txt"
        sweep.write_text(f"rho_f = 1.0\n{line}\n")
        code = main(["--sweep", str(sweep), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{sweep}:2: bad value for {key!r}" in err
        with pytest.raises(ConfigurationError):
            load_sweep_spec(str(sweep))


class TestConfigValuesCheckedAtParse:
    """Every bad value ends at the line that holds it, before any trial runs."""

    CONFIG_CASES = [
        ("speed = fast", "speed"),
        ("cell_gate = abc", "cell_gate"),
        ("scatterers = 1 2 x 1", "scatterers"),
        ("heading_deg = nan", "heading_deg"),
        ("speed = inf", "speed"),
        ("beam = wide", "beam"),
    ]
    SWEEP_CONFIG_CASES = CONFIG_CASES + [("seed = fast", "seed"), ("z_c = nan", "z_c")]

    @pytest.fixture(autouse=True)
    def no_trials(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trial", forbidden)

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

    def test_header_digest_ignores_spelling(self, tmp_path):
        spec = SweepSpec(rho_f=(1.0,), speeds=(30.0,), headings=(300.0,), n_mc=1)
        headers = []
        for name, z_c in (("a", "1.6"), ("b", "1.60")):
            run_sweep(fast_raw(z_c=z_c), spec, master_seed=0, out_dir=str(tmp_path / name))
            headers.append((tmp_path / name / "rmse_vs_rhof.csv").read_text().splitlines()[0])
        assert headers[0] == headers[1]
