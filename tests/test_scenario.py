"""Configuration and derived-parameter checks against the reference setup."""

import numpy as np
import pytest

from ivasim import scenario
from ivasim.errors import ConfigurationError
from ivasim.scenario import ScenarioConfig, derive


def load_config(path: str) -> ScenarioConfig:
    """The scenario part of a config file, resolved."""
    return scenario.scenario_from_raw(scenario.parse_config_file(path)).scenario


class TestDerive:
    def test_full_band(self):
        d = derive(ScenarioConfig())
        assert d.b_s == pytest.approx(396e6)
        assert d.delta_r == pytest.approx(0.3785, abs=1e-4)
        assert d.k_s == 13200

    def test_one_fifth_band(self):
        d = derive(ScenarioConfig(rho_f=0.2))
        assert d.k_s == 2640
        assert d.delta_r == pytest.approx(1.8926, abs=1e-4)

    def test_frame_time_fraction(self):
        d = derive(ScenarioConfig())
        assert d.t_s == pytest.approx(35.7e-6, rel=1e-12)
        assert d.n_s == 28
        assert d.rho_t == pytest.approx(0.0357, abs=1e-6)

    def test_padded_sizes(self):
        assert derive(ScenarioConfig(rho_f=1.0)).k_p == 32768
        assert derive(ScenarioConfig(m_s=200)).m_p == 2048
        assert derive(ScenarioConfig(m_s=220)).m_p == 4096

    def test_noise_variance(self):
        d = derive(ScenarioConfig())
        expect = 1.38e-23 * 290.0 * 10 ** 0.5 * 30e3
        assert d.sigma2 == pytest.approx(expect, rel=1e-12)

    def test_power_and_cpi(self):
        d = derive(ScenarioConfig())
        assert d.p_avg == pytest.approx(1.0 / 13200)
        assert d.t_cpi == pytest.approx(0.22)
        assert d.delta_fd == pytest.approx(1.0 / 0.22)

    def test_range_bin_spacing(self):
        d = derive(ScenarioConfig())
        assert d.range_bin_m == pytest.approx(scenario.C_LIGHT / (2 * 32768 * 30e3))

    def test_deterministic(self):
        assert derive(ScenarioConfig()) == derive(ScenarioConfig())

    def test_delta_r_monotone_in_rho_f(self):
        values = [
            derive(ScenarioConfig(rho_f=r)).delta_r for r in np.linspace(0.2, 1.0, 9)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rho_t_independent_of_rho_f(self):
        assert derive(ScenarioConfig(rho_f=0.2)).rho_t == derive(ScenarioConfig(rho_f=1.0)).rho_t

    def test_degenerate_band_rejected(self):
        with pytest.raises(ConfigurationError, match="sensing band"):
            derive(ScenarioConfig(k=32, rho_f=0.1))


class TestConfigValidation:
    def test_rho_f_out_of_range(self):
        with pytest.raises(ConfigurationError, match="rho_f"):
            ScenarioConfig(rho_f=1.5)

    def test_odd_m_s_rejected(self):
        with pytest.raises(ConfigurationError, match="m_s"):
            ScenarioConfig(m_s=15)

    def test_sri_shorter_than_symbol(self):
        with pytest.raises(ConfigurationError, match="t_sri"):
            ScenarioConfig(t_sri=1e-6)

    def test_epsilon_bounds(self):
        with pytest.raises(ConfigurationError, match="epsilon"):
            ScenarioConfig(epsilon=1.0)


class TestConfigFile:
    def test_single_key_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("rho_f = 0.5\n")
        cfg = load_config(str(path))
        assert cfg.rho_f == 0.5
        assert cfg.f_c == 6.7e9  # default kept
        assert cfg.k == 13200

    def test_out_of_range_value_names_field(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("rho_f = 1.5\n")
        with pytest.raises(ConfigurationError, match="rho_f"):
            load_config(str(path))

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# nothing but a comment\n\n")
        cfg = load_config(str(path))
        assert cfg == ScenarioConfig()

    def test_unknown_key_rejected_with_line(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("rho_f = 0.5\nbogus = 3\n")
        with pytest.raises(ConfigurationError, match=":2"):
            load_config(str(path))

    def test_parse_error_has_line_number(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("rho_f 0.5\n")
        with pytest.raises(ConfigurationError, match=":1"):
            load_config(str(path))

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("rho_f = 0.5\nrho_f = 0.7\n")
        with pytest.raises(ConfigurationError, match="duplicate"):
            load_config(str(path))

    def test_m_s_and_n_ref_default_by_heading(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("heading_deg = 300\n")
        cfg = load_config(str(path))
        assert cfg.m_s == 200 and cfg.n_ref == 5
        path.write_text("heading_deg = 270\n")
        cfg = load_config(str(path))
        assert cfg.m_s == 220 and cfg.n_ref == 3

    def test_m_s_override_wins(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("heading_deg = 300\nm_s = 64\n")
        assert load_config(str(path)).m_s == 64
