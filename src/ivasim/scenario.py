"""Configuration: types, keys, file parsing, resolution, derived quantities.

The default scenario is a 5G NR upper mid-band numerology: 6.7 GHz carrier,
30 kHz subcarrier spacing, 13200 active subcarriers (~400 MHz), 10 ms frames of
280 symbols, sensing symbols every 1 ms. A plain-text ``key = value`` file can
override any default; unknown keys are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .errors import ConfigurationError
from .numerics import next_pow2
from .target import ExtendedTarget, TrajectoryState, default_vehicle

C_LIGHT = 299792458.0  # m/s
K_BOLTZMANN = 1.38e-23  # J/K


@dataclass(frozen=True)
class ScenarioConfig:
    """System configuration. All fields carry SI units unless suffixed."""

    f_c: float = 6.7e9            # carrier frequency, Hz
    delta_f: float = 30e3         # subcarrier spacing, Hz
    k: int = 13200                # active subcarriers per frame
    m: int = 280                  # OFDM symbols per frame
    t_g: float = 35.7e-6 - 1.0 / 30e3   # cyclic prefix, s (so T_s = 35.7 us)
    t_f: float = 10e-3            # frame duration, s
    rho_f: float = 1.0            # sensing subcarrier fraction, (0, 1]
    t_sri: float = 1e-3           # sensing repetition interval, s
    m_s: int = 220                # sensing symbols per CPI
    p_t_dbm: float = 30.0         # total transmit power, dBm
    noise_figure_db: float = 5.0
    t0: float = 290.0             # reference temperature, K
    n_t: int = 10                 # transmit array elements
    n_r: int = 10                 # receive array elements
    beamwidth_t_deg: float = 30.0
    beamwidth_r_deg: float = 30.0
    theta_s_deg: float = 0.0      # sensing steering azimuth, deg
    g_t_dbi: float = 0.0          # single-element gains; array gain is carried
    g_r_dbi: float = 0.0          # by the beamforming weights
    epsilon: float = 0.3          # centroid detection threshold fraction
    n_ref: int = 3                # reference cells for phase adjustment
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.rho_f <= 1.0):
            raise ConfigurationError(f"rho_f must be in (0, 1], got {self.rho_f}")
        if self.delta_f <= 0:
            raise ConfigurationError(f"delta_f must be positive, got {self.delta_f}")
        if self.m_s < 4 or self.m_s % 2 != 0:
            raise ConfigurationError(f"m_s must be even and >= 4, got {self.m_s}")
        t_s = 1.0 / self.delta_f + self.t_g
        if self.t_sri < t_s:
            raise ConfigurationError(
                f"t_sri={self.t_sri} shorter than symbol duration {t_s:.3e}"
            )
        if not (0.0 < self.epsilon < 1.0):
            raise ConfigurationError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.n_ref < 1:
            raise ConfigurationError(f"n_ref must be >= 1, got {self.n_ref}")
        if min(self.t_g, self.t0, self.seed) < 0:
            raise ConfigurationError(
                f"t_g, t0 and seed must be nonnegative, got t_g={self.t_g}, t0={self.t0}, "
                f"seed={self.seed}"
            )
        if min(self.k, self.m, self.n_t, self.n_r) < 1:
            raise ConfigurationError(
                f"k, m, n_t and n_r must be >= 1, got k={self.k}, m={self.m}, n_t={self.n_t}, "
                f"n_r={self.n_r}"
            )
        if self.f_c <= 0 or self.t_f <= 0:
            raise ConfigurationError(
                f"f_c and t_f must be positive, got f_c={self.f_c}, t_f={self.t_f}"
            )
        if max(self.p_t_dbm, self.noise_figure_db) > 3000.0:  # 1e300 as a linear ratio
            raise ConfigurationError("p_t_dbm and noise_figure_db must not exceed 3000 dB")
        # derive's frame-time fraction rho_t = t_s ceil(m / n_s) / t_f, with
        # n_s = round(t_sri / t_s), must not exceed 1. Capping n_s at m leaves
        # ceil(m / n_s) unchanged, and the integer form cannot overflow.
        n_s = round(min(self.t_sri / t_s, self.m)) if t_s > 0 else 0
        if n_s >= 1 and -(-self.m // n_s) > self.t_f / t_s:
            raise ConfigurationError(
                f"t_f={self.t_f} too short for the sensing symbols of a frame of m={self.m} "
                f"symbols at t_sri={self.t_sri}: rho_t > 1"
            )


@dataclass(frozen=True)
class DerivedParams:
    """Quantities derived from a :class:`ScenarioConfig`."""

    wavelength: float    # m
    t_s: float           # total OFDM symbol duration incl. CP, s
    k_s: int             # sensing subcarriers
    b_s: float           # sensing bandwidth, Hz
    n_s: int             # symbols per SRI
    rho_t: float         # frame-time sensing fraction
    t_cpi: float         # coherent processing interval, s
    delta_r: float       # range resolution, m
    delta_tau: float     # delay resolution, s
    delta_fd: float      # Doppler resolution, Hz
    k_p: int             # padded range-FFT size
    m_p: int             # padded Doppler-FFT size
    p_avg: float         # per-subcarrier transmit power, W
    sigma2: float        # noise variance per resource element, W
    range_bin_m: float   # padded range-bin spacing, m


def derive(config: ScenarioConfig) -> DerivedParams:
    """Compute all derived quantities for a validated configuration."""
    t_s = 1.0 / config.delta_f + config.t_g
    n_s = round(config.t_sri / t_s)
    if n_s < 1:
        raise ConfigurationError(
            f"t_sri={config.t_sri} admits no whole symbol (n_s={n_s})"
        )
    k_s = round(config.rho_f * config.k)
    if k_s < 8:
        raise ConfigurationError(f"degenerate sensing band: k_s={k_s} < 8")
    b_s = k_s * config.delta_f
    k_p = next_pow2(2 * k_s)
    m_p = next_pow2(10 * config.m_s)
    p_t = 1e-3 * 10.0 ** (config.p_t_dbm / 10.0)
    noise_f = 10.0 ** (config.noise_figure_db / 10.0)
    return DerivedParams(
        wavelength=C_LIGHT / config.f_c,
        t_s=t_s,
        k_s=k_s,
        b_s=b_s,
        n_s=n_s,
        rho_t=t_s * math.ceil(config.m / n_s) / config.t_f,
        t_cpi=config.m_s * config.t_sri,
        delta_r=C_LIGHT / (2.0 * b_s),
        delta_tau=1.0 / b_s,
        delta_fd=1.0 / (config.m_s * config.t_sri),
        k_p=k_p,
        m_p=m_p,
        p_avg=p_t / config.k,
        sigma2=K_BOLTZMANN * config.t0 * noise_f * config.delta_f,
        range_bin_m=C_LIGHT / (2.0 * k_p * config.delta_f),
    )


# --------------------------------------------------------------------------
# Config keys and files.
#
# Every key maps to the reader of its value, which raises ValueError on a bad
# value. Config files and sweep files share one syntax: one "key = value" pair
# per line, '#' starts a comment. The file also carries the trajectory,
# target and simulation keys; all of them are read here, so a typo anywhere
# in the file is caught with its line.
# --------------------------------------------------------------------------


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _finite_list(text: str) -> tuple[float, ...]:
    values = tuple(_finite(v) for v in text.replace(",", " ").split())
    if not values:
        raise ValueError("empty list")
    return values


def _words(table: dict):
    """Reader of one word of table, in any case, to its value."""
    def read(text: str):
        word = text.strip().lower()
        if word not in table:
            raise ValueError(f"not one of {sorted(table)}: {text!r}")
        return table[word]
    return read


def _scatterers(text: str) -> tuple[list, list]:
    """'x y z rcs; ...' as local positions (L, 3) and cross sections (L,)."""
    rows = [_finite_list(chunk) for chunk in text.split(";") if chunk.strip()]
    if not rows or any(len(row) != 4 for row in rows):
        raise ValueError(f"need 'x y z rcs' entries separated by ';': {text!r}")
    if any(row[3] <= 0 for row in rows):
        raise ValueError(f"scatterer RCS must be positive: {text!r}")
    return [row[:3] for row in rows], [row[3] for row in rows]


_TYPE_READERS = {"int": int, "float": _finite, "tuple": _finite_list}


def field_readers(cls) -> dict:
    """Reader of each field of dataclass cls, by its annotated type."""
    return {f.name: _TYPE_READERS[f.type] for f in fields(cls)}


def field_values(cls, values: dict) -> dict:
    """The entries of values that name a field of dataclass cls."""
    return {f.name: values[f.name] for f in fields(cls) if f.name in values}


KEYS = {
    **field_readers(ScenarioConfig),
    **dict.fromkeys(
        ("midpoint_x", "midpoint_y", "z_c", "heading_deg", "speed", "bs_x", "bs_y", "bs_z",
         "cell_gate", "crop_half_range", "crop_half_crossrange"),
        _finite,
    ),
    "noise": _words({"1": True, "true": True, "on": True, "yes": True,
                     "0": False, "false": False, "off": False, "no": False}),
    "beam": _words({"ls": "ls", "ideal": "ideal"}),
    "image_mode": _words({"windowed": "windowed", "full": "full"}),
    "scatterers": _scatterers,
}


def read_values(raw: dict, readers: dict = KEYS, where: str = "config") -> dict:
    """Typed values of raw key=value pairs; an error names where they came from."""
    values = {}
    for key, value in raw.items():
        if key not in readers:
            raise ConfigurationError(f"{where}: unknown key {key!r}")
        try:
            values[key] = readers[key](value)
        except ValueError as exc:
            raise ConfigurationError(f"{where}: bad value for {key!r}: {value!r} ({exc})") from exc
    return values


def parse_config_file(path: str, readers: dict = KEYS) -> dict[str, str]:
    """Parse a key=value file into a dict of raw string values, each checked
    by its reader."""
    raw: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            where = f"{path}:{lineno}"
            if "=" not in stripped:
                raise ConfigurationError(f"{where}: expected 'key = value', got {stripped!r}")
            key, value = (part.strip() for part in stripped.split("=", 1))
            key = key.lower()
            if key in raw:
                raise ConfigurationError(f"{where}: duplicate key {key!r}")
            read_values({key: value}, readers, where)
            raw[key] = value
    return raw


@dataclass(frozen=True)
class SimOptions:
    """Simulation knobs that are not part of the waveform configuration."""

    noise: bool = True
    beam: str = "ls"              # "ls" wide-beam synthesis or "ideal" indicator
    cell_gate: float = 0.1        # energy gate for reference-cell selection
    crop_half_range: float = 6.0       # m, contrast crop half extent in range
    crop_half_crossrange: float = 4.0  # m, crop half extent in cross-range
    image_mode: str = "windowed"  # "windowed" fast path or "full"

    def __post_init__(self):
        if self.cell_gate < 0 or min(self.crop_half_range, self.crop_half_crossrange) <= 0:
            raise ConfigurationError(f"need cell_gate >= 0 and crop halves > 0, got {self}")


@dataclass(frozen=True)
class RunConfig:
    scenario: ScenarioConfig
    target: ExtendedTarget
    traj: TrajectoryState
    options: SimOptions = field(default_factory=SimOptions)


def scenario_from_raw(raw: dict) -> RunConfig:
    """Resolve parsed raw key=value pairs into the run configuration, filling
    defaults; each value is read once.

    m_s and n_ref default by heading when not given (220/3 for 270 deg,
    200/5 for 300 deg, following the reference setup); other headings use
    200/5. theta_s_deg defaults to the azimuth of the trajectory midpoint.
    """
    values = read_values(raw)
    d = TrajectoryState()
    (mx, my), (bx, by, bz) = d.midpoint, d.bs_position
    traj = TrajectoryState(
        midpoint=(values.get("midpoint_x", mx), values.get("midpoint_y", my)),
        z_c=values.get("z_c", d.z_c),
        heading_deg=values.get("heading_deg", d.heading_deg),
        speed=values.get("speed", d.speed),
        bs_position=(values.get("bs_x", bx), values.get("bs_y", by), values.get("bs_z", bz)),
    )
    kwargs = field_values(ScenarioConfig, values)
    near_270 = abs((traj.heading_deg - 270.0 + 180.0) % 360.0 - 180.0) < 1.0
    kwargs.setdefault("m_s", 220 if near_270 else 200)
    kwargs.setdefault("n_ref", 3 if near_270 else 5)
    if "theta_s_deg" not in kwargs:
        dx, dy = (m - b for m, b in zip(traj.midpoint, traj.bs_position))  # ground offset
        kwargs["theta_s_deg"] = math.degrees(math.atan2(dy, dx))
    return RunConfig(
        ScenarioConfig(**kwargs),
        ExtendedTarget(*values["scatterers"]) if "scatterers" in values else default_vehicle(),
        traj, SimOptions(**field_values(SimOptions, values)),
    )


FULL_RHO_GRID = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


@dataclass(frozen=True)
class SweepSpec:
    rho_f: tuple = FULL_RHO_GRID
    speeds: tuple = (10.0, 20.0, 30.0)
    headings: tuple = (270.0, 300.0)
    n_mc: int = 50

    def __post_init__(self):
        if not self.rho_f or not self.speeds or not self.headings:
            raise ConfigurationError("sweep lists must be nonempty")
        if self.n_mc < 1:
            raise ConfigurationError(f"n_mc must be >= 1, got {self.n_mc}")

    def points(self) -> list[tuple[float, float, float]]:
        """(heading, speed, rho_f) grid in deterministic order."""
        return [
            (h, v, r) for h in self.headings for v in self.speeds for r in self.rho_f
        ]


def _finite_list_where(ok, rule: str):
    """Reader of a finite list whose every value satisfies ok."""
    def read(text: str) -> tuple[float, ...]:
        values = _finite_list(text)
        if not all(ok(value) for value in values):
            raise ValueError(rule)
        return values
    return read


SWEEP_KEYS = {
    **field_readers(SweepSpec),
    "rho_f": _finite_list_where(lambda r: 0.0 < r <= 1.0, "rho_f must be in (0, 1]"),
    "speeds": _finite_list_where(lambda v: v >= 0.0, "speeds must be >= 0"),
}


def load_sweep_spec(path: str | None) -> SweepSpec:
    """The sweep spec of a sweep file (defaults when absent); a bad value,
    out-of-range ones included, is reported with its file and line."""
    if path is None:
        return SweepSpec()
    raw = parse_config_file(path, SWEEP_KEYS)
    return SweepSpec(**read_values(raw, SWEEP_KEYS, path))
