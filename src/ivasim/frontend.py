"""Signal synthesis and reception.

Produces the sensing data matrix: QPSK resource grid, wide-beam weight
synthesis for both arrays, per-scatterer channel coefficients from the radar
equation with exact 3-D ranges, beamformed reception collapsed into the
composite transmit-receive gain, noise injection, and element-wise reciprocal
filtering of the transmitted symbols.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numerics
from .errors import ConfigurationError, GeometryError, SynthesisError
from .scenario import C_LIGHT, DerivedParams, ScenarioConfig
from .target import ExtendedTarget, TrajectoryState, scatterer_positions

GS_MAGIC = b"IVAG"


def array_response(n: int, theta) -> np.ndarray:
    """Uniform linear array response at azimuth theta (rad), half-wavelength
    spacing, phase-centered: element p gets exp(i (p - (n-1)/2) pi sin(theta)).

    Returns shape (n,) for scalar theta, (n, len(theta)) otherwise.
    """
    if n < 1:
        raise ConfigurationError(f"array needs at least one element, got {n}")
    theta_arr = np.asarray(theta, dtype=float)
    offsets = np.arange(n) - (n - 1) / 2.0
    phase = np.multiply.outer(offsets, np.pi * np.sin(theta_arr))
    return np.exp(1j * phase)


@dataclass(frozen=True)
class BeamWeights:
    """Complex weights of one array with their power normalization."""

    w: np.ndarray      # (N,) complex
    norm_sq: float     # ||w||^2 after scaling

    def pattern(self, theta) -> np.ndarray:
        """One-way pattern w^H a(theta)."""
        return np.einsum("p,p...->...", np.conj(self.w), array_response(self.w.size, theta))


def synthesize_wide_beam(
    n_antennas: int,
    beamwidth_deg: float,
    steer_deg: float,
    norm: float,
) -> BeamWeights:
    """Least-squares fit of the array pattern to a flat sector mask.

    The pattern w^H a(theta) is matched to 1 inside [steer +/- beamwidth/2] and
    0 outside over a 0.5 deg azimuth grid, with a don't-care transition band of
    0.75 * (2/N) rad flanking the sector so the aperture rolls off outside the
    covered sector instead of inside it. Weights are rescaled to
    ||w||^2 = norm. Fails if the aperture cannot support the sector or the
    in-sector ripple exceeds 3 dB.
    """
    if norm <= 0:
        raise ConfigurationError(f"weight norm must be positive, got {norm}")
    if n_antennas == 1:
        # single element is omnidirectional; any sector is trivially covered
        return BeamWeights(w=np.array([np.sqrt(norm)], dtype=complex), norm_sq=norm)
    bw = np.radians(beamwidth_deg)
    if bw < 2.0 / n_antennas:
        raise SynthesisError(
            f"beamwidth {beamwidth_deg} deg below the {n_antennas}-element aperture limit"
        )
    grid = np.radians(np.arange(-89.5, 90.0, 0.5))
    lo = np.radians(steer_deg - beamwidth_deg / 2.0)
    hi = np.radians(steer_deg + beamwidth_deg / 2.0)
    transition = 0.75 * 2.0 / n_antennas
    inside = (grid >= lo) & (grid <= hi)
    keep = inside | (grid < lo - transition) | (grid > hi + transition)
    if not inside.any():
        raise SynthesisError("sector does not intersect the visible azimuth grid")

    a_grid = array_response(n_antennas, grid[keep]).T  # (G, N); rows a(theta)^T
    w_conj, *_ = np.linalg.lstsq(a_grid, inside[keep].astype(complex), rcond=None)
    w = np.conj(w_conj)
    w = w * np.sqrt(norm / float(np.vdot(w, w).real))

    beam = BeamWeights(w=w, norm_sq=norm)
    in_sector = np.abs(beam.pattern(np.linspace(lo, hi, 301)))
    ripple_db = 20.0 * np.log10(in_sector.max() / in_sector.min())
    if ripple_db > 3.0:
        raise SynthesisError(
            f"in-sector ripple {ripple_db:.2f} dB exceeds 3 dB for the requested sector"
        )
    return beam


def composite_gain(tx: BeamWeights, rx: BeamWeights) -> Callable[[np.ndarray], np.ndarray]:
    """Composite transmit-receive gain: (w_R^H a_R(theta)) (a_T(theta)^H w_T)."""

    def gain(theta):
        return rx.pattern(theta) * np.conj(tx.pattern(theta))

    return gain


def ideal_sector_gain(
    steer_deg: float, beamwidth_deg: float
) -> Callable[[np.ndarray], np.ndarray]:
    """Exact indicator gain: 1 inside the sector, 0 outside (test aid)."""
    lo = np.radians(steer_deg - beamwidth_deg / 2.0)
    hi = np.radians(steer_deg + beamwidth_deg / 2.0)

    def gain(theta):
        theta = np.asarray(theta, dtype=float)
        return ((theta >= lo) & (theta <= hi)).astype(complex)

    return gain


def make_beams(
    scenario: ScenarioConfig, derived: DerivedParams, kind: str
) -> Callable[[np.ndarray], np.ndarray]:
    """Build the composite gain for a scenario: least-squares wide beams with
    ``kind='ls'``, or the ideal sector indicator with ``kind='ideal'``."""
    if kind == "ideal":
        return ideal_sector_gain(scenario.theta_s_deg, scenario.beamwidth_t_deg)
    if kind != "ls":
        raise ConfigurationError(f"unknown beam kind {kind!r}")
    tx = synthesize_wide_beam(
        scenario.n_t, scenario.beamwidth_t_deg, scenario.theta_s_deg, norm=derived.p_avg
    )
    rx = synthesize_wide_beam(
        scenario.n_r, scenario.beamwidth_r_deg, scenario.theta_s_deg, norm=1.0
    )
    return composite_gain(tx, rx)


def channel_gain(r, rcs, f_c: float, g_t: float = 1.0, g_r: float = 1.0):
    """Radar-equation amplitude sqrt(G_T G_R sigma c^2 / ((4 pi)^3 f_c^2 R^4))."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise GeometryError("channel gain undefined for nonpositive range")
    num = g_t * g_r * np.asarray(rcs, dtype=float) * C_LIGHT**2
    den = (4.0 * np.pi) ** 3 * np.float64(f_c) ** 2 * r**4
    return np.sqrt(num / den)


_QPSK_POINTS = np.array([1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j])


def qpsk_grid(k_s: int, m_s: int, rng: np.random.Generator) -> np.ndarray:
    """QPSK resource grid of shape (k_s, m_s); every symbol has unit modulus
    exactly (constellation {1, i, -1, -i})."""
    return _QPSK_POINTS[rng.integers(0, 4, (k_s, m_s))]


def echo_geometry(
    target: ExtendedTarget, traj: TrajectoryState, scenario: ScenarioConfig
) -> tuple[np.ndarray, ...]:
    """(L, m_s) azimuths, radar-equation amplitudes, carrier phases and subcarrier
    phase rates of the echoes over the CPI; a GeometryError if any overflows.
    An amplitude that is not finite and positive means a radar-equation term
    (gain, f_c^2, R^4) overflowed or underflowed."""
    with np.errstate(all="ignore"):  # an overflow is reported below
        pos = scatterer_positions(target, traj, scenario, np.arange(scenario.m_s))
        rel = pos - np.asarray(traj.bs_position, dtype=float)  # (L, m_s, 3)
        ranges = np.linalg.norm(rel, axis=2)
        g_t, g_r = 10.0 ** (np.array([scenario.g_t_dbi, scenario.g_r_dbi]) / 10.0)
        amps = channel_gain(ranges, np.asarray(target.rcs)[:, None], scenario.f_c, g_t, g_r)
        carrier = -4.0 * np.pi * scenario.f_c * ranges / C_LIGHT
        rates = -4.0 * np.pi * scenario.delta_f * ranges / C_LIGHT
    if not (all(np.isfinite(x).all() for x in (ranges, amps, carrier, rates)) and amps.all()):
        raise GeometryError(f"echo geometry overflows with f_c={scenario.f_c}, g_t_dbi/g_r_dbi="
                            f"{scenario.g_t_dbi}/{scenario.g_r_dbi}, bs_x/bs_y/bs_z="
                            f"{traj.bs_position}, midpoint_x/midpoint_y={traj.midpoint}, "
                            f"z_c={traj.z_c}, speed={traj.speed}")
    return np.arctan2(rel[:, :, 1], rel[:, :, 0]), amps, carrier, rates


def sensing_matrix(
    target: ExtendedTarget,
    traj: TrajectoryState,
    scenario: ScenarioConfig,
    derived: DerivedParams,
    gain: Callable[[np.ndarray], np.ndarray],
    grid: np.ndarray,
    rng: np.random.Generator,
    noise: bool = True,
    scatter_phases: np.ndarray | None = None,
) -> np.ndarray:
    """Sensing data matrix (k_s, m_s) after reciprocal filtering.

    Each entry sums the scatterer echoes (exact per-symbol ranges, radar
    equation amplitude, composite beam gain, random scattering phase constant
    over the CPI) plus receive noise n, reciprocal-filtered by the QPSK symbol
    x: (gs*x + n)/x, computed as gs + n*conj(x), which rounds identically as
    both only swap and negate parts for x in {1, i, -1, -i}. Rows are built in
    blocks of 128 subcarriers that stay in cache.
    """
    k_s, m_s = derived.k_s, scenario.m_s
    if grid.shape != (k_s, m_s):
        raise ConfigurationError(
            f"symbol grid shape {grid.shape} does not match ({k_s}, {m_s})"
        )
    if scatter_phases is None:
        scatter_phases = rng.uniform(0.0, 2.0 * np.pi, target.count)
    else:
        scatter_phases = np.asarray(scatter_phases, dtype=float)
        if scatter_phases.shape != (target.count,):
            raise ConfigurationError("need one scattering phase per scatterer")

    azimuths, amps, carrier, rates = echo_geometry(target, traj, scenario)
    weight = amps * np.exp(1j * (carrier + scatter_phases[:, None])) * gain(azimuths)
    blocks = [slice(j, j + numerics.RAMP_BLOCK) for j in range(0, k_s, numerics.RAMP_BLOCK)]
    lo, hi = numerics.ramp_tables(rates, k_s)  # (L, B, m_s), (L, len(blocks), m_s)
    if noise:
        scale = np.sqrt(derived.sigma2 / 2.0)
        re = rng.standard_normal((k_s, m_s))
        im = rng.standard_normal((k_s, m_s))

    gs = np.zeros((k_s, m_s), dtype=complex)
    part = np.empty((numerics.RAMP_BLOCK, m_s), dtype=complex)
    for j, rows in enumerate(blocks):
        echo = gs[rows]
        ramp = part[: echo.shape[0]]
        for l in range(target.count):
            np.multiply(hi[l, j], lo[l, : echo.shape[0]], out=ramp)
            echo += np.multiply(ramp, weight[l], out=ramp)
        if noise:
            echo += scale * (re[rows] + 1j * im[rows]) * np.conj(grid[rows])
    return gs


def dump_sensing_matrix(path: str, gs: np.ndarray) -> None:
    """Binary dump: 16-byte header (magic, u32 k_s, u32 m_s, u32 reserved) then
    row-major little-endian float64 re/im pairs."""
    gs = np.ascontiguousarray(gs, dtype=np.complex128)
    k_s, m_s = gs.shape
    with open(path, "wb") as fh:
        fh.write(GS_MAGIC)
        fh.write(struct.pack("<III", k_s, m_s, 0))
        fh.write(gs.astype("<c16").tobytes(order="C"))
