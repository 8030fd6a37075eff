"""Extended-target geometry and kinematics.

Signal generation uses exact 3-D Euclidean ranges of every scatterer over slow
time; the iso-range expansion (aspect angle, apparent rotation rate, range
walk/curvature, cross-range mapping) is provided for analysis and validation.

Conventions: the ground frame is centered at the base station's ground
position, azimuth is measured anticlockwise from +x, elevation of the line of
sight is signed (negative when the base station looks down at the target).
The slow-time reference symbol is index m_s/2 - 1; the trajectory is anchored
so the configured midpoint is the target-center position at that symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, GeometryError
from .scenario import DerivedParams, ScenarioConfig

# Five-point vehicular layout (front, rear, roof, left, right), local frame,
# unit RCS each. Local x' points along the heading.
DEFAULT_SCATTERERS = np.array(
    [
        [2.5, 0.0, 0.0],
        [-2.5, 0.0, 0.0],
        [0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, -1.0, 0.0],
    ]
)
DEFAULT_RCS = np.ones(5)


@dataclass(frozen=True)
class ExtendedTarget:
    """Rigid set of point scatterers in target-fixed coordinates."""

    scatterers: np.ndarray  # (L, 3) local coordinates, m
    rcs: np.ndarray         # (L,) radar cross sections, m^2

    def __post_init__(self):
        scat = np.atleast_2d(np.asarray(self.scatterers, dtype=float))
        rcs = np.atleast_1d(np.asarray(self.rcs, dtype=float))
        if scat.shape[0] < 1 or scat.shape[1] != 3:
            raise ConfigurationError("target needs at least one (x', y', z') scatterer")
        if rcs.shape[0] != scat.shape[0]:
            raise ConfigurationError("one RCS per scatterer required")
        if np.any(rcs <= 0):
            raise ConfigurationError("scatterer RCS must be positive")
        object.__setattr__(self, "scatterers", scat)
        object.__setattr__(self, "rcs", rcs)

    @property
    def count(self) -> int:
        return self.scatterers.shape[0]


def default_vehicle() -> ExtendedTarget:
    return ExtendedTarget(DEFAULT_SCATTERERS.copy(), DEFAULT_RCS.copy())


@dataclass(frozen=True)
class TrajectoryState:
    """Uniform rectilinear ground motion of the target center."""

    midpoint: tuple[float, float] = (60.0, 0.0)  # ground position at mid-CPI, m
    z_c: float = 1.6                             # target-center height, m
    heading_deg: float = 270.0                   # anticlockwise from +x
    speed: float = 30.0                          # m/s
    bs_position: tuple[float, float, float] = (0.0, 0.0, 25.0)

    def __post_init__(self):
        if self.speed < 0:
            raise ConfigurationError(f"speed must be >= 0, got {self.speed}")

    @property
    def heading_rad(self) -> float:
        return math.radians(self.heading_deg)

    @property
    def velocity(self) -> np.ndarray:
        h = self.heading_rad
        return self.speed * np.array([math.cos(h), math.sin(h), 0.0])


def trajectory_from_values(values: dict) -> TrajectoryState:
    """Trajectory from typed config values; keys not given keep the defaults."""
    d = TrajectoryState()
    (mx, my), (bx, by, bz) = d.midpoint, d.bs_position
    return TrajectoryState(
        midpoint=(values.get("midpoint_x", mx), values.get("midpoint_y", my)),
        z_c=values.get("z_c", d.z_c),
        heading_deg=values.get("heading_deg", d.heading_deg),
        speed=values.get("speed", d.speed),
        bs_position=(values.get("bs_x", bx), values.get("bs_y", by), values.get("bs_z", bz)),
    )


@dataclass(frozen=True)
class KinematicSnapshot:
    """Geometry and motion quantities at the slow-time reference symbol."""

    ranges: np.ndarray      # (L,) exact scatterer ranges, m
    azimuths: np.ndarray    # (L,) scatterer azimuths, rad
    elevations: np.ndarray  # (L,) scatterer line-of-sight elevations, rad
    r0: float               # target-center range, m
    theta0: float           # target-center azimuth, rad
    phi: float              # line-of-sight elevation, rad (signed)
    psi0: float             # initial aspect angle = heading - theta0, rad
    omega0: float           # apparent rotation rate magnitude, rad/s
    v0: float               # radial velocity of the center, m/s
    a0: float               # apparent centripetal acceleration, m/s^2


def reference_index(m_s: int) -> int:
    """Slow-time index of the alignment reference symbol."""
    return m_s // 2 - 1


def slow_time(scenario: ScenarioConfig, m_s: int | np.ndarray) -> np.ndarray:
    """Seconds elapsed at symbol m_s relative to the reference symbol."""
    return (np.asarray(m_s) - reference_index(scenario.m_s)) * scenario.t_sri


def scatterer_positions(
    target: ExtendedTarget,
    traj: TrajectoryState,
    scenario: ScenarioConfig,
    m_s: int | np.ndarray,
) -> np.ndarray:
    """World positions of all scatterers at slow-time index m_s: (L, 3) for a
    scalar index, (L, M, 3) for an array of M indices.

    The body orientation is constant (rectilinear motion): local coordinates
    are rotated by the heading about z and added to the moving center.
    """
    idx = np.asarray(m_s)
    if np.any((idx < 0) | (idx >= scenario.m_s)):
        raise ConfigurationError(
            f"slow-time index {m_s} outside [0, {scenario.m_s})"
        )
    t = slow_time(scenario, idx)[..., None]
    cos_h, sin_h = np.cos(traj.heading_rad), np.sin(traj.heading_rad)
    rot = np.array([[cos_h, -sin_h, 0.0], [sin_h, cos_h, 0.0], [0.0, 0.0, 1.0]])
    body = (target.scatterers @ rot.T).reshape((-1,) + (1,) * idx.ndim + (3,))
    center = np.array([traj.midpoint[0], traj.midpoint[1], traj.z_c])
    return center + traj.velocity * t + body


def exact_range(bs_position, position) -> float:
    """3-D Euclidean distance between the base station and a point."""
    diff = np.asarray(position, dtype=float) - np.asarray(bs_position, dtype=float)
    return float(np.linalg.norm(diff))


def centroid_kinematics(
    target: ExtendedTarget,
    traj: TrajectoryState,
    scenario: ScenarioConfig,
) -> KinematicSnapshot:
    """Kinematic snapshot of the target at the reference symbol."""
    bs = np.asarray(traj.bs_position, dtype=float)
    center = np.array([traj.midpoint[0], traj.midpoint[1], traj.z_c])
    ground = center[:2] - bs[:2]
    ground_range = float(np.linalg.norm(ground))
    if ground_range <= 0.0:
        raise GeometryError("target center directly above the base station")
    r0 = exact_range(bs, center)
    theta0 = math.atan2(ground[1], ground[0])
    phi = math.asin((center[2] - bs[2]) / r0)

    vel = traj.velocity
    los = (center - bs) / r0
    v0 = float(vel @ los)
    # apparent rotation: magnitude of the center's azimuth rate seen from the BS
    omega0 = abs(ground[0] * vel[1] - ground[1] * vel[0]) / ground_range**2
    a0 = (omega0 * math.cos(phi)) ** 2 * r0

    m_ref = reference_index(scenario.m_s)
    positions = scatterer_positions(target, traj, scenario, m_ref)
    rel = positions - bs
    ranges = np.linalg.norm(rel, axis=1)
    if np.any(ranges <= 0):
        raise GeometryError("scatterer coincides with the base station")
    azimuths = np.arctan2(rel[:, 1], rel[:, 0])
    elevations = np.arcsin(rel[:, 2] / ranges)

    return KinematicSnapshot(
        ranges=ranges,
        azimuths=azimuths,
        elevations=elevations,
        r0=r0,
        theta0=theta0,
        phi=phi,
        psi0=traj.heading_rad - theta0,
        omega0=omega0,
        v0=v0,
        a0=a0,
    )


def cross_range_resolution(snapshot: KinematicSnapshot, derived: DerivedParams) -> float:
    """Cross-range resolution: wavelength * Doppler resolution over twice the
    effective rotation rate in the image plane."""
    if snapshot.omega0 <= 0.0:
        raise GeometryError("cross-range resolution undefined for a static target")
    return derived.wavelength * derived.delta_fd / (
        2.0 * snapshot.omega0 * math.cos(snapshot.phi)
    )


def range_drift_terms(
    snapshot: KinematicSnapshot,
    scatterer_local: np.ndarray,
    m_offset: float,
    t_sri: float,
) -> tuple[float, float]:
    """Range walk and curvature of one scatterer, m_offset symbols after the
    snapshot epoch. Used to confirm the migration-free regime (drift < range
    resolution over the CPI)."""
    x, y = float(scatterer_local[0]), float(scatterer_local[1])
    cpsi, spsi = math.cos(snapshot.psi0), math.sin(snapshot.psi0)
    cphi = math.cos(snapshot.phi)
    dt = m_offset * t_sri
    walk = (-x * spsi - y * cpsi) * snapshot.omega0 * dt * cphi
    curv = (-x * cpsi + y * spsi) * 0.5 * (snapshot.omega0 * dt) ** 2 * cphi
    return walk, curv


def isorange_approximation(
    snapshot: KinematicSnapshot,
    traj: TrajectoryState,
    scatterer_local: np.ndarray,
    t: float,
) -> float:
    """Straight iso-range range prediction at time t after the reference symbol.

    The exact center range is displaced by the local offset projected at the
    frozen line-of-sight elevation, with the aspect angle rotating at the
    constant apparent rate of the reference instant.
    """
    x, y, z = (float(v) for v in scatterer_local)
    center = np.array([traj.midpoint[0], traj.midpoint[1], traj.z_c]) + traj.velocity * t
    rc = exact_range(traj.bs_position, center)
    rot = snapshot.psi0 + _signed_rate(snapshot, traj) * t
    cphi = math.cos(snapshot.phi)
    return rc + (x * math.cos(rot) - y * math.sin(rot)) * cphi + z * math.sin(snapshot.phi)


def _signed_rate(snapshot: KinematicSnapshot, traj: TrajectoryState) -> float:
    """Aspect-angle rate with sign (positive when the center azimuth decreases)."""
    vel = traj.velocity
    ground = snapshot.r0 * math.cos(snapshot.phi)
    dtheta = (math.cos(snapshot.theta0) * vel[1] - math.sin(snapshot.theta0) * vel[0]) / ground
    return -dtheta
