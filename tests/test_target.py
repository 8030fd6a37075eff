"""Target geometry, kinematics, and iso-range analysis checks."""

import math

import numpy as np
import pytest

from ivasim import target
from ivasim.errors import ConfigurationError, GeometryError
from ivasim.scenario import ScenarioConfig, derive
from ivasim.target import (
    ExtendedTarget,
    TrajectoryState,
    centroid_kinematics,
    cross_range_resolution,
    default_vehicle,
    exact_range,
    reference_index,
    scatterer_positions,
    slow_time,
)


def range_drift_terms(snapshot, scatterer_local, m_offset, t_sri):
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


def isorange_approximation(snapshot, traj, scatterer_local, t):
    """Straight iso-range range prediction at time t after the reference symbol.

    The exact center range is displaced by the local offset projected at the
    frozen line-of-sight elevation, with the aspect angle rotating at the
    constant apparent rate of the reference instant (signed: positive when
    the center azimuth decreases).
    """
    x, y, z = (float(v) for v in scatterer_local)
    center = np.array([traj.midpoint[0], traj.midpoint[1], traj.z_c]) + traj.velocity * t
    rc = exact_range(traj.bs_position, center)
    vel = traj.velocity
    ground = snapshot.r0 * math.cos(snapshot.phi)
    rate = -(math.cos(snapshot.theta0) * vel[1] - math.sin(snapshot.theta0) * vel[0]) / ground
    rot = snapshot.psi0 + rate * t
    cphi = math.cos(snapshot.phi)
    return rc + (x * math.cos(rot) - y * math.sin(rot)) * cphi + z * math.sin(snapshot.phi)


@pytest.fixture
def scen():
    return ScenarioConfig()  # m_s=220, t_sri=1 ms


class TestPositions:
    def test_reference_time_identity(self, scen):
        tgt = default_vehicle()
        traj = TrajectoryState(heading_deg=270.0, speed=30.0)
        pos = scatterer_positions(tgt, traj, scen, reference_index(scen.m_s))
        assert np.allclose(pos[2], [60.0, 0.0, 1.6])  # roof at the midpoint

    def test_heading_rotation(self, scen):
        tgt = default_vehicle()
        traj = TrajectoryState(heading_deg=270.0, speed=30.0)
        pos = scatterer_positions(tgt, traj, scen, reference_index(scen.m_s))
        assert np.allclose(pos[0], [60.0, -2.5, 1.6], atol=1e-12)  # front
        assert np.allclose(pos[3], [61.0, 0.0, 1.6], atol=1e-12)   # left

    def test_constant_velocity_displacement(self, scen):
        tgt = default_vehicle()
        traj = TrajectoryState(heading_deg=270.0, speed=30.0)
        pos = scatterer_positions(tgt, traj, scen, reference_index(scen.m_s) + 10)
        assert np.allclose(pos[2], [60.0, -0.3, 1.6], atol=1e-12)

    def test_index_bounds(self, scen):
        with pytest.raises(ConfigurationError):
            scatterer_positions(default_vehicle(), TrajectoryState(), scen, scen.m_s)

    def test_index_array_matches_scalar_calls(self, scen):
        tgt = default_vehicle()
        traj = TrajectoryState(heading_deg=300.0, speed=20.0)
        idx = np.arange(scen.m_s)
        stacked = np.stack([scatterer_positions(tgt, traj, scen, int(m)) for m in idx], axis=1)
        got = scatterer_positions(tgt, traj, scen, idx)
        assert got.shape == (tgt.count, scen.m_s, 3)
        assert np.array_equal(got, stacked)

    @pytest.mark.parametrize("bad", [-1, 220])
    @pytest.mark.parametrize("where", [0, 100, -1])
    def test_index_array_bounds(self, scen, bad, where):
        idx = np.arange(scen.m_s)
        idx[where] = bad
        with pytest.raises(ConfigurationError):
            scatterer_positions(default_vehicle(), TrajectoryState(), scen, idx)

    def test_rigid_body(self, scen):
        tgt = default_vehicle()
        traj = TrajectoryState(heading_deg=300.0, speed=30.0)
        base = None
        for m in (0, scen.m_s // 2, scen.m_s - 1):
            pos = scatterer_positions(tgt, traj, scen, m)
            dists = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
            if base is None:
                base = dists
            assert np.abs(dists - base).max() < 1e-9


class TestExactRange:
    def test_reference_geometry(self):
        # sqrt(60^2 + 23.4^2) = 64.40155...
        assert exact_range((0, 0, 25), (60, 0, 1.6)) == pytest.approx(64.40155, abs=1e-4)

    def test_pythagorean(self):
        assert exact_range((0, 0, 0), (3, 4, 0)) == 5.0

    def test_coincident(self):
        assert exact_range((1, 2, 3), (1, 2, 3)) == 0.0


class TestKinematics:
    def test_crossing_heading(self, scen):
        traj = TrajectoryState(heading_deg=270.0, speed=30.0)
        snap = centroid_kinematics(default_vehicle(), traj, scen)
        assert snap.v0 == pytest.approx(0.0, abs=1e-9)
        assert snap.omega0 == pytest.approx(0.5, rel=1e-12)
        assert np.cos(snap.phi) == pytest.approx(0.9317, abs=2e-4)
        assert snap.theta0 == pytest.approx(0.0)
        assert snap.a0 == pytest.approx((0.5 * np.cos(snap.phi)) ** 2 * snap.r0)

    def test_oblique_heading(self, scen):
        traj = TrajectoryState(heading_deg=300.0, speed=30.0)
        snap = centroid_kinematics(default_vehicle(), traj, scen)
        assert snap.omega0 == pytest.approx(30 * np.sin(np.radians(60)) / 60, rel=1e-12)
        assert snap.v0 == pytest.approx(30 * np.cos(np.radians(60)) * np.cos(snap.phi), rel=1e-9)

    def test_static_target(self, scen):
        snap = centroid_kinematics(default_vehicle(), TrajectoryState(speed=0.0), scen)
        assert snap.omega0 == 0.0 and snap.v0 == 0.0 and snap.a0 == 0.0

    def test_reference_range_exact(self, scen):
        traj = TrajectoryState(heading_deg=300.0, speed=20.0)
        snap = centroid_kinematics(default_vehicle(), traj, scen)
        assert snap.r0 == pytest.approx(np.hypot(60.0, 25.0 - 1.6), rel=1e-12)

    def test_scatterer_elevations(self, scen):
        traj = TrajectoryState(heading_deg=270.0, speed=30.0)
        snap = centroid_kinematics(default_vehicle(), traj, scen)
        # roof scatterer shares the centroid line of sight
        assert snap.elevations[2] == pytest.approx(snap.phi, rel=1e-12)
        assert np.all(snap.elevations < 0)  # base station looks down

    def test_overhead_geometry_rejected(self, scen):
        traj = TrajectoryState(midpoint=(0.0, 0.0))
        with pytest.raises(GeometryError):
            centroid_kinematics(default_vehicle(), traj, scen)


class TestCrossRange:
    @pytest.mark.parametrize(
        "heading,m_s,speed,expect,tol",
        [
            (270.0, 220, 10.0, 0.66, 0.02),
            (270.0, 220, 20.0, 0.33, 0.02),
            (270.0, 220, 30.0, 0.22, 0.02),
            (300.0, 200, 10.0, 0.81, 0.03),
            (300.0, 200, 20.0, 0.41, 0.03),
            (300.0, 200, 30.0, 0.27, 0.03),
        ],
    )
    def test_resolution_table(self, heading, m_s, speed, expect, tol):
        scen = ScenarioConfig(m_s=m_s)
        traj = TrajectoryState(heading_deg=heading, speed=speed)
        snap = centroid_kinematics(default_vehicle(), traj, scen)
        du = cross_range_resolution(snap, derive(scen))
        assert du == pytest.approx(expect, abs=tol)

    def test_static_rejected(self, scen):
        snap = centroid_kinematics(default_vehicle(), TrajectoryState(speed=0.0), scen)
        with pytest.raises(GeometryError):
            cross_range_resolution(snap, derive(scen))


class TestRangeDrift:
    def test_origin_scatterer(self, scen):
        snap = centroid_kinematics(
            default_vehicle(), TrajectoryState(heading_deg=270.0, speed=30.0), scen
        )
        assert range_drift_terms(snap, np.zeros(3), 110, scen.t_sri) == (0.0, 0.0)

    def test_static_target(self, scen):
        snap = centroid_kinematics(default_vehicle(), TrajectoryState(speed=0.0), scen)
        walk, curv = range_drift_terms(snap, np.array([2.5, 0, 0]), 110, scen.t_sri)
        assert walk == 0.0 and curv == 0.0

    def test_migration_free_regime(self, scen):
        # total drift at the CPI edge stays below the range resolution
        d = derive(scen)
        for heading in (270.0, 300.0):
            traj = TrajectoryState(heading_deg=heading, speed=30.0)
            snap = centroid_kinematics(default_vehicle(), traj, scen)
            for scatterer in default_vehicle().scatterers:
                walk, curv = range_drift_terms(snap, scatterer, scen.m_s // 2, scen.t_sri)
                assert abs(walk + curv) < d.delta_r


class TestIsoRangeApproximation:
    # Drift-error bound relative to the range resolution. The crossing
    # trajectory meets 1%; on the oblique heading the frozen-elevation
    # expansion itself is ~2.4% off at the CPI edges (cos(phi) drifts by
    # 3.4e-3 over the CPI and the expansion keeps it constant), so the
    # far-field check uses a 3% bound there.
    BOUNDS = {270.0: 0.01, 300.0: 0.03}

    @pytest.mark.parametrize("heading", [270.0, 300.0])
    def test_drift_agreement_with_exact_geometry(self, scen, heading):
        """Slow-time range drift from the straight iso-range expansion matches
        exact 3-D geometry well within the range resolution (far-field regime;
        the constant offset of the approximation is immaterial to alignment
        and excluded)."""
        d = derive(scen)
        tgt = default_vehicle()
        traj = TrajectoryState(heading_deg=heading, speed=30.0)
        snap = centroid_kinematics(tgt, traj, scen)
        m_ref = reference_index(scen.m_s)
        for idx in range(tgt.count):
            pos_ref = scatterer_positions(tgt, traj, scen, m_ref)[idx]
            exact_ref = exact_range(traj.bs_position, pos_ref)
            approx_ref = isorange_approximation(snap, traj, tgt.scatterers[idx], 0.0)
            worst = 0.0
            for m in range(0, scen.m_s, 11):
                t = float(slow_time(scen, m))
                pos = scatterer_positions(tgt, traj, scen, m)[idx]
                exact = exact_range(traj.bs_position, pos)
                approx = isorange_approximation(snap, traj, tgt.scatterers[idx], t)
                drift_err = abs((exact - exact_ref) - (approx - approx_ref))
                worst = max(worst, drift_err)
            assert worst < self.BOUNDS[heading] * d.delta_r
