"""Bit identity of the blocked front end and range-alignment hot path.

The old formulas are kept here as references: the per-scatterer full-matrix
phase-ramp accumulation with the reciprocal filter (gs*x + n)/x, the
column-wise (axis 0) shift estimator and the roll-based range profiles. The
current code must reproduce every one of them with np.array_equal, including
a partial last 128-subcarrier block (k = 2640). The delay ramp is built from
two tables: its blocks must reproduce the whole-matrix two-table product bit
for bit, and since it moves by a few ulp against the old whole-matrix exp,
both are held to one accuracy bound against an extended-precision reference.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ivasim import frontend, harness, numerics, scenario, tmc
from ivasim.scenario import C_LIGHT
from ivasim.target import slow_time

_B = 128


def _old_phase_ramps(rates, k_s):
    n_hi = -(-k_s // _B)
    lo = np.exp(1j * np.outer(np.arange(_B), rates))
    hi = np.exp(1j * np.outer(np.arange(n_hi) * _B, rates))
    return (hi[:, None, :] * lo[None, :, :]).reshape(n_hi * _B, -1)[:k_s]


def _old_sensing_matrix(target, traj, scen, derived, gain, grid, rng, noise):
    k_s, m_s = derived.k_s, scen.m_s
    scatter_phases = rng.uniform(0.0, 2.0 * np.pi, target.count)
    t = slow_time(scen, np.arange(m_s))
    h = traj.heading_rad
    rot = np.array([[np.cos(h), -np.sin(h), 0.0], [np.sin(h), np.cos(h), 0.0], [0.0, 0.0, 1.0]])
    body = target.scatterers @ rot.T
    center = np.array([traj.midpoint[0], traj.midpoint[1], traj.z_c])
    pos = center[None, None, :] + traj.velocity[None, None, :] * t[None, :, None]
    pos = pos + body[:, None, :]
    rel = pos - np.asarray(traj.bs_position, dtype=float)
    ranges = np.linalg.norm(rel, axis=2)
    azimuths = np.arctan2(rel[:, :, 1], rel[:, :, 0])
    g_t = 10.0 ** (scen.g_t_dbi / 10.0)
    g_r = 10.0 ** (scen.g_r_dbi / 10.0)
    amps = frontend.channel_gain(ranges, np.asarray(target.rcs)[:, None], scen.f_c, g_t, g_r)
    phase0 = -4.0 * np.pi * scen.f_c * ranges / C_LIGHT + scatter_phases[:, None]
    weight = amps * np.exp(1j * phase0) * gain(azimuths)
    gs = np.zeros((k_s, m_s), dtype=complex)
    rates = -4.0 * np.pi * scen.delta_f * ranges / C_LIGHT
    for l in range(target.count):
        gs += _old_phase_ramps(rates[l], k_s) * weight[l][None, :]
    received = gs * grid
    if noise:
        scale = np.sqrt(derived.sigma2 / 2.0)
        received = received + scale * (
            rng.standard_normal((k_s, m_s)) + 1j * rng.standard_normal((k_s, m_s))
        )
    return received / grid


def _old_estimate_shifts(gs):
    k_s, m_s = gs.shape
    envelopes = np.abs(np.fft.fft(gs, axis=0))
    spectra = np.fft.ifft(envelopes, axis=0)
    reference = spectra[:, m_s // 2 - 1]
    correlation = np.abs(np.fft.ifft(spectra * np.conj(reference)[:, None], axis=0))
    peak = np.argmax(correlation, axis=0)
    shifts = tmc._signed_shift(peak, k_s)
    col_max = correlation[peak, np.arange(m_s)]
    for col in np.flatnonzero((correlation == col_max[None, :]).sum(axis=0) > 1):
        cands = tmc._signed_shift(np.flatnonzero(correlation[:, col] == col_max[col]), k_s)
        shifts[col] = min(cands, key=lambda q: (abs(q), q))
    return shifts.astype(int)


def _old_compensate_delays(gs, delays, delta_f):
    # the whole-matrix ramp before the two-table build: one complex exp per element
    k = np.arange(gs.shape[0])
    return gs * np.exp(1j * 2.0 * np.pi * delta_f * np.outer(k, delays))


def _old_range_profiles(gamma, k_p):
    return np.roll(numerics.fft(gamma, k_p, axis=0)[::-1], 1, axis=0)


def _draw(k, noise, seed=7, **extra):
    """Sensing matrices from the current and the reference code, same stream."""
    cfg = harness.load_run_config(
        overrides={"k": k, "m_s": 48, "noise": noise, "speed": 30, **extra}
    )
    scen, derived = cfg.scenario, scenario.derive(cfg.scenario)
    gain = frontend.make_beams(scen, derived, cfg.options.beam)
    out = []
    for build in (frontend.sensing_matrix, _old_sensing_matrix):
        rng = np.random.default_rng(harness.trial_seed(seed, 0, 0))
        grid = frontend.qpsk_grid(derived.k_s, scen.m_s, rng)
        args = (cfg.target, cfg.traj, scen, derived, gain, grid, rng)
        out.append(build(*args, noise=cfg.options.noise))
    return out, scen, derived


@pytest.mark.parametrize("k", [1024, 2640])
@pytest.mark.parametrize("noise", ["on", "off"])
def test_sensing_matrix_matches_reference(k, noise):
    (new, old), _, derived = _draw(k, noise)
    assert new.shape == (derived.k_s, 48)
    assert np.array_equal(new, old)
    assert new.tobytes() == old.tobytes()  # signed zeros too


def test_noiseless_zero_echo_is_positive_zero():
    """The one bit difference: with noise off, an exactly-zero entry (here the
    ideal sector misses every scatterer) used to come out of (0*x)/x as -0.0
    for some symbols x; gs is now returned as accumulated, always +0.0."""
    out, _, _ = _draw(1024, "off", seed=1, beam="ideal", theta_s_deg=60)
    new, old = (a.view(float) for a in out)
    assert np.array_equal(new, old) and not new.any()
    assert not np.signbit(new).any()
    assert np.signbit(old).any()


@pytest.mark.parametrize("k", [1024, 2640])
@pytest.mark.parametrize("noise", ["on", "off"])
def test_alignment_and_profiles_match_reference(k, noise):
    (gs, _), scen, derived = _draw(k, noise)
    raw = tmc.estimate_shifts(gs)
    assert np.array_equal(raw, _old_estimate_shifts(gs))
    gamma, _ = tmc.align(gs, scen.delta_f)
    profiles = tmc.range_profiles(gamma, derived.k_p, scen.delta_f).s
    assert profiles.shape == (derived.k_p, gs.shape[1])
    assert np.array_equal(profiles, _old_range_profiles(gamma, derived.k_p))


def _within_ramp_bound(gamma, gs, delays, delta_f):
    """|gamma - ref| <= 4 eps |gs| max(1, |theta|) in every element, with
    ref = gs exp(i theta), theta = 2 pi k delta_f tau, in long double. The
    float64 phase argument of either formula is rounded by about eps |theta|,
    so beyond one radian the bound grows with |theta|."""
    pi = np.arccos(np.longdouble(-1))
    k = np.arange(gs.shape[0], dtype=np.longdouble)[:, None]
    theta = 2 * pi * np.longdouble(delta_f) * k * delays.astype(np.longdouble)
    c, s = np.cos(theta), np.sin(theta)
    re, im = gs.real.astype(np.longdouble), gs.imag.astype(np.longdouble)
    err = np.hypot((gamma.real - (re * c - im * s)).astype(float),
                   (gamma.imag - (re * s + im * c)).astype(float))
    bound = 4 * np.finfo(float).eps * np.abs(gs) * np.maximum(1.0, np.abs(theta).astype(float))
    return bool(np.all(err <= bound))


@settings(max_examples=60, deadline=None)
@given(k=st.sampled_from([40, 100, 127, 128, 300, 1024, 2640]), m_s=st.sampled_from([4, 12, 48]),
       noise=st.sampled_from(["on", "off"]), spread=st.floats(0.0, 0.5), seed=st.integers(0, 99))
@example(k=2640, m_s=48, noise="on", spread=0.5, seed=0)
@example(k=100, m_s=4, noise="off", spread=0.0, seed=0)
def test_delay_ramp_within_a_few_ulp(k, m_s, noise, spread, seed):
    """Two-table ramp and old whole-matrix exp meet one bound against an
    extended-precision reference, for delays up to +-k_s/2 range cells,
    k_s below 128 and with a partial last block."""
    (gs, _), scen, derived = _draw(k, noise, seed=seed, m_s=m_s)
    cells = np.random.default_rng(seed).uniform(-1.0, 1.0, m_s) * spread * derived.k_s
    delays = cells / (derived.k_s * scen.delta_f)  # one range cell is 1 / (k_s delta_f)
    for ramp in (tmc.compensate_delays, _old_compensate_delays):
        assert _within_ramp_bound(ramp(gs, delays, scen.delta_f), gs, delays, scen.delta_f)


@pytest.mark.parametrize("k", [1024, 2640])
@pytest.mark.parametrize("noise", ["on", "off"])
def test_blocked_delay_ramp_matches_reference(k, noise):
    """The 128-subcarrier blocks reproduce the whole-matrix two-table ramp
    (the sensing matrix's _old_phase_ramps) times gs bit for bit, a partial
    last block included; the aligned delays here are zero, so nonzero ones
    up to +-k_s/2 range cells are applied too."""
    (gs, _), scen, derived = _draw(k, noise)
    assert gs.shape[0] % numerics.RAMP_BLOCK == (0 if k == 1024 else 80)
    _, aligned = tmc.align(gs, scen.delta_f)
    cells = np.random.default_rng(5).uniform(-0.5, 0.5, gs.shape[1]) * derived.k_s
    for delays in (aligned.delays, cells / (derived.k_s * scen.delta_f)):
        gamma = tmc.compensate_delays(gs, delays, scen.delta_f)
        reference = _old_phase_ramps(2.0 * np.pi * scen.delta_f * delays, gs.shape[0]) * gs
        assert np.array_equal(gamma, reference)
        assert gamma.tobytes() == reference.tobytes()
        assert _within_ramp_bound(gamma, gs, delays, scen.delta_f)


def test_estimate_shifts_ties_match_reference():
    rng = np.random.default_rng(3)
    gs = rng.standard_normal((96, 9)) + 1j * rng.standard_normal((96, 9))
    gs[:, 3] = 0.0
    gs[0, 3] = 1.0  # impulse reference column: every correlation is flat
    shifts = tmc.estimate_shifts(gs)
    assert np.array_equal(shifts, _old_estimate_shifts(gs))
    assert np.all(shifts == 0)


def test_estimate_shifts_leaves_input_untouched():
    rng = np.random.default_rng(4)
    gs = np.asfortranarray(rng.standard_normal((64, 6)) + 1j * rng.standard_normal((64, 6)))
    before = gs.copy()
    tmc.estimate_shifts(gs)  # gs.T is C-contiguous here, so only an explicit copy protects it
    assert np.array_equal(gs, before)
