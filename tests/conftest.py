import numpy as np
import pytest

from ivasim import frontend, harness, scenario, target, tmc


def run_pipeline(overrides, seed=0):
    """Noise-off-by-default pipeline pieces shared by TMC/imaging tests."""
    cfg = harness.load_run_config(overrides=overrides)
    scen = cfg.scenario
    derived = scenario.derive(scen)
    snapshot = target.centroid_kinematics(cfg.target, cfg.traj, scen)
    rng = np.random.default_rng(harness.trial_seed(seed, 0, 0))
    grid = frontend.qpsk_grid(derived.k_s, scen.m_s, rng)
    gain = frontend.make_beams(scen, derived, cfg.options.beam)
    gs = frontend.sensing_matrix(
        cfg.target, cfg.traj, scen, derived, gain, grid, rng, noise=cfg.options.noise
    )
    gamma, aligned = tmc.align(gs, scen.delta_f)
    profiles = tmc.range_profiles(gamma, derived.k_p, scen.delta_f)
    cells = tmc.select_reference_cells(profiles, scen.n_ref, cfg.options.cell_gate)
    cpe = tmc.estimate_cpe(profiles, cells)
    corrected = tmc.apply_phase_correction(profiles, cpe)
    return {
        "cfg": cfg,
        "scenario": scen,
        "derived": derived,
        "snapshot": snapshot,
        "gs": gs,
        "aligned": aligned,
        "profiles": profiles,
        "cells": cells,
        "cpe": cpe,
        "corrected": corrected,
    }


@pytest.fixture(scope="session")
def ref_run_300():
    """Noiseless reference-scale run, heading 300 deg, v = 30 m/s, rho_f = 1."""
    return run_pipeline({"heading_deg": 300.0, "speed": 30.0, "noise": "off"})
