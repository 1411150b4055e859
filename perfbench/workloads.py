"""The three benchmark workloads.

Each workload builds its configuration and inputs from the seed, runs one
study through the public ``bhlattice.experiments`` / ``bhlattice.stepping``
entry points, and checks the outputs with ``checks.py``.
"""

from __future__ import annotations

import numpy as np

from bhlattice import experiments, stepping
from bhlattice.attractor import AttractorConfig
from bhlattice.experiments import ExperimentConfig, GridConfig
from bhlattice.lattice import LatticeWindow, Params
from bhlattice.stochastic import NoiseConfig

import checks

# Model coefficients shared by every workload (the package defaults, written
# out so the checks read the same numbers the program is given).
PARAMS = {"nu": 1.0, "alpha": 1.0, "beta": 1.0, "gamma": 0.5, "lam": 8.0,
          "f": {0: 1.4375}}

# The acceptance suite's reduced attractor config; the seed picks the
# initial ball sample.  The runners rescale burn-in and gap to the
# attraction time scale, so BURN_IN and STABILIZATION_GAP only satisfy the
# config's validation.
SAMPLE_COUNT = 64
BURN_IN = 1000
STABILIZATION_GAP = 20
STABILIZATION_TOL = 1e-7
MAX_ROUNDS = 200

CLOUD_HALF_WIDTH = 64
CLOUD_EPS = 0.01
CLOUD_M_LIST = (8, 16, 32)

NOISE_M = 16
NOISE_POINTS = 8
NOISE_SIGMAS = (0.4, 0.2, 0.1, 0.0)
NOISE_REALIZATIONS = 2
NOISE_T = 30.0
NOISE_H = 0.01

TRAJ_HALF_WIDTH = 128
TRAJ_EPS = 0.005
TRAJ_AMPLITUDE = 0.5
TRAJ_STEPS = 8000
ERROR_T = 0.5
ERROR_SAMPLES = 1


def make_params(d: dict) -> Params:
    (site, value), = d["f"].items()
    return Params(nu=d["nu"], alpha=d["alpha"], beta=d["beta"],
                  gamma=d["gamma"], lam=d["lam"],
                  f=LatticeWindow.basis(site, value))


def make_config(seed: int, **fields) -> ExperimentConfig:
    cfg = ExperimentConfig(params=make_params(PARAMS), master_seed=seed, **fields)
    cfg.attractor = AttractorConfig(
        sample_count=SAMPLE_COUNT, burn_in=BURN_IN,
        stabilization_gap=STABILIZATION_GAP,
        stabilization_tol=STABILIZATION_TOL, max_rounds=MAX_ROUNDS, seed=seed)
    return cfg


class AttractorClouds:
    """run_dim_convergence: one window cloud and three truncated clouds."""

    name = "attractor-clouds"

    def __init__(self, seed: int):
        self.cfg = make_config(seed, window_half_width=CLOUD_HALF_WIDTH,
                               grids=GridConfig(eps_list=(CLOUD_EPS,),
                                                m_list=CLOUD_M_LIST))
        # The study returns only its table; a pass-through on the one
        # function that builds clouds keeps them for the equilibrium checks.
        # It records no time and adds four Python calls per study.
        self.clouds = []
        build = experiments.implicit_attractor

        def keep(*args, **kwargs):
            cloud = build(*args, **kwargs)
            self.clouds.append(cloud)
            return cloud

        experiments.implicit_attractor = keep

    def run(self):
        self.clouds = []
        return experiments.run_dim_convergence(self.cfg)

    def check(self, table) -> dict:
        clouds = {(c.space, c.half_width): c.points for c in self.clouds}
        return checks.check_dim_convergence(
            PARAMS, CLOUD_HALF_WIDTH, CLOUD_M_LIST, STABILIZATION_TOL,
            table.columns, clouds)

    def operations(self) -> list:
        return [f"cloud window {CLOUD_HALF_WIDTH}"] + [
            f"cloud truncated {m}" for m in CLOUD_M_LIST]


class NoisePullback:
    """Reduced run_noise_convergence: pullback clouds per sigma."""

    name = "noise-pullback"

    def __init__(self, seed: int):
        self.cfg = make_config(seed, noise_m=NOISE_M,
                               pullback_points=NOISE_POINTS,
                               grids=GridConfig(sigma_list=NOISE_SIGMAS))
        self.cfg.noise = NoiseConfig(h_path=NOISE_H, pullback_T=NOISE_T,
                                     realizations=NOISE_REALIZATIONS,
                                     master_seed=seed)

    def run(self):
        return experiments.run_noise_convergence(self.cfg)

    def check(self, table) -> dict:
        return checks.check_noise_convergence(
            PARAMS, NOISE_SIGMAS, NOISE_REALIZATIONS, table.columns)

    def operations(self) -> list:
        return [f"sigma {s} realization {k}" for s in NOISE_SIGMAS
                for k in range(NOISE_REALIZATIONS)]


class SingleTrajectory:
    """run_trajectory through the LatticeWindow API, then run_error_order."""

    name = "single-trajectory"

    def __init__(self, seed: int):
        self.cfg = make_config(seed)
        self.step_cfg = stepping.StepConfig(eps=TRAJ_EPS, enforce_eps_star=False)
        self.u0 = LatticeWindow.basis(0, TRAJ_AMPLITUDE)

    def run(self):
        traj = stepping.run_trajectory(self.cfg.params, self.step_cfg, self.u0,
                                       TRAJ_STEPS, TRAJ_HALF_WIDTH)
        table = experiments.run_error_order(self.cfg, T=ERROR_T,
                                            n_samples=ERROR_SAMPLES)
        return traj, table

    def check(self, result) -> dict:
        traj, table = result
        sq_norms = [float(u.values @ u.values) for u in traj.states]
        last = traj.states[-1]
        end_state = np.zeros(2 * TRAJ_HALF_WIDTH + 1)
        start = last.offset + TRAJ_HALF_WIDTH
        end_state[start:start + last.values.size] = last.values
        ops = {"trajectory": checks.check_trajectory(
            PARAMS, TRAJ_EPS, self.step_cfg.fp_tol, sq_norms, end_state)}
        unforced = dict(PARAMS, f={})
        ops.update(checks.check_error_order(unforced, ERROR_T, table.columns))
        return ops

    def operations(self) -> list:
        return ["trajectory"] + [f"error order eps {e}"
                                 for e in GridConfig().eps_error_list]


WORKLOADS = {w.name: w for w in (AttractorClouds, NoisePullback, SingleTrajectory)}
