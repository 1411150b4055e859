"""The pullback of every (sigma, realization) pair as one full (S, R, P, n)
stack: every point of every pair, σ = 0 and collapsed clouds included, runs
all n_steps RK4 steps in a single ``_grid.rk4`` call, and each stage builds
the field coefficients of all pairs from z(t) on the spot.  No row is
shared or dropped, so the tests use this as the oracle of
``stochastic.pullback_batch``, which integrates each distinct row once."""

import numpy as np

from bhlattice import _grid
from bhlattice.stepping import forcing_grid
from bhlattice.stochastic import ou_path, realization_seed


def full_stack_pullback(p, noise, sigmas, realizations, dt, init,
                        path_horizon=0.0):
    """points[i, j] of pullback_batch(p, noise, sigmas, realizations, dt,
    init, path_horizon), integrated on the whole stack."""
    n_steps = int(round(noise.pullback_T / dt))
    dt = noise.pullback_T / n_steps
    horizon = max(noise.pullback_T, path_horizon)
    paths = [ou_path(realization_seed(noise.master_seed, k), -horizon, 0.0,
                     noise.h_path) for k in realizations]
    f = forcing_grid(p, init.half_width, init.space)
    sig = np.asarray(sigmas, dtype=float)[:, None]

    def F(t, U):
        z = np.array([np.interp(t, path.grid, path.z) for path in paths])
        sz = (sig * z)[..., None, None]
        coef = _grid.field_coefficients(p, np.exp(sz), sz, f)
        return _grid.field(coef, U, init.space)

    U0 = np.broadcast_to(init.points,
                         (len(sigmas), len(paths)) + init.points.shape)
    return _grid.rk4(F, U0.copy(), -noise.pullback_T, dt, n_steps)
