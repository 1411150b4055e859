"""Ornstein-Uhlenbeck noise paths, the transformed random vector field, the
random absorbing radius, and pullback sampling of random attractors.

The noise intensity is called sigma throughout (the time step keeps the
name eps).  Paths are generated from t_max backwards so that extending the
pullback horizon leaves the realized noise near time zero unchanged.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json

import numpy as np

from . import _grid
from .attractor import PointCloud
from .errors import HorizonTooShort, _is_int, _is_real
from .lattice import LatticeWindow, Params, derived_constants, window_field
from .stepping import forcing_grid

OU_SCHEMA_VERSION = 1

# stationary law of dz + z dt = dW: Normal(0, 1/2)
STATIONARY_VARIANCE = 0.5


def ou_decay(h: float) -> float:
    """Exact one-step autoregression coefficient over a grid spacing h."""
    return float(np.exp(-h))


def ou_innovation_std(h: float) -> float:
    """Exact one-step innovation standard deviation over spacing h."""
    return float(np.sqrt((1.0 - np.exp(-2.0 * h)) * STATIONARY_VARIANCE))


@dataclasses.dataclass(frozen=True)
class OUPath:
    """Stationary Ornstein-Uhlenbeck path sampled on a uniform grid."""

    t_min: float
    t_max: float
    h_path: float
    z: np.ndarray
    seed: int

    def __post_init__(self):
        if not self.h_path > 0:
            raise ValueError("h_path must be positive")
        if not -np.inf < self.t_min < self.t_max < np.inf:
            raise ValueError("t_min must be below t_max, both finite")
        arr = np.asarray(self.z, dtype=float)
        n = int(round((self.t_max - self.t_min) / self.h_path)) + 1
        if arr.shape != (n,):
            raise ValueError("grid length inconsistent with the horizon")
        if not np.all(np.isfinite(arr)):
            raise ValueError("path values must be finite")
        object.__setattr__(self, "z", arr)
        self.z.setflags(write=False)

    @functools.cached_property
    def grid(self) -> np.ndarray:
        # anchored at t_max so that t = 0 is always an exact node
        n = self.z.size
        grid = self.t_max - self.h_path * (n - 1 - np.arange(n))
        grid.setflags(write=False)
        return grid

    def at(self, t: float) -> float:
        """Linear interpolation between grid nodes, as np.interp(t,
        self.grid, self.z)."""
        _check_horizon(self.grid, t, t)
        return float(np.interp(t, self.grid, self.z))


def _check_horizon(grid: np.ndarray, t_first: float, t_last: float):
    """ValueError unless [t_first, t_last] lies on the path grid, up to a
    rounding slack at its ends."""
    slack = 1e-9 * max(1.0, abs(grid[0]))
    if t_first < grid[0] - slack or t_last > grid[-1] + slack:
        raise ValueError("time outside the path horizon")


def ou_path(seed: int, t_min: float, t_max: float, h: float) -> OUPath:
    """Sample the stationary solution of dz + z dt = dW exactly on the grid.

    Generation runs from t_max backwards (the reversed stationary process is
    the same AR(1) recursion), so for a fixed seed the values on [t, t_max]
    do not change when t_min is pushed further into the past.
    """
    if not (t_min < t_max):
        raise ValueError("t_min must be below t_max")
    if h <= 0:
        raise ValueError("h must be positive")
    # snap the horizon outward to a whole number of grid cells
    n_seg = int(np.ceil((t_max - t_min) / h - 1e-12))
    t_min = t_max - n_seg * h
    n = n_seg + 1
    a = ou_decay(h)
    # all n normals in one draw: x[0] starts the path at t_max in the
    # stationary law, and x[k] for k >= 1 is the innovation of z[n-1-k] =
    # a*z[n-k] + x[k].  The recursion runs on Python floats, rounding each
    # product and sum as written (scipy.signal.lfilter gives the same bits,
    # but importing scipy.signal takes about a second and 35 MB)
    x = np.random.default_rng(seed).standard_normal(n)
    x[0] *= np.sqrt(STATIONARY_VARIANCE)
    x[1:] *= ou_innovation_std(h)
    back = itertools.accumulate(memoryview(x), lambda y, xk: a * y + xk)
    z = np.fromiter(back, float, count=n)[::-1].copy()
    return OUPath(t_min, t_max, h, z, seed)


def ergodic_average(path: OUPath) -> float:
    """Trapezoidal time average of z over the path horizon."""
    horizon = path.t_max - path.t_min
    if horizon < 100:
        raise ValueError("path horizon too short for an ergodic average")
    return float(np.trapezoid(path.z, dx=path.h_path) / horizon)


@dataclasses.dataclass
class NoiseConfig:
    """Pullback-experiment controls; the noise intensities are the
    caller's (``grids.sigma_list`` in the noise study)."""

    h_path: float = 0.01
    pullback_T: float = 30.0
    realizations: int = 20
    master_seed: int = 2024

    def __post_init__(self):
        if not all(_is_real(x) and x > 0 for x in (self.h_path, self.pullback_T)):
            raise ValueError("h_path and pullback_T must be positive numbers")
        if not _is_int(self.realizations) or self.realizations < 1:
            raise ValueError("realizations must be a positive integer")
        if not _is_int(self.master_seed) or self.master_seed < 0:
            raise ValueError("master_seed must be a nonnegative integer")


def realization_seed(master_seed: int, realization_index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=master_seed,
                                  spawn_key=(realization_index,))


def random_field(p: Params, sigma: float, z_t: float,
                 U: LatticeWindow) -> LatticeWindow:
    """Transformed random vector field at noise value z_t.

    At sigma = 0 this reduces to the deterministic vector field (the cubic
    regroups componentwise).
    """
    return window_field(p, U, lambda G, f: _grid.random_field(
        p, sigma, z_t, G, f, "window"))


# RK4 steps per segment of a pullback, after which equal rows merge: the
# noise table of 16 steps for 56 rows of 33 sites takes about 0.5 MB
SEGMENT_STEPS = 16


def _stage_noise(paths, times: np.ndarray) -> np.ndarray:
    """z of every path at every stage time, as a (times, paths) array, by
    linear interpolation; ValueError unless each path covers the times."""
    for path in paths:
        _check_horizon(path.grid, times[0], times[-1])
    return np.stack([np.interp(times, path.grid, path.z) for path in paths],
                    axis=1)


def _segment_field(p: Params, sigma, path, z, times, f_grid):
    """The random field of each row of a pullback stack over one segment,
    as the coefficient lookup t -> coefficients for ``_grid.rk4``: row r has
    noise intensity sigma[r] along path path[r], and z[:, k] is path k at
    the segment's stage times ``times``.  The coefficients of every row at
    every stage time are built here, once, from sigma*z and exp(sigma*z)
    with a length-1 state axis; a lookup at any other time is refused."""
    sz = (sigma * z[:, path])[..., None]
    nu, *coef = _grid.field_coefficients(p, np.exp(sz), sz, f_grid)
    table = dict(zip(times.tolist(), [(nu, *c) for c in zip(*coef)]))

    def coef_at(t: float) -> tuple:
        c = table.get(t)
        if c is None:
            raise ValueError(f"stage time {t!r} is not in the noise table")
        return c

    return coef_at


def _distinct(sigma, path, U: np.ndarray):
    """Group the rows of a pullback stack that integrate alike: equal
    sigma, equal path and equal bits of U as int64 (-0.0 is not 0.0); a
    row that is not finite is a group of its own.  Returns keep, the first
    row of each group in row order, and group, each row's index into keep."""
    n = U.shape[0]
    key = np.empty((n, U.shape[1] + 2), dtype=np.int64)
    key[:, 0] = np.asarray(sigma, dtype=float).view(np.int64)
    key[:, 1] = np.where(np.isfinite(U).all(axis=1), path, -1 - np.arange(n))
    key[:, 2:] = U.view(np.int64)
    # one void scalar per row, much cheaper to sort than np.unique(axis=0)
    rows = key.view(np.dtype((np.void, key.strides[0]))).ravel()
    _, first, group = np.unique(rows, return_index=True, return_inverse=True)
    keep = np.sort(first)
    return keep, np.searchsorted(keep, first[group])


@dataclasses.dataclass(frozen=True)
class PullbackBatch:
    """Time-0 clouds of a pullback batch: points[i, j] is the cloud for
    sigma i along realization j, and finite[i, j] says whether it stayed
    finite.  paths[j] is realization j's OU path, shared by every sigma.
    The clouds took n_steps RK4 steps of dt = pullback_T / n_steps, on
    rows[0] distinct rows at the start and rows[1] at the end."""

    points: np.ndarray
    finite: np.ndarray
    paths: tuple
    dt: float
    n_steps: int
    rows: tuple


def pullback_batch(p: Params, noise: NoiseConfig, sigmas, realizations,
                   dt: float, initial_cloud: PointCloud,
                   path_horizon: float = 0.0) -> PullbackBatch:
    """Evolve a cloud from time -pullback_T to 0 for every noise intensity
    in ``sigmas`` along every realization index in ``realizations``.

    noise supplies h_path, pullback_T and master_seed; its realization
    count is not read.  Each realization's OU path is generated
    once from its derived seed, over [-max(pullback_T, path_horizon), 0], so
    the same path serves every sigma (and, with a long enough horizon, the
    absorbing radius).  The clouds take n_steps = round(pullback_T / dt)
    equal steps of the classical fourth-order one-step method.

    Each row's RK4 step depends on that row and its coefficients alone,
    bit for bit, so rows with equal sigma, path and bits (``_distinct``)
    are integrated once: they merge before the first step and after each
    segment of SEGMENT_STEPS steps.  Every sigma = 0 row reads path 0, as
    sigma*z is +-0.0 and exp(+-0.0) is 1.0 whatever z is.  Each pair's
    cloud is the one a plain RK4 loop calling ``random_field`` at z(t) in
    every stage would give, bit for bit.  Pairs that overflow are flagged
    in ``finite``, not raised.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n_steps = int(round(noise.pullback_T / dt))
    if n_steps < 1:
        raise ValueError(f"pullback_T={noise.pullback_T} is shorter than half "
                         f"the step dt={dt}")
    dt = noise.pullback_T / n_steps
    horizon = max(noise.pullback_T, path_horizon)
    realizations = list(realizations)
    paths = tuple(ou_path(realization_seed(noise.master_seed, k), -horizon,
                          0.0, noise.h_path) for k in realizations)
    times = _grid.stage_times(-noise.pullback_T, dt, n_steps)
    z = _stage_noise(paths, times)
    # the full stack of (sigma, realization, point) rows, each along the
    # first path of its realization, and each sigma = 0 row at sigma +0.0
    # (-0.0 + 0.0 is +0.0) along path 0; row r of it is row of[r] of U
    shape = (len(sigmas), len(paths)) + initial_cloud.points.shape
    sig = np.repeat(np.asarray(sigmas, dtype=float) + 0.0, shape[1] * shape[2])
    path = np.repeat([realizations.index(k) for k in realizations], shape[2])
    path = np.where(sig == 0, 0, np.tile(path, shape[0]))
    U = np.tile(initial_cloud.points, (shape[0] * shape[1], 1))
    keep, of = _distinct(sig, path, U)
    U, sig, path = U[keep], sig[keep], path[keep]
    rows_start = U.shape[0]
    mode = initial_cloud.space
    f_grid = forcing_grid(p, initial_cloud.half_width, mode)
    for start in range(0, n_steps, SEGMENT_STEPS):
        steps = min(SEGMENT_STEPS, n_steps - start)
        seg = slice(2 * start, 2 * (start + steps) + 1)
        # the old table goes first, so that two are never held at once
        coef_at = None
        coef_at = _segment_field(p, sig, path, z[seg], times[seg], f_grid)
        U = _grid.rk4(coef_at, U, times[2 * start], dt, steps, mode)
        if start + steps < n_steps:
            keep, group = _distinct(sig, path, U)
            U, sig, path, of = U[keep], sig[keep], path[keep], group[of]
    pts = U[of].reshape(shape)
    return PullbackBatch(pts, np.isfinite(pts).all(axis=(-2, -1)), paths, dt,
                         n_steps, (rows_start, U.shape[0]))


def pullback_sample(p: Params, noise: NoiseConfig, sigma: float,
                    realization_index: int, dt: float,
                    initial_cloud: PointCloud) -> PointCloud:
    """Evolve a cloud from time -pullback_T to 0 along one noise realization
    at noise intensity sigma >= 0.

    The one-sigma, one-realization case of ``pullback_batch``.  The
    returned time-0 cloud samples the random attractor; an overflow raises
    NonFinite.
    """
    if not _is_real(sigma) or sigma < 0:
        raise ValueError("sigma must be a nonnegative number")
    batch = pullback_batch(p, noise, [sigma], [realization_index], dt,
                           initial_cloud)
    pts = _grid.require_finite(batch.points[0, 0])
    meta = dict(initial_cloud.meta)
    meta.update({
        "sigma": sigma,
        "seed": int(batch.paths[0].seed.entropy),
        "realization": realization_index,
        "pullback_T": noise.pullback_T,
    })
    return PointCloud(initial_cloud.space, initial_cloud.half_width, pts,
                      meta=meta)


@dataclasses.dataclass(frozen=True)
class AbsorbingRadius:
    value: float
    truncation_bound: float


def absorbing_radius(p: Params, sigma: float, path: OUPath,
                     quad_tol: float) -> AbsorbingRadius:
    """Random absorbing radius squared for one noise realization.

    R = 1 + (||f||^2/(lam - lam*)) * int_{-inf}^0 exp(-2*sigma*z(s)
        - int_0^s 2*sigma*z(r) dr + (lam - lam*)*s) ds,
    evaluated by trapezoidal quadrature over the path grid, which must end
    at time 0; the reported truncation bound estimates the discarded tail
    below t_min.
    """
    dc = derived_constants(p)
    gap = p.lam - dc.lambda_star
    if abs(path.t_max) > 1e-12:
        raise ValueError("path must end at time 0")
    if np.exp(gap * path.t_min) > quad_tol:
        raise HorizonTooShort(
            f"path horizon {-path.t_min} too short for quad_tol={quad_tol}")
    fn2 = p.f.norm() ** 2
    if fn2 == 0.0:
        return AbsorbingRadius(1.0, 0.0)
    s = path.grid
    z = path.z
    # inner integral int_0^s 2*sigma*z dr accumulated from the right (s=0)
    seg = 0.5 * path.h_path * (z[1:] + z[:-1])
    back = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])  # int_s^0 z dr
    inner = -2.0 * sigma * back  # int_0^s 2 sigma z dr
    integrand = np.exp(-2.0 * sigma * z - inner + gap * s)
    integral = float(np.trapezoid(integrand, dx=path.h_path))
    tail = float(integrand[0]) / gap
    return AbsorbingRadius(1.0 + fn2 / gap * integral,
                           fn2 / gap * tail)


# -- serialization ----------------------------------------------------------


def ou_path_to_json(path: OUPath) -> str:
    doc = {
        "version": OU_SCHEMA_VERSION,
        "t_min": path.t_min,
        "t_max": path.t_max,
        "h_path": path.h_path,
        "seed": path.seed if isinstance(path.seed, int) else str(path.seed),
        "z": [float(v) for v in path.z],
    }
    return json.dumps(doc, separators=(",", ":"))


def ou_path_from_json(text: str) -> OUPath:
    doc = json.loads(text)
    if doc.get("version") != OU_SCHEMA_VERSION:
        raise ValueError(f"unsupported path schema version {doc.get('version')}")
    seed = doc["seed"]
    return OUPath(doc["t_min"], doc["t_max"], doc["h_path"],
                  np.array(doc["z"], dtype=float),
                  int(seed) if isinstance(seed, (int, str)) and str(seed).isdigit() else seed)
