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


# RK4 steps per segment of a pullback and per block of its noise table:
# 16 steps of coefficients for 56 rows of 33 sites take about 0.5 MB.  A
# cloud that has become one point is dropped at a segment's end
TABLE_BLOCK_STEPS = 16


class _NoiseTable:
    """The random field of each row of a pullback stack at the RK4 stage
    times ``_grid.stage_times(t0, dt, n_steps)``, as a right-hand side
    f(t, U) for ``_grid.rk4`` on an (N, n) stack.

    z is read off each path at every stage time once.  ``select`` gives
    each row's noise intensity and path, and the field coefficients of
    those rows are built from them TABLE_BLOCK_STEPS steps at a time; each
    call applies the coefficients of its stage time, which must be the
    time of the last call or the next one."""

    def __init__(self, p: Params, sigmas, paths, t0: float, dt: float,
                 n_steps: int, f_grid: np.ndarray, mode: str):
        self.times = _grid.stage_times(t0, dt, n_steps)
        for path in paths:
            _check_horizon(path.grid, self.times[0], self.times[-1])
        # z at every stage time, (times, R)
        self._z = np.stack([np.interp(self.times, path.grid, path.z)
                            for path in paths], axis=1)
        self._sig = np.asarray(sigmas, dtype=float)
        self._p, self._f_grid, self._mode = p, f_grid, mode
        # the index of the last call's stage time
        self._now = 0

    def select(self, sigma_index, path_index):
        """From the current stage time on, row r of the stack has noise
        intensity sigmas[sigma_index[r]] along paths[path_index[r]]."""
        self._sig_rows = self._sig[sigma_index]
        self._path_rows = np.asarray(path_index)
        self._fill(self._now)

    def _fill(self, start: int):
        # the coefficients of the next block, one per row and stage time,
        # from sigma*z and exp(sigma*z) with a length-1 state axis
        stop = min(start + 2 * TABLE_BLOCK_STEPS, self.times.size)
        # the old block goes first, so that two are never held at once
        self._block = None
        sz = (self._sig_rows * self._z[start:stop, self._path_rows])[..., None]
        nu, *coef = _grid.field_coefficients(self._p, np.exp(sz), sz,
                                             self._f_grid)
        self._block = [(nu, *c) for c in zip(*coef)]
        self._start, self._stop = start, stop

    def __call__(self, t: float, U: np.ndarray) -> np.ndarray:
        i = self._now
        if t != self.times[i]:
            i += 1
            if i == self.times.size or t != self.times[i]:
                raise ValueError(f"stage time {t!r} is not in the noise "
                                 f"table after {self.times[i - 1]!r}")
            if i == self._stop:
                self._fill(i)
            self._now = i
        return _grid.field(self._block[i - self._start], U, self._mode)


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


def _collapsed(U: np.ndarray, where: np.ndarray) -> np.ndarray:
    """Whether each cloud is one point: cloud c has its points in the rows
    where[c] of the stack U, and it is one point when every such row has
    the bits of the first (so -0.0 is not 0.0) and that row is finite."""
    bits = U.view(np.int64)[where]
    return ((bits == bits[:, :1]).all(axis=(1, 2))
            & np.isfinite(U[where[:, 0]]).all(axis=1))


def pullback_batch(p: Params, noise: NoiseConfig, sigmas, realizations,
                   dt: float, initial_cloud: PointCloud,
                   path_horizon: float = 0.0) -> PullbackBatch:
    """Evolve a cloud from time -pullback_T to 0 for every noise intensity
    in ``sigmas`` along every realization index in ``realizations``.

    noise supplies h_path, pullback_T and master_seed; its realization
    count is not read.  Each realization's OU path is generated
    once from its derived seed, over [-max(pullback_T, path_horizon), 0], so
    the same path serves every sigma (and, with a long enough horizon, the
    absorbing radius).  The clouds are integrated with the classical
    fourth-order one-step method, in n_steps = round(pullback_T / dt) equal
    steps, as one stack that holds each distinct row once:

    * every sigma = 0 pair has the same field coefficients, bit for bit,
      whatever z is (sigma*z is +-0.0, exp(+-0.0) is 1.0), and so has every
      pair with equal sigma and realization index, so each such group is
      one cloud;
    * the stack runs TABLE_BLOCK_STEPS steps at a time, and after each
      segment a cloud whose points are all bitwise equal to its first,
      compared as int64 (so -0.0 is not 0.0) and finite, goes on as that
      one row: each row's RK4 step depends on that row alone, bit for bit.

    The noise is tabulated once per stage time: z by linear interpolation
    on each path, then the field coefficients of every row, so the stage
    loop only applies them.  Each pair's cloud is the one a plain RK4 loop
    calling ``random_field`` at z(t) in every stage would give, bit for
    bit.  Pairs that overflow are flagged in ``finite``, not raised.
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
    # one cloud per distinct (sigma, realization) pair, integrated at the
    # sigma and path of its first pair; cloud_of[pair] is each pair's cloud
    clouds, cloud_of, firsts = {}, [], []
    for i, sigma in enumerate(sigmas):
        for j, k in enumerate(realizations):
            key = 0.0 if sigma == 0 else (float(sigma), k)
            if key not in clouds:
                clouds[key] = len(firsts)
                firsts.append((i, j))
            cloud_of.append(clouds[key])
    cloud_sig, cloud_path = np.array(firsts, dtype=np.intp).reshape(-1, 2).T
    n_points = initial_cloud.points.shape[0]
    # row where[c, q] of the stack U holds point q of cloud c, and row r
    # belongs to cloud row_cloud[r]
    where = np.arange(cloud_sig.size * n_points).reshape(-1, n_points)
    row_cloud = np.repeat(np.arange(cloud_sig.size), n_points)
    U = np.tile(initial_cloud.points, (cloud_sig.size, 1))
    rows_start = U.shape[0]
    mode = initial_cloud.space
    f_grid = forcing_grid(p, initial_cloud.half_width, mode)
    rhs = _NoiseTable(p, sigmas, paths, -noise.pullback_T, dt, n_steps,
                      f_grid, mode)
    rhs.select(cloud_sig[row_cloud], cloud_path[row_cloud])
    for start in range(0, n_steps, TABLE_BLOCK_STEPS):
        steps = min(TABLE_BLOCK_STEPS, n_steps - start)
        U = _grid.rk4(rhs, U, rhs.times[2 * start], dt, steps)
        if start + steps == n_steps:
            break
        # a cloud of several rows that is now one point goes on as its
        # first row
        open_ = np.flatnonzero(where[:, -1] != where[:, 0])
        met = _collapsed(U, where[open_])
        if met.any():
            where[open_[met]] = where[open_[met], :1]
            keep = np.zeros(U.shape[0], dtype=bool)
            keep[where] = True
            where = (np.cumsum(keep) - 1)[where]
            U, row_cloud = U[keep], row_cloud[keep]
            rhs.select(cloud_sig[row_cloud], cloud_path[row_cloud])
    pts = U[where[cloud_of]].reshape((len(sigmas), len(paths))
                                     + initial_cloud.points.shape)
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
