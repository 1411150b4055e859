"""Ornstein-Uhlenbeck noise paths, the transformed random vector field, the
random absorbing radius, and pullback sampling of random attractors.

The noise intensity is called sigma throughout (the time step keeps the
name eps).  Paths are generated from t_max backwards so that extending the
pullback horizon leaves the realized noise near time zero unchanged.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from . import _grid
from .attractor import PointCloud
from .errors import HorizonTooShort
from .lattice import LatticeWindow, Params, derived_constants
from .truncation import truncated_forcing

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
        arr = np.asarray(self.z, dtype=float)
        n = int(round((self.t_max - self.t_min) / self.h_path)) + 1
        if arr.shape != (n,):
            raise ValueError("grid length inconsistent with the horizon")
        if not np.all(np.isfinite(arr)):
            raise ValueError("path values must be finite")
        object.__setattr__(self, "z", arr)
        self.z.setflags(write=False)

    @property
    def grid(self) -> np.ndarray:
        # anchored at t_max so that t = 0 is always an exact node
        n = self.z.size
        return self.t_max - self.h_path * (n - 1 - np.arange(n))

    def at(self, t: float) -> float:
        """Linear interpolation between grid nodes, as np.interp(t,
        self.grid, self.z)."""
        return float(_interp(self, t))


def _interp(path, t: float):
    """np.interp(t, grid, z) along the first axis of the path's values z,
    without building the grid.

    Node k lies at t_max - h_path*(last - k); the interval and the
    arithmetic are those np.interp uses.  ``path`` is an OUPath (z of shape
    (nodes,)) or an OUPathStack (z of shape (nodes, R)); for a stack, one
    cell lookup serves all R paths and each gets the value it would get
    alone.
    """
    slack = 1e-9 * max(1.0, abs(path.t_min))
    if t < path.t_min - slack or t > path.t_max + slack:
        raise ValueError("time outside the path horizon")
    z, h, t_max = path.z, path.h_path, path.t_max
    last = z.shape[0] - 1
    if t >= t_max:
        return z[last]
    # the rounded cell index can be one off from the node left of t
    k = min(max(last - math.ceil((t_max - t) / h), 0), last - 1)
    while k > 0 and t < t_max - h * (last - k):
        k -= 1
    while k < last - 1 and t >= t_max - h * (last - k - 1):
        k += 1
    x0 = t_max - h * (last - k)
    z0 = z[k]
    if t <= x0:  # on node k, or left of the first node
        return z0
    x1 = t_max - h * (last - k - 1)
    return (z[k + 1] - z0) / (x1 - x0) * (t - x0) + z0


@dataclasses.dataclass(frozen=True)
class OUPathStack:
    """Paths on one common grid, interpolated together: z[:, r] holds path
    r, and ``at`` returns every path's value with one cell lookup."""

    t_min: float
    t_max: float
    h_path: float
    z: np.ndarray

    @classmethod
    def of(cls, paths) -> "OUPathStack":
        first = paths[0]
        for path in paths:
            if (path.t_min, path.t_max, path.h_path, path.z.size) != (
                    first.t_min, first.t_max, first.h_path, first.z.size):
                raise ValueError("stacked paths must share one grid")
        z = np.stack([path.z for path in paths], axis=1)
        z.setflags(write=False)
        return cls(first.t_min, first.t_max, first.h_path, z)

    def at(self, t: float) -> np.ndarray:
        """Every path's OUPath.at(t), as an array."""
        return _interp(self, t)


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
    rng = np.random.default_rng(seed)
    a = ou_decay(h)
    s = ou_innovation_std(h)
    z = np.empty(n)
    z[-1] = np.sqrt(STATIONARY_VARIANCE) * rng.standard_normal()
    for j in range(n - 2, -1, -1):
        z[j] = a * z[j + 1] + s * rng.standard_normal()
    return OUPath(t_min, t_max, h, z, seed)


def ergodic_average(path: OUPath) -> float:
    """Trapezoidal time average of z over the path horizon."""
    horizon = path.t_max - path.t_min
    if horizon < 100:
        raise ValueError("path horizon too short for an ergodic average")
    return float(np.trapezoid(path.z, dx=path.h_path) / horizon)


@dataclasses.dataclass
class NoiseConfig:
    """Noise intensity and pullback-experiment controls."""

    sigma: float = 0.1
    h_path: float = 0.01
    pullback_T: float = 30.0
    realizations: int = 20
    master_seed: int = 2024

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if self.h_path <= 0 or self.pullback_T <= 0:
            raise ValueError("h_path and pullback_T must be positive")
        if self.realizations < 1:
            raise ValueError("realizations must be positive")


def realization_seed(master_seed: int, realization_index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=master_seed,
                                  spawn_key=(realization_index,))


def random_field(p: Params, sigma: float, z_t: float,
                 U: LatticeWindow) -> LatticeWindow:
    """Transformed random vector field at noise value z_t.

    At sigma = 0 this reduces to the deterministic vector field (the cubic
    regroups componentwise).
    """
    lo, hi = U.support
    flo, fhi = p.f.support
    half = max(abs(lo), abs(hi), abs(flo), abs(fhi), 1) + 1
    grid = U.to_grid(half)
    f_grid = p.f.to_grid(half)
    out = _grid.random_field(p, sigma, z_t, grid, f_grid, "window")
    return LatticeWindow.from_grid(out, half)


@dataclasses.dataclass(frozen=True)
class PullbackBatch:
    """Time-0 clouds of a pullback batch: points[i, j] is the cloud for
    sigma i along realization j, and finite[i, j] says whether it stayed
    finite.  paths[j] is realization j's OU path, shared by every sigma."""

    points: np.ndarray
    finite: np.ndarray
    paths: tuple


def pullback_batch(p: Params, noise: NoiseConfig, sigmas, realizations,
                   dt: float, initial_cloud: PointCloud,
                   path_horizon: float = 0.0) -> PullbackBatch:
    """Evolve a cloud from time -pullback_T to 0 for every noise intensity
    in ``sigmas`` along every realization index in ``realizations``.

    noise supplies h_path, pullback_T and master_seed; its own sigma and
    realization count are not read.  Each realization's OU path is generated
    once from its derived seed, over [-max(pullback_T, path_horizon), 0], so
    the same path serves every sigma (and, with a long enough horizon, the
    absorbing radius).  All len(sigmas)*len(realizations) copies of the
    cloud are integrated as one stack with the classical fourth-order
    one-step method, sampling z by linear interpolation; each copy's result
    is the one it would get on its own, bit for bit.  Copies that overflow
    are flagged in ``finite``, not raised.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    horizon = max(noise.pullback_T, path_horizon)
    paths = tuple(ou_path(realization_seed(noise.master_seed, k), -horizon,
                          0.0, noise.h_path) for k in realizations)
    stack = OUPathStack.of(paths)
    n_steps = int(round(noise.pullback_T / dt))
    dt = noise.pullback_T / n_steps
    mode = initial_cloud.space
    if mode == "truncated":
        f_grid = truncated_forcing(p, initial_cloud.half_width)
    else:
        f_grid = p.f.to_grid(initial_cloud.half_width)
    # (S, 1, 1) against z of shape (R, 1): one noise value per (S, R) cloud
    sig = np.asarray(sigmas, dtype=float)[:, None, None]

    def rhs(t, U):
        return _grid.random_field(p, sig, stack.at(t)[:, None], U, f_grid,
                                  mode)

    U0 = np.broadcast_to(initial_cloud.points,
                         (sig.shape[0], len(paths)) + initial_cloud.points.shape)
    pts = _grid.rk4(rhs, U0.copy(), -noise.pullback_T, dt, n_steps)
    return PullbackBatch(pts, np.isfinite(pts).all(axis=(-2, -1)), paths)


def pullback_sample(p: Params, noise: NoiseConfig, realization_index: int,
                    dt: float, initial_cloud: PointCloud) -> PointCloud:
    """Evolve a cloud from time -pullback_T to 0 along one noise realization.

    The one-sigma, one-realization case of ``pullback_batch``.  The
    returned time-0 cloud samples the random attractor; an overflow raises
    NonFinite.
    """
    batch = pullback_batch(p, noise, [noise.sigma], [realization_index], dt,
                           initial_cloud)
    pts = _grid.require_finite(batch.points[0, 0])
    meta = dict(initial_cloud.meta)
    meta.update({
        "sigma": noise.sigma,
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
    evaluated by trapezoidal quadrature over the path grid; the reported
    truncation bound estimates the discarded tail below t_min.
    """
    dc = derived_constants(p)
    gap = p.lam - dc.lambda_star
    if path.t_max < -1e-12:
        raise ValueError("path must reach time 0")
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
