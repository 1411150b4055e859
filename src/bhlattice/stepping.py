"""Implicit Euler stepping of the lattice system, plus the explicit
fourth-order reference integrator used as the continuous-time oracle."""

from __future__ import annotations

import dataclasses
import hashlib
import warnings

import numpy as np

from . import _grid
from .errors import StepTooLarge
from .lattice import (DerivedConstants, LatticeWindow, Params,
                      derived_constants)

DEFAULT_HALF_WIDTH = 128
# tail mass silently lost to window clamping before a warning is emitted
CLIP_MASS_WARN = 1e-14


@dataclasses.dataclass(frozen=True)
class StepConfig:
    """Time step and fixed-point solver controls."""

    eps: float
    fp_tol: float = 1e-10
    max_iter: int = 400
    enforce_eps_star: bool = True
    method: str = "picard"  # "newton" is unsupported-by-theory, for eps > eps*

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.fp_tol <= 0:
            raise ValueError("fp_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.method not in ("picard", "newton"):
            raise ValueError("method must be 'picard' or 'newton'")


@dataclasses.dataclass(frozen=True)
class StepInfo:
    residual: float
    iterations: int


@dataclasses.dataclass(frozen=True)
class Trajectory:
    states: tuple
    eps: float
    params_hash: str


def params_hash(p: Params) -> str:
    key = (p.nu, p.alpha, p.beta, p.gamma, p.lam, p.laplacian_sign,
           p.f.offset, p.f.values.tobytes())
    return hashlib.sha256(repr(key).encode()).hexdigest()[:16]


def f_on_grid(p: Params, half_width: int) -> np.ndarray:
    return p.f.to_grid(half_width)


def _to_grid_clamped(u: LatticeWindow, half_width: int) -> np.ndarray:
    lo, hi = u.support
    if u.values.size and (lo < -half_width or hi > half_width):
        grid = u.clip_to_grid(half_width)
        clipped = u.norm() ** 2 - float(grid @ grid)
        if clipped > CLIP_MASS_WARN:
            warnings.warn(
                f"window clamped to half-width {half_width}: "
                f"clipped tail mass {clipped:.3e}", RuntimeWarning)
        return grid
    return u.to_grid(half_width)


def _check_step(dc: DerivedConstants, cfg: StepConfig, norm: float):
    """Refuse a step above eps* (unless cfg allows it) and warn when the
    state, of l^2 norm ``norm``, starts outside the absorbing ball."""
    if cfg.enforce_eps_star and cfg.eps > dc.eps_star:
        raise StepTooLarge(
            f"eps={cfg.eps} exceeds the contraction-safe cap {dc.eps_star}")
    if norm > dc.r_star * (1.0 + 1e-12):
        warnings.warn(
            "initial state lies outside the absorbing ball; the contraction "
            "guarantees do not apply", RuntimeWarning)


def grid_step(p: Params, cfg: StepConfig, grid: np.ndarray,
              f_grid: np.ndarray, mode: str,
              F_prev: np.ndarray | None = None):
    """One implicit Euler step y = grid + eps*F(y) of a single state grid,
    with the boundary closure ``mode``; the caller runs ``_check_step``.

    F_prev, if given, is F at grid and saves the Picard solve one
    evaluation.  Returns (y, StepInfo, F(y)), with None in place of F(y)
    for the Newton solve.  The residual in StepInfo is the exact defect of
    y.
    """
    if cfg.method == "newton":
        y, resid, iters = _grid.newton_solve(
            p, grid, cfg.eps, f_grid, mode, cfg.fp_tol, cfg.max_iter)
        return y, StepInfo(resid, iters), None
    y, resid, iters, Fy = _grid.picard_solve(
        lambda U: _grid.field(p, U, f_grid, mode),
        grid, cfg.eps, cfg.fp_tol, cfg.max_iter, F_prev)
    return y, StepInfo(resid, iters), Fy


def implicit_step_info(p: Params, cfg: StepConfig, u_prev: LatticeWindow,
                       half_width: int = DEFAULT_HALF_WIDTH):
    """One implicit Euler step u_next = u_prev + eps*F(u_next).

    Returns (u_next, StepInfo).  The residual in StepInfo is the exact
    defect of the returned state.
    """
    _check_step(derived_constants(p), cfg, u_prev.norm())
    y, info, _ = grid_step(p, cfg, _to_grid_clamped(u_prev, half_width),
                           f_on_grid(p, half_width), "window")
    return LatticeWindow.from_grid(y, half_width), info


def implicit_step(p: Params, cfg: StepConfig, u_prev: LatticeWindow,
                  half_width: int = DEFAULT_HALF_WIDTH) -> LatticeWindow:
    return implicit_step_info(p, cfg, u_prev, half_width)[0]


def run_trajectory(p: Params, cfg: StepConfig, u0: LatticeWindow,
                   n_steps: int, half_width: int = DEFAULT_HALF_WIDTH) -> Trajectory:
    """Iterate the implicit step; returns the full state sequence u_0..u_N."""
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    states = [u0]
    if n_steps:
        dc = derived_constants(p)
        f_grid = f_on_grid(p, half_width)
        # the state stays a grid between steps, and each step starts from
        # the last step's solution, whose F(y) is known
        y, F = _to_grid_clamped(u0, half_width), None
        for _ in range(n_steps):
            _check_step(dc, cfg, float(np.linalg.norm(y)))
            y, _, F = grid_step(p, cfg, y, f_grid, "window", F)
            states.append(LatticeWindow.from_grid(y, half_width))
    return Trajectory(tuple(states), cfg.eps, params_hash(p))


def advance_grid(p: Params, cfg: StepConfig, U: np.ndarray, n_steps: int,
                 mode: str, f_grid: np.ndarray) -> np.ndarray:
    """Batched implicit Euler advance of a (batch, dim) array of states."""
    # each step starts from the last step's solution, whose F(y) is known
    F = None
    for _ in range(n_steps):
        U, _, _, F = _grid.picard_solve(
            lambda Y: _grid.field(p, Y, f_grid, mode),
            U, cfg.eps, cfg.fp_tol, cfg.max_iter, F)
    return U


def step_count(t: float, dt: float) -> int:
    """Number of steps of size dt that reach time t; t must be an integer
    multiple of dt."""
    n = int(round(t / dt))
    if abs(n * dt - t) > 1e-9 * max(t, dt):
        raise ValueError(
            f"time {t} is not an integer multiple of the step {dt}")
    return n


def reference_flows(p: Params, Y: np.ndarray, dts, stops,
                    half_width: int = DEFAULT_HALF_WIDTH) -> np.ndarray:
    """Reference flows of an (R, n) stack of start grids, n = 2*half_width+1,
    by the classical fourth-order one-step method.

    Row r steps with dts[r] and is recorded after each step count in
    stops[r] (an (R, k) array of nonnegative integers); the result is the
    (R, k, n) array of those snapshots.  All rows advance together, in
    segments between the sorted step counts, and a row leaves the stack
    once its last snapshot is taken; each snapshot equals, bit for bit, the
    integration of its row alone.  Raises NonFinite if a snapshot overflowed.
    """
    Y = np.asarray(Y, dtype=float)
    dts = np.asarray(dts, dtype=float)
    stops = np.asarray(stops, dtype=int)
    if Y.ndim != 2 or Y.shape[1] != 2 * half_width + 1:
        raise ValueError("Y must be an (R, 2*half_width+1) stack of grids")
    if dts.shape != (len(Y),) or stops.ndim != 2 or len(stops) != len(Y):
        raise ValueError("dts and stops need one row per grid in Y")
    if np.any(dts <= 0):
        raise ValueError("dt_ref must be positive")
    if np.any(stops < 0):
        raise ValueError("step counts must be nonnegative")
    f_grid = f_on_grid(p, half_width)
    out = np.empty(stops.shape + Y.shape[1:])
    live = np.arange(len(Y))
    U, done = Y, 0
    for stop in np.unique(stops):
        if stop > done:
            # the field is autonomous, so each row may keep its own step
            U = _grid.rk4(lambda _t, V: _grid.field(p, V, f_grid, "window"),
                          U, 0.0, dts[live, None], int(stop - done))
            done = stop
        rows, cols = np.nonzero(stops[live] == stop)
        out[live[rows], cols] = _grid.require_finite(U[rows])
        keep = stops[live].max(axis=1) > stop
        live, U = live[keep], U[keep]
    return out


def reference_flow(p: Params, u0: LatticeWindow, t: float, dt_ref: float,
                   half_width: int = DEFAULT_HALF_WIDTH) -> LatticeWindow:
    """Approximate continuous-time flow u(t, u0) by the classical fourth-order
    one-step method with step dt_ref; t must be a multiple of dt_ref."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if dt_ref <= 0:
        raise ValueError("dt_ref must be positive")
    n = step_count(t, dt_ref)
    grid = _to_grid_clamped(u0, half_width)
    out = reference_flows(p, grid[None], [dt_ref], [[n]], half_width)
    return LatticeWindow.from_grid(out[0, 0], half_width)


def local_defect(p: Params, eps: float, y: LatticeWindow,
                 u_exact: LatticeWindow, half_width: int = DEFAULT_HALF_WIDTH,
                 fp_tol: float = 1e-12) -> float:
    """||u_exact - u^eps_1(y)|| for a single implicit step from y, with
    u_exact the reference flow from y at time eps."""
    cfg = StepConfig(eps=eps, fp_tol=fp_tol, enforce_eps_star=False)
    return (u_exact - implicit_step(p, cfg, y, half_width)).norm()


def global_defect(p: Params, eps: float, y: LatticeWindow, n_steps: int,
                  u_exact: LatticeWindow, half_width: int = DEFAULT_HALF_WIDTH,
                  fp_tol: float = 1e-12) -> float:
    """||u_exact - u^eps_n(y)|| after n_steps implicit steps from y, with
    u_exact the reference flow from y at time n_steps*eps."""
    cfg = StepConfig(eps=eps, fp_tol=fp_tol, enforce_eps_star=False)
    grid = advance_grid(p, cfg, _to_grid_clamped(y, half_width), n_steps,
                        "window", f_on_grid(p, half_width))
    return float(np.linalg.norm(u_exact.to_grid(half_width) - grid))


def local_error(p: Params, eps: float, y: LatticeWindow, dt_ref: float,
                half_width: int = DEFAULT_HALF_WIDTH,
                fp_tol: float = 1e-12) -> float:
    """One-step defect ||u(eps, y) - u^eps_1(y)|| between the reference flow
    and a single implicit step, both started from y."""
    u_exact = reference_flow(p, y, eps, dt_ref, half_width)
    return local_defect(p, eps, y, u_exact, half_width, fp_tol)


def global_error(p: Params, eps: float, y: LatticeWindow, T: float,
                 dt_ref: float, half_width: int = DEFAULT_HALF_WIDTH,
                 fp_tol: float = 1e-12) -> float:
    """||u(T, y) - u^eps_{T/eps}(y)|| with T an integer multiple of eps."""
    n = step_count(T, eps)
    u_exact = reference_flow(p, y, T, dt_ref, half_width)
    return global_defect(p, eps, y, n, u_exact, half_width, fp_tol)
