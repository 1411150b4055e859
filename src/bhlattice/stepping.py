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
                      derived_constants, vector_field)

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


def _check_step(dc: DerivedConstants, cfg: StepConfig, u_prev: LatticeWindow):
    if cfg.enforce_eps_star and cfg.eps > dc.eps_star:
        raise StepTooLarge(
            f"eps={cfg.eps} exceeds the contraction-safe cap {dc.eps_star}")
    if u_prev.norm() > dc.r_star * (1.0 + 1e-12):
        warnings.warn(
            "initial state lies outside the absorbing ball; the contraction "
            "guarantees do not apply", RuntimeWarning)


def implicit_step_info(p: Params, cfg: StepConfig, u_prev: LatticeWindow,
                       half_width: int = DEFAULT_HALF_WIDTH):
    """One implicit Euler step u_next = u_prev + eps*F(u_next).

    Returns (u_next, StepInfo).  The residual in StepInfo is the exact
    defect of the returned state.
    """
    return _step_info(p, derived_constants(p), cfg, u_prev, half_width)


def _step_info(p: Params, dc: DerivedConstants, cfg: StepConfig,
               u_prev: LatticeWindow, half_width: int):
    """``implicit_step_info`` with the constants of p already computed."""
    _check_step(dc, cfg, u_prev)
    grid = _to_grid_clamped(u_prev, half_width)
    f_grid = f_on_grid(p, half_width)
    if cfg.method == "newton":
        y, resid, iters = _grid.newton_solve(
            p, grid, cfg.eps, f_grid, "window", cfg.fp_tol, cfg.max_iter)
    else:
        y, resid, iters, _ = _grid.picard_solve(
            lambda U: _grid.field(p, U, f_grid, "window"),
            grid, cfg.eps, cfg.fp_tol, cfg.max_iter)
    return LatticeWindow.from_grid(y, half_width), StepInfo(resid, iters)


def implicit_step(p: Params, cfg: StepConfig, u_prev: LatticeWindow,
                  half_width: int = DEFAULT_HALF_WIDTH) -> LatticeWindow:
    return implicit_step_info(p, cfg, u_prev, half_width)[0]


def run_trajectory(p: Params, cfg: StepConfig, u0: LatticeWindow,
                   n_steps: int, half_width: int = DEFAULT_HALF_WIDTH) -> Trajectory:
    """Iterate the implicit step; returns the full state sequence u_0..u_N."""
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    dc = derived_constants(p) if n_steps else None
    states = [u0]
    u = u0
    for _ in range(n_steps):
        u = _step_info(p, dc, cfg, u, half_width)[0]
        states.append(u)
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


def reference_flow(p: Params, u0: LatticeWindow, t: float, dt_ref: float,
                   half_width: int = DEFAULT_HALF_WIDTH) -> LatticeWindow:
    """Approximate continuous-time flow u(t, u0) by the classical fourth-order
    one-step method with step dt_ref; t must be a multiple of dt_ref."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if dt_ref <= 0:
        raise ValueError("dt_ref must be positive")
    n = int(round(t / dt_ref))
    if abs(n * dt_ref - t) > 1e-9 * max(t, dt_ref):
        raise ValueError("t must be a multiple of dt_ref")
    grid = _to_grid_clamped(u0, half_width)
    f_grid = f_on_grid(p, half_width)
    out = _grid.rk4(lambda _t, U: _grid.field(p, U, f_grid, "window"),
                    grid, 0.0, dt_ref, n)
    _grid.require_finite(out)
    return LatticeWindow.from_grid(out, half_width)


def local_error(p: Params, eps: float, y: LatticeWindow, dt_ref: float,
                half_width: int = DEFAULT_HALF_WIDTH,
                fp_tol: float = 1e-12) -> float:
    """One-step defect ||u(eps, y) - u^eps_1(y)|| between the reference flow
    and a single implicit step, both started from y."""
    cfg = StepConfig(eps=eps, fp_tol=fp_tol, enforce_eps_star=False)
    u_implicit = implicit_step(p, cfg, y, half_width)
    u_exact = reference_flow(p, y, eps, dt_ref, half_width)
    return (u_exact - u_implicit).norm()


def global_error(p: Params, eps: float, y: LatticeWindow, T: float,
                 dt_ref: float, half_width: int = DEFAULT_HALF_WIDTH,
                 fp_tol: float = 1e-12) -> float:
    """||u(T, y) - u^eps_{T/eps}(y)|| with T an integer multiple of eps."""
    n = int(round(T / eps))
    if abs(n * eps - T) > 1e-9 * max(T, eps):
        raise ValueError("T must be an integer multiple of eps")
    cfg = StepConfig(eps=eps, fp_tol=fp_tol, enforce_eps_star=False)
    grid = _to_grid_clamped(y, half_width)
    f_grid = f_on_grid(p, half_width)
    grid = advance_grid(p, cfg, grid, n, "window", f_grid)
    u_exact = reference_flow(p, y, T, dt_ref, half_width)
    return float(np.linalg.norm(u_exact.to_grid(half_width) - grid))
