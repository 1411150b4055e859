"""Implicit Euler stepping of the lattice system, plus the explicit
fourth-order reference integrator used as the continuous-time oracle."""

from __future__ import annotations

import dataclasses
import hashlib
import warnings

import numpy as np

from . import _grid
from .errors import StepTooLarge
from .lattice import LatticeWindow, Params, derived_constants

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


def forcing_grid(p: Params, half_width: int, mode: str) -> np.ndarray:
    """The forcing on the sites |i| <= half_width of the system ``mode``:
    all of f on a window, which must hold it, and f clipped to |i| <= m on
    the truncated system."""
    if mode == "truncated":
        return p.f.clip_to_grid(half_width)
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


def implicit_steps(p: Params, cfg: StepConfig, Y: np.ndarray, n_steps: int,
                   mode: str):
    """Yield (Y, StepInfo) for each of n_steps implicit Euler steps
    Y_next = Y + eps*F(Y_next) of one grid or a (..., 2K+1) stack of grids,
    with the boundary closure ``mode`` and the system's own forcing.

    Refuses eps above eps* (unless cfg allows it), and warns once if a row
    of the start lies outside the absorbing ball, which the steps keep
    forward invariant.  Newton takes one grid only.  Each Picard solve
    starts from the last step's solution, whose F(Y) it already knows.
    The residual in StepInfo is the exact defect of Y, its worst row's.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    if cfg.method == "newton" and Y.ndim != 1:
        raise ValueError("Newton steps take a single grid, not a stack")
    if not n_steps:
        return
    dc = derived_constants(p)
    if cfg.enforce_eps_star and not dc.allows_step(cfg.eps):
        raise StepTooLarge(
            f"eps={cfg.eps} exceeds the contraction-safe cap {dc.eps_star}")
    if np.max(_grid.row_norms(Y)) > dc.r_star * (1.0 + 1e-12):
        warnings.warn(
            "initial state lies outside the absorbing ball; the "
            "contraction guarantees do not apply", RuntimeWarning)
    f_grid = forcing_grid(p, (Y.shape[-1] - 1) // 2, mode)
    F = None
    for _ in range(n_steps):
        if cfg.method == "newton":
            Y, resid, iters = _grid.newton_solve(
                p, Y, cfg.eps, f_grid, mode, cfg.fp_tol, cfg.max_iter)
        else:
            Y, resid, iters, F = _grid.picard_solve(
                lambda U: _grid.field(p, U, f_grid, mode), Y, cfg.eps,
                cfg.fp_tol, cfg.max_iter, F)
        yield Y, StepInfo(resid, iters)


def implicit_step_info(p: Params, cfg: StepConfig, u_prev: LatticeWindow,
                       half_width: int = DEFAULT_HALF_WIDTH):
    """One implicit Euler step u_next = u_prev + eps*F(u_next).

    Returns (u_next, StepInfo).  The residual in StepInfo is the exact
    defect of the returned state.
    """
    (y, info), = implicit_steps(
        p, cfg, _to_grid_clamped(u_prev, half_width), 1, "window")
    return LatticeWindow.from_grid(y, half_width), info


def run_trajectory(p: Params, cfg: StepConfig, u0: LatticeWindow,
                   n_steps: int, half_width: int = DEFAULT_HALF_WIDTH) -> Trajectory:
    """Iterate the implicit step; returns the full state sequence u_0..u_N."""
    # the state stays a grid between steps; only the returned states
    # become windows
    steps = implicit_steps(p, cfg, _to_grid_clamped(u0, half_width), n_steps,
                           "window")
    states = [u0] + [LatticeWindow.from_grid(y, half_width) for y, _ in steps]
    return Trajectory(tuple(states), cfg.eps, params_hash(p))


def advance_grid(p: Params, cfg: StepConfig, U: np.ndarray, n_steps: int,
                 mode: str) -> np.ndarray:
    """U after n_steps implicit Euler steps: one grid or a stack of them."""
    for U, _ in implicit_steps(p, cfg, U, n_steps, mode):
        pass
    return U


def step_count(t: float, dt: float) -> int:
    """Number of steps of size dt that reach time t; t must be an integer
    multiple of dt."""
    if dt <= 0:
        raise ValueError("the step must be positive")
    n = int(round(t / dt))
    if abs(n * dt - t) > 1e-9 * max(t, dt):
        raise ValueError(
            f"time {t} is not an integer multiple of the step {dt}")
    return n


def reference_flows(p: Params, Y: np.ndarray, dt: float, n_steps: int,
                    mode: str = "window") -> np.ndarray:
    """End states of n_steps of the classical fourth-order one-step method
    with step dt, from an (R, 2K+1) stack of start grids of the system
    ``mode``.  Each row equals, bit for bit, the integration of that row
    alone.  Raises NonFinite if any row overflowed."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] % 2 == 0:
        raise ValueError("Y must be an (R, 2K+1) stack of grids")
    if dt <= 0:
        raise ValueError("the step must be positive")
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    f_grid = forcing_grid(p, (Y.shape[1] - 1) // 2, mode)
    return _grid.require_finite(_grid.rk4(
        lambda _t, V: _grid.field(p, V, f_grid, mode), Y, 0.0, dt, n_steps))


def reference_flow(p: Params, u0: LatticeWindow, t: float, dt_ref: float,
                   half_width: int = DEFAULT_HALF_WIDTH) -> LatticeWindow:
    """Approximate continuous-time flow u(t, u0) by the classical fourth-order
    one-step method with step dt_ref; t must be a multiple of dt_ref."""
    grid = _to_grid_clamped(u0, half_width)
    out = reference_flows(p, grid[None], dt_ref, step_count(t, dt_ref))
    return LatticeWindow.from_grid(out[0], half_width)


def defect(p: Params, eps: float, Y: np.ndarray, n_steps: int,
           U_exact: np.ndarray, fp_tol: float = 1e-12) -> float:
    """||U_exact - u^eps_n(Y)|| after n_steps implicit steps from the window
    grid Y, with U_exact the reference flow from Y at time n_steps*eps.
    Refuses eps above eps*."""
    out = advance_grid(p, StepConfig(eps=eps, fp_tol=fp_tol), Y, n_steps,
                       "window")
    return float(np.linalg.norm(U_exact - out))


def local_error(p: Params, eps: float, y: LatticeWindow, dt_ref: float,
                half_width: int = DEFAULT_HALF_WIDTH,
                fp_tol: float = 1e-12) -> float:
    """One-step defect ||u(eps, y) - u^eps_1(y)|| between the reference flow
    and a single implicit step, both started from y: the global error at
    T = eps."""
    return global_error(p, eps, y, eps, dt_ref, half_width, fp_tol)


def global_error(p: Params, eps: float, y: LatticeWindow, T: float,
                 dt_ref: float, half_width: int = DEFAULT_HALF_WIDTH,
                 fp_tol: float = 1e-12) -> float:
    """||u(T, y) - u^eps_{T/eps}(y)|| with T an integer multiple of eps."""
    n = step_count(T, eps)
    Y = _to_grid_clamped(y, half_width)[None]
    U_exact = reference_flows(p, Y, dt_ref, step_count(T, dt_ref))
    return defect(p, eps, Y, n, U_exact, fp_tol)
