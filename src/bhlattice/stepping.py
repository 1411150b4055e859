"""Implicit Euler stepping of the lattice system, plus the explicit
fourth-order reference integrator used as the continuous-time oracle."""

from __future__ import annotations

import dataclasses
import importlib.machinery
import importlib.util
import sys
import warnings

import numpy as np

from . import _grid
from .errors import NoConvergence, NonFinite, StepTooLarge
from .lattice import LatticeWindow, Params, derived_constants

DEFAULT_HALF_WIDTH = 128
# tail mass silently lost to window clamping before a warning is emitted
CLIP_MASS_WARN = 1e-14
# Newton on F(u) = 0 stops at this max-norm residual, or fails after
# EQUILIBRIUM_MAX_ITER iterations
EQUILIBRIUM_TOL = 1e-13
EQUILIBRIUM_MAX_ITER = 50
# Picard iterations an implicit step may take before NoConvergence
PICARD_MAX_ITER = 400
# solutions ``run_trajectory`` turns into windows at once; the block is
# reused, so it is all the trajectory holds as grids
TRAJ_BLOCK = 256
# fixed-point tolerance of the implicit steps whose error ``defect``
# measures, far below the smallest defect the error-order study resolves
DEFECT_FP_TOL = 1e-12
# scipy's LAPACK wrappers, loaded by ``_flapack`` without scipy.linalg
_FLAPACK = "scipy.linalg._flapack"


@dataclasses.dataclass(frozen=True)
class StepConfig:
    """Time step and fixed-point solver controls."""

    eps: float
    fp_tol: float = 1e-10
    enforce_eps_star: bool = True

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.fp_tol <= 0:
            raise ValueError("fp_tol must be positive")


@dataclasses.dataclass(frozen=True)
class StepInfo:
    residual: float
    iterations: int


@dataclasses.dataclass(frozen=True)
class Trajectory:
    states: tuple


def forcing_grid(p: Params, half_width: int, mode: str) -> np.ndarray:
    """The forcing on the sites |i| <= half_width of the system ``mode``:
    all of f on a window, which must hold it, and f clipped to |i| <= m on
    the truncated system."""
    if mode == "truncated":
        return p.f.clip_to_grid(half_width)
    return p.f.to_grid(half_width)


def _to_grid_clamped(u: LatticeWindow, half_width: int) -> np.ndarray:
    if not u.fits(half_width):
        grid = u.clip_to_grid(half_width)
        clipped = u.norm() ** 2 - float(grid @ grid)
        if clipped > CLIP_MASS_WARN:
            warnings.warn(
                f"window clamped to half-width {half_width}: "
                f"clipped tail mass {clipped:.3e}", RuntimeWarning)
        return grid
    return u.to_grid(half_width)


def check_step(dc, cfg: StepConfig):
    """StepTooLarge if cfg's eps exceeds eps* and cfg enforces the cap."""
    if cfg.enforce_eps_star and not dc.allows_step(cfg.eps):
        raise StepTooLarge(
            f"eps={cfg.eps} exceeds the contraction-safe cap {dc.eps_star}")


def implicit_steps(p: Params, cfg: StepConfig, Y: np.ndarray, n_steps: int,
                   mode: str):
    """Yield (Y, StepInfo) for each of n_steps implicit Euler steps
    Y_next = Y + eps*F(Y_next) of one grid or a (..., 2K+1) stack of grids,
    with the boundary closure ``mode`` and the system's own forcing.

    Refuses eps above eps* (unless cfg allows it), and warns once if a row
    of the start lies outside the absorbing ball, which the steps keep
    forward invariant.  Each Picard solve starts from the last step's
    solution, whose F(Y) it already knows.
    The residual in StepInfo is the exact defect of Y, its worst row's.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    if not n_steps:
        return
    dc = derived_constants(p)
    check_step(dc, cfg)
    if np.max(_grid.row_norms(Y)) > dc.r_star * (1.0 + 1e-12):
        warnings.warn(
            "initial state lies outside the absorbing ball; the "
            "contraction guarantees do not apply", RuntimeWarning)
    coef = _grid.field_coefficients(
        p, 1.0, 0.0, forcing_grid(p, (Y.shape[-1] - 1) // 2, mode))
    F = None
    for _ in range(n_steps):
        Y, resid, iters, F = _grid.picard_solve(
            coef, Y, cfg.eps, cfg.fp_tol, PICARD_MAX_ITER, mode, F)
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
    """Iterate the implicit step; returns the full state sequence u_0..u_N.

    The state stays a grid between steps.  The solutions are copied into
    one reused block of TRAJ_BLOCK grids, and each filled block becomes
    windows at once, by ``LatticeWindow.from_grids``."""
    steps = implicit_steps(p, cfg, _to_grid_clamped(u0, half_width), n_steps,
                           "window")
    block = np.empty((TRAJ_BLOCK, 2 * half_width + 1))
    states, rows = [u0], 0
    for y, _ in steps:
        block[rows] = y
        rows += 1
        if rows == TRAJ_BLOCK:
            states += LatticeWindow.from_grids(block, half_width)
            rows = 0
    states += LatticeWindow.from_grids(block[:rows], half_width)
    return Trajectory(tuple(states))


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
    coef = _grid.field_coefficients(
        p, 1.0, 0.0, forcing_grid(p, (Y.shape[1] - 1) // 2, mode))
    return _grid.require_finite(_grid.rk4(
        lambda _t: coef, Y, 0.0, dt, n_steps, mode))


def reference_flow(p: Params, u0: LatticeWindow, t: float, dt_ref: float,
                   half_width: int = DEFAULT_HALF_WIDTH) -> LatticeWindow:
    """Approximate continuous-time flow u(t, u0) by the classical fourth-order
    one-step method with step dt_ref; t must be a multiple of dt_ref."""
    grid = _to_grid_clamped(u0, half_width)
    out = reference_flows(p, grid[None], dt_ref, step_count(t, dt_ref))
    return LatticeWindow.from_grid(out[0], half_width)


def defect(p: Params, eps: float, Y: np.ndarray, n_steps: int,
           U_exact: np.ndarray) -> float:
    """||U_exact - u^eps_n(Y)|| after n_steps implicit steps, solved to
    DEFECT_FP_TOL, from the window grid Y, with U_exact the reference flow
    from Y at time n_steps*eps.  Refuses eps above eps*."""
    out = advance_grid(p, StepConfig(eps=eps, fp_tol=DEFECT_FP_TOL), Y,
                       n_steps, "window")
    return float(np.linalg.norm(U_exact - out))


def local_error(p: Params, eps: float, y: LatticeWindow, dt_ref: float,
                half_width: int = DEFAULT_HALF_WIDTH) -> float:
    """One-step defect ||u(eps, y) - u^eps_1(y)|| between the reference flow
    and a single implicit step, both started from y: the global error at
    T = eps."""
    return global_error(p, eps, y, eps, dt_ref, half_width)


def global_error(p: Params, eps: float, y: LatticeWindow, T: float,
                 dt_ref: float, half_width: int = DEFAULT_HALF_WIDTH) -> float:
    """||u(T, y) - u^eps_{T/eps}(y)|| with T an integer multiple of eps."""
    n = step_count(T, eps)
    # refuse before the reference run, which does not depend on eps
    check_step(derived_constants(p), StepConfig(eps=eps))
    Y = _to_grid_clamped(y, half_width)[None]
    U_exact = reference_flows(p, Y, dt_ref, step_count(T, dt_ref))
    return defect(p, eps, Y, n, U_exact)


def _flapack():
    """scipy's LAPACK extension module, ``scipy.linalg._flapack``, whose
    f2py wrappers ``scipy.linalg.lapack`` re-exports.

    Loaded on first use and on its own: importing ``scipy.linalg`` to reach
    it would run the package's ``__init__``, about 300 more modules and 20
    MB.  The module is registered under its own name, so a later ``import
    scipy.linalg`` reuses it, and ``scipy.linalg.lapack.dgtsv`` is this
    module's ``dgtsv``: one copy, the same function objects."""
    module = sys.modules.get(_FLAPACK)
    if module is not None:
        return module
    # imports the top-level scipy package only, not scipy.linalg
    package = importlib.util.find_spec("scipy.linalg")
    spec = package and importlib.machinery.PathFinder.find_spec(
        _FLAPACK, package.submodule_search_locations)
    if spec is None:
        raise ImportError(f"cannot find {_FLAPACK}", name=_FLAPACK)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_FLAPACK] = module
    spec.loader.exec_module(module)
    return module


def equilibrium(p: Params, half_width: int, mode: str = "window"):
    """Zero u* of the field of the system ``mode`` on the sites |i| <=
    half_width, by Newton from u = 0 on the field's tridiagonal Jacobian.

    Returns (u*, max|F(u*)|, iterations).  Stops once max|F| <=
    EQUILIBRIUM_TOL; raises NoConvergence after EQUILIBRIUM_MAX_ITER
    iterations, NonFinite if an iterate overflows and
    np.linalg.LinAlgError if a Jacobian is singular."""
    coef = _grid.field_coefficients(p, 1.0, 0.0,
                                    forcing_grid(p, half_width, mode))
    u = np.zeros(2 * half_width + 1)
    it = 0
    while True:
        F = _grid.field(coef, u, mode)
        resid = float(np.max(np.abs(F)))
        if not np.isfinite(resid):
            raise NonFinite("Newton iterate overflowed")
        if resid <= EQUILIBRIUM_TOL:
            return u, resid, it
        if it == EQUILIBRIUM_MAX_ITER:
            raise NoConvergence(it, resid)
        # LAPACK's tridiagonal solve, the routine that
        # scipy.linalg.solve_banded((1, 1), ...) calls, without the
        # wrapper's checks, which cost several times the solve itself
        bands = _grid.field_jacobian(p, u, mode)
        _, _, _, step, info = _flapack().dgtsv(bands[2, :-1], bands[1],
                                               bands[0, 1:], F)
        if info:
            raise np.linalg.LinAlgError(f"dgtsv failed with info={info}")
        u = u - step
        it += 1


def point_contraction(p: Params, u: np.ndarray, mode: str = "window") -> float:
    """kappa = mu* + c^2/(4 beta) at the grid u of the system ``mode``: mu*
    the largest eigenvalue of the symmetric part of the field's Jacobian
    at u, and c = 2 alpha + beta max_i |1 + gamma - 3 u_i|.

    At a zero u* of the field, <F(u* + w), w> <= kappa ||w||^2 for every
    w: the quadratic terms of F(u* + w) - J(u*)w give at most c sum |w_i|^3
    (Young's inequality), and c|w_i|^3 - beta w_i^4 <= (c^2/(4 beta)) w_i^2.
    So kappa < 0 makes u* the one attractor of the flow and of implicit
    Euler at every step."""
    bands = _grid.field_jacobian(p, u, mode)
    n = u.size
    # LAPACK's bisection for the n-th of n eigenvalues (range 2, il = iu =
    # n), the routine that scipy.linalg.eigvalsh_tridiagonal(select="i")
    # calls, without the wrapper's argument checks, which cost more than the
    # bisection itself on the truncated systems
    _, top, _, _, info = _flapack().dstebz(
        bands[1], 0.5 * (bands[0, 1:] + bands[2, :-1]), 2, 0.0, 0.0, n, n,
        0.0, "E")
    if info:
        raise np.linalg.LinAlgError(f"dstebz failed with info={info}")
    c = 2.0 * p.alpha + p.beta * float(np.max(np.abs(1.0 + p.gamma - 3.0 * u)))
    return float(top[0]) + c * c / (4.0 * p.beta)
