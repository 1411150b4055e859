"""Dense vectorized kernels on the index grid [-K, K].

All public library types delegate their numerics here.  Arrays carry the
state in the last axis (length 2K+1); any number of leading batch axes is
allowed, so a whole point cloud evolves in one call.

Two boundary closures exist:
  * "window": the bi-infinite stencil applied to a zero-padded window; the
    two components the stencil would write just outside the grid are clipped.
  * "truncated": the (2m+1)-dimensional Dirichlet system, whose second
    difference is the composition of the clipped first differences (its two
    corner rows differ from the clipped infinite stencil).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NoConvergence, NonFinite


def d_plus(U: np.ndarray) -> np.ndarray:
    """(D+ U)_i = U_{i+1} - U_i, zero beyond the right edge."""
    out = -U
    out[..., :-1] += U[..., 1:]
    return out


def d_minus(U: np.ndarray) -> np.ndarray:
    """(D- U)_i = U_{i-1} - U_i, zero beyond the left edge."""
    out = -U
    out[..., 1:] += U[..., :-1]
    return out


def field_coefficients(p, e, sz, f_grid: np.ndarray) -> tuple:
    """Coefficients of the field at noise factor e = exp(sigma*z) and shift
    sz = sigma*z, as (nu, ae, c0, c1, c2, f/e) for ``field``: the diagonal
    terms are the cubic U*(c0 + U*(c1 + c2*U)) + f/e, the left coupling
    (nu + ae*U_i)*U_{i-1}.  At e = 1, sz = 0 they give the deterministic
    field, bit for bit.

    e and sz are scalars, or arrays that broadcast against U with a length-1
    state axis, one noise value per state row; a leading axis more gives
    the coefficients of many noise values at once, elementwise the same."""
    nu = -p.nu if p.laplacian_sign == "continuum" else p.nu
    ae = p.alpha * e
    c0 = 2.0 * nu - p.beta * p.gamma - p.lam + sz
    c1 = ae + p.beta * (1.0 + p.gamma) * e
    c2 = -p.beta * e * e
    return nu, ae, c0, c1, c2, f_grid / e


def field(coef: tuple, U: np.ndarray, mode: str) -> np.ndarray:
    """The Burgers-Huxley field of the closure ``mode`` at U, one grid or a
    stack of grids, with the coefficients ``coef`` of ``field_coefficients``:
    the diagonal terms as one Horner cubic, then the neighbour couplings.

    Every field evaluation of the package goes through this one kernel;
    an integration builds its coefficients once, e.g.
    ``field_coefficients(p, 1.0, 0.0, f_grid)`` for the deterministic
    field.  Each row's result depends on that row and its coefficients
    alone, bit for bit, whatever the batch shape or memory order of U.
    The result is a new array."""
    if mode not in ("window", "truncated"):
        raise ValueError(f"unknown mode {mode!r}")
    nu, ae, c0, c1, c2, fe = coef
    U = np.ascontiguousarray(U)
    # Horner form U*(c0 + U*(c1 + c2*U)), evaluated in place
    out = c2 * U
    out += c1
    out *= U
    out += c0
    out *= U
    out += fe
    # neighbour couplings on the flat rows (contiguous, unlike 2-D slices),
    # with the products across a row boundary zeroed
    n = U.shape[-1]
    u, o = (U, out) if U.ndim == 1 else (U.reshape(-1), out.reshape(-1))
    # left = (nu + ae*U_i)*U_{i-1}, in place; a per-row ae multiplies U
    # before it is flattened
    if isinstance(ae, np.ndarray):
        left = (ae * U).reshape(-1)[1:]
    else:
        left = ae * u[1:]
    left += nu
    left *= u[:-1]
    right = nu * u[1:]
    if U.ndim > 1:
        left[n - 1::n] = 0.0
        right[n - 1::n] = 0.0
    o[1:] -= left
    o[:-1] -= right
    if mode == "truncated":
        # the Dirichlet corner row of d_plus(d_minus) has diagonal 1, not 2
        out[..., -1] -= nu * U[..., -1]
    return out


def random_field(p, sigma: float, z: float, U: np.ndarray,
                 f_grid: np.ndarray, mode: str) -> np.ndarray:
    """Transformed random vector field with noise intensity sigma at noise
    value z, exactly as displayed for the conjugated system."""
    sz = sigma * z
    return field(field_coefficients(p, float(np.exp(sz)), sz, f_grid),
                 U, mode)


def row_norms(U: np.ndarray) -> np.ndarray:
    # the ufunc reduction np.sum calls, without its Python-level wrapper
    return np.sqrt(np.add.reduce(U * U, axis=-1))


def picard_solve(field_fn, u_prev: np.ndarray, eps: float, tol: float,
                 max_iter: int, F_prev: np.ndarray | None = None):
    """Solve y = u_prev + eps*F(y) by iterating the contraction map.

    Returns (y, residual, iterations, F(y)); the residual is the exact
    defect ||y - u_prev - eps*F(y)|| (max over batch rows), certified by one
    field evaluation per iteration.  ``F_prev``, if given, must equal
    field_fn(u_prev) and replaces the first evaluation.  A non-finite
    defect raises NonFinite.

    The defect is squared and summed per row in place, and the square root
    taken of the largest sum only: sqrt is correctly rounded and monotone,
    so this is the largest row norm, bit for bit.
    """
    y = u_prev
    Fy = field_fn(y) if F_prev is None else F_prev
    for it in range(1, max_iter + 1):
        y_new = eps * Fy
        y_new += u_prev
        Fy_new = field_fn(y_new)
        d = y_new - u_prev
        d -= eps * Fy_new
        d *= d
        sq = np.add.reduce(d, axis=-1)
        resid = math.sqrt(sq if d.ndim == 1 else sq.max())
        y, Fy = y_new, Fy_new
        if not math.isfinite(resid):
            raise NonFinite("fixed-point iterate overflowed")
        if resid <= tol:
            return y, resid, it, Fy
    raise NoConvergence(max_iter, resid)


def field_jacobian(p, U: np.ndarray, mode: str) -> np.ndarray:
    """Tridiagonal Jacobian of the vector field at a single state U (1-D),
    as the (3, n) bands of ``scipy.linalg.solve_banded``: row 0 the
    superdiagonal (from column 1), row 1 the diagonal, row 2 the
    subdiagonal (to column n-2).  LAPACK's ``dgtsv`` takes them as
    dl = bands[2, :-1], d = bands[1] and du = bands[0, 1:]."""
    nu = -p.nu if p.laplacian_sign == "continuum" else p.nu
    reac = -3.0 * U**2 + 2.0 * (1.0 + p.gamma) * U - p.gamma
    bands = np.zeros((3, U.size))
    bands[0, 1:] = -nu
    bands[1] = 2.0 * nu - p.alpha * (d_minus(U) - U) + p.beta * reac - p.lam
    bands[2, :-1] = -nu - p.alpha * U[1:]
    if mode == "truncated":
        # the Dirichlet corner row of d_plus(d_minus) has diagonal 1, not 2
        bands[1, -1] -= nu
    return bands


def stage_times(t0: float, dt: float, n_steps: int) -> np.ndarray:
    """The 2*n_steps + 1 times at which ``rk4`` evaluates the field, in
    order: entry 2j is the start of step j, t0 plus dt added j times one
    addition at a time (so the end of step j is the start of step j + 1,
    bit for bit), and entry 2j + 1 is its midpoint."""
    starts = np.cumsum(np.concatenate(([t0], np.full(n_steps, dt))))
    times = np.empty(2 * n_steps + 1)
    times[0::2] = starts
    times[1::2] = starts[:-1] + 0.5 * dt
    return times


def rk4(field_fn, U: np.ndarray, t0: float, dt: float, n_steps: int) -> np.ndarray:
    """Classical fourth-order one-step method for dU/dt = field_fn(t, U)
    with the scalar step dt, at the times of ``stage_times``.

    field_fn must return a new array of U's shape on every call, which
    this loop then updates in place: the stage states share one scratch
    array, and the weighted sum ((k1 + 2 k2) + 2 k3) + k4 of the classical
    formula accumulates into k2, in the order of the formula.  U itself is
    not written to.

    Overflow is not checked here: a batch may hold rows that blow up next
    to rows that do not, so each caller tests the end state it needs
    (``require_finite`` for a single run)."""
    times = stage_times(t0, dt, n_steps).tolist()
    half, sixth = 0.5 * dt, dt / 6.0
    stage = np.empty(np.shape(U))
    for j in range(0, 2 * n_steps, 2):
        t, t_mid, t_end = times[j], times[j + 1], times[j + 2]
        k1 = field_fn(t, U)
        np.multiply(k1, half, out=stage)
        stage += U
        k2 = field_fn(t_mid, stage)
        np.multiply(k2, half, out=stage)
        stage += U
        k3 = field_fn(t_mid, stage)
        np.multiply(k3, dt, out=stage)
        stage += U
        k4 = field_fn(t_end, stage)
        k2 *= 2.0
        k2 += k1
        np.multiply(k3, 2.0, out=stage)
        k2 += stage
        k2 += k4
        k2 *= sixth
        k2 += U
        U = k2
    return U


def require_finite(U: np.ndarray) -> np.ndarray:
    """U itself, or NonFinite if an integration left any entry non-finite."""
    if not np.all(np.isfinite(U)):
        raise NonFinite("integrator state overflowed; reduce the step size")
    return U
