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


def _kernel(p, e, sz, U: np.ndarray, f_grid: np.ndarray,
            mode: str) -> np.ndarray:
    """Field at noise factor e = exp(sigma*z) and shift sz = sigma*z: the
    diagonal terms as one Horner cubic in U, then the neighbour couplings.
    At e = 1, sz = 0 it is the deterministic field, bit for bit.

    e and sz are scalars, or arrays that broadcast against the leading
    (batch) axes of U, one noise value per state row."""
    if mode not in ("window", "truncated"):
        raise ValueError(f"unknown mode {mode!r}")
    rowwise = isinstance(e, np.ndarray)
    if rowwise:
        # one value per row: broadcast along the state axis too
        e, sz = e[..., None], sz[..., None]
    nu = -p.nu if p.laplacian_sign == "continuum" else p.nu
    ae = p.alpha * e
    c0 = 2.0 * nu - p.beta * p.gamma - p.lam + sz
    c1 = ae + p.beta * (1.0 + p.gamma) * e
    c2 = -p.beta * e * e
    U = np.ascontiguousarray(U)
    # Horner form U*(c0 + U*(c1 + c2*U)), evaluated in place
    out = c2 * U
    out += c1
    out *= U
    out += c0
    out *= U
    out += f_grid / e
    # neighbour couplings on the flat rows (contiguous, unlike 2-D slices),
    # with the products across a row boundary zeroed
    n = U.shape[-1]
    u, o = U.reshape(-1), out.reshape(-1)
    # left = (nu + ae*U_i)*U_{i-1}, in place; a per-row ae multiplies U
    # before it is flattened
    left = (ae * U).reshape(-1)[1:] if rowwise else ae * u[1:]
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


def field(p, U: np.ndarray, f_grid: np.ndarray, mode: str) -> np.ndarray:
    """Burgers-Huxley vector field on the grid."""
    return _kernel(p, 1.0, 0.0, U, f_grid, mode)


def random_field(p, sigma, z, U: np.ndarray, f_grid: np.ndarray,
                 mode: str) -> np.ndarray:
    """Transformed random vector field with noise intensity sigma at noise
    value z, exactly as displayed for the conjugated system.

    sigma and z are scalars, or arrays whose product broadcasts against the
    leading axes of U: for a (S, R, P, n) stack of clouds, sigma of shape
    (S, 1, 1) and z of shape (R, 1) give each (S, R) cloud its own value."""
    sz = sigma * z
    e = np.exp(sz)
    return _kernel(p, e if isinstance(e, np.ndarray) else float(e), sz, U,
                   f_grid, mode)


def row_norms(U: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(U * U, axis=-1))


def picard_solve(field_fn, u_prev: np.ndarray, eps: float, tol: float,
                 max_iter: int, F_prev: np.ndarray | None = None):
    """Solve y = u_prev + eps*F(y) by iterating the contraction map.

    Returns (y, residual, iterations, F(y)); the residual is the exact
    defect ||y - u_prev - eps*F(y)|| (max over batch rows), certified by one
    field evaluation per iteration.  ``F_prev``, if given, must equal
    field_fn(u_prev) and replaces the first evaluation.
    """
    y = u_prev
    Fy = field_fn(y) if F_prev is None else F_prev
    for it in range(1, max_iter + 1):
        y_new = u_prev + eps * Fy
        Fy_new = field_fn(y_new)
        resid = float(np.max(row_norms(y_new - u_prev - eps * Fy_new)))
        y, Fy = y_new, Fy_new
        if not np.isfinite(resid):
            raise NonFinite("fixed-point iterate overflowed")
        if resid <= tol:
            return y, resid, it, Fy
    raise NoConvergence(max_iter, resid)


def field_jacobian(p, U: np.ndarray, mode: str) -> np.ndarray:
    """Dense Jacobian of the vector field at a single state U (1-D)."""
    n = U.shape[-1]
    lap_mat = (np.diag(np.full(n, 2.0)) - np.diag(np.ones(n - 1), 1)
               - np.diag(np.ones(n - 1), -1))
    if mode == "truncated":
        lap_mat[-1, -1] = 1.0
    if p.laplacian_sign == "continuum":
        lap_mat = -lap_mat
    dm_mat = -np.eye(n) + np.diag(np.ones(n - 1), -1)
    jac = p.nu * lap_mat
    jac -= p.alpha * (np.diag(dm_mat @ U) + np.diag(U) @ dm_mat)
    reac = -3.0 * U**2 + 2.0 * (1.0 + p.gamma) * U - p.gamma
    jac += p.beta * np.diag(reac)
    jac -= p.lam * np.eye(n)
    return jac


def newton_solve(p, u_prev: np.ndarray, eps: float, f_grid: np.ndarray,
                 mode: str, tol: float, max_iter: int):
    """Newton iteration for the implicit relation; single state only.

    Provided for step sizes beyond the contraction-safe cap; none of the
    contraction guarantees apply here.
    """
    y = u_prev.copy()
    for it in range(1, max_iter + 1):
        res_vec = y - u_prev - eps * field(p, y, f_grid, mode)
        resid = float(np.linalg.norm(res_vec))
        if not np.isfinite(resid):
            raise NonFinite("Newton iterate overflowed")
        if resid <= tol:
            return y, resid, it
        jac = np.eye(y.size) - eps * field_jacobian(p, y, mode)
        y = y - np.linalg.solve(jac, res_vec)
    raise NoConvergence(max_iter, resid)


def rk4(field_fn, U: np.ndarray, t0: float, dt: float, n_steps: int) -> np.ndarray:
    """Classical fourth-order one-step method for dU/dt = field_fn(t, U).

    Overflow is not checked here: a batch may hold rows that blow up next
    to rows that do not, so each caller tests the end state it needs
    (``require_finite`` for a single run)."""
    t = t0
    for _ in range(n_steps):
        k1 = field_fn(t, U)
        k2 = field_fn(t + 0.5 * dt, U + 0.5 * dt * k1)
        k3 = field_fn(t + 0.5 * dt, U + 0.5 * dt * k2)
        k4 = field_fn(t + dt, U + dt * k3)
        U = U + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
    return U


def require_finite(U: np.ndarray) -> np.ndarray:
    """U itself, or NonFinite if an integration left any entry non-finite."""
    if not np.all(np.isfinite(U)):
        raise NonFinite("integrator state overflowed; reduce the step size")
    return U
