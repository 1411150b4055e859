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

Buffers.  ``field`` writes the field of one state buffer into one output
buffer through ``views``: the flat-row views of the pair and the coupling
scratch, built once.  ``rk4`` and ``picard_solve`` allocate their buffers
and build the views of each buffer pair at the start of a call, and use
them for every field evaluation and update of that call; no buffer
outlives the call.  So each returns arrays that share no memory with its
input or with anything a later call writes.  A call of ``field`` without
views (``field(coef, U, mode)``) builds them on a new output, and returns
it, through the same kernel body.
"""

from __future__ import annotations

import math

import numpy as np
from numpy import add, multiply, subtract

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
    the coefficients of many noise values at once, elementwise the same.
    Each is a float64 array, 0-d for a scalar: a ufunc takes a 0-d operand
    faster than a Python float of the same value."""
    nu = -p.nu if p.laplacian_sign == "continuum" else p.nu
    ae = p.alpha * e
    c0 = 2.0 * nu - p.beta * p.gamma - p.lam + sz
    c1 = ae + p.beta * (1.0 + p.gamma) * e
    c2 = -p.beta * e * e
    return tuple(np.asarray(c, dtype=np.float64)
                 for c in (nu, ae, c0, c1, c2, f_grid / e))


def _rows(A: np.ndarray) -> tuple:
    """A with the views of it the kernel reads or writes: its flat rows (A
    is C-contiguous, so they are views) without the first site (the tail)
    and without the last (the head), and the last site of each row."""
    a = A.reshape(-1)
    return A, a[1:], a[:-1], A[..., -1]


def _scratch(shape: tuple) -> tuple:
    """The kernel's coupling scratch for states of ``shape``: ae*U in full,
    its flat view without the first site (the left coupling), the right
    coupling, the entries of the two couplings across a row boundary (none
    for one grid), and one site per row."""
    n = shape[-1]
    full = np.empty(shape)
    left = full.reshape(-1)[1:]
    right = np.empty(left.size)
    return full, left, right, left[n - 1::n], right[n - 1::n], full[..., 0]


def views(U: np.ndarray, out: np.ndarray, scratch: tuple) -> tuple:
    """What ``field`` needs to write the field at U into out: the views of
    both buffers, C-contiguous float arrays of one shape, and the coupling
    ``scratch`` of ``_scratch``, which the pairs of one shape may share."""
    return _rows(U) + _rows(out) + scratch


def field(coef: tuple, U: np.ndarray, mode: str, pair: tuple | None = None
          ) -> np.ndarray:
    """The Burgers-Huxley field of the closure ``mode`` at U, one grid or a
    stack of grids, with the coefficients ``coef`` of ``field_coefficients``:
    the diagonal terms as one Horner cubic, then the neighbour couplings.

    Every field evaluation of the package goes through this one kernel;
    an integration builds its coefficients once, e.g.
    ``field_coefficients(p, 1.0, 0.0, f_grid)`` for the deterministic
    field.  Each row's result depends on that row and its coefficients
    alone, bit for bit, whatever the batch shape or memory order of U.

    With ``pair``, the ``views`` of the buffer U and an output buffer, the
    field is written into that buffer, which is returned; without, into a
    new array."""
    if mode not in ("window", "truncated"):
        raise ValueError(f"unknown mode {mode!r}")
    if pair is None:
        U = np.ascontiguousarray(U)
        pair = views(U, np.empty(U.shape), _scratch(U.shape))
    elif U is not pair[0]:
        raise ValueError("U is not the state buffer of these views")
    (_, u_tail, u_head, u_last, out, o_tail, o_head, o_last,
     full, left, right, left_cut, right_cut, site) = pair
    nu, ae, c0, c1, c2, fe = coef
    # Horner form U*(c0 + U*(c1 + c2*U))
    multiply(c2, U, out)
    add(out, c1, out)
    multiply(out, U, out)
    add(out, c0, out)
    multiply(out, U, out)
    add(out, fe, out)
    # neighbour couplings on the flat rows, left = (nu + ae*U_i)*U_{i-1}
    # and right = nu*U_{i+1}, with the products across a row boundary
    # zeroed; ae*U is formed whole, so that a per-row ae broadcasts
    multiply(ae, U, full)
    add(left, nu, left)
    multiply(left, u_head, left)
    multiply(nu, u_tail, right)
    left_cut.fill(0.0)
    right_cut.fill(0.0)
    subtract(o_tail, left, o_tail)
    subtract(o_head, right, o_head)
    if mode == "truncated":
        # the Dirichlet corner row of d_plus(d_minus) has diagonal 1, not 2
        multiply(nu, u_last, site)
        subtract(o_last, site, o_last)
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


def picard_solve(coef: tuple, u_prev: np.ndarray, eps: float, tol: float,
                 max_iter: int, mode: str, F_prev: np.ndarray | None = None):
    """Solve y = u_prev + eps*F(y) by iterating the contraction map, F the
    field of the closure ``mode`` with the coefficients ``coef``.

    Returns (y, residual, iterations, F(y)); the residual is the exact
    defect ||y - u_prev - eps*F(y)|| (max over batch rows), certified by one
    field evaluation per iteration.  ``F_prev``, if given, must equal
    field(coef, u_prev, mode) and replaces the first evaluation.  A
    non-finite defect raises NonFinite.

    Each iterate needs the last field only, so the iterates and their
    fields share one buffer pair of this call, which is returned as it is;
    u_prev and F_prev are only read.  The defect is squared and summed per
    row in place, and the square root taken of the largest sum only: sqrt
    is correctly rounded and monotone, so this is the largest row norm, bit
    for bit.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    shape = np.shape(u_prev)
    y, F, d = np.empty(shape), np.empty(shape), np.empty(shape)
    scratch = _scratch(shape)
    pair, eps_F = views(y, F, scratch), scratch[0]
    eps = np.asarray(eps, dtype=np.float64)
    Fy = F_prev
    if Fy is None:
        np.copyto(y, u_prev)
        Fy = field(coef, y, mode, pair)
    for it in range(1, max_iter + 1):
        # y is formed from the last field, which F then replaces; eps*F(y)
        # goes to the kernel's scratch, free between evaluations
        multiply(eps, Fy, y)
        add(y, u_prev, y)
        Fy = field(coef, y, mode, pair)
        subtract(y, u_prev, d)
        multiply(eps, F, eps_F)
        subtract(d, eps_F, d)
        multiply(d, d, d)
        sq = add.reduce(d, -1)
        resid = math.sqrt(sq if d.ndim == 1 else sq.max())
        if not math.isfinite(resid):
            raise NonFinite("fixed-point iterate overflowed")
        if resid <= tol:
            return y, resid, it, F
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


def rk4(coef_at, U: np.ndarray, t0: float, dt: float, n_steps: int,
        mode: str) -> np.ndarray:
    """Classical fourth-order one-step method for dU/dt = F(t, U), F the
    field of the closure ``mode`` with the coefficients coef_at(t), with the
    scalar step dt, at the times of ``stage_times``.

    The state alternates between two buffers of this call, and the stage
    states share one more.  k2 is written into the buffer of the next
    state, where the weighted sum ((k1 + 2 k2) + 2 k3) + k4 of the
    classical formula then accumulates, in the order of the formula.  The
    end state is returned as it is; for n_steps = 0 it is a copy of U.  U
    itself is only read.

    Overflow is not checked here: a batch may hold rows that blow up next
    to rows that do not, so each caller tests the end state it needs
    (``require_finite`` for a single run)."""
    if n_steps < 0:
        raise ValueError(f"n_steps must be nonnegative, got {n_steps}")
    times = stage_times(t0, dt, n_steps).tolist()
    half, step, sixth, two = (np.asarray(c, dtype=np.float64)
                              for c in (0.5 * dt, dt, dt / 6.0, 2.0))
    x0 = np.array(U, dtype=np.float64, order="C")
    x1, stage, k1, k3, k4 = (np.empty(x0.shape) for _ in range(5))
    X, scratch = (x0, x1), _scratch(x0.shape)
    # the pairs (state a -> k1) and (stage -> state a, as k2), a = 0, 1
    k1_of = tuple(views(x, k1, scratch) for x in X)
    k2_into = tuple(views(stage, x, scratch) for x in X)
    k3_of, k4_of = (views(stage, k, scratch) for k in (k3, k4))
    a = 0
    for j in range(0, 2 * n_steps, 2):
        x, k2 = X[a], X[1 - a]
        field(coef_at(times[j]), x, mode, k1_of[a])
        multiply(k1, half, stage)
        add(stage, x, stage)
        c_mid = coef_at(times[j + 1])
        field(c_mid, stage, mode, k2_into[1 - a])
        multiply(k2, half, stage)
        add(stage, x, stage)
        field(c_mid, stage, mode, k3_of)
        multiply(k3, step, stage)
        add(stage, x, stage)
        field(coef_at(times[j + 2]), stage, mode, k4_of)
        multiply(k2, two, k2)
        add(k2, k1, k2)
        multiply(k3, two, stage)
        add(k2, stage, k2)
        add(k2, k4, k2)
        multiply(k2, sixth, k2)
        add(k2, x, k2)
        a = 1 - a
    return X[a]


def require_finite(U: np.ndarray) -> np.ndarray:
    """U itself, or NonFinite if an integration left any entry non-finite."""
    if not np.all(np.isfinite(U)):
        raise NonFinite("integrator state overflowed; reduce the step size")
    return U
