"""Reference computations and correctness checks for the benchmark.

Everything here is written from the formulas in ``README.md`` with numpy
alone.  Nothing imports bhlattice, so a fault in the program cannot hide in
its own oracle.  Each ``check_*`` function takes plain arrays and dicts and
returns, per operation, the list of problems found (empty means it passed).
"""

from __future__ import annotations

import math

import numpy as np

# -- tolerances ---------------------------------------------------------------

# A stabilized cloud stops when consecutive snapshots are within 1e-7 of each
# other.  Its points then lie within that distance of the equilibrium, so
# 1e-6 in the max-norm leaves a factor of ten, and |F| <= L * |u - u*| with
# the Lipschitz constant L ~ 75 of the absorbing ball gives the field bound.
EQUILIBRIUM_TOL = 1e-6
FIELD_TOL = 1e-4
# Newton on F(u) = 0 stops at this max-norm residual.
NEWTON_TOL = 1e-13
NEWTON_MAX_ITER = 50
# Recomputed Hausdorff distances and cloud norms against the table's values.
RECOMPUTE_TOL = 1e-12
# Adjacent rows of the m-study may rise by 10 % plus twice the
# stabilization tolerance, the slack of the acceptance suite.
TREND_REL_SLACK = 0.10
TAIL_MAX = 1e-6
ZERO_NOISE_DIST_MAX = 1e-5
# The trapezoidal quadrature of the absorbing radius at sigma = 0 is biased
# by about h^2 * |f|^2 / 12 = 1.7e-5 at h = 0.01; the tolerance is 6x that.
RADIUS_TOL = 1e-4
# Slack on the energy recurrence for a fixed-point residual fp_tol per step.
ENERGY_SLACK_FACTOR = 10.0
LOCAL_SLOPE_RANGE = (1.7, 2.3)
GLOBAL_SLOPE_RANGE = (0.8, 1.2)
SLOPE_TOL = 1e-9
BOUND_REL_TOL = 1e-12


# -- closed forms ---------------------------------------------------------------


def lambda_star(p: dict) -> float:
    """Dissipativity threshold 4 nu + (2 alpha + beta + beta gamma)^2/(4 beta) - beta gamma."""
    a, b, g = p["alpha"], p["beta"], p["gamma"]
    return 4.0 * p["nu"] + (2.0 * a + b + b * g) ** 2 / (4.0 * b) - b * g


def forcing_norm(p: dict) -> float:
    return float(np.linalg.norm(list(p["f"].values())))


def gap(p: dict) -> float:
    return p["lam"] - lambda_star(p)


def absorbing_ball_radius(p: dict) -> float:
    """r* = 1 + |f| / (lambda - lambda*)."""
    return 1.0 + forcing_norm(p) / gap(p)


def growth_bound(p: dict, r: float) -> float:
    """M_r: sup of |F u| over the ball of radius r."""
    a, b, g = p["alpha"], p["beta"], p["gamma"]
    return (b * r ** 3 + (2 * a + b + b * g) * r ** 2
            + (4 * p["nu"] + b * g + p["lam"]) * r + forcing_norm(p))


def lipschitz_bound(p: dict, r: float) -> float:
    """L_r: Lipschitz constant of F on the ball of radius r."""
    a, b, g = p["alpha"], p["beta"], p["gamma"]
    return (4 * p["nu"] + 2 * math.sqrt(5) * r * a
            + b * math.sqrt(12 * r ** 2 * (1 + g) ** 2 + 27 * r ** 4 + 3 * g ** 2)
            + p["lam"])


# -- the vector field ---------------------------------------------------------


def forcing_grid(p: dict, half: int) -> np.ndarray:
    f = np.zeros(2 * half + 1)
    for site, value in p["f"].items():
        if abs(site) <= half:
            f[site + half] = value
    return f


def laplacian_matrix(n: int, mode: str) -> np.ndarray:
    """(L u)_i = -u_{i-1} + 2 u_i - u_{i+1} with zeros outside the grid.

    The Dirichlet truncation is D+ D- with both differences clipped at the
    edges, which turns the last diagonal entry into 1.
    """
    mat = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    if mode == "truncated":
        mat[-1, -1] = 1.0
    elif mode != "window":
        raise ValueError(f"unknown closure {mode!r}")
    return mat


def d_minus_matrix(n: int) -> np.ndarray:
    """(D- u)_i = u_{i-1} - u_i."""
    return np.eye(n, k=-1) - np.eye(n)


def field(p: dict, U: np.ndarray, mode: str) -> np.ndarray:
    """F(u) = nu L u - alpha u (D- u) + beta u (1 - u)(u - gamma) - lam u + f,
    row by row for an array of states over [-half, half]."""
    U = np.asarray(U, dtype=float)
    n = U.shape[-1]
    lap = U @ laplacian_matrix(n, mode).T
    dm = U @ d_minus_matrix(n).T
    return (p["nu"] * lap - p["alpha"] * U * dm
            + p["beta"] * U * (1.0 - U) * (U - p["gamma"])
            - p["lam"] * U + forcing_grid(p, (n - 1) // 2))


def jacobian(p: dict, u: np.ndarray, mode: str) -> np.ndarray:
    n = u.size
    dm = d_minus_matrix(n)
    reaction = -3.0 * u ** 2 + 2.0 * (1.0 + p["gamma"]) * u - p["gamma"]
    return (p["nu"] * laplacian_matrix(n, mode)
            - p["alpha"] * (np.diag(dm @ u) + u[:, None] * dm)
            + p["beta"] * np.diag(reaction) - p["lam"] * np.eye(n))


def equilibrium(p: dict, half: int, mode: str) -> np.ndarray:
    """Dense Newton solve of F(u) = 0 from u = 0."""
    u = np.zeros(2 * half + 1)
    for _ in range(NEWTON_MAX_ITER):
        F = field(p, u, mode)
        if np.max(np.abs(F)) <= NEWTON_TOL:
            return u
        u = u - np.linalg.solve(jacobian(p, u, mode), F)
    raise RuntimeError(f"reference Newton solve did not converge ({mode}, {half})")


def hausdorff_semi(A: np.ndarray, B: np.ndarray) -> float:
    """max over a in A of min over b in B of |a - b|, by direct differences."""
    diff = A[:, None, :] - B[None, :, :]
    return float(np.max(np.min(np.sqrt(np.sum(diff * diff, axis=-1)), axis=1)))


def embed(points: np.ndarray, half: int) -> np.ndarray:
    pad = half - (points.shape[1] - 1) // 2
    return np.pad(points, ((0, 0), (pad, pad)))


# -- checks -----------------------------------------------------------------


def check_equilibrium_points(p: dict, points: np.ndarray, mode: str,
                             u_star: np.ndarray) -> list:
    """Every point is a zero of F and lies at the reference equilibrium."""
    problems = []
    points = np.atleast_2d(points)
    f_max = float(np.max(np.abs(field(p, points, mode))))
    if not f_max <= FIELD_TOL:
        problems.append(f"max |F| {f_max:.3e} > {FIELD_TOL:.0e}")
    d_max = float(np.max(np.abs(points - u_star)))
    if not d_max <= EQUILIBRIUM_TOL:
        problems.append(f"distance to equilibrium {d_max:.3e} > {EQUILIBRIUM_TOL:.0e}")
    return problems


def check_dim_convergence(p: dict, half_width: int, m_list, stab_tol: float,
                          columns: dict, clouds: dict) -> dict:
    """The m-study: one window cloud and one truncated cloud per m.

    ``clouds`` maps ("window", K) and ("truncated", m) to point arrays.
    Returns problems per cloud.
    """
    bound = forcing_norm(p) / gap(p) + 2.0 * stab_tol
    window_key = ("window", half_width)
    ops = {}
    for key in [window_key] + [("truncated", m) for m in m_list]:
        name = f"cloud {key[0]} {key[1]}"
        pts = clouds.get(key)
        if pts is None:
            ops[name] = ["cloud missing"]
            continue
        probs = check_equilibrium_points(p, pts, key[0], equilibrium(p, key[1], key[0]))
        norm = float(np.max(np.linalg.norm(pts, axis=1)))
        if not norm <= bound:
            probs.append(f"attractor norm {norm:.6e} > |f|/(lam-lam*) = {bound:.6e}")
        ops[name] = probs
    window = clouds.get(window_key)
    if list(columns.get("m", [])) != list(m_list):
        for m in m_list:
            ops[f"cloud truncated {m}"].append(f"table rows {columns.get('m')} != {list(m_list)}")
        return ops
    dists = columns["dist_semi"]
    for i, m in enumerate(m_list):
        probs = ops[f"cloud truncated {m}"]
        pts = clouds.get(("truncated", m))
        if pts is not None and window is not None:
            own = hausdorff_semi(embed(pts, half_width), window)
            if not abs(own - dists[i]) <= RECOMPUTE_TOL:
                probs.append(f"dist_semi {dists[i]:.3e} != recomputed {own:.3e}")
            norm = float(np.max(np.linalg.norm(pts, axis=1)))
            if not abs(norm - columns["cloud_norm"][i]) <= RECOMPUTE_TOL:
                probs.append(f"cloud_norm {columns['cloud_norm'][i]:.6e} != {norm:.6e}")
        if i and not dists[i] <= dists[i - 1] * (1 + TREND_REL_SLACK) + 2.0 * stab_tol:
            probs.append(f"distance rises from {dists[i - 1]:.3e} to {dists[i]:.3e}")
    tail = columns["tail_profile"][-1]
    if not tail <= TAIL_MAX:
        ops[f"cloud truncated {m_list[-1]}"].append(f"tail {tail:.3e} > {TAIL_MAX:.0e}")
    return ops


def check_noise_convergence(p: dict, sigma_list, realizations: int,
                            columns: dict) -> dict:
    """The noise study: problems per (sigma, realization)."""
    ops = {f"sigma {s} realization {k}": [] for s in sigma_list
           for k in range(realizations)}
    if list(columns.get("sigma", [])) != list(sigma_list):
        for probs in ops.values():
            probs.append(f"table rows {columns.get('sigma')} != {list(sigma_list)}")
        return ops
    means, errs = columns["mean_dist"], columns["stderr"]
    closed = 1.0 + forcing_norm(p) ** 2 / gap(p) ** 2
    for i, s in enumerate(sigma_list):
        row = []
        if i and not means[i] <= means[i - 1] + errs[i - 1] + errs[i]:
            row.append(f"mean distance rises from {means[i - 1]:.3e} to "
                       f"{means[i]:.3e} beyond the standard errors")
        if not (np.isfinite(columns["mean_radius"][i]) and columns["mean_radius"][i] >= 1.0):
            row.append(f"mean radius {columns['mean_radius'][i]!r} below 1")
        if s == 0.0:
            if not means[i] <= ZERO_NOISE_DIST_MAX:
                row.append(f"sigma = 0 distance {means[i]:.3e} > {ZERO_NOISE_DIST_MAX:.0e}")
            err = abs(columns["mean_radius"][i] - closed)
            if not err <= RADIUS_TOL:
                row.append(f"sigma = 0 radius off 1 + |f|^2/gap^2 by {err:.3e}")
        excluded = int(columns["excluded"][i])
        for k in range(realizations):
            probs = ops[f"sigma {s} realization {k}"]
            probs.extend(row)
            if k >= realizations - excluded:
                probs.append("realization excluded")
    return ops


def check_trajectory(p: dict, eps: float, fp_tol: float, sq_norms: np.ndarray,
                     end_state: np.ndarray) -> list:
    """Energy recurrence at every step, and an equilibrium end state.

    ``sq_norms`` holds |u_0|^2..|u_N|^2; ``end_state`` is u_N on the window
    [-K, K].
    """
    g = gap(p)
    fn2 = forcing_norm(p) ** 2
    sq = np.asarray(sq_norms, dtype=float)
    rhs = (sq[:-1] + eps * fn2 / g) / (1.0 + eps * g)
    slack = ENERGY_SLACK_FACTOR * fp_tol * absorbing_ball_radius(p)
    excess = sq[1:] - rhs - slack
    problems = []
    if not np.all(excess <= 0.0):
        n = int(np.argmax(excess)) + 1
        problems.append(f"energy recurrence broken at step {n} by {excess[n - 1]:.3e}")
    half = (end_state.size - 1) // 2
    problems += check_equilibrium_points(p, end_state, "window",
                                         equilibrium(p, half, "window"))
    return problems


def check_error_order(p_unforced: dict, T: float, columns: dict) -> dict:
    """Error orders: problems per eps row."""
    r = absorbing_ball_radius(p_unforced)
    Lr, Mr = lipschitz_bound(p_unforced, r), growth_bound(p_unforced, r)
    Lr1 = lipschitz_bound(p_unforced, r + 1.0)
    eps = np.asarray(columns["eps"], dtype=float)
    log_eps = np.log(eps)
    shared = []
    fits = {}
    for kind, (lo, hi) in (("local", LOCAL_SLOPE_RANGE), ("global", GLOBAL_SLOPE_RANGE)):
        errs = np.asarray(columns[f"{kind}_max"], dtype=float)
        if not np.all(errs > 0):
            shared.append(f"{kind} errors not positive")
            continue
        x = log_eps - log_eps.mean()
        slope = float(x @ (np.log(errs) - np.log(errs).mean()) / (x @ x))
        fits[kind] = slope
        if not lo <= slope <= hi:
            shared.append(f"{kind} slope {slope:.3f} outside [{lo}, {hi}]")
        reported = columns[f"{kind}_slope"][0]
        if not abs(reported - slope) <= SLOPE_TOL:
            shared.append(f"reported {kind} slope {reported:.6f} != fit {slope:.6f}")
    ops = {}
    for i, e in enumerate(eps):
        probs = list(shared)
        bounds = {"local": Lr * Mr * Lr1 * e ** 2,
                  "global": Mr / 2.0 * math.exp(Lr * T) * e}
        for kind, bound in bounds.items():
            if not abs(columns[f"{kind}_bound"][i] - bound) <= BOUND_REL_TOL * bound:
                probs.append(f"{kind} bound {columns[f'{kind}_bound'][i]:.6e} != {bound:.6e}")
            if not columns[f"{kind}_max"][i] <= bound:
                probs.append(f"{kind} error {columns[f'{kind}_max'][i]:.3e} > bound {bound:.3e}")
        ops[f"error order eps {e}"] = probs
    return ops
