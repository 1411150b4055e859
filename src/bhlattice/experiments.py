"""Experiment orchestration: convergence studies, bound sweeps, error-order
fits, and the self-verification suite.  Every run is a pure function of its
configuration and master seed; tables embed the config hash."""

from __future__ import annotations

import dataclasses
import datetime
import hashlib
import json
import math
import os

import numpy as np

from . import __version__, _grid
from .attractor import (AttractorConfig, PointCloud, attractor_approx,
                        cloud_norm, embed_cloud, hausdorff_semi,
                        hausdorff_semi_pruned, hausdorff_sym, sample_ball,
                        tail_profile)
from .errors import ConfigError, DissipativityViolation, NonFinite
from .lattice import (LatticeWindow, Params, cutoff_xi, d_minus, d_plus,
                      derived_constants, l_bound, lambda_star, laplacian,
                      m_bound, tail_mass, vector_field)
from .stepping import (StepConfig, advance_grid, f_on_grid, global_error,
                       implicit_step_info, local_error, params_hash)
from .stochastic import (NoiseConfig, absorbing_radius, ou_decay,
                         ou_innovation_std, ou_path, pullback_batch,
                         random_field)
from .truncation import (d_minus_matrix, laplacian_matrix, restriction,
                         truncated_field, truncated_forcing)

# attraction happens on the time scale 1/(lam - lam*); burn-in and gap are
# fixed multiples of it, converted to step counts per eps
BURN_IN_TIME_FACTOR = 20.0
STABILIZATION_GAP_TIME = 2.0

# trend checks: adjacent rows may rise by this relative slack plus a floor
# tied to the cloud stabilization tolerance
TREND_REL_SLACK = 0.10


@dataclasses.dataclass
class GridConfig:
    eps_list: tuple = (0.01, 0.005, 0.0025)
    eps_error_list: tuple = (0.02, 0.01, 0.005, 0.0025)
    m_list: tuple = (8, 16, 32)
    sigma_list: tuple = (0.4, 0.2, 0.1, 0.05, 0.0)


@dataclasses.dataclass
class ReferenceConfig:
    eps_ref: float = 5e-4
    dt_ref: float = 5e-4


@dataclasses.dataclass
class ExperimentConfig:
    params: Params
    grids: GridConfig = dataclasses.field(default_factory=GridConfig)
    attractor: AttractorConfig = dataclasses.field(default_factory=AttractorConfig)
    noise: NoiseConfig = dataclasses.field(default_factory=NoiseConfig)
    reference: ReferenceConfig = dataclasses.field(default_factory=ReferenceConfig)
    window_half_width: int = 128
    noise_m: int = 16
    pullback_points: int = 16
    output_dir: str = "out"
    master_seed: int = 2024

    def validate(self):
        dc = derived_constants(self.params)
        for eps in self.grids.eps_list:
            if eps > dc.eps_star * (1 + 1e-12):
                raise ConfigError(
                    f"eps={eps} exceeds the contraction-safe cap {dc.eps_star}")
        if list(self.grids.m_list) != sorted(self.grids.m_list):
            raise ConfigError("m_list must be ascending")
        sig = list(self.grids.sigma_list)
        if sig != sorted(sig, reverse=True):
            raise ConfigError("sigma_list must descend toward zero")
        if self.grids.eps_list and self.reference.eps_ref >= min(self.grids.eps_list) / 4:
            raise ConfigError("eps_ref must be below min(eps_list)/4")
        return dc


def default_params(f_scale: float = 1.0, lam: float = 8.0) -> Params:
    """Desk-scale defaults: lam* = 6.5625 and ||f|| = lam - lam* at scale 1."""
    f = LatticeWindow.basis(0, 1.4375 * f_scale) if f_scale else LatticeWindow.zero()
    return Params(nu=1.0, alpha=1.0, beta=1.0, gamma=0.5, lam=lam, f=f)


def default_config(**overrides) -> ExperimentConfig:
    cfg = ExperimentConfig(params=default_params())
    for key, val in overrides.items():
        setattr(cfg, key, val)
    return cfg


# -- result tables ----------------------------------------------------------


@dataclasses.dataclass
class ResultTable:
    name: str
    columns: dict
    provenance: dict

    def __post_init__(self):
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) > 1:
            raise ValueError("all columns must have equal length")

    def column(self, key):
        return list(self.columns[key])

    def to_csv(self) -> str:
        keys = list(self.columns)
        lines = [",".join(keys)]
        n = len(self.columns[keys[0]]) if keys else 0
        for i in range(n):
            lines.append(",".join(_fmt(self.columns[k][i]) for k in keys))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({"name": self.name, "columns": self.columns,
                           "provenance": self.provenance}, indent=2)


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def config_hash(cfg: ExperimentConfig) -> str:
    doc = dataclasses.asdict(cfg)
    doc["params"]["f"] = {"offset": cfg.params.f.offset,
                          "values": [float(v) for v in cfg.params.f.values]}
    blob = json.dumps(doc, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _provenance(cfg: ExperimentConfig) -> dict:
    return {
        "config_hash": config_hash(cfg),
        "code_version": __version__,
        "params_hash": params_hash(cfg.params),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def write_table(table: ResultTable, out_dir: str, fmt: str = "csv") -> list:
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    base = os.path.join(out_dir, table.name)
    if fmt == "csv":
        path = base + ".csv"
        with open(path, "w") as fh:
            fh.write(table.to_csv())
        paths.append(path)
        meta = base + ".meta.json"
        with open(meta, "w") as fh:
            fh.write(json.dumps(table.provenance, indent=2))
        paths.append(meta)
    elif fmt == "json":
        path = base + ".json"
        with open(path, "w") as fh:
            fh.write(table.to_json())
        paths.append(path)
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    return paths


def trend_nonincreasing(values, rel_slack: float, abs_floor: float) -> bool:
    """Adjacent-row trend check with declared slack."""
    return all(b <= a * (1.0 + rel_slack) + abs_floor
               for a, b in zip(values, values[1:]))


# -- building blocks --------------------------------------------------------


def attractor_config_for_eps(base: AttractorConfig, eps: float,
                             lam_gap: float, seed_offset: int = 0) -> AttractorConfig:
    """Scale burn-in and stabilization gap to the attraction time scale."""
    return dataclasses.replace(
        base,
        burn_in=max(1, math.ceil(BURN_IN_TIME_FACTOR / (eps * lam_gap))),
        stabilization_gap=max(1, math.ceil(STABILIZATION_GAP_TIME / (eps * lam_gap))),
        seed=base.seed + seed_offset,
    )


def implicit_attractor(p: Params, eps: float, base: AttractorConfig,
                       half_width: int, mode: str = "window",
                       fp_tol: float = 1e-10) -> PointCloud:
    """Attractor cloud of the implicit Euler system at step eps."""
    dc = derived_constants(p)
    step_cfg = StepConfig(eps=eps, fp_tol=fp_tol, enforce_eps_star=False)
    if mode == "truncated":
        f_grid = truncated_forcing(p, half_width)
    else:
        f_grid = f_on_grid(p, half_width)
    acfg = attractor_config_for_eps(base, eps, p.lam - dc.lambda_star)

    def advance(U, n):
        return advance_grid(p, step_cfg, U, n, mode, f_grid)

    space = "truncated" if mode == "truncated" else "window"
    return attractor_approx(advance, acfg, dc.r_star, space, half_width,
                            meta={"eps": eps, "mode": mode})


def flow_attractor(p: Params, dt: float, base: AttractorConfig,
                   half_width: int, mode: str = "window") -> PointCloud:
    """Attractor cloud of the continuous-time flow via the reference
    integrator with step dt."""
    dc = derived_constants(p)
    if mode == "truncated":
        f_grid = truncated_forcing(p, half_width)
    else:
        f_grid = f_on_grid(p, half_width)
    acfg = attractor_config_for_eps(base, dt, p.lam - dc.lambda_star)

    def advance(U, n):
        return _grid.require_finite(
            _grid.rk4(lambda _t, Y: _grid.field(p, Y, f_grid, mode),
                      U, 0.0, dt, n))

    space = "truncated" if mode == "truncated" else "window"
    return attractor_approx(advance, acfg, dc.r_star, space, half_width,
                            meta={"dt": dt, "mode": mode, "flow": True})


# -- experiment runners -----------------------------------------------------


def run_eps_convergence(cfg: ExperimentConfig) -> ResultTable:
    """Distances from the implicit-Euler attractor to a fine reference cloud
    as the time step descends."""
    cfg.validate()
    K = cfg.window_half_width
    a_ref = flow_attractor(cfg.params, cfg.reference.eps_ref, cfg.attractor, K)
    rows = {"eps": [], "dist_semi": [], "dist_sym": [], "cloud_norm": []}
    for eps in cfg.grids.eps_list:
        a_eps = implicit_attractor(cfg.params, eps, cfg.attractor, K)
        rows["eps"].append(eps)
        rows["dist_semi"].append(hausdorff_semi(a_eps, a_ref))
        rows["dist_sym"].append(hausdorff_sym(a_eps, a_ref))
        rows["cloud_norm"].append(cloud_norm(a_eps))
    prov = _provenance(cfg)
    prov["trend_rel_slack"] = TREND_REL_SLACK
    prov["trend_abs_floor"] = 2.0 * cfg.attractor.stabilization_tol
    return ResultTable("eps_convergence", rows, prov)


def run_dim_convergence(cfg: ExperimentConfig) -> ResultTable:
    """Distances from null-expanded truncated attractors to the wide-window
    attractor as the truncation dimension grows."""
    dc = cfg.validate()
    K = cfg.window_half_width
    if max(cfg.grids.m_list) >= K:
        raise ConfigError("m_list must stay below the window half-width")
    eps = cfg.grids.eps_list[0]
    a_full = implicit_attractor(cfg.params, eps, cfg.attractor, K)
    rows = {"m": [], "dist_semi": [], "tail_profile": [], "cloud_norm": []}
    for m in cfg.grids.m_list:
        a_m = implicit_attractor(cfg.params, eps, cfg.attractor, m,
                                 mode="truncated")
        a_m_embedded = embed_cloud(a_m, K)
        rows["m"].append(m)
        rows["dist_semi"].append(hausdorff_semi(a_m_embedded, a_full))
        rows["tail_profile"].append(tail_profile(a_m, max(1, m // 2)))
        rows["cloud_norm"].append(cloud_norm(a_m))
    prov = _provenance(cfg)
    prov["eps"] = eps
    prov["trend_rel_slack"] = TREND_REL_SLACK
    prov["trend_abs_floor"] = 2.0 * cfg.attractor.stabilization_tol
    return ResultTable("dim_convergence", rows, prov)


def run_noise_convergence(cfg: ExperimentConfig) -> ResultTable:
    """Mean pullback distance to the deterministic truncated attractor per
    noise intensity, with the random absorbing radius alongside."""
    dc = cfg.validate()
    m = cfg.noise_m
    gap = cfg.params.lam - dc.lambda_star
    dt = min(dc.eps_star, cfg.noise.h_path)
    a_det = flow_attractor(cfg.params, dt, cfg.attractor, m, mode="truncated")
    init = sample_ball(dc.r_star, "truncated", m, cfg.pullback_points,
                       cfg.master_seed)
    horizon = -math.log(1e-6) / gap + 1.0
    sigmas = list(cfg.grids.sigma_list)
    # one stack for every (sigma, realization); each path also gives the
    # realization's absorbing radius at every sigma
    batch = pullback_batch(cfg.params, cfg.noise, sigmas,
                           range(cfg.noise.realizations), dt, init,
                           path_horizon=horizon)
    rows = {"sigma": [], "mean_dist": [], "max_dist": [], "stderr": [],
            "excluded": [], "mean_radius": []}
    excluded_realizations = []
    for i, sigma in enumerate(sigmas):
        dists, radii, excluded = [], [], 0
        for k, path in enumerate(batch.paths):
            if not batch.finite[i, k]:
                excluded += 1
                excluded_realizations.append({
                    "sigma": sigma, "realization": k,
                    "reason": "non-finite end state"})
                continue
            cloud = PointCloud("truncated", m, batch.points[i, k])
            dists.append(hausdorff_sym(cloud, a_det))
            radii.append(absorbing_radius(cfg.params, sigma, path, 1e-6).value)
        if not dists:
            raise NonFinite(f"all {excluded} realizations at sigma={sigma} "
                            "were excluded")
        dists = np.array(dists)
        rows["sigma"].append(sigma)
        rows["mean_dist"].append(float(dists.mean()))
        rows["max_dist"].append(float(dists.max()))
        rows["stderr"].append(float(dists.std(ddof=1) / math.sqrt(len(dists)))
                              if len(dists) > 1 else 0.0)
        rows["excluded"].append(excluded)
        rows["mean_radius"].append(float(np.mean(radii)))
    prov = _provenance(cfg)
    prov.update({"m": m, "dt": dt, "pullback_T": cfg.noise.pullback_T,
                 "excluded_realizations": excluded_realizations,
                 "sigma_slope": _log_slope(rows["sigma"], rows["mean_dist"])})
    return ResultTable("noise_convergence", rows, prov)


def _log_slope(x, y):
    """Least-squares slope of log y against log x over the rows with
    x > 0 and y > 0; None with fewer than two such rows."""
    pairs = [(a, b) for a, b in zip(x, y) if a > 0 and b > 0]
    if len(pairs) < 2:
        return None
    lx, ly = np.log(np.array(pairs)).T
    return float(np.polyfit(lx, ly, 1)[0])


def run_error_order(cfg: ExperimentConfig, T: float = 0.5,
                    n_samples: int = 3) -> ResultTable:
    """Local/global discretization errors against the reference flow, with
    least-squares order fits and the closed-form upper bounds.

    Runs with the forcing switched off so the whole error grid stays below
    the contraction-safe step cap.
    """
    p = cfg.params.replace(f=LatticeWindow.zero())
    dc = derived_constants(p)
    K = 32
    rng = np.random.default_rng(cfg.master_seed)
    samples = []
    for _ in range(n_samples):
        raw = rng.standard_normal(17)
        raw *= (0.9 * dc.r_star * rng.random() ** (1 / 17)) / np.linalg.norm(raw)
        samples.append(LatticeWindow(-8, raw))
    Lr = l_bound(p, dc.r_star)
    Mr = m_bound(p, dc.r_star)
    Lr1 = l_bound(p, dc.r_star + 1.0)
    rows = {"eps": [], "local_max": [], "global_max": [],
            "local_bound": [], "global_bound": []}
    for eps in cfg.grids.eps_error_list:
        dt_ref = eps / 100.0
        locs = [local_error(p, eps, y, dt_ref, K) for y in samples]
        globs = [global_error(p, eps, y, T, dt_ref, K) for y in samples]
        rows["eps"].append(eps)
        rows["local_max"].append(max(locs))
        rows["global_max"].append(max(globs))
        rows["local_bound"].append(Lr * Mr * Lr1 * eps**2)
        rows["global_bound"].append(Mr / 2.0 * math.exp(Lr * T) * eps)
    log_eps = np.log(rows["eps"])
    local_slope = float(np.polyfit(log_eps, np.log(rows["local_max"]), 1)[0])
    global_slope = float(np.polyfit(log_eps, np.log(rows["global_max"]), 1)[0])
    rows["local_slope"] = [local_slope] * len(rows["eps"])
    rows["global_slope"] = [global_slope] * len(rows["eps"])
    prov = _provenance(cfg)
    prov.update({"T": T, "n_samples": n_samples, "forcing": "off"})
    return ResultTable("error_order", rows, prov)


def run_bounds(cfg: ExperimentConfig, c_list=(1.0, 0.5, 0.25, 0.0),
               lam_list=(8.0, 10.0, 12.0)) -> ResultTable:
    """Attractor norms against the closed-form bound ||f||/(lam - lam*)
    across forcing scalings and ascending damping."""
    base = cfg.params
    m = cfg.noise_m
    rows = {"c": [], "lam": [], "norm_window": [], "norm_trunc": [],
            "bound": []}
    for c in c_list:
        for lam in lam_list:
            f = LatticeWindow(base.f.offset, base.f.values * c) if c else \
                LatticeWindow.zero()
            p = base.replace(f=f, lam=lam)
            dc = derived_constants(p)
            eps = min(0.005, 0.9 * dc.eps_star)
            a_w = implicit_attractor(p, eps, cfg.attractor, 32)
            a_t = implicit_attractor(p, eps, cfg.attractor, m,
                                     mode="truncated")
            rows["c"].append(c)
            rows["lam"].append(lam)
            rows["norm_window"].append(cloud_norm(a_w))
            rows["norm_trunc"].append(cloud_norm(a_t))
            rows["bound"].append(p.f.norm() / (lam - dc.lambda_star))
    prov = _provenance(cfg)
    prov["norm_slack"] = 2.0 * cfg.attractor.stabilization_tol
    return ResultTable("bounds", rows, prov)


# -- verification suite -----------------------------------------------------


def _random_window(rng, half, radius) -> LatticeWindow:
    raw = rng.standard_normal(2 * half + 1)
    nrm = np.linalg.norm(raw)
    scale = radius * rng.random() ** (1.0 / (2 * half + 1)) / nrm
    return LatticeWindow(-half, raw * scale)


def verify(cfg: ExperimentConfig, pair_samples: int = 300) -> tuple[bool, dict]:
    """Run every module's invariant suite; returns (ok, report)."""
    checks = []

    def record(name, ok, witness=None):
        checks.append({"check": name, "status": "pass" if ok else "fail",
                       "witness": witness})

    p = cfg.params
    rng = np.random.default_rng(cfg.master_seed)
    try:
        dc = derived_constants(p)
    except DissipativityViolation as exc:
        record("dissipativity", False, str(exc))
        return False, {"checks": checks, "config_hash": config_hash(cfg)}
    record("dissipativity", True, {"lambda_star": dc.lambda_star})

    # closed-form constants recomputed from scratch
    ls = 4 * p.nu + (2 * p.alpha + p.beta + p.beta * p.gamma) ** 2 / (4 * p.beta) \
        - p.beta * p.gamma
    ok = abs(ls - dc.lambda_star) <= 1e-12
    record("constants_formula", ok, {"lambda_star": dc.lambda_star})

    # growth and Lipschitz bounds by sampling
    worst = 0.0
    ok = True
    for r in (0.5, 1.0, dc.r_star):
        for _ in range(pair_samples):
            u = _random_window(rng, 8, r)
            v = _random_window(rng, 8, r)
            fu = vector_field(p, u)
            fv = vector_field(p, v)
            if fu.norm() > m_bound(p, r) + 1e-9:
                ok = False
            duv = (u - v).norm()
            gap_uv = (fu - fv).norm() - l_bound(p, r) * duv
            worst = max(worst, gap_uv)
            if gap_uv > 1e-9:
                ok = False
    record("growth_lipschitz", ok, {"worst_lipschitz_defect": worst})

    # operator algebra
    ok = True
    for _ in range(50):
        u = _random_window(rng, 8, 1.0)
        v = _random_window(rng, 8, 1.0)
        lhs = laplacian(u)
        rhs = d_plus(d_minus(u))
        rhs2 = d_minus(d_plus(u))
        if (lhs - rhs).norm() > 1e-13 or (lhs - rhs2).norm() > 1e-13:
            ok = False
        if abs(d_minus(u).dot(v) - u.dot(d_plus(v))) > 1e-13:
            ok = False
    record("operator_algebra", ok)

    # tail mass properties
    ok = True
    for _ in range(50):
        u = _random_window(rng, 12, 2.0)
        k = int(rng.integers(1, 6))
        tm = tail_mass(u, k)
        if tm > u.norm() ** 2 + 1e-14 or tm < 0:
            ok = False
    inner = LatticeWindow(-3, rng.standard_normal(7))
    if tail_mass(inner, 3) != 0.0:
        ok = False
    if cutoff_xi(10, 15) != 0.5:
        ok = False
    record("tail_mass", ok)

    # monotonicity of the closed-form bounds in each positive coefficient
    ok = True
    for attr in ("nu", "alpha", "beta"):
        lo = p
        hi = p.replace(**{attr: getattr(p, attr) * 1.5})
        if lambda_star(hi) + 1e-12 < lambda_star(lo) and attr != "beta":
            ok = False
        for r in (0.5, 2.0):
            if m_bound(hi, r) + 1e-12 < m_bound(lo, r):
                ok = False
            if l_bound(hi, r) + 1e-12 < l_bound(lo, r):
                ok = False
    record("bound_monotonicity", ok)

    # contraction certificate and solver contract on sampled steps
    eps = min(cfg.grids.eps_list)
    step_cfg = StepConfig(eps=eps)
    q = eps * l_bound(p, dc.r_star + 1.0)
    cap = math.ceil(math.log(step_cfg.fp_tol / (2 * dc.r_star + 2))
                    / math.log(q)) + 1
    ok = True
    worst_res = 0.0
    worst_iters = 0
    for _ in range(20):
        u = _random_window(rng, 8, dc.r_star)
        u_next, info = implicit_step_info(p, step_cfg, u, 32)
        worst_res = max(worst_res, info.residual)
        worst_iters = max(worst_iters, info.iterations)
        if info.residual > step_cfg.fp_tol or info.iterations > cap:
            ok = False
        if u_next.norm() > dc.r_star + 10 * step_cfg.fp_tol:
            ok = False
        lam_gap = p.lam - dc.lambda_star
        lhs = u_next.norm() ** 2
        rhs = (u.norm() ** 2 + eps * p.f.norm() ** 2 / lam_gap) \
            / (1 + eps * lam_gap) + 10 * step_cfg.fp_tol * dc.r_star
        if lhs > rhs:
            ok = False
    record("solver_contract", ok, {"max_residual": worst_res,
                                   "max_iterations": worst_iters,
                                   "iteration_cap": cap})

    # truncated matrices match the printed displays
    ok = True
    lam1 = laplacian_matrix(1)
    ok &= np.array_equal(lam1, np.array([[2., -1, 0], [-1, 2, -1], [0, -1, 1]]))
    ok &= np.array_equal(d_minus_matrix(1),
                         np.array([[-1., 0, 0], [1, -1, 0], [0, 1, -1]]))
    for m in (2, 8):
        lm = laplacian_matrix(m)
        ok &= lm[0, 0] == 2.0 and lm[-1, -1] == 1.0
    record("truncated_matrices", ok)

    # interior rows of the truncated field equal the infinite stencils
    ok = True
    for _ in range(20):
        m = 10
        u = _random_window(rng, m - 2, 1.0)
        x = restriction(u, m)
        fx = truncated_field(p, x)
        fw = vector_field(p, u)
        for i in range(-m + 1, m):
            if abs(fx.values[i + m] - fw[i]) > 1e-12:
                ok = False
    record("interior_consistency", ok)

    # Hausdorff pruning oracle
    ok = True
    for _ in range(10):
        A = sample_ball(1.0, "window", 3, 20, int(rng.integers(1 << 31)))
        B = sample_ball(1.5, "window", 3, 17, int(rng.integers(1 << 31)))
        if abs(hausdorff_semi_pruned(A, B) - hausdorff_semi(A, B)) > 1e-12:
            ok = False
    record("hausdorff_oracle", ok)

    # OU exact-discretization moments
    h = 0.37
    ok = abs(ou_decay(h) ** 2 - ou_decay(2 * h)) <= 1e-12
    var2 = ou_decay(h) ** 2 * ou_innovation_std(h) ** 2 + ou_innovation_std(h) ** 2
    ok &= abs(var2 - ou_innovation_std(2 * h) ** 2) <= 1e-12
    record("ou_moments", ok)

    # sigma = 0 reduces the random field to the deterministic one
    ok = True
    for _ in range(20):
        u = _random_window(rng, 8, 1.0)
        z = float(rng.standard_normal())
        diff = random_field(p, 0.0, z, u) - vector_field(p, u)
        if diff.values.size and np.max(np.abs(diff.values)) > 1e-15:
            ok = False
    record("random_field_reduction", ok)

    # absorbing radius limits
    gap = p.lam - dc.lambda_star
    horizon = -math.log(1e-8) / gap + 1
    path = ou_path(cfg.master_seed, -horizon, 0.0, 0.001)
    r0 = absorbing_radius(p.replace(f=LatticeWindow.zero()), 0.3, path, 1e-6)
    ok = r0.value == 1.0
    rs = absorbing_radius(p, 0.0, path, 1e-6)
    ok &= abs(rs.value - (1.0 + p.f.norm() ** 2 / gap ** 2)) <= 1e-5
    record("absorbing_radius", ok, {"sigma0_value": rs.value})

    report = {
        "checks": checks,
        "config_hash": config_hash(cfg),
        "code_version": __version__,
    }
    return all(c["status"] == "pass" for c in checks), report
