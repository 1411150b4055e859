"""Experiment orchestration: convergence studies, bound sweeps, error-order
fits, and ``verify``, which checks that a configuration lies where the
implicit-Euler theory holds.  Every run is a pure function of its
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
                        cloud_diameter, cloud_norm, embed_cloud,
                        hausdorff_semi, hausdorff_sym, sample_ball,
                        tail_profile)
from .errors import (ConfigError, DissipativityViolation, NoConvergence,
                     NonFinite, _is_int, _is_real)
from .lattice import (LatticeWindow, Params, derived_constants, l_bound,
                      m_bound)
from .stepping import (StepConfig, advance_grid, check_step, defect,
                       equilibrium, implicit_steps, point_contraction,
                       reference_flows, step_count)
from .stochastic import NoiseConfig, absorbing_radius, pullback_batch

# attraction happens on the time scale 1/(lam - lam*); a stabilization
# round (and the burn-in) is a fixed multiple of it, converted to a step
# count per eps
STABILIZATION_GAP_TIME = 2.0

# longest stabilization round a runner starts; the round grows without
# bound as lam -> lam*
MAX_ROUND_STEPS = 10**6

# trend checks: adjacent rows may rise by this relative slack plus a floor
# tied to the cloud stabilization tolerance
TREND_REL_SLACK = 0.10

# RK4 steps per eps of every flow reference: the eps-study's cloud and the
# error-order flow to T step min(eps) / REFERENCE_STEPS_PER_EPS, and each
# error-order flow to eps takes REFERENCE_STEPS_PER_EPS steps of its eps
# divided by it.  At the default config (seeds 2024, 1, 7 and 11) the
# error-order references differ from runs at step eps/400 by at most 1.6e-7
# of the local and 1.6e-10 of the global defect they resolve.
REFERENCE_STEPS_PER_EPS = 5

# largest relative bias of the absorbing radius's trapezoid rule on the
# noise path grid: on int e^{(lam - lam*)s} ds it is (gap*h)^2/12 to
# leading order, 1.7e-5 at the default config
RADIUS_QUAD_REL_TOL = 1e-3

# largest tail of the absorbing radius's integral left beyond the noise
# path; the noise study's paths reach back -log(tol)/(lam - lam*) + 1, one
# time unit past where the tail falls to tol (else HorizonTooShort)
ABSORBING_TAIL_TOL = 1e-6

# the bound sweep: forcing scalings c of f, each at every damping lam
BOUNDS_FORCING_SCALES = (1.0, 0.5, 0.25, 0.0)
BOUNDS_DAMPINGS = (8.0, 10.0, 12.0)
# the window half-width of the bound sweep's attractors
BOUNDS_HALF_WIDTH = 32


@dataclasses.dataclass
class GridConfig:
    eps_list: tuple = (0.01, 0.005, 0.0025)
    eps_error_list: tuple = (0.02, 0.01, 0.005, 0.0025)
    m_list: tuple = (8, 16, 32)
    sigma_list: tuple = (0.4, 0.2, 0.1, 0.05, 0.0)

    def __post_init__(self):
        # an empty list is left to validate and verify, which report it
        positive = ("positive numbers", lambda x: _is_real(x) and x > 0)
        rules = {"eps_list": positive, "eps_error_list": positive,
                 "m_list": ("integers of at least 2",
                            lambda x: _is_int(x) and x >= 2),
                 "sigma_list": ("nonnegative numbers",
                                lambda x: _is_real(x) and x >= 0)}
        for name, (kind, ok) in rules.items():
            if not all(ok(x) for x in getattr(self, name)):
                raise ValueError(f"grids.{name} must hold {kind}")


@dataclasses.dataclass
class ExperimentConfig:
    params: Params
    grids: GridConfig = dataclasses.field(default_factory=GridConfig)
    attractor: AttractorConfig = dataclasses.field(default_factory=AttractorConfig)
    noise: NoiseConfig = dataclasses.field(default_factory=NoiseConfig)
    window_half_width: int = 128
    noise_m: int = 16
    pullback_points: int = 16
    master_seed: int = 2024

    def __post_init__(self):
        for name in ("window_half_width", "noise_m", "pullback_points"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ValueError(f"{name} must be a positive integer")
        if not _is_int(self.master_seed) or self.master_seed < 0:
            raise ValueError("master_seed must be a nonnegative integer")
        if not self.params.f.fits(self.window_half_width):
            raise ValueError(
                f"params.f has support {list(self.params.f.support)}, outside "
                f"the window of window_half_width {self.window_half_width}")

    def validate(self):
        dc = derived_constants(self.params)
        for name in ("eps_list", "m_list", "sigma_list"):
            if not getattr(self.grids, name):
                raise ConfigError(f"grids.{name} must not be empty")
        for eps in self.grids.eps_list:
            check_step(dc, StepConfig(eps=eps))
        if list(self.grids.m_list) != sorted(self.grids.m_list):
            raise ConfigError("m_list must be ascending")
        sig = list(self.grids.sigma_list)
        if sig != sorted(sig, reverse=True):
            raise ConfigError("sigma_list must descend toward zero")
        return dc


def default_params(f_scale: float = 1.0, lam: float = 8.0) -> Params:
    """Desk-scale defaults: lam* = 6.5625 and ||f|| = lam - lam* at scale 1."""
    f = LatticeWindow.basis(0, 1.4375 * f_scale) if f_scale else LatticeWindow.zero()
    return Params(nu=1.0, alpha=1.0, beta=1.0, gamma=0.5, lam=lam, f=f)


def default_config(**overrides) -> ExperimentConfig:
    return dataclasses.replace(ExperimentConfig(params=default_params()),
                               **overrides)


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


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def params_hash(p: Params) -> str:
    key = (p.nu, p.alpha, p.beta, p.gamma, p.lam, p.laplacian_sign,
           p.f.offset, p.f.values.tobytes())
    return hashlib.sha256(repr(key).encode()).hexdigest()[:16]


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


def write_table(table: ResultTable, out_dir: str) -> list:
    """Write NAME.csv and its provenance NAME.meta.json; returns both paths."""
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, table.name)
    path = base + ".csv"
    with open(path, "w") as fh:
        fh.write(table.to_csv())
    meta = base + ".meta.json"
    with open(meta, "w") as fh:
        fh.write(json.dumps(table.provenance, indent=2))
    return [path, meta]


def trend_nonincreasing(values, rel_slack: float, abs_floor: float) -> bool:
    """Adjacent-row trend check with declared slack."""
    return all(b <= a * (1.0 + rel_slack) + abs_floor
               for a, b in zip(values, values[1:]))


# -- building blocks --------------------------------------------------------


def attractor_config_for_eps(base: AttractorConfig, eps: float,
                             lam_gap: float) -> AttractorConfig:
    """Burn-in and stabilization gap of one round each, scaled to the
    attraction time scale; ConfigError if a round exceeds MAX_ROUND_STEPS."""
    length = STABILIZATION_GAP_TIME / (eps * lam_gap)
    if length > MAX_ROUND_STEPS:
        raise ConfigError(
            f"a stabilization round at eps={eps} and lam - lam*={lam_gap} "
            f"takes {length:.4g} steps, above the budget of {MAX_ROUND_STEPS}")
    gap = max(1, math.ceil(length))
    return dataclasses.replace(base, burn_in=gap, stabilization_gap=gap)


def implicit_attractor(p: Params, eps: float, base: AttractorConfig,
                       half_width: int, mode: str = "window") -> PointCloud:
    """Attractor cloud of the implicit Euler system at step eps; refuses eps
    above eps* (StepTooLarge) before any solve, on either path."""
    step_cfg = StepConfig(eps=eps)
    check_step(derived_constants(p), step_cfg)
    return _evolved_attractor(
        p, eps, base, half_width, mode,
        lambda U, n: advance_grid(p, step_cfg, U, n, mode),
        {"eps": eps, "mode": mode})


def flow_attractor(p: Params, dt: float, base: AttractorConfig,
                   half_width: int, mode: str = "window") -> PointCloud:
    """Attractor cloud of the continuous-time flow via the reference
    integrator with step dt."""
    return _evolved_attractor(
        p, dt, base, half_width, mode,
        lambda U, n: reference_flows(p, U, dt, n, mode),
        {"dt": dt, "mode": mode, "flow": True})


def point_certificate(p: Params, half_width: int, mode: str):
    """(u*, record) for the system ``mode`` on the sites |i| <= half_width:
    u* the Newton zero of the field, and a record of ``certified``,
    ``kappa`` (``point_contraction`` at u*), ``max_F`` and
    ``newton_iterations``.  Certified means Newton converged and kappa < 0;
    then every attractor of the flow and of implicit Euler at any eps is the
    one point u*.  If Newton fails, u* is None and the record is
    uncertified, with the solver's last residual and iteration count."""
    try:
        u, max_F, iterations = equilibrium(p, half_width, mode)
    except NoConvergence as exc:
        return None, {"certified": False, "kappa": None,
                      "max_F": exc.residual,
                      "newton_iterations": exc.iterations}
    except NonFinite as exc:
        return None, {"certified": False, "kappa": None, "max_F": None,
                      "newton_iterations": None, "error": str(exc)}
    kappa = point_contraction(p, u, mode)
    return u, {"certified": kappa < 0, "kappa": kappa, "max_F": max_F,
               "newton_iterations": iterations}


def _evolved_attractor(p: Params, step: float, base: AttractorConfig,
                       half_width: int, mode: str, advance,
                       meta: dict) -> PointCloud:
    """Attractor cloud of the system ``mode`` over the sites |i| <=
    half_width.  A certified config (``point_certificate``) gives the
    one-row cloud at the Newton zero of the field.  Any other is evolved
    from the absorbing ball by ``advance(U, n)``, with burn-in and gap
    scaled to the step; a round over the budget is refused before any
    step."""
    dc = derived_constants(p)
    u, cert = point_certificate(p, half_width, mode)
    if cert["certified"]:
        return PointCloud(mode, half_width, u[None], meta={
            "seed": base.seed, "steps_evolved": 0, "rounds": 0,
            "stabilized_distance": None, "contraction_ratio": None, **meta,
            **cert})
    acfg = attractor_config_for_eps(base, step, p.lam - dc.lambda_star)
    return attractor_approx(advance, acfg, dc.r_star, mode, half_width,
                            meta={**meta, "certified": False,
                                  "kappa": cert["kappa"]})


# -- experiment runners -----------------------------------------------------


def run_eps_convergence(cfg: ExperimentConfig) -> ResultTable:
    """Distances from the implicit-Euler attractor to the flow's cloud at
    the RK4 step dt_ref = min(eps_list) / REFERENCE_STEPS_PER_EPS as the
    time step descends."""
    cfg.validate()
    K = cfg.window_half_width
    dt_ref = min(cfg.grids.eps_list) / REFERENCE_STEPS_PER_EPS
    a_ref = flow_attractor(cfg.params, dt_ref, cfg.attractor, K)
    rows = {"eps": [], "dist_semi": [], "dist_sym": [], "cloud_norm": []}
    steps = []
    for eps in cfg.grids.eps_list:
        a_eps = implicit_attractor(cfg.params, eps, cfg.attractor, K)
        rows["eps"].append(eps)
        rows["dist_semi"].append(hausdorff_semi(a_eps, a_ref))
        rows["dist_sym"].append(hausdorff_sym(a_eps, a_ref))
        rows["cloud_norm"].append(cloud_norm(a_eps))
        steps.append(a_eps.meta["steps_evolved"])
    prov = _provenance(cfg)
    prov["dt_ref"] = dt_ref
    prov["steps_evolved"] = {"reference": a_ref.meta["steps_evolved"],
                             "rows": steps}
    # the certificate is the window system's, the same at every step
    prov["certified"] = a_ref.meta["certified"]
    prov["kappa"] = a_ref.meta["kappa"]
    if prov["certified"]:
        prov["distances"] = ("0 by construction: the reference and every row "
                             "are the one Newton zero u* of the field")
    prov["trend_rel_slack"] = TREND_REL_SLACK
    prov["trend_abs_floor"] = 2.0 * cfg.attractor.stabilization_tol
    return ResultTable("eps_convergence", rows, prov)


def run_dim_convergence(cfg: ExperimentConfig) -> ResultTable:
    """Distances from null-expanded truncated attractors to the wide-window
    attractor as the truncation dimension grows."""
    cfg.validate()
    K = cfg.window_half_width
    if max(cfg.grids.m_list) >= K:
        raise ConfigError("m_list must stay below the window half-width")
    eps = cfg.grids.eps_list[0]
    a_full = implicit_attractor(cfg.params, eps, cfg.attractor, K)
    rows = {"m": [], "dist_semi": [], "tail_profile": [], "cloud_norm": []}
    steps = []
    for m in cfg.grids.m_list:
        a_m = implicit_attractor(cfg.params, eps, cfg.attractor, m,
                                 mode="truncated")
        a_m_embedded = embed_cloud(a_m, K)
        rows["m"].append(m)
        rows["dist_semi"].append(hausdorff_semi(a_m_embedded, a_full))
        rows["tail_profile"].append(tail_profile(a_m, m // 2))
        rows["cloud_norm"].append(cloud_norm(a_m))
        steps.append(a_m.meta["steps_evolved"])
    prov = _provenance(cfg)
    prov["eps"] = eps
    prov["steps_evolved"] = {"window": a_full.meta["steps_evolved"],
                             "rows": steps}
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
    if round(cfg.noise.pullback_T / dt) < 1:
        raise ConfigError(f"noise.pullback_T={cfg.noise.pullback_T} is "
                          f"shorter than half the pullback step dt={dt}")
    quad_err = (gap * cfg.noise.h_path) ** 2 / 12.0
    if quad_err > RADIUS_QUAD_REL_TOL:
        raise ConfigError(
            f"noise.h_path={cfg.noise.h_path} is too coarse for the absorbing "
            f"radius's trapezoid rule: its bias estimate (lam - lam*)^2 "
            f"h_path^2 / 12 = {quad_err:.3g} exceeds {RADIUS_QUAD_REL_TOL} "
            f"(h_path at most {math.sqrt(12.0 * RADIUS_QUAD_REL_TOL) / gap:.4g})")
    a_det = flow_attractor(cfg.params, dt, cfg.attractor, m, mode="truncated")
    init = sample_ball(dc.r_star, "truncated", m, cfg.pullback_points,
                       cfg.master_seed)
    horizon = -math.log(ABSORBING_TAIL_TOL) / gap + 1.0
    sigmas = list(cfg.grids.sigma_list)
    # one stack for every (sigma, realization); each path also gives the
    # realization's absorbing radius at every sigma
    batch = pullback_batch(cfg.params, cfg.noise, sigmas,
                           range(cfg.noise.realizations), dt, init,
                           path_horizon=horizon)
    rows = {"sigma": [], "mean_dist": [], "max_dist": [], "stderr": [],
            "excluded": [], "mean_radius": []}
    excluded_realizations = []
    # per sigma, the widest kept cloud at t = 0: near 0 when every pullback
    # has forgotten its start point
    spreads = []
    for i, sigma in enumerate(sigmas):
        dists, radii, excluded, spread = [], [], 0, 0.0
        for k, path in enumerate(batch.paths):
            if not batch.finite[i, k]:
                excluded += 1
                excluded_realizations.append({
                    "sigma": sigma, "realization": k,
                    "reason": "non-finite end state"})
                continue
            cloud = PointCloud("truncated", m, batch.points[i, k])
            dists.append(hausdorff_sym(cloud, a_det))
            spread = max(spread, cloud_diameter(cloud))
            radii.append(absorbing_radius(cfg.params, sigma, path,
                                          ABSORBING_TAIL_TOL).value)
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
        spreads.append(spread)
    prov = _provenance(cfg)
    # the step the pullback took, pullback_T / pullback_steps: not dt
    # itself unless dt divides pullback_T
    prov.update({"m": m, "dt": batch.dt, "pullback_steps": batch.n_steps,
                 "pullback_T": cfg.noise.pullback_T,
                 "radius_quad_rel_err": quad_err,
                 "steps_evolved": {"deterministic":
                                   a_det.meta["steps_evolved"]},
                 "excluded_realizations": excluded_realizations,
                 "pullback_spread": spreads,
                 # the distinct rows the pullback stack held at its start
                 # and at its end
                 "pullback_rows": list(batch.rows),
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
    eps_list = cfg.grids.eps_error_list
    for eps in eps_list:
        check_step(dc, StepConfig(eps=eps))
    try:
        n_implicit = [step_count(T, eps) for eps in eps_list]
    except ValueError as exc:
        raise ConfigError(f"grids.eps_error_list: {exc}")
    # an order is the slope of a fit through at least two points
    if len(eps_list) < 2:
        raise ConfigError("grids.eps_error_list needs at least two entries")
    K = 32
    samples = _ball_samples(np.random.default_rng(cfg.master_seed),
                            n_samples, 8, 0.9 * dc.r_star, K)
    # the flow does not depend on eps: u(eps, y) takes one short run per
    # eps, and one run per sample at the finest step gives u(T, y) for all
    dt_local = [eps / REFERENCE_STEPS_PER_EPS for eps in eps_list]
    dt_glob = min(eps_list) / REFERENCE_STEPS_PER_EPS
    n_glob = REFERENCE_STEPS_PER_EPS * max(n_implicit)
    at_T = reference_flows(p, samples, dt_glob, n_glob)
    Lr = l_bound(p, dc.r_star)
    Mr = m_bound(p, dc.r_star)
    Lr1 = l_bound(p, dc.r_star + 1.0)
    rows = {"eps": [], "local_max": [], "global_max": [],
            "local_bound": [], "global_bound": []}
    for eps, n, dt in zip(eps_list, n_implicit, dt_local):
        at_eps = reference_flows(p, samples, dt, REFERENCE_STEPS_PER_EPS)
        rows["eps"].append(eps)
        rows["local_max"].append(max(
            defect(p, eps, Y, 1, U) for Y, U in zip(samples, at_eps)))
        rows["global_max"].append(max(
            defect(p, eps, Y, n, U) for Y, U in zip(samples, at_T)))
        rows["local_bound"].append(Lr * Mr * Lr1 * eps**2)
        rows["global_bound"].append(Mr / 2.0 * math.exp(Lr * T) * eps)
    log_eps = np.log(rows["eps"])
    local_slope = float(np.polyfit(log_eps, np.log(rows["local_max"]), 1)[0])
    global_slope = float(np.polyfit(log_eps, np.log(rows["global_max"]), 1)[0])
    rows["local_slope"] = [local_slope] * len(rows["eps"])
    rows["global_slope"] = [global_slope] * len(rows["eps"])
    prov = _provenance(cfg)
    prov.update({"T": T, "n_samples": n_samples, "forcing": "off",
                 "dt_ref_local": dt_local, "dt_ref_global": dt_glob,
                 "reference_rk4_steps": n_glob
                 + REFERENCE_STEPS_PER_EPS * len(eps_list),
                 "reference_rows": n_samples})
    return ResultTable("error_order", rows, prov)


def run_bounds(cfg: ExperimentConfig) -> ResultTable:
    """Attractor norms against the closed-form bound ||f||/(lam - lam*)
    across the forcing scalings BOUNDS_FORCING_SCALES and the ascending
    dampings BOUNDS_DAMPINGS."""
    base = cfg.params
    if not base.f.fits(BOUNDS_HALF_WIDTH):
        raise ConfigError(
            f"params.f has support {list(base.f.support)}, outside the bound "
            f"sweep's window of half-width {BOUNDS_HALF_WIDTH}")
    m = cfg.noise_m
    rows = {"c": [], "lam": [], "norm_window": [], "norm_trunc": [],
            "bound": []}
    steps = {"window": [], "truncated": []}
    for c in BOUNDS_FORCING_SCALES:
        for lam in BOUNDS_DAMPINGS:
            f = LatticeWindow(base.f.offset, base.f.values * c) if c else \
                LatticeWindow.zero()
            p = base.replace(f=f, lam=lam)
            dc = derived_constants(p)
            eps = min(0.005, 0.9 * dc.eps_star)
            a_w = implicit_attractor(p, eps, cfg.attractor, BOUNDS_HALF_WIDTH)
            a_t = implicit_attractor(p, eps, cfg.attractor, m,
                                     mode="truncated")
            rows["c"].append(c)
            rows["lam"].append(lam)
            rows["norm_window"].append(cloud_norm(a_w))
            rows["norm_trunc"].append(cloud_norm(a_t))
            rows["bound"].append(p.f.norm() / (lam - dc.lambda_star))
            steps["window"].append(a_w.meta["steps_evolved"])
            steps["truncated"].append(a_t.meta["steps_evolved"])
    prov = _provenance(cfg)
    prov["norm_slack"] = 2.0 * cfg.attractor.stabilization_tol
    prov["steps_evolved"] = steps
    return ResultTable("bounds", rows, prov)


# -- verification -----------------------------------------------------------


def _ball_samples(rng, count, half, radius, half_width) -> np.ndarray:
    """count states drawn uniformly from the ball of the given radius on the
    sites |i| <= half, as the rows of a (count, 2*half_width+1) grid stack.
    Each state takes 2*half+1 normals for its direction, then one uniform
    for its radius, in turn."""
    dim = 2 * half + 1
    U = np.zeros((count, 2 * half_width + 1))
    for row in U[:, half_width - half:half_width + half + 1]:
        raw = rng.standard_normal(dim)
        row[:] = raw * (radius * rng.random() ** (1.0 / dim)
                        / np.linalg.norm(raw))
    return U


def _energy_bound(p: Params, dc, eps: float, U: np.ndarray,
                  fp_tol: float) -> np.ndarray:
    """The energy recurrence's bound on ||v||^2 after one implicit step of
    eps from each row u of U, (||u||^2 + eps*||f||^2/(lam - lam*)) /
    (1 + eps*(lam - lam*)), with a slack of 10*fp_tol*r* for a step solved
    to the fixed-point tolerance fp_tol."""
    lam_gap = p.lam - dc.lambda_star
    return (_grid.row_norms(U) ** 2 + eps * p.f.norm() ** 2 / lam_gap) \
        / (1 + eps * lam_gap) + 10 * fp_tol * dc.r_star


def verify(cfg: ExperimentConfig) -> tuple[bool, dict]:
    """Check that the implicit-Euler theory covers this configuration:
    lam exceeds lam* (``dissipativity``), every eps in grids.eps_list is at
    most eps* (``step_cap``), sampled steps from the absorbing ball meet
    the solver contract (``solver_contract``); then it records whether the
    window's attractor is certified to be one point (``point_attractor``,
    which a Newton failure leaves uncertified, not failed).  Stops at the
    first failing check; returns (ok, report)."""
    checks = []

    def record(name, ok, witness=None):
        checks.append({"check": name, "status": "pass" if ok else "fail",
                       "witness": witness})

    def report():
        ok = all(c["status"] == "pass" for c in checks)
        return ok, {"checks": checks, "config_hash": config_hash(cfg),
                    "code_version": __version__}

    p = cfg.params
    try:
        dc = derived_constants(p)
    except DissipativityViolation as exc:
        record("dissipativity", False, str(exc))
        return report()
    record("dissipativity", True, {"lambda_star": dc.lambda_star})

    # the Picard map contracts, with factor q, only for eps <= eps*
    eps_max = max(cfg.grids.eps_list, default=None)
    ok = eps_max is not None and dc.allows_step(eps_max)
    record("step_cap", ok, {
        "eps_star": dc.eps_star, "eps_max": eps_max,
        "contraction_factor": None if eps_max is None
        else eps_max * l_bound(p, dc.r_star + 1.0)})
    if not ok:
        return report()

    # contraction certificate and solver contract on sampled steps
    eps = min(cfg.grids.eps_list)
    step_cfg = StepConfig(eps=eps)
    q = eps * l_bound(p, dc.r_star + 1.0)
    cap = math.ceil(math.log(step_cfg.fp_tol / (2 * dc.r_star + 2))
                    / math.log(q)) + 1
    U = _ball_samples(np.random.default_rng(cfg.master_seed), 20, 8,
                      dc.r_star, 32)
    # one solve of the whole stack: its residual and iterations are the
    # slowest row's
    (V, info), = implicit_steps(p, step_cfg, U, 1, "window")
    # each row meets the energy recurrence, and so keeps the ball
    # ||v|| <= r* + 10*fp_tol: from ||u|| <= r* the bound without its
    # slack lies at least eps*((lam - lam*)*r*^2 - ||f||^2/(lam - lam*)) /
    # (1 + eps*(lam - lam*)) below r*^2, which is positive since
    # r* = 1 + ||f||/(lam - lam*); so ||v||^2 <= r*^2 + 10*fp_tol*r*
    ok = bool(info.iterations <= cap
              and np.all(_grid.row_norms(V) ** 2
                         <= _energy_bound(p, dc, eps, U, step_cfg.fp_tol)))
    record("solver_contract", ok, {"max_residual": info.residual,
                                   "max_iterations": info.iterations,
                                   "iteration_cap": cap})
    if not ok:
        return report()

    # whether the window's attractors are the one Newton zero of the field;
    # a record, since an unconverged Newton solve only leaves it uncertified
    record("point_attractor", True,
           point_certificate(p, cfg.window_half_width, "window")[1])
    return report()
