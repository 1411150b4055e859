"""Self-test of the benchmark's checks: each is fed a result that is right,
then a perturbed one, and must pass the first and fail the second.

Run from the root of the repository with ``python3 -m pytest perfbench``.
It needs numpy and pytest only; no study runs.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402

P = {"nu": 1.0, "alpha": 1.0, "beta": 1.0, "gamma": 0.5, "lam": 8.0,
     "f": {0: 1.4375}}
K = 16
M_LIST = (4, 8, 12)
STAB_TOL = 1e-7
SIGMAS = (0.4, 0.2, 0.1, 0.0)
R = 3
EPS = [0.02, 0.01, 0.005, 0.0025]
T = 0.5


def flat(ops: dict) -> list:
    return [p for probs in ops.values() for p in probs]


def has(problems: list, text: str) -> bool:
    return any(text in p for p in problems)


# -- the references themselves ---------------------------------------------


@pytest.mark.parametrize("mode", ["window", "truncated"])
def test_newton_equilibrium_is_a_zero(mode):
    u = checks.equilibrium(P, K, mode)
    assert np.max(np.abs(checks.field(P, u, mode))) <= checks.NEWTON_TOL
    assert 0.0 < np.linalg.norm(u) < checks.forcing_norm(P) / checks.gap(P)


def test_field_matches_the_formula_site_by_site():
    rng = np.random.default_rng(0)
    u = rng.standard_normal(7)
    F = checks.field(P, u, "window")
    ext = np.concatenate([[0.0], u, [0.0]])
    for i in range(7):
        um, ui, up = ext[i], ext[i + 1], ext[i + 2]
        want = (-um + 2 * ui - up) - ui * (um - ui) + ui * (1 - ui) * (ui - 0.5) \
            - 8.0 * ui + (1.4375 if i == 3 else 0.0)
        assert abs(F[i] - want) <= 1e-12
    Ft = checks.field(P, u, "truncated")
    assert np.allclose(Ft[:-1], F[:-1]) and abs(Ft[-1] - (F[-1] - u[-1])) <= 1e-12


def test_field_jacobian_matches_finite_differences():
    rng = np.random.default_rng(1)
    u = 0.3 * rng.standard_normal(9)
    for mode in ("window", "truncated"):
        J = checks.jacobian(P, u, mode)
        h = 1e-6
        fd = np.column_stack([(checks.field(P, u + h * e, mode)
                               - checks.field(P, u - h * e, mode)) / (2 * h)
                              for e in np.eye(9)])
        assert np.max(np.abs(J - fd)) <= 1e-7


# -- attractor-clouds ---------------------------------------------------------


def dim_case():
    rng = np.random.default_rng(2)
    clouds = {("window", K): checks.equilibrium(P, K, "window")
              + 1e-10 * rng.standard_normal((5, 2 * K + 1))}
    for m in M_LIST:
        clouds[("truncated", m)] = checks.equilibrium(P, m, "truncated") \
            + 1e-10 * rng.standard_normal((5, 2 * m + 1))
    columns = {
        "m": list(M_LIST),
        "dist_semi": [checks.hausdorff_semi(checks.embed(clouds[("truncated", m)], K),
                                            clouds[("window", K)]) for m in M_LIST],
        "tail_profile": [1e-5, 1e-8, 1e-9],
        "cloud_norm": [float(np.max(np.linalg.norm(clouds[("truncated", m)], axis=1)))
                       for m in M_LIST],
    }
    return columns, clouds


def run_dim(columns, clouds):
    return checks.check_dim_convergence(P, K, M_LIST, STAB_TOL, columns, clouds)


def test_dim_passes_on_equilibrium_clouds():
    ops = run_dim(*dim_case())
    assert len(ops) == 1 + len(M_LIST)
    assert flat(ops) == []


def test_dim_fails_on_a_moved_point():
    columns, clouds = dim_case()
    clouds[("window", K)][2, K] += 1e-3
    ops = run_dim(columns, clouds)
    probs = ops[f"cloud window {K}"]
    assert has(probs, "max |F|") and has(probs, "distance to equilibrium")


def test_dim_fails_on_a_cloud_outside_the_norm_bound():
    columns, clouds = dim_case()
    clouds[("truncated", 8)][0] *= 5.0
    assert has(run_dim(columns, clouds)["cloud truncated 8"], "attractor norm")


def test_dim_fails_on_a_wrong_distance():
    columns, clouds = dim_case()
    columns["dist_semi"][1] += 1e-9
    assert has(run_dim(columns, clouds)["cloud truncated 8"], "recomputed")


def test_dim_fails_on_a_rising_distance():
    columns, clouds = dim_case()
    columns["dist_semi"][2] = 2.0 * columns["dist_semi"][1] + 1e-3
    assert has(run_dim(columns, clouds)["cloud truncated 12"], "rises")


def test_dim_fails_on_a_heavy_tail():
    columns, clouds = dim_case()
    columns["tail_profile"][-1] = 2e-6
    assert has(run_dim(columns, clouds)["cloud truncated 12"], "tail")


def test_dim_fails_on_a_wrong_cloud_norm():
    columns, clouds = dim_case()
    columns["cloud_norm"][0] *= 1.01
    assert has(run_dim(columns, clouds)["cloud truncated 4"], "cloud_norm")


def test_dim_fails_on_a_missing_cloud():
    columns, clouds = dim_case()
    del clouds[("truncated", 4)]
    assert run_dim(columns, clouds)["cloud truncated 4"] == ["cloud missing"]


# -- noise-pullback -----------------------------------------------------------


def noise_case():
    closed = 1.0 + checks.forcing_norm(P) ** 2 / checks.gap(P) ** 2
    return {"sigma": list(SIGMAS), "mean_dist": [0.04, 0.021, 0.011, 6e-17],
            "max_dist": [0.08, 0.04, 0.02, 6e-17],
            "stderr": [0.02, 0.012, 0.0065, 0.0], "excluded": [0, 0, 0, 0],
            "mean_radius": [2.1, 2.02, 2.0, closed + 1.7e-5]}


def run_noise(columns):
    return checks.check_noise_convergence(P, SIGMAS, R, columns)


def test_noise_passes_on_a_good_table():
    ops = run_noise(noise_case())
    assert len(ops) == len(SIGMAS) * R
    assert flat(ops) == []


def test_noise_fails_on_a_rising_mean():
    columns = noise_case()
    columns["mean_dist"][2] = 0.05
    ops = run_noise(columns)
    assert all(has(ops[f"sigma 0.1 realization {k}"], "rises") for k in range(R))
    assert ops["sigma 0.4 realization 0"] == []


def test_noise_fails_on_a_nonzero_sigma0_row():
    columns = noise_case()
    columns["mean_dist"][3] = 2e-5
    assert has(run_noise(columns)["sigma 0.0 realization 0"], "sigma = 0 distance")


def test_noise_fails_on_a_wrong_sigma0_radius():
    columns = noise_case()
    columns["mean_radius"][3] += 2e-4
    assert has(run_noise(columns)["sigma 0.0 realization 1"], "radius")


def test_noise_fails_on_a_radius_below_one():
    columns = noise_case()
    columns["mean_radius"][0] = math.nan
    assert has(run_noise(columns)["sigma 0.4 realization 0"], "below 1")


def test_noise_fails_one_operation_per_excluded_realization():
    columns = noise_case()
    columns["excluded"][1] = 1
    ops = run_noise(columns)
    failed = [k for k in range(R) if ops[f"sigma 0.2 realization {k}"]]
    assert failed == [R - 1]


# -- single-trajectory ----------------------------------------------------------


def trajectory_case(steps=50, eps=0.005):
    g = checks.gap(P)
    fn2 = checks.forcing_norm(P) ** 2
    sq = [0.25]
    for _ in range(steps):
        sq.append(0.999 * (sq[-1] + eps * fn2 / g) / (1 + eps * g))
    return np.array(sq), checks.equilibrium(P, K, "window")


def test_trajectory_passes():
    sq, end = trajectory_case()
    assert checks.check_trajectory(P, 0.005, 1e-10, sq, end) == []


def test_trajectory_fails_on_an_energy_jump():
    sq, end = trajectory_case()
    sq[20] += 1e-3
    assert has(checks.check_trajectory(P, 0.005, 1e-10, sq, end),
               "energy recurrence broken at step 20")


def test_trajectory_fails_on_a_wrong_end_state():
    sq, end = trajectory_case()
    end[K] += 1e-4
    assert has(checks.check_trajectory(P, 0.005, 1e-10, sq, end),
               "distance to equilibrium")


# -- error orders ---------------------------------------------------------------


def error_case(local_power=2.0, global_power=1.0):
    p = dict(P, f={})
    r = checks.absorbing_ball_radius(p)
    Lr, Mr = checks.lipschitz_bound(p, r), checks.growth_bound(p, r)
    Lr1 = checks.lipschitz_bound(p, r + 1)
    e = np.array(EPS)
    cols = {"eps": EPS,
            "local_max": list(11.0 * e ** local_power),
            "global_max": list(0.34 * e ** global_power),
            "local_bound": list(Lr * Mr * Lr1 * e ** 2),
            "global_bound": list(Mr / 2 * math.exp(Lr * T) * e)}
    cols["local_slope"] = [local_power] * 4
    cols["global_slope"] = [global_power] * 4
    return p, cols


def test_error_order_passes():
    p, cols = error_case()
    ops = checks.check_error_order(p, T, cols)
    assert len(ops) == 4 and flat(ops) == []


def test_error_order_fails_on_a_wrong_local_order():
    p, cols = error_case(local_power=1.5)
    ops = checks.check_error_order(p, T, cols)
    assert all(has(v, "local slope") for v in ops.values())


def test_error_order_fails_on_a_wrong_global_order():
    p, cols = error_case(global_power=1.3)
    assert has(flat(checks.check_error_order(p, T, cols)), "global slope")


def test_error_order_fails_on_a_misreported_slope():
    p, cols = error_case()
    cols["local_slope"] = [2.01] * 4
    assert has(flat(checks.check_error_order(p, T, cols)), "reported local slope")


def test_error_order_fails_on_an_error_above_its_bound():
    p, cols = error_case()
    cols["local_max"][0] = 2.0 * cols["local_bound"][0]
    ops = checks.check_error_order(p, T, cols)
    assert has(ops["error order eps 0.02"], "local error")


def test_error_order_fails_on_a_wrong_bound():
    p, cols = error_case()
    cols["global_bound"][3] *= 1.001
    assert has(checks.check_error_order(p, T, cols)["error order eps 0.0025"],
               "global bound")
