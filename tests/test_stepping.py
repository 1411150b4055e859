import math
import warnings

import numpy as np
import pytest

from bhlattice import (
    LatticeWindow,
    NoConvergence,
    NonFinite,
    Params,
    StepConfig,
    StepTooLarge,
    derived_constants,
    global_error,
    implicit_step,
    implicit_step_info,
    l_bound,
    local_error,
    reference_flow,
    run_trajectory,
)
from bhlattice import stepping


@pytest.fixture
def params():
    return Params(nu=1.0, alpha=1.0, beta=1.0, gamma=0.5, lam=8.0)


def dense_field(p, u, f):
    """Independent stencil evaluation on a dense vector (test-local oracle)."""
    um = np.concatenate([[0.0], u[:-1]])
    up = np.concatenate([u[1:], [0.0]])
    return (p.nu * (-um + 2 * u - up) - p.alpha * u * (um - u)
            + p.beta * u * (1 - u) * (u - p.gamma) - p.lam * u + f)


def dense_newton_step(p, u_prev, eps, f, tol=1e-13):
    """Solve y = u_prev + eps*F(y) by Newton with a finite-difference
    Jacobian; independent of the package's solver."""
    y = u_prev.copy()
    n = y.size
    for _ in range(60):
        res = y - u_prev - eps * dense_field(p, y, f)
        if np.linalg.norm(res) <= tol:
            return y
        jac = np.empty((n, n))
        h = 1e-7
        for j in range(n):
            dy = y.copy()
            dy[j] += h
            jac[:, j] = (dy - u_prev - eps * dense_field(p, dy, f) - res) / h
        y = y - np.linalg.solve(jac, res)
    raise AssertionError("oracle Newton did not converge")


class TestImplicitStep:
    def test_zero_is_fixed_point(self, params):
        cfg = StepConfig(eps=0.01)
        out, info = implicit_step_info(params, cfg, LatticeWindow.zero(), 16)
        assert out == LatticeWindow.zero()
        assert info.residual == 0.0

    def test_matches_dense_newton_oracle(self, params):
        cfg = StepConfig(eps=0.01, fp_tol=1e-12)
        u_prev = LatticeWindow.basis(0, 0.1)
        out, info = implicit_step_info(params, cfg, u_prev, 16)
        assert info.residual <= 1e-12
        oracle = dense_newton_step(params, u_prev.to_grid(16), 0.01,
                                   np.zeros(33))
        assert np.linalg.norm(out.to_grid(16) - oracle) <= 1e-10
        gap = params.lam - derived_constants(params).lambda_star
        assert out.norm() ** 2 <= u_prev.norm() ** 2 / (1 + 0.01 * gap)

    def test_step_too_large(self, params):
        dc = derived_constants(params)
        cfg = StepConfig(eps=2 * dc.eps_star)
        with pytest.raises(StepTooLarge):
            implicit_step(params, cfg, LatticeWindow.basis(0, 0.1), 16)

    def test_no_convergence_reports_iterations(self, params):
        cfg = StepConfig(eps=0.02, max_iter=1, enforce_eps_star=False)
        with pytest.raises(NoConvergence) as exc:
            implicit_step(params, cfg, LatticeWindow.basis(0, 0.9), 16)
        assert exc.value.iterations == 1

    def test_positive_invariance(self, params):
        dc = derived_constants(params)
        cfg = StepConfig(eps=dc.eps_star, fp_tol=1e-11)
        rng = np.random.default_rng(8)
        for _ in range(25):
            raw = rng.standard_normal(17)
            raw *= dc.r_star * rng.random() / np.linalg.norm(raw)
            u = LatticeWindow(-8, raw)
            out = implicit_step(params, cfg, u, 24)
            assert out.norm() <= dc.r_star + 10 * cfg.fp_tol

    def test_newton_mode_agrees_with_picard(self, params):
        u_prev = LatticeWindow.basis(0, 0.3)
        a = implicit_step(params, StepConfig(eps=0.01, fp_tol=1e-13), u_prev, 16)
        b = implicit_step(params, StepConfig(eps=0.01, fp_tol=1e-13,
                                             method="newton"), u_prev, 16)
        assert (a - b).norm() <= 1e-11

    def test_contraction_certificate(self, params):
        dc = derived_constants(params)
        eps = dc.eps_star
        L1 = l_bound(params, dc.r_star + 1.0)
        rng = np.random.default_rng(9)
        for _ in range(200):
            raw_y = rng.standard_normal(17)
            raw_z = rng.standard_normal(17)
            raw_y *= (dc.r_star + 1) * rng.random() / np.linalg.norm(raw_y)
            raw_z *= (dc.r_star + 1) * rng.random() / np.linalg.norm(raw_z)
            y = LatticeWindow(-8, raw_y)
            z = LatticeWindow(-8, raw_z)
            u0 = LatticeWindow.basis(0, 0.2)
            from bhlattice import vector_field
            phi_y = u0 + eps * vector_field(params, y)
            phi_z = u0 + eps * vector_field(params, z)
            assert (phi_y - phi_z).norm() <= \
                eps * L1 * (y - z).norm() * (1 + 1e-12)
            assert eps * L1 <= L1 / (1 + L1) + 1e-15


class TestTrajectory:
    def test_zero_steps(self, params):
        u0 = LatticeWindow.basis(0, 0.4)
        traj = run_trajectory(params, StepConfig(eps=0.01), u0, 0, 16)
        assert traj.states == (u0,)

    def test_unforced_decay_is_geometric(self, params):
        dc = derived_constants(params)
        gap = params.lam - dc.lambda_star
        eps = 0.02
        u0 = LatticeWindow.basis(0, 0.9)
        traj = run_trajectory(params, StepConfig(eps=eps), u0, 60, 16)
        norms = [u.norm() for u in traj.states]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
        assert norms[-1] <= norms[0] / (1 + eps * gap) ** 30 + 1e-12

    def test_restart_is_bit_identical(self, params):
        cfg = StepConfig(eps=0.01)
        u0 = LatticeWindow.basis(0, 0.5)
        traj = run_trajectory(params, cfg, u0, 20, 16)
        again = run_trajectory(params, cfg, traj.states[5], 15, 16)
        assert again.states == traj.states[5:]

    def test_constants_computed_once_per_trajectory(self, params, monkeypatch):
        calls = []
        real = stepping.derived_constants

        def counting(p):
            calls.append(p)
            return real(p)

        monkeypatch.setattr(stepping, "derived_constants", counting)
        cfg = StepConfig(eps=0.01)
        u0 = LatticeWindow.basis(0, 0.5)
        counts = []
        for n in (3, 30):
            calls.clear()
            traj = run_trajectory(params, cfg, u0, n, 16)
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 1
        # the same states, bit for bit, as stepping one implicit step at a time
        u = u0
        for state in traj.states[1:]:
            u = implicit_step(params, cfg, u, 16)
            assert u == state


class TestReferenceFlow:
    def test_time_zero_identity(self, params):
        u0 = LatticeWindow.basis(0, 0.3)
        assert reference_flow(params, u0, 0.0, 0.001, 16) == u0

    def test_unforced_energy_decay(self, params):
        dc = derived_constants(params)
        gap = params.lam - dc.lambda_star
        u0 = LatticeWindow.basis(0, 0.8)
        for t in (0.1, 0.5, 1.0):
            u = reference_flow(params, u0, t, 0.001, 16)
            assert u.norm() ** 2 <= math.exp(-gap * t) * u0.norm() ** 2 + 1e-8

    def test_richardson_order_is_four(self, params):
        u0 = LatticeWindow.basis(0, 0.6)
        t = 0.2
        outs = [reference_flow(params, u0, t, dt, 16).to_grid(16)
                for dt in (0.01, 0.005, 0.0025)]
        e1 = np.linalg.norm(outs[0] - outs[1])
        e2 = np.linalg.norm(outs[1] - outs[2])
        order = math.log2(e1 / e2)
        assert 3.5 <= order <= 4.5


    def test_overflow_raises_nonfinite(self, params):
        u0 = LatticeWindow.basis(0, 1e3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFinite, match="integrator state overflowed"):
                reference_flow(params, u0, 1.0, 0.1, 4)


class TestClampedGrid:
    @pytest.mark.parametrize("offset, size", [(-7, 15), (-7, 4), (5, 3),
                                              (-2, 3), (9, 2), (-12, 3)])
    def test_equals_componentwise_definition(self, offset, size):
        u = LatticeWindow(offset, np.arange(1.0, size + 1.0))
        K = 4
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = stepping._to_grid_clamped(u, K)
        assert got.tolist() == [u[i] for i in range(-K, K + 1)]

    def test_warns_only_above_the_clipped_mass_threshold(self):
        # a window sticking out on both sides, by mass 8 and by mass 2e-16
        with pytest.warns(RuntimeWarning, match="clipped tail mass 8"):
            stepping._to_grid_clamped(LatticeWindow(-2, [2.0, 1.0, 1.0, 1.0, 2.0]), 1)
        tiny = LatticeWindow(-3, [1e-8, 1.0, 1.0, 1.0, 1.0, 1.0, 1e-8])
        assert stepping.CLIP_MASS_WARN == 1e-14
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = stepping._to_grid_clamped(tiny, 2)
        assert got.tolist() == [1.0] * 5


class TestDiscretizationError:
    def test_zero_initial_state(self, params):
        assert local_error(params, 0.01, LatticeWindow.zero(), 1e-4, 16) == 0.0
        assert global_error(params, 0.01, LatticeWindow.zero(), 0.1, 1e-4, 16) == 0.0

    def test_local_error_second_order(self, params):
        y = LatticeWindow.basis(0, 0.5)
        e1 = local_error(params, 0.02, y, 2e-4, 16)
        e2 = local_error(params, 0.01, y, 1e-4, 16)
        ratio = e1 / e2
        assert 3.0 <= ratio <= 5.0  # halving eps quarters the defect

    def test_global_error_first_order(self, params):
        y = LatticeWindow.basis(0, 0.5)
        e1 = global_error(params, 0.02, y, 0.4, 2e-4, 16)
        e2 = global_error(params, 0.01, y, 0.4, 1e-4, 16)
        assert 1.5 <= e1 / e2 <= 2.8


class TestAbsorption:
    def test_large_state_enters_ball(self, params):
        dc = derived_constants(params)
        gap = params.lam - dc.lambda_star
        eps = 0.02
        u0 = LatticeWindow.basis(0, 3 * dc.r_star)
        cap = math.ceil((2 * math.log(3 * dc.r_star)
                         + math.log(dc.lambda_star)) / (eps * gap)) + 10
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            traj = run_trajectory(params, StepConfig(eps=eps), u0, cap, 16)
        assert any(u.norm() <= dc.r_star for u in traj.states)
