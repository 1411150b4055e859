import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bhlattice import (
    LatticeWindow,
    NoConvergence,
    NonFinite,
    Params,
    StepConfig,
    StepTooLarge,
    derived_constants,
    global_error,
    implicit_step_info,
    l_bound,
    local_error,
    reference_flow,
    run_trajectory,
)
from bhlattice import _grid, stepping
from dense_truncation import dense_truncated_field

# fixed example sequence and no example database, so runs repeat exactly
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)

FORCED = Params(nu=1.0, alpha=1.0, beta=1.0, gamma=0.5, lam=8.0,
                f=LatticeWindow.basis(0, 1.4375))


@pytest.fixture
def params():
    return Params(nu=1.0, alpha=1.0, beta=1.0, gamma=0.5, lam=8.0)


def dense_field(p, u, f):
    """Independent stencil evaluation on a dense vector (test-local oracle)."""
    um = np.concatenate([[0.0], u[:-1]])
    up = np.concatenate([u[1:], [0.0]])
    return (p.nu * (-um + 2 * u - up) - p.alpha * u * (um - u)
            + p.beta * u * (1 - u) * (u - p.gamma) - p.lam * u + f)


def dense_newton(residual, y, tol=1e-13):
    """Solve residual(y) = 0 from y by Newton with a finite-difference
    Jacobian; independent of the package's solvers."""
    n = y.size
    for _ in range(60):
        res = residual(y)
        if np.linalg.norm(res) <= tol:
            return y
        jac = np.empty((n, n))
        h = 1e-7
        for j in range(n):
            dy = y.copy()
            dy[j] += h
            jac[:, j] = (residual(dy) - res) / h
        y = y - np.linalg.solve(jac, res)
    raise AssertionError("oracle Newton did not converge")


def dense_newton_step(p, u_prev, eps, f, tol=1e-13):
    """Solve y = u_prev + eps*F(y) by the oracle Newton from u_prev."""
    return dense_newton(lambda y: y - u_prev - eps * dense_field(p, y, f),
                        u_prev.copy(), tol)


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
            implicit_step_info(params, cfg, LatticeWindow.basis(0, 0.1), 16)

    def test_no_convergence_reports_iterations(self, params, monkeypatch):
        monkeypatch.setattr(stepping, "PICARD_MAX_ITER", 1)
        cfg = StepConfig(eps=0.02, enforce_eps_star=False)
        with pytest.raises(NoConvergence) as exc:
            implicit_step_info(params, cfg, LatticeWindow.basis(0, 0.9), 16)
        assert exc.value.iterations == 1

    def test_positive_invariance(self, params):
        dc = derived_constants(params)
        cfg = StepConfig(eps=dc.eps_star, fp_tol=1e-11)
        rng = np.random.default_rng(8)
        for _ in range(25):
            raw = rng.standard_normal(17)
            raw *= dc.r_star * rng.random() / np.linalg.norm(raw)
            u = LatticeWindow(-8, raw)
            out, _ = implicit_step_info(params, cfg, u, 24)
            assert out.norm() <= dc.r_star + 10 * cfg.fp_tol

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
            u, _ = implicit_step_info(params, cfg, u, 16)
            assert u == state


    def test_states_bitwise_equal_to_single_steps(self):
        cfg = StepConfig(eps=0.01)
        u0 = LatticeWindow(-2, [0.3, -0.7, 0.5, 0.0, 0.2])
        traj = run_trajectory(FORCED, cfg, u0, 40, 16)
        u = u0
        for state in traj.states[1:]:
            u, _ = implicit_step_info(FORCED, cfg, u, 16)
            assert (u.offset, u.values.tobytes()) == \
                (state.offset, state.values.tobytes())

    @pytest.mark.parametrize("n", [stepping.TRAJ_BLOCK - 1, stepping.TRAJ_BLOCK,
                                   stepping.TRAJ_BLOCK + 1, 600])
    def test_states_across_window_blocks_equal_single_steps(self, n):
        """The windows are built a block of TRAJ_BLOCK solutions at a time:
        a run that ends just before, on or after a block boundary, or
        spans several blocks and a part, still gives each single step."""
        cfg = StepConfig(eps=0.01)
        u0 = LatticeWindow(-2, [0.3, -0.7, 0.5, 0.0, 0.2])
        traj = run_trajectory(FORCED, cfg, u0, n, 16)
        assert len(traj.states) == n + 1 and traj.states[0] is u0
        u = u0
        for state in traj.states[1:]:
            u, _ = implicit_step_info(FORCED, cfg, u, 16)
            assert (u.offset, u.values.tobytes()) == \
                (state.offset, state.values.tobytes())
            assert not state.values.flags.writeable

    def test_field_of_each_solution_carries_over(self, monkeypatch):
        """n Picard steps cost 1 + sum(iterations) field evaluations: only
        the first step evaluates F at its start state."""
        evals, iters = [0], []
        real_field, real_solve = _grid.field, _grid.picard_solve

        def counting_field(*args):
            evals[0] += 1
            return real_field(*args)

        def recording_solve(*args):
            out = real_solve(*args)
            iters.append(out[2])
            return out

        monkeypatch.setattr(_grid, "field", counting_field)
        monkeypatch.setattr(_grid, "picard_solve", recording_solve)
        n = 25
        u0 = LatticeWindow.basis(0, 0.5)
        run_trajectory(FORCED, StepConfig(eps=0.01), u0, n, 16)
        assert len(iters) == n
        assert evals[0] == 1 + sum(iters) < sum(i + 1 for i in iters)


DENSE_FIELDS = {"window": dense_field, "truncated": dense_truncated_field}


class TestEquilibrium:
    """Banded Newton on F(u) = 0, the package's one Newton loop."""

    @pytest.mark.parametrize("mode, half_width", [("window", 16),
                                                  ("truncated", 8)])
    def test_is_a_zero_of_the_field(self, mode, half_width):
        u, resid, iterations = stepping.equilibrium(FORCED, half_width, mode)
        coef = _grid.field_coefficients(
            FORCED, 1.0, 0.0, stepping.forcing_grid(FORCED, half_width, mode))
        F = _grid.field(coef, u, mode)
        assert resid == float(np.max(np.abs(F))) <= stepping.EQUILIBRIUM_TOL
        assert u.shape == (2 * half_width + 1,) and iterations >= 1

    @pytest.mark.parametrize("mode, half_width", [("window", 16),
                                                  ("truncated", 8)])
    def test_matches_dense_newton(self, mode, half_width):
        u, _, _ = stepping.equilibrium(FORCED, half_width, mode)
        f = stepping.forcing_grid(FORCED, half_width, mode)
        oracle = dense_newton(
            lambda y: DENSE_FIELDS[mode](FORCED, y, f),
            np.zeros(2 * half_width + 1))
        assert np.max(np.abs(u - oracle)) <= 1e-10
        assert np.linalg.norm(u) > 0.1

    @pytest.mark.parametrize("sign", ["paper", "continuum"])
    @pytest.mark.parametrize("mode, half_width", [("window", 64),
                                                  ("truncated", 8)])
    def test_steps_equal_a_solve_banded_loop(self, mode, half_width, sign):
        """The LAPACK tridiagonal solve gives the steps of
        scipy.linalg.solve_banded, bit for bit."""
        from scipy.linalg import solve_banded

        p = FORCED.replace(laplacian_sign=sign)
        coef = _grid.field_coefficients(
            p, 1.0, 0.0, stepping.forcing_grid(p, half_width, mode))
        want = np.zeros(2 * half_width + 1)
        for it in range(stepping.EQUILIBRIUM_MAX_ITER + 1):
            F = _grid.field(coef, want, mode)
            if np.max(np.abs(F)) <= stepping.EQUILIBRIUM_TOL:
                break
            want = want - solve_banded(
                (1, 1), _grid.field_jacobian(p, want, mode), F)
        u, _, iterations = stepping.equilibrium(p, half_width, mode)
        assert iterations == it
        assert u.tobytes() == want.tobytes()

    def test_singular_jacobian_raises(self, monkeypatch):
        monkeypatch.setattr(_grid, "field_jacobian",
                            lambda p, U, mode: np.zeros((3, U.size)))
        with pytest.raises(np.linalg.LinAlgError, match="dgtsv"):
            stepping.equilibrium(FORCED, 16)

    def test_iteration_cap_raises_no_convergence(self, monkeypatch):
        monkeypatch.setattr(stepping, "EQUILIBRIUM_MAX_ITER", 1)
        with pytest.raises(NoConvergence) as exc:
            stepping.equilibrium(FORCED, 16)
        assert exc.value.iterations == 1
        assert exc.value.residual > stepping.EQUILIBRIUM_TOL


class TestAbsorbingBallWarning:
    def test_warns_for_a_start_outside_the_ball(self, params):
        dc = derived_constants(params)
        cfg = StepConfig(eps=0.01)
        outside = LatticeWindow.basis(0, 1.01 * dc.r_star)
        with pytest.warns(RuntimeWarning, match="outside the absorbing ball"):
            implicit_step_info(params, cfg, outside, 16)
        with pytest.warns(RuntimeWarning, match="outside the absorbing ball"):
            run_trajectory(params, cfg, outside, 3, 16)

    def test_silent_for_a_start_inside_the_ball(self, params):
        dc = derived_constants(params)
        cfg = StepConfig(eps=0.01)
        inside = LatticeWindow.basis(0, 0.99 * dc.r_star)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            implicit_step_info(params, cfg, inside, 16)
            run_trajectory(params, cfg, inside, 3, 16)


@st.composite
def step_stacks(draw):
    """(U, n_steps, eps, mode): 1-4 rows inside the absorbing ball, 1-4
    steps, a step at or below eps* and a boundary closure."""
    K = draw(st.integers(1, 6))
    R = draw(st.integers(1, 4))
    U = draw(hnp.arrays(np.float64, (R, 2 * K + 1),
                        elements=st.floats(-0.4, 0.4)))
    eps = draw(st.sampled_from([derived_constants(FORCED).eps_star, 5e-3,
                                1e-3]))
    return (U, draw(st.integers(1, 4)), eps,
            draw(st.sampled_from(["window", "truncated"])))


class TestStacks:
    """One loop steps a single grid and a stack of grids."""

    @PROPERTY
    @given(step_stacks())
    def test_each_row_is_its_own_single_state_run(self, stack):
        # a stack iterates every row until its worst row converges, so each
        # row equals, bit for bit, the row alone iterated that many times,
        # and a stack of copies equals the single-state run itself
        U, n_steps, eps, mode = stack
        cfg = StepConfig(eps=eps)
        steps = list(stepping.implicit_steps(FORCED, cfg, U, n_steps, mode))
        got = steps[-1][0]
        coef = _grid.field_coefficients(FORCED, 1.0, 0.0, stepping.forcing_grid(
            FORCED, (U.shape[1] - 1) // 2, mode))
        for r, row in enumerate(U):
            y, F = row, _grid.field(coef, row, mode)
            for _, info in steps:
                start = y
                for _ in range(info.iterations):
                    y = start + eps * F
                    F = _grid.field(coef, y, mode)
            assert got[r].tobytes() == y.tobytes()
        alone = stepping.advance_grid(FORCED, cfg, U[0], n_steps, mode)
        copies = stepping.advance_grid(FORCED, cfg, np.tile(U[0], (3, 1)),
                                       n_steps, mode)
        for row in copies:
            assert row.tobytes() == alone.tobytes()

    def test_errors_above_the_step_cap_are_refused_before_solving(
            self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solved above eps*")

        monkeypatch.setattr(_grid, "picard_solve", refuse)
        # the reference run does not depend on eps, so it is not started
        monkeypatch.setattr(_grid, "rk4", refuse)
        eps = 2 * derived_constants(FORCED).eps_star
        y = LatticeWindow(-1, [0.3, -0.5, 0.2])
        Y = y.to_grid(8)
        with pytest.raises(StepTooLarge):
            stepping.defect(FORCED, eps, Y, 1, Y)
        with pytest.raises(StepTooLarge):
            local_error(FORCED, eps, y, eps / 10, 8)
        with pytest.raises(StepTooLarge):
            global_error(FORCED, eps, y, 2 * eps, eps / 10, 8)

    def test_warns_once_for_a_start_row_outside_the_ball(self):
        r_star = derived_constants(FORCED).r_star
        U = np.zeros((3, 9))
        cfg = StepConfig(eps=0.005)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stepping.advance_grid(FORCED, cfg, U, 3, "window")
        U[1, 4] = 1.01 * r_star
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stepping.advance_grid(FORCED, cfg, U, 3, "window")
        assert ["outside the absorbing ball" in str(w.message)
                for w in caught] == [True]


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


@st.composite
def reference_stacks(draw):
    """(Y, dt, n_steps, K): 1-4 start grids, one step and one step count,
    0 allowed."""
    K = draw(st.integers(1, 6))
    R = draw(st.integers(1, 4))
    Y = draw(hnp.arrays(np.float64, (R, 2 * K + 1),
                        elements=st.floats(-1.0, 1.0)))
    dt = draw(st.sampled_from([1e-3, 2.5e-3, 5e-3, 1e-2]))
    return Y, dt, draw(st.integers(0, 12)), K


class TestReferenceFlows:
    @PROPERTY
    @given(reference_stacks())
    @example((np.linspace(-0.5, 0.5, 9).reshape(3, 3), 2.5e-3, 12, 1))
    def test_each_snapshot_equals_its_row_integrated_alone(self, stack):
        Y, dt, n_steps, K = stack
        got = stepping.reference_flows(FORCED, Y, dt, n_steps)
        assert got.shape == Y.shape
        coef = _grid.field_coefficients(FORCED, 1.0, 0.0, FORCED.f.to_grid(K))
        for r, row in enumerate(Y):
            alone = _grid.rk4(lambda _t: coef, row, 0.0, dt, n_steps,
                              "window")
            assert got[r].tobytes() == alone.tobytes()

    def test_one_overflowing_row_raises_nonfinite(self):
        Y = np.zeros((3, 9))
        Y[:, 4] = [0.1, 1e3, 0.2]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFinite, match="integrator state overflowed"):
                stepping.reference_flows(FORCED, Y, 0.1, 20)

    @pytest.mark.parametrize("Y, dt, n_steps", [
        pytest.param(np.zeros(9), 0.01, 1, id="one-grid-not-a-stack"),
        pytest.param(np.zeros((2, 9)), 0.0, 1, id="zero-step"),
        pytest.param(np.zeros((2, 9)), -0.01, 1, id="negative-step"),
        pytest.param(np.zeros((2, 9)), 0.01, -1, id="negative-step-count"),
    ])
    def test_rejects_malformed_rows(self, Y, dt, n_steps):
        with pytest.raises(ValueError):
            stepping.reference_flows(FORCED, Y, dt, n_steps)

    def test_rejects_grids_of_the_wrong_width(self):
        with pytest.raises(ValueError):
            stepping.reference_flows(FORCED, np.zeros((2, 8)), 0.01, 1)


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

    def test_local_error_is_the_one_step_global_error(self):
        y = LatticeWindow(-1, [0.3, -0.5, 0.2])
        # both steps at most eps* = 0.01026
        for eps in (0.01, 0.005):
            local = local_error(FORCED, eps, y, eps / 100, 16)
            assert local > 0.0
            assert local.hex() == \
                global_error(FORCED, eps, y, eps, eps / 100, 16).hex()

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

    def test_clipped_window_warns_once(self):
        y = LatticeWindow(-10, np.full(21, 0.05))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            global_error(FORCED, 0.01, y, 0.02, 0.001, 8)
        assert ["clamped" in str(w.message) for w in caught] == [True]

    def test_horizon_must_be_a_multiple_of_eps(self, params):
        y = LatticeWindow.basis(0, 0.5)
        with pytest.raises(ValueError, match="integer multiple"):
            global_error(params, 0.02, y, 0.05, 2e-4, 16)
        with pytest.raises(ValueError, match="integer multiple"):
            reference_flow(params, y, 0.05, 0.02, 16)


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
