import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhlattice import (
    LatticeWindow,
    Params,
    StepConfig,
    derived_constants,
    implicit_step_info,
    restriction,
    truncated_field,
    vector_field,
)
from bhlattice import _grid
from bhlattice.stepping import implicit_steps
from bhlattice.truncation import truncated_forcing
from dense_truncation import (d_minus_matrix, d_plus_matrix,
                              dense_truncated_field, laplacian_matrix)


@pytest.fixture
def params():
    return Params(nu=1.0, alpha=1.0, beta=1.0, gamma=0.5, lam=8.0,
                  f=LatticeWindow.basis(0, 0.5))


def random_state(rng, m, scale=1.0):
    return scale * rng.standard_normal(2 * m + 1)


def null_expansion(x: np.ndarray) -> LatticeWindow:
    """x zero-padded outside [-m, m]: the window of the grid x."""
    return LatticeWindow.from_grid(x, (x.size - 1) // 2)


def kernel_matrix(op, m):
    """The matrix of the grid kernel op on the 2m+1 sites: row j of the
    identity is the state e_j, so op maps it to column j."""
    return op(np.eye(2 * m + 1)).T


def kernel_laplacian(U):
    return _grid.d_plus(_grid.d_minus(U))


def trajectory(p, cfg, x, n):
    """x and the n implicit Euler steps of the truncated system from it."""
    return [x] + [y for y, _ in implicit_steps(p, cfg, x, n, "truncated")]


class TestMatrices:
    """The truncated kernels of ``_grid`` as matrices, against the dense
    ones of the tests' own helper module."""

    def test_d_minus_m_equals_one(self):
        expected = np.array([[-1.0, 0.0, 0.0],
                             [1.0, -1.0, 0.0],
                             [0.0, 1.0, -1.0]])
        assert np.array_equal(d_minus_matrix(1), expected)
        assert np.array_equal(kernel_matrix(_grid.d_minus, 1), expected)

    def test_d_plus_m_equals_one(self):
        assert np.array_equal(d_plus_matrix(1), d_minus_matrix(1).T)
        assert np.array_equal(kernel_matrix(_grid.d_plus, 1),
                              d_minus_matrix(1).T)

    def test_laplacian_m_equals_one(self):
        expected = np.array([[2.0, -1.0, 0.0],
                             [-1.0, 2.0, -1.0],
                             [0.0, -1.0, 1.0]])
        assert np.array_equal(laplacian_matrix(1), expected)
        assert np.array_equal(kernel_matrix(kernel_laplacian, 1), expected)

    def test_factorization(self):
        for m in (1, 4, 16):
            assert np.array_equal(laplacian_matrix(m),
                                  d_plus_matrix(m) @ d_minus_matrix(m))
            assert np.array_equal(kernel_matrix(kernel_laplacian, m),
                                  laplacian_matrix(m))

    def test_corner_structure(self):
        for m in (2, 8):
            lap = kernel_matrix(kernel_laplacian, m)
            diag = np.diag(lap)
            assert diag[0] == 2.0 and diag[-1] == 1.0
            assert np.all(diag[:-1] == 2.0)
            assert np.all(np.diag(lap, 1) == -1.0)
            assert np.all(np.diag(lap, -1) == -1.0)


class TestOperatorApplication:
    def test_apply_matches_matrix(self):
        rng = np.random.default_rng(21)
        for m in (1, 4, 16):
            x = random_state(rng, m)
            for op, mat in ((_grid.d_minus, d_minus_matrix(m)),
                            (_grid.d_plus, d_plus_matrix(m)),
                            (kernel_laplacian, laplacian_matrix(m))):
                assert np.allclose(op(x), mat @ x, atol=1e-13)

    def test_field_componentwise(self, params):
        # interior sites see the infinite stencil; boundary sites see the
        # Dirichlet closure encoded in the matrices
        rng = np.random.default_rng(22)
        m = 6
        x = random_state(rng, m, scale=0.4)
        out = truncated_field(params, x)
        f_m = np.zeros(2 * m + 1)
        f_m[m] = 0.5
        expected = dense_truncated_field(params, x, f_m)
        assert np.allclose(out, expected, atol=1e-13)

    def test_interior_agrees_with_infinite_field(self, params):
        # a state supported well inside [-m, m] cannot feel the boundary
        u = LatticeWindow(-3, np.random.default_rng(23).standard_normal(7))
        m = 10
        out_m = truncated_field(params, restriction(u, m))
        out = vector_field(params, u)
        for k, i in enumerate(range(-m, m + 1)):
            assert out_m[k] == pytest.approx(out[i], abs=1e-13)


class TestStepping:
    def test_trajectory_tracks_window_dynamics(self, params):
        # 50 implicit steps from a small interior state: the truncated
        # trajectory should match the bi-infinite one to high accuracy while
        # the support stays far from the boundary
        m = 40
        cfg = StepConfig(eps=0.005, fp_tol=1e-13)
        u = LatticeWindow.basis(0, 0.3)
        x = restriction(u, m)
        states = trajectory(params, cfg, x, 50)
        for state in states[1:]:
            u, _ = implicit_step_info(params, cfg, u, m + 8)
            diff = null_expansion(state) - u
            assert diff.norm() <= 1e-8

    def test_zero_with_zero_forcing_is_fixed(self):
        p = Params(nu=1.0, alpha=1.0, beta=1.0, gamma=0.5, lam=8.0)
        x = np.zeros(7)
        y = trajectory(p, StepConfig(eps=0.01), x, 1)[1]
        assert np.array_equal(y, x)

    def test_trajectory_length(self, params):
        x = 0.1 * np.ones(5)
        states = trajectory(params, StepConfig(eps=0.01), x, 7)
        assert len(states) == 8
        with pytest.raises(ValueError):
            trajectory(params, StepConfig(eps=0.01), x, -1)

    def test_trajectory_bitwise_equal_to_single_steps(self, params):
        cfg = StepConfig(eps=0.01)
        x = random_state(np.random.default_rng(31), 6, scale=0.3)
        states = trajectory(params, cfg, x, 30)
        for state in states[1:]:
            x = trajectory(params, cfg, x, 1)[1]
            assert x.tobytes() == state.tobytes()

    def test_field_of_each_solution_carries_over(self, params, monkeypatch):
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
        trajectory(params, StepConfig(eps=0.01), 0.2 * np.ones(9), n)
        assert len(iters) == n
        assert evals[0] == 1 + sum(iters) < sum(i + 1 for i in iters)


class TestAbsorbingBallWarning:
    def test_warns_for_a_start_outside_the_ball(self, params):
        r_star = derived_constants(params).r_star
        cfg = StepConfig(eps=0.01)
        outside = np.full(7, 1.01 * r_star / np.sqrt(7))
        with pytest.warns(RuntimeWarning, match="outside the absorbing ball"):
            trajectory(params, cfg, outside, 1)
        with pytest.warns(RuntimeWarning, match="outside the absorbing ball"):
            trajectory(params, cfg, outside, 3)

    def test_silent_for_a_start_inside_the_ball(self, params):
        r_star = derived_constants(params).r_star
        cfg = StepConfig(eps=0.01)
        inside = np.full(7, 0.99 * r_star / np.sqrt(7))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trajectory(params, cfg, inside, 1)
            trajectory(params, cfg, inside, 3)


class TestEmbedding:
    def test_null_expansion_preserves_norm(self):
        rng = np.random.default_rng(24)
        x = random_state(rng, 5)
        assert null_expansion(x).norm() == pytest.approx(np.linalg.norm(x),
                                                          rel=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(25)
        x = random_state(rng, 5)
        assert np.array_equal(restriction(null_expansion(x), 5), x)

    def test_restriction_drops_tail(self):
        u = LatticeWindow(-4, np.arange(9, dtype=float))
        x = restriction(u, 2)
        assert np.array_equal(x, np.array([2.0, 3.0, 4.0, 5.0, 6.0]))

    def test_restriction_then_expansion_clips(self):
        u = LatticeWindow(-4, np.ones(9))
        back = null_expansion(restriction(u, 2))
        assert back.norm() == pytest.approx(np.sqrt(5.0))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(offset=st.integers(-14, 14),
       values=st.lists(st.floats(-3.0, 3.0), max_size=25),
       m=st.integers(1, 8))
def test_restriction_and_forcing_are_componentwise(offset, values, m):
    u = LatticeWindow(offset, np.array(values, dtype=float))
    expected = [u[i] for i in range(-m, m + 1)]
    assert restriction(u, m).tolist() == expected
    p = Params(nu=1.0, alpha=1.0, beta=1.0, gamma=0.5, lam=8.0, f=u)
    assert truncated_forcing(p, m).tolist() == expected


def test_restriction_of_window_outside_on_both_sides():
    u = LatticeWindow(-5, np.arange(1.0, 12.0))
    assert restriction(u, 2).tolist() == [4.0, 5.0, 6.0, 7.0, 8.0]
    p = Params(nu=1.0, alpha=1.0, beta=1.0, gamma=0.5, lam=8.0, f=u)
    assert truncated_forcing(p, 2).tolist() == [4.0, 5.0, 6.0, 7.0, 8.0]
