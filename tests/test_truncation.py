import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhlattice import (
    LatticeWindow,
    Params,
    StepConfig,
    TruncatedState,
    d_minus_m,
    d_minus_matrix,
    d_plus_m,
    d_plus_matrix,
    derived_constants,
    implicit_step_info,
    laplacian_m,
    laplacian_matrix,
    restriction,
    truncated_field,
    truncated_trajectory,
    vector_field,
)
from bhlattice import _grid
from bhlattice.attractor import PointCloud, embed_cloud
from bhlattice.truncation import truncated_forcing


@pytest.fixture
def params():
    return Params(nu=1.0, alpha=1.0, beta=1.0, gamma=0.5, lam=8.0,
                  f=LatticeWindow.basis(0, 0.5))


def random_state(rng, m, scale=1.0):
    return TruncatedState(m, scale * rng.standard_normal(2 * m + 1))


def null_expansion(x: TruncatedState) -> LatticeWindow:
    """x zero-padded outside [-m, m], through the cloud embedding."""
    cloud = PointCloud("truncated", x.m, x.values[None])
    return embed_cloud(cloud, x.m).windows()[0]


class TestMatrices:
    def test_d_minus_m_equals_one(self):
        expected = np.array([[-1.0, 0.0, 0.0],
                             [1.0, -1.0, 0.0],
                             [0.0, 1.0, -1.0]])
        assert np.array_equal(d_minus_matrix(1), expected)

    def test_d_plus_m_equals_one(self):
        assert np.array_equal(d_plus_matrix(1), d_minus_matrix(1).T)

    def test_laplacian_m_equals_one(self):
        expected = np.array([[2.0, -1.0, 0.0],
                             [-1.0, 2.0, -1.0],
                             [0.0, -1.0, 1.0]])
        assert np.array_equal(laplacian_matrix(1), expected)

    def test_factorization(self):
        for m in (1, 4, 16):
            assert np.array_equal(laplacian_matrix(m),
                                  d_plus_matrix(m) @ d_minus_matrix(m))

    def test_corner_structure(self):
        for m in (2, 8):
            lap = laplacian_matrix(m)
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
            for op, mat in ((d_minus_m, d_minus_matrix(m)),
                            (d_plus_m, d_plus_matrix(m)),
                            (laplacian_m, laplacian_matrix(m))):
                assert np.allclose(op(x).values, mat @ x.values, atol=1e-13)

    def test_field_componentwise(self, params):
        # interior sites see the infinite stencil; boundary sites see the
        # Dirichlet closure encoded in the matrices
        rng = np.random.default_rng(22)
        m = 6
        x = random_state(rng, m, scale=0.4)
        out = truncated_field(params, x)
        v = x.values
        lap = laplacian_matrix(m) @ v
        dmin = d_minus_matrix(m) @ v
        f_m = np.zeros(2 * m + 1)
        f_m[m] = 0.5
        expected = (params.nu * lap - params.alpha * v * dmin
                    + params.beta * v * (1 - v) * (v - params.gamma)
                    - params.lam * v + f_m)
        assert np.allclose(out.values, expected, atol=1e-13)

    def test_interior_agrees_with_infinite_field(self, params):
        # a state supported well inside [-m, m] cannot feel the boundary
        u = LatticeWindow(-3, np.random.default_rng(23).standard_normal(7))
        m = 10
        out_m = truncated_field(params, restriction(u, m))
        out = vector_field(params, u)
        for k, i in enumerate(range(-m, m + 1)):
            assert out_m.values[k] == pytest.approx(out[i], abs=1e-13)


class TestStepping:
    def test_trajectory_tracks_window_dynamics(self, params):
        # 50 implicit steps from a small interior state: the truncated
        # trajectory should match the bi-infinite one to high accuracy while
        # the support stays far from the boundary
        m = 40
        cfg = StepConfig(eps=0.005, fp_tol=1e-13)
        u = LatticeWindow.basis(0, 0.3)
        x = restriction(u, m)
        states = truncated_trajectory(params, cfg, x, 50)
        for state in states[1:]:
            u, _ = implicit_step_info(params, cfg, u, m + 8)
            diff = null_expansion(state) - u
            assert diff.norm() <= 1e-8

    def test_zero_with_zero_forcing_is_fixed(self):
        p = Params(nu=1.0, alpha=1.0, beta=1.0, gamma=0.5, lam=8.0)
        x = TruncatedState(3, np.zeros(7))
        assert truncated_trajectory(p, StepConfig(eps=0.01), x, 1)[1] == x

    def test_trajectory_length(self, params):
        x = TruncatedState(2, 0.1 * np.ones(5))
        states = truncated_trajectory(params, StepConfig(eps=0.01), x, 7)
        assert len(states) == 8
        with pytest.raises(ValueError):
            truncated_trajectory(params, StepConfig(eps=0.01), x, -1)

    @pytest.mark.parametrize("method", ["picard", "newton"])
    def test_trajectory_bitwise_equal_to_single_steps(self, params, method):
        cfg = StepConfig(eps=0.01, method=method)
        x = random_state(np.random.default_rng(31), 6, scale=0.3)
        states = truncated_trajectory(params, cfg, x, 30)
        for state in states[1:]:
            x = truncated_trajectory(params, cfg, x, 1)[1]
            assert x.values.tobytes() == state.values.tobytes()

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
        x = TruncatedState(4, 0.2 * np.ones(9))
        truncated_trajectory(params, StepConfig(eps=0.01), x, n)
        assert len(iters) == n
        assert evals[0] == 1 + sum(iters) < sum(i + 1 for i in iters)


class TestAbsorbingBallWarning:
    def test_warns_for_a_start_outside_the_ball(self, params):
        r_star = derived_constants(params).r_star
        cfg = StepConfig(eps=0.01)
        outside = TruncatedState(3, np.full(7, 1.01 * r_star / np.sqrt(7)))
        with pytest.warns(RuntimeWarning, match="outside the absorbing ball"):
            truncated_trajectory(params, cfg, outside, 1)
        with pytest.warns(RuntimeWarning, match="outside the absorbing ball"):
            truncated_trajectory(params, cfg, outside, 3)

    def test_silent_for_a_start_inside_the_ball(self, params):
        r_star = derived_constants(params).r_star
        cfg = StepConfig(eps=0.01)
        inside = TruncatedState(3, np.full(7, 0.99 * r_star / np.sqrt(7)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            truncated_trajectory(params, cfg, inside, 1)
            truncated_trajectory(params, cfg, inside, 3)


class TestEmbedding:
    def test_null_expansion_preserves_norm(self):
        rng = np.random.default_rng(24)
        x = random_state(rng, 5)
        assert null_expansion(x).norm() == pytest.approx(x.norm(), rel=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(25)
        x = random_state(rng, 5)
        assert restriction(null_expansion(x), 5) == x

    def test_restriction_drops_tail(self):
        u = LatticeWindow(-4, np.arange(9, dtype=float))
        x = restriction(u, 2)
        assert np.array_equal(x.values, np.array([2.0, 3.0, 4.0, 5.0, 6.0]))

    def test_restriction_then_expansion_clips(self):
        u = LatticeWindow(-4, np.ones(9))
        back = null_expansion(restriction(u, 2))
        assert back.norm() == pytest.approx(np.sqrt(5.0))

    def test_state_validation(self):
        with pytest.raises(ValueError):
            TruncatedState(0, np.zeros(1))
        with pytest.raises(ValueError):
            TruncatedState(2, np.zeros(4))
        with pytest.raises(ValueError):
            TruncatedState(1, np.array([0.0, np.inf, 0.0]))


# values with zeros of both signs drawn on purpose
signed_values = st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5]) | st.floats(-3.0, 3.0),
                         min_size=3, max_size=3)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(values=signed_values, flips=st.lists(st.booleans(), min_size=3, max_size=3))
def test_equal_states_hash_equal(values, flips):
    vals = np.array(values, dtype=float)
    # the same vector with the sign of some of its zeros flipped
    other = np.where(np.array(flips) & (vals == 0.0), -vals, vals)
    a, b = TruncatedState(1, vals), TruncatedState(1, other)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_signed_zero_states_share_a_hash():
    a = TruncatedState(1, [1.0, 0.0, 2.0])
    b = TruncatedState(1, [1.0, -0.0, 2.0])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(offset=st.integers(-14, 14),
       values=st.lists(st.floats(-3.0, 3.0), max_size=25),
       m=st.integers(1, 8))
def test_restriction_and_forcing_are_componentwise(offset, values, m):
    u = LatticeWindow(offset, np.array(values, dtype=float))
    expected = [u[i] for i in range(-m, m + 1)]
    assert restriction(u, m).values.tolist() == expected
    p = Params(nu=1.0, alpha=1.0, beta=1.0, gamma=0.5, lam=8.0, f=u)
    assert truncated_forcing(p, m).tolist() == expected


def test_restriction_of_window_outside_on_both_sides():
    u = LatticeWindow(-5, np.arange(1.0, 12.0))
    assert restriction(u, 2).values.tolist() == [4.0, 5.0, 6.0, 7.0, 8.0]
    p = Params(nu=1.0, alpha=1.0, beta=1.0, gamma=0.5, lam=8.0, f=u)
    assert truncated_forcing(p, 2).tolist() == [4.0, 5.0, 6.0, 7.0, 8.0]
