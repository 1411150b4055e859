import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhlattice import (
    DissipativityViolation,
    LatticeWindow,
    Params,
    cutoff_xi,
    d_minus,
    d_plus,
    derived_constants,
    l_bound,
    lambda_star,
    lambda_star_coeffs,
    laplacian,
    m_bound,
    norm_lp,
    tail_mass,
    vector_field,
)


def random_window(rng, half=8, radius=None):
    raw = rng.standard_normal(2 * half + 1)
    if radius is not None:
        raw *= radius * rng.random() ** (1.0 / raw.size) / np.linalg.norm(raw)
    return LatticeWindow(-half, raw)


@pytest.fixture
def params():
    return Params(nu=1.0, alpha=1.0, beta=1.0, gamma=0.5, lam=8.0,
                  f=LatticeWindow.zero())


class TestWindow:
    def test_zero_trimming_makes_equal_sequences_equal(self):
        a = LatticeWindow(-2, np.array([0.0, 1.0, 2.0, 0.0]))
        b = LatticeWindow(-1, np.array([1.0, 2.0]))
        assert a == b
        assert hash(a) == hash(b)

    def test_implicit_zeros_outside_window(self):
        u = LatticeWindow.basis(3, 2.5)
        assert u[3] == 2.5
        assert u[2] == 0.0
        assert u[100] == 0.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            LatticeWindow(0, np.array([1.0, np.nan]))

    def test_hadamard_support_is_intersection(self):
        u = LatticeWindow(0, np.array([1.0, 2.0]))
        v = LatticeWindow(1, np.array([3.0, 4.0]))
        w = u.hadamard(v)
        assert w == LatticeWindow.basis(1, 6.0)

    def test_grid_round_trip(self):
        u = LatticeWindow(-2, np.array([1.0, -1.0, 0.5, 0.0, 2.0]))
        assert LatticeWindow.from_grid(u.to_grid(6), 6) == u


class TestOperators:
    def test_laplacian_of_basis(self):
        out = laplacian(LatticeWindow.basis(0))
        assert out == LatticeWindow(-1, np.array([-1.0, 2.0, -1.0]))

    def test_d_plus_of_zero(self):
        assert d_plus(LatticeWindow.zero()) == LatticeWindow.zero()

    def test_laplacian_factors_through_first_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            u = random_window(rng)
            lap = laplacian(u)
            assert np.allclose((lap - d_plus(d_minus(u))).values, 0.0,
                               atol=1e-14)
            assert np.allclose((lap - d_minus(d_plus(u))).values, 0.0,
                               atol=1e-14)

    def test_first_differences_are_adjoint(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            u = random_window(rng)
            v = random_window(rng)
            assert d_minus(u).dot(v) == pytest.approx(u.dot(d_plus(v)),
                                                      rel=1e-13, abs=1e-13)

    def test_support_growth_at_most_one(self):
        u = LatticeWindow(-3, np.random.default_rng(0).standard_normal(7))
        for op in (d_plus, d_minus, laplacian):
            lo, hi = op(u).support
            assert lo >= -4 and hi <= 4


class TestNorms:
    def test_basis_norm(self):
        assert norm_lp(LatticeWindow.basis(0), 2) == 1.0

    def test_pythagorean(self):
        u = LatticeWindow(0, np.array([3.0, 4.0]))
        assert norm_lp(u, 2) == pytest.approx(5.0)

    def test_cubic_norm(self):
        u = LatticeWindow(0, np.ones(3))
        assert norm_lp(u, 3) == pytest.approx(3.0 ** (1.0 / 3.0))

    def test_unsupported_exponent(self):
        with pytest.raises(ValueError):
            norm_lp(LatticeWindow.basis(0), 5)


class TestVectorField:
    def test_zero_state_gives_forcing(self):
        f = LatticeWindow(-1, np.array([0.5, -0.25, 1.0]))
        p = Params(nu=1.0, alpha=1.0, beta=1.0, gamma=0.5, lam=8.0, f=f)
        assert vector_field(p, LatticeWindow.zero()) == f

    def test_basis_state_hand_evaluation(self):
        p = Params(nu=1.0, alpha=1.0, beta=1.0, gamma=0.5, lam=7.0)
        out = vector_field(p, LatticeWindow.basis(0))
        assert out == LatticeWindow(-1, np.array([-1.0, -4.0, -1.0]))

    def test_componentwise_oracle(self):
        # independent stencil-by-stencil evaluation over a dict
        p = Params(nu=0.7, alpha=1.3, beta=0.9, gamma=0.3, lam=6.0,
                   f=LatticeWindow.basis(2, 0.4))
        rng = np.random.default_rng(3)
        u = random_window(rng, half=5)
        out = vector_field(p, u)
        for i in range(-7, 8):
            ui, um, up = u[i], u[i - 1], u[i + 1]
            expected = (p.nu * (-um + 2 * ui - up)
                        - p.alpha * ui * (um - ui)
                        + p.beta * ui * (1 - ui) * (ui - p.gamma)
                        - p.lam * ui + p.f[i])
            assert out[i] == pytest.approx(expected, rel=1e-13, abs=1e-13)

    def test_growth_bound(self, params):
        rng = np.random.default_rng(4)
        for r in (0.5, 1.0, 2.0):
            for _ in range(300):
                u = random_window(rng, radius=r)
                assert vector_field(params, u).norm() <= m_bound(params, r) + 1e-10

    def test_lipschitz_bound(self, params):
        rng = np.random.default_rng(5)
        for r in (0.5, 1.0, 2.0):
            for _ in range(300):
                u = random_window(rng, radius=r)
                v = random_window(rng, radius=r)
                lhs = (vector_field(params, u) - vector_field(params, v)).norm()
                assert lhs <= l_bound(params, r) * (u - v).norm() + 1e-10

    def test_continuum_sign_flips_diffusion(self):
        p = Params(nu=1.0, alpha=1.0, beta=1.0, gamma=0.5, lam=7.0,
                   laplacian_sign="continuum")
        out = vector_field(p, LatticeWindow.basis(0))
        assert out == LatticeWindow(-1, np.array([1.0, -8.0, 1.0]))


class TestConstants:
    def test_lambda_star_default(self, params):
        assert lambda_star(params) == pytest.approx(6.5625, abs=1e-14)

    def test_lambda_star_degenerate_coefficients(self):
        assert lambda_star_coeffs(0.0, 0.0, 1.0, 0.5) == pytest.approx(0.0625)

    def test_lambda_star_ignores_lam_and_forcing(self, params):
        other = params.replace(lam=42.0, f=LatticeWindow.basis(1, 9.0))
        assert lambda_star(other) == lambda_star(params)

    def test_m_bound_at_zero_radius(self):
        f = LatticeWindow.basis(0, 0.7)
        p = Params(nu=1.0, alpha=1.0, beta=1.0, gamma=0.5, lam=8.0, f=f)
        assert m_bound(p, 0.0) == pytest.approx(0.7)

    def test_bounds_at_radius_two(self, params):
        assert m_bound(params, 2.0) == pytest.approx(47.0)
        expected = 4.0 + 4.0 * math.sqrt(5.0) + math.sqrt(540.75) + 8.0
        assert l_bound(params, 2.0) == pytest.approx(expected, abs=1e-12)

    def test_l_bound_at_zero_radius(self, params):
        assert l_bound(params, 0.0) == pytest.approx(
            4.0 + math.sqrt(3.0) * 0.5 + 8.0)

    def test_derived_constants_unforced(self, params):
        dc = derived_constants(params)
        assert dc.r_star == pytest.approx(1.0)
        assert dc.eps_star == pytest.approx(1.0 / 47.0, abs=1e-15)

    def test_r_star_scales_with_forcing(self, params):
        gap = params.lam - lambda_star(params)
        p = params.replace(f=LatticeWindow.basis(0, gap))
        assert derived_constants(p).r_star == pytest.approx(2.0)

    def test_dissipativity_violation(self, params):
        p = params.replace(lam=lambda_star(params))
        with pytest.raises(DissipativityViolation):
            derived_constants(p)


class TestCutoff:
    def test_inside_core(self):
        assert cutoff_xi(7, 0) == 0.0
        assert cutoff_xi(7, 7) == 0.0

    def test_outside(self):
        assert cutoff_xi(5, 10) == 1.0
        assert cutoff_xi(5, -23) == 1.0

    def test_midpoint(self):
        assert cutoff_xi(10, 15) == pytest.approx(0.5)

    def test_tail_mass_bounds(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            u = random_window(rng, half=12)
            k = int(rng.integers(1, 7))
            tm = tail_mass(u, k)
            assert 0.0 <= tm <= u.norm() ** 2 + 1e-14

    def test_tail_mass_zero_on_core_support(self):
        u = LatticeWindow(-4, np.random.default_rng(7).standard_normal(9))
        assert tail_mass(u, 4) == 0.0


class TestMonotonicity:
    # nondecreasing in nu and alpha everywhere; beta enters lambda_star
    # through a ratio and is only monotone for the explicit bounds
    def test_bounds_nondecreasing_in_coefficients(self, params):
        for attr in ("nu", "alpha", "beta"):
            hi = params.replace(**{attr: getattr(params, attr) * 1.7})
            for r in (0.3, 1.0, 2.5):
                assert m_bound(hi, r) >= m_bound(params, r) - 1e-12
                assert l_bound(hi, r) >= l_bound(params, r) - 1e-12

    def test_lambda_star_nondecreasing_in_nu_alpha(self, params):
        for attr in ("nu", "alpha"):
            hi = params.replace(**{attr: getattr(params, attr) * 1.7})
            assert lambda_star(hi) >= lambda_star(params) - 1e-12


# values with zeros of both signs drawn on purpose
signed_values = st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5]) | st.floats(-3.0, 3.0),
                         max_size=8)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(offset=st.integers(-5, 5), values=signed_values,
       flips=st.lists(st.booleans(), min_size=8, max_size=8))
def test_equal_windows_hash_equal(offset, values, flips):
    vals = np.array(values, dtype=float)
    # the same sequence with the sign of some of its zeros flipped
    flip = np.array(flips[:vals.size], dtype=bool) & (vals == 0.0)
    other = np.where(flip, -vals, vals)
    a, b = LatticeWindow(offset, vals), LatticeWindow(offset, other)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_signed_zero_windows_share_a_hash():
    a = LatticeWindow(0, [1.0, 0.0, 2.0])
    b = LatticeWindow(0, [1.0, -0.0, 2.0])
    assert a == b and hash(a) == hash(b)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(offset=st.integers(-14, 14),
       values=st.lists(st.floats(-3.0, 3.0), max_size=25),
       half_width=st.integers(0, 8))
def test_clip_to_grid_is_componentwise(offset, values, half_width):
    u = LatticeWindow(offset, np.array(values, dtype=float))
    expected = [u[i] for i in range(-half_width, half_width + 1)]
    assert u.clip_to_grid(half_width).tolist() == expected


def test_clip_to_grid_of_window_outside_on_both_sides():
    u = LatticeWindow(-5, np.arange(1.0, 12.0))
    assert u.clip_to_grid(2).tolist() == [4.0, 5.0, 6.0, 7.0, 8.0]
    assert LatticeWindow(7, [1.0]).clip_to_grid(3).tolist() == [0.0] * 7
    assert LatticeWindow.zero().clip_to_grid(1).tolist() == [0.0] * 3
