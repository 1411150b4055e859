import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
    point_contraction,
    tail_mass,
    vector_field,
)
from bhlattice import _grid, stepping
from bhlattice.lattice import tail_masses


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
            # the supports grow by one site, so a grid of half-width 9
            # holds every product
            lhs = d_minus(u).to_grid(9) @ v.to_grid(9)
            rhs = u.to_grid(9) @ d_plus(v).to_grid(9)
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)

    def test_support_growth_at_most_one(self):
        u = LatticeWindow(-3, np.random.default_rng(0).standard_normal(7))
        for op in (d_plus, d_minus, laplacian):
            lo, hi = op(u).support
            assert lo >= -4 and hi <= 4


class TestNorms:
    def test_basis_norm(self):
        assert LatticeWindow.basis(0).norm() == 1.0

    def test_pythagorean(self):
        u = LatticeWindow(0, np.array([3.0, 4.0]))
        assert u.norm() == pytest.approx(5.0)


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

    def test_float_for_index_array_for_indices(self):
        assert type(cutoff_xi(10, 13)) is float
        idx = np.arange(-25, 26)
        xi = cutoff_xi(10, idx)
        assert isinstance(xi, np.ndarray) and xi.shape == idx.shape
        assert xi.tolist() == [cutoff_xi(10, int(i)) for i in idx]

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

    def test_tail_masses_of_a_stack_are_each_rows(self):
        rng = np.random.default_rng(8)
        U = rng.standard_normal((3, 4, 21))
        masses = tail_masses(U, 3, -10)
        assert masses.shape == (3, 4)
        for idx in np.ndindex(3, 4):
            assert masses[idx] == tail_mass(LatticeWindow(-10, U[idx]), 3)
        assert tail_mass(LatticeWindow.zero(), 2) == 0.0


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


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(offset=st.integers(-5, 5),
       values=st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5, np.nan, np.inf,
                                        -np.inf]) | st.floats(-3.0, 3.0),
                       max_size=8))
def test_window_trims_and_checks_as_flatnonzero(offset, values):
    """The canonical form is the flatnonzero trim of the finite values, and
    a NaN or infinite value is refused."""
    vals = np.array(values, dtype=float)
    if not np.all(np.isfinite(vals)):
        with pytest.raises(ValueError, match="finite"):
            LatticeWindow(offset, vals)
        return
    u = LatticeWindow(offset, vals)
    nz = np.flatnonzero(vals)
    if nz.size == 0:
        assert u.offset == 0 and u.values.size == 0
    else:
        assert u.offset == offset + nz[0]
        assert u.values.tobytes() == vals[nz[0]:nz[-1] + 1].tobytes()
    assert not u.values.flags.writeable


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(half_width=st.integers(0, 6), rows=st.integers(0, 5), data=st.data())
def test_from_grids_equals_one_window_per_row(half_width, rows, data):
    """Each row of a block becomes the window LatticeWindow(-K, row) gives,
    bit for bit: all-zero rows, zeros of both signs and leading or
    trailing zeros included."""
    zeros = st.sampled_from([0.0, -0.0])
    block = data.draw(hnp.arrays(
        np.float64, (rows, 2 * half_width + 1),
        elements=zeros | st.sampled_from([1.0, -2.5]) | st.floats(-3.0, 3.0)))
    windows = LatticeWindow.from_grids(block, half_width)
    assert len(windows) == rows
    for w, row in zip(windows, block):
        one = LatticeWindow(-half_width, row)
        assert (w.offset, w.values.tobytes()) == \
            (one.offset, one.values.tobytes())
        assert type(w.offset) is int and not w.values.flags.writeable
        alone = LatticeWindow.from_grid(row, half_width)
        assert (alone.offset, alone.values.tobytes()) == \
            (one.offset, one.values.tobytes())


def test_from_grids_trims_signed_zeros_and_empty_rows():
    block = np.array([[0.0, -0.0, 0.0], [-0.0, 1.0, 0.0], [0.0, -0.0, 2.0],
                      [3.0, -0.0, -0.0], [-0.0, 0.0, -0.0], [4.0, -0.0, 5.0]])
    got = [(w.offset, w.values.tobytes())
           for w in LatticeWindow.from_grids(block, 1)]
    assert got == [(0, b""), (0, np.array([1.0]).tobytes()),
                   (1, np.array([2.0]).tobytes()),
                   (-1, np.array([3.0]).tobytes()), (0, b""),
                   (-1, np.array([4.0, -0.0, 5.0]).tobytes())]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_from_grids_refuses_what_the_constructor_refuses(bad):
    block = np.zeros((3, 5))
    block[1, 2] = bad
    with pytest.raises(ValueError, match="window values must be finite"):
        LatticeWindow(-2, block[1])
    with pytest.raises(ValueError, match="window values must be finite"):
        LatticeWindow.from_grids(block, 2)
    with pytest.raises(ValueError, match="grid length"):
        LatticeWindow.from_grids(np.zeros((3, 4)), 2)
    for grid in (np.zeros(4), np.zeros((1, 5))):
        with pytest.raises(ValueError, match="grid length"):
            LatticeWindow.from_grid(grid, 2)


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
    # to_grid is the same placement, for a window that fits
    if u.fits(half_width):
        assert u.to_grid(half_width).tobytes() == \
            u.clip_to_grid(half_width).tobytes()
    else:
        with pytest.raises(ValueError, match="exceeds the requested grid"):
            u.to_grid(half_width)


def test_clip_to_grid_of_window_outside_on_both_sides():
    u = LatticeWindow(-5, np.arange(1.0, 12.0))
    assert u.clip_to_grid(2).tolist() == [4.0, 5.0, 6.0, 7.0, 8.0]
    assert LatticeWindow(7, [1.0]).clip_to_grid(3).tolist() == [0.0] * 7
    assert LatticeWindow.zero().clip_to_grid(1).tolist() == [0.0] * 3


def dense_jacobian(p, U, mode):
    """The field's Jacobian at U as a dense matrix, from its bands."""
    bands = _grid.field_jacobian(p, U, mode)
    return (np.diag(bands[1]) + np.diag(bands[0, 1:], 1)
            + np.diag(bands[2, :-1], -1))


class TestContractionBound:
    """kappa = mu* + c^2/(4 beta) of ``stepping.point_contraction``, the
    one-sided Lipschitz bound of the field around its zero u*."""

    @staticmethod
    def forced(f_scale, sign, lam=8.0):
        return Params(nu=1.0, alpha=1.0, beta=1.0, gamma=0.5, lam=lam,
                      f=LatticeWindow.basis(0, 1.4375 * f_scale),
                      laplacian_sign=sign)

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(coeffs=st.tuples(*[st.floats(0.1, 3.0)] * 3),
           gamma=st.floats(0.05, 0.95), lam=st.floats(0.0, 20.0),
           sign=st.sampled_from(["paper", "continuum"]),
           mode=st.sampled_from(["window", "truncated"]),
           direction=hnp.arrays(float, st.integers(3, 21),
                                elements=st.floats(-1.0, 1.0)),
           radius=st.floats(0.0, 3.0))
    def test_bounds_the_symmetric_jacobian(self, coeffs, gamma, lam, sign,
                                           mode, direction, radius):
        """kappa(u) - c^2/(4 beta) is lambda_max((J(u) + J(u)^T)/2), the
        dense matrix's, at any state u, both signs and both closures."""
        if direction.size % 2 == 0:
            direction = direction[:-1]
        nu, alpha, beta = coeffs
        p = Params(nu=nu, alpha=alpha, beta=beta, gamma=gamma, lam=lam,
                   laplacian_sign=sign)
        length = np.linalg.norm(direction)
        U = radius * direction / length if length else direction
        J = dense_jacobian(p, U, mode)
        top = np.linalg.eigvalsh(0.5 * (J + J.T))[-1]
        c = 2.0 * alpha + beta * np.max(np.abs(1.0 + gamma - 3.0 * U))
        kappa = point_contraction(p, U, mode)
        assert kappa - c * c / (4.0 * beta) == pytest.approx(
            top, abs=1e-12 * (1.0 + np.abs(J).max()))

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(f_scale=st.floats(0.5, 4.0),
           sign=st.sampled_from(["paper", "continuum"]),
           mode=st.sampled_from(["window", "truncated"]),
           direction=hnp.arrays(float, st.sampled_from([5, 9, 17]),
                                elements=st.floats(-1.0, 1.0)),
           log_scale=st.floats(-2.0, 2.0))
    def test_one_sided_bound_holds_around_the_zero(self, f_scale, sign, mode,
                                                   direction, log_scale):
        """<F(u* + w) - F(u*), w> <= kappa ||w||^2 at the Newton zero u*,
        for forcings 0.5 to 4 times the default and ||w|| from 1e-2 to
        1e2, both signs and both closures."""
        assume(np.linalg.norm(direction) > 0.0)
        p = self.forced(f_scale, sign)
        half = (direction.size - 1) // 2
        u, _, _ = stepping.equilibrium(p, half, mode)
        kappa = point_contraction(p, u, mode)
        w = 10.0 ** log_scale * direction / np.linalg.norm(direction)
        coef = _grid.field_coefficients(
            p, 1.0, 0.0, stepping.forcing_grid(p, half, mode))
        lhs = float((_grid.field(coef, u + w, mode)
                     - _grid.field(coef, u, mode)) @ w)
        assert lhs <= kappa * float(w @ w) + 1e-12 * (
            1.0 + float(w @ w) + float(np.sum(w**4)))

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(scale=st.floats(0.0, 3.0), lam_gap=st.floats(0.01, 6.0),
           sign=st.sampled_from(["paper", "continuum"]),
           mode=st.sampled_from(["window", "truncated"]),
           U=hnp.arrays(float, st.sampled_from([3, 5, 9, 17]),
                        elements=st.floats(-4.0, 4.0)))
    def test_energy_inequality_holds_for_every_state(self, scale, lam_gap,
                                                     sign, mode, U):
        """<F(u), u> <= -(lam - lam*)||u||^2 + <f, u>: every ball of
        radius at least ||f||/(lam - lam*), the absorbing ball the evolved
        clouds start from among them, is forward invariant, on both
        closures and for both signs."""
        p = Params(nu=1.0, alpha=1.0, beta=1.0, gamma=0.5,
                   lam=6.5625 + lam_gap, f=LatticeWindow.basis(0, scale),
                   laplacian_sign=sign)
        half = (U.size - 1) // 2
        f = p.f.to_grid(half)
        lhs = float(_grid.field(_grid.field_coefficients(p, 1.0, 0.0, f), U,
                                mode) @ U)
        rhs = -lam_gap * float(U @ U) + float(f @ U)
        assert lhs <= rhs + 1e-12 * (1.0 + float(U @ U) ** 2)

    def test_values_at_the_default_parameters(self):
        # at u = 0 with the paper sign, mu* = 2 nu - beta gamma - lam
        # + 2 nu cos(pi/(n + 1)) and c = 2 alpha + beta (1 + gamma), so
        # kappa = lam* - lam - 2 nu (1 - cos(pi/(n + 1)))
        for half in (2, 8, 64):
            n = 2 * half + 1
            unforced = self.forced(0.0, "paper", lam=6.5625 + 1e-5)
            assert point_contraction(unforced, np.zeros(n)) == pytest.approx(
                -1e-5 - 2.0 * (1.0 - math.cos(math.pi / (n + 1))),
                abs=1e-12)
        # at the Newton zero of the window K = 64: 1, 2 and 3 times the
        # default forcing, paper sign, then the default continuum sign
        values = []
        for f_scale, sign in ((1.0, "paper"), (2.0, "paper"),
                              (3.0, "paper"), (1.0, "continuum")):
            p = self.forced(f_scale, sign)
            u, _, _ = stepping.equilibrium(p, 64)
            values.append(point_contraction(p, u))
        assert values == pytest.approx([-0.9592, -0.1493, 0.3587, -5.3728],
                                       abs=1e-4)
