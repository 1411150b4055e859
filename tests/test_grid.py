"""Property tests of the fused field kernel in ``_grid`` against references
that do not use it: the dense truncation matrices of ``dense_truncation``,
the ``LatticeWindow`` operators, and central differences of the field for
its Jacobian."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bhlattice import (
    LatticeWindow,
    NonFinite,
    Params,
    StepConfig,
    d_minus,
    derived_constants,
    laplacian,
)
from bhlattice import _grid
from bhlattice.experiments import default_params
from bhlattice.stepping import (
    PICARD_MAX_ITER,
    advance_grid,
    forcing_grid,
    implicit_steps,
    reference_flows,
)
from dense_truncation import d_minus_matrix, laplacian_matrix

RTOL = 1e-12

# fixed example sequence and no example database, so runs repeat exactly
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)

params_st = st.builds(
    Params,
    nu=st.floats(0.1, 3.0),
    alpha=st.floats(0.1, 3.0),
    beta=st.floats(0.1, 3.0),
    gamma=st.floats(0.05, 0.95),
    lam=st.floats(0.0, 20.0),
    laplacian_sign=st.sampled_from(["paper", "continuum"]),
)


@st.composite
def grid_states(draw, bound=3.0):
    """(U, f): a 1-D state or a batch of states over 2m+1 sites, in C or
    Fortran memory order, and a forcing on the same sites."""
    m = draw(st.integers(1, 8))
    n = 2 * m + 1
    b = draw(st.integers(1, 4))
    shape = draw(st.sampled_from([(n,), (b, n), (2, b, n)]))
    U = draw(hnp.arrays(np.float64, shape, elements=st.floats(-bound, bound)))
    if draw(st.booleans()):
        U = np.asfortranarray(U)
    f = draw(hnp.arrays(np.float64, n, elements=st.floats(-2.0, 2.0)))
    return U, f


noise_st = st.tuples(st.sampled_from([0.0, 0.1, 0.4]), st.floats(-3.0, 3.0))


def diffusion_coeff(p):
    return -p.nu if p.laplacian_sign == "continuum" else p.nu


def pointwise_terms(p, sigma, z, U, f):
    """Reaction, damping, forcing and noise terms of the transformed field:
    beta*e*u*(1 - e*u)*(e*u - gamma) ... with e = exp(sigma*z)."""
    e = np.exp(sigma * z)
    return (p.beta * U * (1.0 - e * U) * (e * U - p.gamma) - p.lam * U
            + f / e + sigma * z * U)


def term_size(p, sigma, z, U, f):
    """Largest absolute term of the field, the scale of its rounding error."""
    e = np.exp(sigma * z)
    a = float(np.max(np.abs(U)))
    return (4.0 * p.nu * a + 2.0 * p.alpha * e * a * a
            + p.beta * (e * e * a**3 + (1.0 + p.gamma) * e * a * a + p.gamma * a)
            + (p.lam + abs(sigma * z)) * a + float(np.max(np.abs(f))) / e)


def on_grid(w: LatticeWindow, K: int) -> np.ndarray:
    """Components of w at the sites -K..K; the rest are clipped."""
    return np.array([w[i] for i in range(-K, K + 1)])


def det_field(p, U, f, mode):
    """The deterministic field of p with forcing f at U."""
    return _grid.field(_grid.field_coefficients(p, 1.0, 0.0, f), U, mode)


def kernel(p, sigma, z, U, f, mode):
    if sigma == 0.0:
        return det_field(p, U, f, mode)
    return _grid.random_field(p, sigma, z, U, f, mode)


@PROPERTY
@given(p=params_st, state=grid_states(), noise=noise_st)
def test_truncated_field_matches_dense_matrices(p, state, noise):
    U, f = state
    sigma, z = noise
    m = (U.shape[-1] - 1) // 2
    e = np.exp(sigma * z)
    ref = (diffusion_coeff(p) * U @ laplacian_matrix(m).T
           - p.alpha * e * U * (U @ d_minus_matrix(m).T)
           + pointwise_terms(p, sigma, z, U, f))
    got = kernel(p, sigma, z, U, f, "truncated")
    assert got.shape == U.shape
    assert np.max(np.abs(got - ref)) <= RTOL * term_size(p, sigma, z, U, f)


@PROPERTY
@given(p=params_st, state=grid_states(), noise=noise_st)
def test_window_field_matches_lattice_operators(p, state, noise):
    U, f = state
    sigma, z = noise
    K = (U.shape[-1] - 1) // 2
    e = np.exp(sigma * z)
    rows = []
    for row in U.reshape(-1, U.shape[-1]):
        u = LatticeWindow(-K, row)
        rows.append(diffusion_coeff(p) * on_grid(laplacian(u), K)
                    - p.alpha * e * row * on_grid(d_minus(u), K)
                    + pointwise_terms(p, sigma, z, row, f))
    ref = np.array(rows).reshape(U.shape)
    got = kernel(p, sigma, z, U, f, "window")
    assert got.shape == U.shape
    assert np.max(np.abs(got - ref)) <= RTOL * term_size(p, sigma, z, U, f)


@PROPERTY
@given(p=params_st, state=grid_states(), mode=st.sampled_from(["window", "truncated"]))
def test_jacobian_matches_central_differences(p, state, mode):
    U, f = state
    U = U.reshape(-1, U.shape[-1])[0]
    n = U.size
    E = np.eye(n)

    def central(h):
        # row j: (F(U + h e_j) - F(U - h e_j)) / 2h, one batched call each
        return (det_field(p, U + h * E, f, mode)
                - det_field(p, U - h * E, f, mode)) / (2.0 * h)

    # F is cubic, so the h^2 error term is the only one and extrapolation
    # removes it exactly
    h = 0.5
    fd = ((4.0 * central(h) - central(2.0 * h)) / 3.0).T
    bands = _grid.field_jacobian(p, U, mode)
    jac = (np.diag(bands[0, 1:], 1) + np.diag(bands[1])
           + np.diag(bands[2, :-1], -1))
    assert np.max(np.abs(fd - jac)) <= RTOL * np.max(np.abs(jac))


@PROPERTY
@given(p=params_st, state=grid_states(),
       z=st.floats(allow_nan=False, allow_infinity=False),
       mode=st.sampled_from(["window", "truncated"]))
def test_random_field_at_zero_noise_is_field_bit_for_bit(p, state, z, mode):
    U, f = state
    det = det_field(p, U, f, mode)
    rnd = _grid.random_field(p, 0.0, z, U, f, mode)
    assert det.tobytes() == rnd.tobytes()
    # the memory order of U does not change a bit of the result
    for layout in (np.ascontiguousarray(U), np.asfortranarray(U)):
        assert det_field(p, layout, f, mode).tobytes() == det.tobytes()
    # nor does the batch shape: each row alone as a 1-D state, as a (1, n)
    # stack, and inside an (S, R, P, n) stack with per-(S, R) coefficients
    # at sigma = 0, as the pullback's noise table forms them
    rows = det.reshape(-1, det.shape[-1])
    states = U.reshape(-1, U.shape[-1])
    coef = _grid.field_coefficients(p, 1.0, 0.0, f)
    sz = (np.zeros(2)[:, None] * np.array([z, -1.5, 2.0]))[..., None, None]
    stack = np.broadcast_to(states, (2, 3) + states.shape)
    per_row = _grid.field(_grid.field_coefficients(p, np.exp(sz), sz, f),
                          stack, mode)
    for i, (state, row) in enumerate(zip(states, rows)):
        assert _grid.field(coef, state, mode).tobytes() == row.tobytes()
        assert _grid.field(coef, state[None], mode)[0].tobytes() == \
            row.tobytes()
        for s in range(2):
            for r in range(3):
                assert per_row[s, r, i].tobytes() == row.tobytes()


@PROPERTY
@given(state=grid_states(bound=0.5), n_steps=st.integers(1, 6),
       mode=st.sampled_from(["window", "truncated"]))
@pytest.mark.filterwarnings("ignore:initial state lies outside")
def test_advance_grid_equals_separate_solves(state, n_steps, mode):
    U, _ = state
    p = default_params()
    f = forcing_grid(p, (U.shape[-1] - 1) // 2, mode)
    cfg = StepConfig(eps=derived_constants(p).eps_star)
    out = advance_grid(p, cfg, U, n_steps, mode)
    coef = _grid.field_coefficients(p, 1.0, 0.0, f)
    V = U
    for _ in range(n_steps):
        V = _grid.picard_solve(coef, V, cfg.eps, cfg.fp_tol, PICARD_MAX_ITER,
                               mode)[0]
    assert out.tobytes() == V.tobytes()


def test_picard_solve_returns_field_and_skips_first_evaluation(monkeypatch):
    p = default_params()
    rng = np.random.default_rng(3)
    U = 0.3 * rng.standard_normal((4, 17))
    f = p.f.to_grid(8)
    coef = _grid.field_coefficients(p, 1.0, 0.0, f)
    calls, real_field = [], _grid.field

    def counted(*args):
        calls.append(1)
        return real_field(*args)

    monkeypatch.setattr(_grid, "field", counted)
    y, _, iters, Fy = _grid.picard_solve(coef, U, 0.01, 1e-10, 100, "window")
    assert len(calls) == iters + 1
    assert Fy.tobytes() == det_field(p, y, f, "window").tobytes()
    calls.clear()
    y2, _, iters2, _ = _grid.picard_solve(coef, y, 0.01, 1e-10, 100,
                                          "window", Fy)
    assert len(calls) == iters2
    assert y2.tobytes() == _grid.picard_solve(
        coef, y, 0.01, 1e-10, 100, "window")[0].tobytes()


@st.composite
def noise_stacks(draw):
    """(U, sigmas, zs, f): a (S, R, P, n) stack of clouds in C or Fortran
    order, S noise intensities, R noise values and a forcing."""
    m = draw(st.integers(1, 6))
    n = 2 * m + 1
    S, R, P = (draw(st.integers(1, 3)) for _ in range(3))
    U = draw(hnp.arrays(np.float64, (S, R, P, n),
                        elements=st.floats(-3.0, 3.0)))
    if draw(st.booleans()):
        U = np.asfortranarray(U)
    sigmas = draw(hnp.arrays(np.float64, S,
                             elements=st.sampled_from([0.0, 0.05, 0.1, 0.4, 1.3])))
    zs = draw(hnp.arrays(np.float64, R, elements=st.floats(-3.0, 3.0)))
    f = draw(hnp.arrays(np.float64, n, elements=st.floats(-2.0, 2.0)))
    return U, sigmas, zs, f


@PROPERTY
@given(p=params_st, stack=noise_stacks(),
       mode=st.sampled_from(["window", "truncated"]))
def test_per_row_coefficients_equal_per_row_calls(p, stack, mode):
    # one (sigma, z) pair per (S, R) cloud, with a length-1 cloud and state
    # axis, as the pullback's noise table forms them
    U, sigmas, zs, f = stack
    sz = (sigmas[:, None] * zs)[..., None, None]
    coef = _grid.field_coefficients(p, np.exp(sz), sz, f)
    got = _grid.field(coef, U, mode)
    assert got.shape == U.shape
    for i, sigma in enumerate(sigmas):
        for j, z in enumerate(zs):
            one = _grid.random_field(p, float(sigma), float(z), U[i, j], f,
                                     mode)
            assert got[i, j].tobytes() == one.tobytes()


def test_rk4_leaves_overflow_to_require_finite():
    p = default_params()
    f = p.f.to_grid(2)
    U = np.array([[0.1, 0.2, 0.0, -0.1, 0.3], [1e6, -1e6, 1e6, -1e6, 1e6]])
    coef = _grid.field_coefficients(p, 1.0, 0.0, f)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _grid.rk4(lambda _t: coef, U, 0.0, 0.01, 20, "window")
    assert np.all(np.isfinite(out[0])) and not np.all(np.isfinite(out[1]))
    # a row that overflows leaves the other rows as they are alone
    alone = _grid.rk4(lambda _t: coef, U[:1], 0.0, 0.01, 20, "window")
    assert out[0].tobytes() == alone[0].tobytes()
    assert _grid.require_finite(alone) is alone
    with pytest.raises(NonFinite, match="integrator state overflowed"):
        _grid.require_finite(out)


# -- buffered integrators against allocate-per-call loops -------------------


def plain_rk4(coef_at, U, t0, dt, n_steps, mode):
    """The classical formula with a new array for every stage and state."""
    times = _grid.stage_times(t0, dt, n_steps).tolist()
    for j in range(0, 2 * n_steps, 2):
        k1 = _grid.field(coef_at(times[j]), U, mode)
        k2 = _grid.field(coef_at(times[j + 1]), U + 0.5 * dt * k1, mode)
        k3 = _grid.field(coef_at(times[j + 1]), U + 0.5 * dt * k2, mode)
        k4 = _grid.field(coef_at(times[j + 2]), U + dt * k3, mode)
        U = U + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return U


def plain_picard(coef, u_prev, eps, tol, max_iter, mode, F_prev=None):
    """The Picard iteration with a new array for every iterate and field."""
    F = _grid.field(coef, u_prev, mode) if F_prev is None else F_prev
    for it in range(1, max_iter + 1):
        y = u_prev + eps * F
        F = _grid.field(coef, y, mode)
        d = y - u_prev - eps * F
        resid = float(np.sqrt(np.max(np.sum(d * d, axis=-1))))
        if resid <= tol:
            return y, resid, it, F
    raise AssertionError("the oracle did not converge")


@st.composite
def buffered_cases(draw, bound):
    """(U, coef_at, mode): a 1-D state, a (1, n) or an (R, n) stack, in C
    or Fortran order, and coefficients at time t with one noise value per
    row (sigma*z = s*(1 + t)) or none."""
    m = draw(st.integers(1, 6))
    n = 2 * m + 1
    shape = draw(st.sampled_from([(n,), (1, n), (draw(st.integers(2, 5)), n)]))
    U = draw(hnp.arrays(np.float64, shape, elements=st.floats(-bound, bound)))
    if draw(st.booleans()):
        U = np.asfortranarray(U)
    p = default_params()
    mode = draw(st.sampled_from(["window", "truncated"]))
    f = forcing_grid(p, m, mode)
    if len(shape) == 2 and draw(st.booleans()):
        s = draw(hnp.arrays(np.float64, (shape[0], 1),
                            elements=st.floats(-0.5, 0.5)))

        def coef_at(t):
            return _grid.field_coefficients(p, np.exp(s * (1.0 + t)),
                                            s * (1.0 + t), f)
    else:
        coef = _grid.field_coefficients(p, 1.0, 0.0, f)

        def coef_at(t):
            return coef
    return U, coef_at, mode


@PROPERTY
@given(case=buffered_cases(bound=2.0), n_steps=st.integers(0, 5),
       dt=st.sampled_from([1e-3, 0.01, 0.05]))
def test_rk4_equals_a_plain_loop(case, n_steps, dt):
    U, coef_at, mode = case
    start = U.copy()
    got = _grid.rk4(coef_at, U, -0.5, dt, n_steps, mode)
    want = plain_rk4(coef_at, U, -0.5, dt, n_steps, mode)
    assert got.shape == U.shape
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()
    assert U.tobytes() == start.tobytes()
    assert not np.shares_memory(got, U)


@PROPERTY
@given(case=buffered_cases(bound=0.5), carry=st.booleans(),
       frac=st.sampled_from([0.1, 0.5, 1.0]))
def test_picard_solve_equals_a_plain_loop(case, carry, frac):
    U, coef_at, mode = case
    coef = coef_at(0.0)
    eps = frac * derived_constants(default_params()).eps_star
    F_prev = _grid.field(coef, U, mode) if carry else None
    got = _grid.picard_solve(coef, U, eps, 1e-10, PICARD_MAX_ITER, mode,
                             F_prev)
    want = plain_picard(coef, U, eps, 1e-10, PICARD_MAX_ITER, mode, F_prev)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1:3] == want[1:3]
    assert got[3].tobytes() == want[3].tobytes()
    for arr in (U, F_prev):
        if arr is not None:
            assert not np.shares_memory(got[0], arr)
            assert not np.shares_memory(got[3], arr)


@pytest.mark.filterwarnings("ignore:initial state lies outside")
@pytest.mark.parametrize("mode", ["window", "truncated"])
def test_implicit_steps_never_overwrite_a_yielded_state(mode):
    p = default_params()
    U = 0.4 * np.random.default_rng(7).standard_normal((3, 9))
    cfg = StepConfig(eps=derived_constants(p).eps_star)
    kept = [(y, y.copy()) for y, _ in implicit_steps(p, cfg, U, 12, mode)]
    assert len(kept) == 12
    for y, copy in kept:
        assert y.tobytes() == copy.tobytes()
    for (a, _), (b, _) in zip(kept, kept[1:]):
        assert not np.shares_memory(a, b)


def test_picard_solve_refuses_max_iter_below_one(monkeypatch):
    def refuse(*args):
        raise AssertionError("evaluated the field")

    monkeypatch.setattr(_grid, "field", refuse)
    coef = _grid.field_coefficients(default_params(), 1.0, 0.0, np.zeros(5))
    for max_iter in (0, -1):
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            _grid.picard_solve(coef, np.zeros(5), 0.01, 1e-10, max_iter,
                               "window")


def test_rk4_returns_a_copy_for_zero_steps_and_refuses_negative_ones():
    p = default_params()
    coef = _grid.field_coefficients(p, 1.0, 0.0, p.f.to_grid(2))
    U = np.asfortranarray(np.arange(10.0).reshape(2, 5))
    out = _grid.rk4(lambda _t: coef, U, 0.0, 0.01, 0, "window")
    assert out.tobytes() == np.ascontiguousarray(U).tobytes()
    assert not np.shares_memory(out, U)
    flows = reference_flows(p, U, 0.01, 0)
    assert flows.tobytes() == out.tobytes()
    assert not np.shares_memory(flows, U)
    with pytest.raises(ValueError, match="n_steps must be nonnegative"):
        _grid.rk4(lambda _t: coef, U, 0.0, 0.01, -1, "window")


def test_field_refuses_views_of_another_buffer():
    coef = _grid.field_coefficients(default_params(), 1.0, 0.0, np.zeros(5))
    U = np.zeros(5)
    pair = _grid.views(U, np.empty(5), _grid._scratch(U.shape))
    assert _grid.field(coef, U, "window", pair) is pair[4]
    with pytest.raises(ValueError, match="not the state buffer"):
        _grid.field(coef, U.copy(), "window", pair)
