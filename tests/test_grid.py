"""Property tests of the fused field kernel in ``_grid`` against references
that do not use it: the dense truncation matrices, the ``LatticeWindow``
operators, and central differences of the field for its Jacobian."""

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
    d_minus_matrix,
    derived_constants,
    laplacian,
    laplacian_matrix,
)
from bhlattice import _grid
from bhlattice.experiments import default_params
from bhlattice.stepping import advance_grid, forcing_grid

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


def kernel(p, sigma, z, U, f, mode):
    if sigma == 0.0:
        return _grid.field(p, U, f, mode)
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
        return (_grid.field(p, U + h * E, f, mode)
                - _grid.field(p, U - h * E, f, mode)) / (2.0 * h)

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
    det = _grid.field(p, U, f, mode)
    rnd = _grid.random_field(p, 0.0, z, U, f, mode)
    assert det.tobytes() == rnd.tobytes()
    # the memory order of U does not change a bit of the result
    for layout in (np.ascontiguousarray(U), np.asfortranarray(U)):
        assert _grid.field(p, layout, f, mode).tobytes() == det.tobytes()


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
    V = U
    for _ in range(n_steps):
        V = _grid.picard_solve(lambda Y: _grid.field(p, Y, f, mode), V,
                               cfg.eps, cfg.fp_tol, cfg.max_iter)[0]
    assert out.tobytes() == V.tobytes()


def test_picard_solve_returns_field_and_skips_first_evaluation():
    p = default_params()
    rng = np.random.default_rng(3)
    U = 0.3 * rng.standard_normal((4, 17))
    f = p.f.to_grid(8)
    calls = []

    def counted(Y):
        calls.append(1)
        return _grid.field(p, Y, f, "window")

    y, _, iters, Fy = _grid.picard_solve(counted, U, 0.01, 1e-10, 100)
    assert len(calls) == iters + 1
    assert Fy.tobytes() == _grid.field(p, y, f, "window").tobytes()
    calls.clear()
    y2, _, iters2, _ = _grid.picard_solve(counted, y, 0.01, 1e-10, 100, Fy)
    assert len(calls) == iters2
    assert y2.tobytes() == _grid.picard_solve(
        counted, y, 0.01, 1e-10, 100)[0].tobytes()


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
def test_random_field_with_array_noise_equals_per_row_calls(p, stack, mode):
    U, sigmas, zs, f = stack
    got = _grid.random_field(p, sigmas[:, None, None], zs[:, None], U, f, mode)
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
    with np.errstate(over="ignore", invalid="ignore"):
        out = _grid.rk4(lambda _t, Y: _grid.field(p, Y, f, "window"),
                        U, 0.0, 0.01, 20)
    assert np.all(np.isfinite(out[0])) and not np.all(np.isfinite(out[1]))
    # a row that overflows leaves the other rows as they are alone
    alone = _grid.rk4(lambda _t, Y: _grid.field(p, Y, f, "window"),
                      U[:1], 0.0, 0.01, 20)
    assert out[0].tobytes() == alone[0].tobytes()
    assert _grid.require_finite(alone) is alone
    with pytest.raises(NonFinite, match="integrator state overflowed"):
        _grid.require_finite(out)
