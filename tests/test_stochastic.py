import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhlattice import (
    HorizonTooShort,
    LatticeWindow,
    NoiseConfig,
    NonFinite,
    OUPath,
    Params,
    PointCloud,
    absorbing_radius,
    ergodic_average,
    ou_path,
    ou_path_from_json,
    ou_path_to_json,
    pullback_batch,
    pullback_sample,
    random_field,
    sample_ball,
    vector_field,
)
from bhlattice import _grid
from bhlattice.stepping import forcing_grid
from bhlattice.stochastic import (
    _distinct,
    _segment_field,
    _stage_noise,
    ou_decay,
    ou_innovation_std,
    realization_seed,
)
from full_stack_pullback import full_stack_pullback


@pytest.fixture
def params():
    return Params(nu=1.0, alpha=1.0, beta=1.0, gamma=0.5, lam=8.0,
                  f=LatticeWindow.basis(0, 1.4375))


class TestOUCoefficients:
    def test_half_life_spacing(self):
        assert ou_decay(math.log(2.0)) == pytest.approx(0.5, abs=1e-15)
        assert ou_innovation_std(math.log(2.0)) == \
            pytest.approx(math.sqrt(0.375), abs=1e-15)

    def test_two_step_composition(self):
        # stepping h twice must equal stepping 2h once, in both moments
        h = 0.3
        a1, s1 = ou_decay(h), ou_innovation_std(h)
        a2, s2 = ou_decay(2 * h), ou_innovation_std(2 * h)
        assert a1 * a1 == pytest.approx(a2, abs=1e-12)
        assert a1 ** 2 * s1 ** 2 + s1 ** 2 == pytest.approx(s2 ** 2, abs=1e-12)

    def test_stationarity_preserved_exactly(self):
        for h in (0.01, 0.1, 1.0):
            a, s = ou_decay(h), ou_innovation_std(h)
            assert a * a * 0.5 + s * s == pytest.approx(0.5, abs=1e-15)


class TestOUPath:
    def test_grid_hits_zero(self):
        path = ou_path(7, -13.81, 0.0, 0.01)
        assert path.grid[-1] == 0.0
        assert path.at(0.0) == path.z[-1]

    def test_empirical_variance(self):
        path = ou_path(7, -2000.0, 0.0, 0.01)
        assert 0.45 <= float(np.mean(path.z ** 2)) <= 0.55

    def test_ergodic_average_small(self):
        path = ou_path(7, -2000.0, 0.0, 0.01)
        assert abs(ergodic_average(path)) <= 0.05

    def test_ergodic_average_needs_long_horizon(self):
        with pytest.raises(ValueError):
            ergodic_average(ou_path(0, -10.0, 0.0, 0.01))

    def test_prefix_consistency(self):
        # extending the horizon into the past must not change the noise
        # realized near time zero
        short = ou_path(11, -5.0, 0.0, 0.01)
        long = ou_path(11, -40.0, 0.0, 0.01)
        assert np.array_equal(long.z[-short.z.size:], short.z)

    def test_interpolation(self):
        path = ou_path(3, -1.0, 0.0, 0.25)
        mid = 0.5 * (path.z[-1] + path.z[-2])
        assert path.at(-0.125) == pytest.approx(mid, abs=1e-15)
        with pytest.raises(ValueError):
            path.at(0.5)

    def test_interpolation_matches_interp_on_grid(self):
        path = ou_path(3, -30.0, 0.0, 0.01)
        grid = path.grid
        for t, z in zip(grid, path.z):
            assert path.at(float(t)) == z
        rng = np.random.default_rng(12)
        ts = np.concatenate([0.5 * (grid[1:] + grid[:-1]),
                             [path.t_min, path.t_max],
                             rng.uniform(path.t_min, path.t_max, 1000)])
        got = np.array([path.at(float(t)) for t in ts])
        assert np.max(np.abs(got - np.interp(ts, grid, path.z))) <= 1e-15
        with pytest.raises(ValueError):
            path.at(path.t_min - 1e-3)

    @staticmethod
    def one_sample_at_a_time(seed, t_min, t_max, h):
        """The path by its defining recursion, one normal draw per sample
        from t_max backwards."""
        n = int(np.ceil((t_max - t_min) / h - 1e-12)) + 1
        rng = np.random.default_rng(seed)
        a, s = ou_decay(h), ou_innovation_std(h)
        z = np.empty(n)
        z[-1] = np.sqrt(0.5) * rng.standard_normal()
        for j in range(n - 2, -1, -1):
            z[j] = a * z[j + 1] + s * rng.standard_normal()
        return z

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(seed=st.one_of(st.integers(0, 2**63),
                          st.builds(realization_seed, st.integers(0, 10**6),
                                    st.integers(0, 100))),
           horizon=st.floats(1e-3, 20.0), h=st.floats(2e-3, 1.0))
    def test_equals_the_recursion_one_sample_at_a_time(self, seed, horizon, h):
        path = ou_path(seed, -horizon, 0.0, h)
        assert path.z.tobytes() == \
            self.one_sample_at_a_time(seed, -horizon, 0.0, h).tobytes()

    def test_json_round_trip(self):
        path = ou_path(5, -3.0, 0.0, 0.1)
        back = ou_path_from_json(ou_path_to_json(path))
        assert np.array_equal(back.z, path.z)
        assert back.t_min == path.t_min and back.h_path == path.h_path

    @pytest.mark.parametrize("grid, match", [
        pytest.param({"h_path": 0}, "h_path must be positive", id="zero-step"),
        pytest.param({"t_min": 0.0, "t_max": -3.0, "h_path": -0.1},
                     "h_path must be positive", id="reversed-negative-step"),
        pytest.param({"t_min": 0.0, "z": [0.3]}, "t_min must be below t_max",
                     id="one-node"),
        pytest.param({"t_min": -math.inf}, "both finite", id="infinite-past"),
    ])
    def test_json_with_a_bad_grid_raises_value_error(self, grid, match):
        # each finite grid keeps a z of its own length, so only the check on
        # the grid itself refuses it
        doc = {**json.loads(ou_path_to_json(ou_path(5, -3.0, 0.0, 0.1))),
               **grid}
        with pytest.raises(ValueError, match=match):
            ou_path_from_json(json.dumps(doc))

    def test_realization_seeds_are_distinct(self):
        a = realization_seed(2024, 0).generate_state(4)
        b = realization_seed(2024, 1).generate_state(4)
        assert not np.array_equal(a, b)


class TestRandomField:
    def test_sigma_zero_reduces_to_deterministic(self, params):
        rng = np.random.default_rng(41)
        for _ in range(50):
            u = LatticeWindow(-6, 0.5 * rng.standard_normal(13))
            a = random_field(params, 0.0, 1.7, u)
            b = vector_field(params, u)
            assert (a - b).norm() <= 1e-14

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(z=st.floats(allow_nan=False, allow_infinity=False),
           sigma=st.sampled_from([0.0, -0.0]))
    def test_sigma_zero_coefficients_have_the_same_bits_for_either_sign_of_z(
            self, z, sigma):
        """sigma*z is +-0.0, exp(+-0.0) is 1.0, c0 + (+-0.0) is c0 and f/1.0
        is f: at sigma = 0 every noise value gives the deterministic
        coefficients, so the sigma = 0 pairs of a pullback are one cloud."""
        p = Params(nu=1.0, alpha=1.0, beta=1.0, gamma=0.5, lam=8.0,
                   f=LatticeWindow.basis(0, 1.4375))
        f = forcing_grid(p, 3, "truncated")
        sz = sigma * np.array([[z], [-z]])
        noisy = _grid.field_coefficients(p, np.exp(sz), sz, f)
        plain = _grid.field_coefficients(p, 1.0, 0.0, f)
        for a, b in zip(noisy, plain):
            assert np.asarray(a).tobytes() == \
                np.broadcast_to(b, np.shape(a)).tobytes()

    def test_zero_state_gives_scaled_forcing(self, params):
        z = 0.6
        sigma = 0.3
        out = random_field(params, sigma, z, LatticeWindow.zero())
        expected = math.exp(-sigma * z) * 1.4375
        assert out[0] == pytest.approx(expected, rel=1e-14)
        assert out == LatticeWindow.basis(0, out[0])

    def test_directional_derivative_in_z(self, params):
        # finite-difference check of the analytic z-dependence
        sigma = 0.2
        z = 0.4
        u = LatticeWindow(-2, np.array([0.1, -0.3, 0.2, 0.05, -0.1]))
        h = 1e-6
        fd = (1.0 / (2 * h)) * (random_field(params, sigma, z + h, u)
                                - random_field(params, sigma, z - h, u))
        # analytic derivative, built componentwise
        for i in range(-4, 5):
            ui, um = u[i], u[i - 1]
            d = (-sigma * math.exp(sigma * z) * params.alpha * ui * (um - ui)
                 - 2 * sigma * params.beta * math.exp(2 * sigma * z) * ui ** 3
                 + sigma * params.beta * (1 + params.gamma)
                 * math.exp(sigma * z) * ui ** 2
                 - sigma * math.exp(-sigma * z) * params.f[i]
                 + sigma * ui)
            assert fd[i] == pytest.approx(d, rel=1e-6, abs=1e-8)


class TestAbsorbingRadius:
    def test_unforced_radius_is_one(self):
        p = Params(nu=1.0, alpha=1.0, beta=1.0, gamma=0.5, lam=8.0)
        path = ou_path(1, -30.0, 0.0, 0.01)
        out = absorbing_radius(p, 0.5, path, 1e-10)
        assert out.value == 1.0
        assert out.truncation_bound == 0.0

    def test_sigma_zero_closed_form(self, params):
        # at sigma = 0 the integral collapses to 1/(lam - lam*)
        gap = 8.0 - 6.5625
        path = ou_path(1, -30.0, 0.0, 0.001)
        out = absorbing_radius(params, 0.0, path, 1e-10)
        expected = 1.0 + 1.4375 ** 2 / gap ** 2
        assert out.value == pytest.approx(expected, abs=1e-5)

    @pytest.mark.parametrize("t_max", [1.0, 1e-3, -0.5])
    def test_path_must_end_at_time_zero(self, params, t_max):
        # a path past t = 0 would add the integrand over (0, t_max]
        path = ou_path(5, -30.0, t_max, 0.01)
        with pytest.raises(ValueError, match="end at time 0"):
            absorbing_radius(params, 0.4, path, 1e-6)

    def test_path_cut_at_time_zero_is_accepted(self, params):
        path = ou_path(5, -30.0, 1.0, 0.01)
        cut = OUPath(path.t_min, 0.0, path.h_path, path.z[:-100], path.seed)
        value = absorbing_radius(params, 0.4, cut, 1e-6).value
        assert 1.0 < value < 3.0

    def test_horizon_too_short(self, params):
        path = ou_path(1, -2.0, 0.0, 0.01)
        with pytest.raises(HorizonTooShort):
            absorbing_radius(params, 0.1, path, 1e-10)

    def test_deterministic_per_seed(self, params):
        path = ou_path(9, -30.0, 0.0, 0.01)
        a = absorbing_radius(params, 0.2, path, 1e-10)
        b = absorbing_radius(params, 0.2, path, 1e-10)
        assert a.value == b.value

    def test_monte_carlo_mean_is_stable(self, params):
        # mean over two disjoint seed batches moves by well under 5 percent
        def batch(seeds):
            vals = [absorbing_radius(params, 0.1,
                                     ou_path(s, -30.0, 0.0, 0.01),
                                     1e-10).value for s in seeds]
            return float(np.mean(vals))

        m1 = batch(range(40))
        m2 = batch(range(40, 80))
        assert abs(m1 - m2) / m1 <= 0.05


class TestPullback:
    def test_deterministic_in_realization(self, params):
        noise = NoiseConfig(h_path=0.01, pullback_T=2.0, realizations=2,
                            master_seed=2024)
        init = sample_ball(1.5, "truncated", 4, 8, seed=0)
        a = pullback_sample(params, noise, 0.1, 0, 0.01, init)
        b = pullback_sample(params, noise, 0.1, 0, 0.01, init)
        assert np.array_equal(a.points, b.points)
        c = pullback_sample(params, noise, 0.1, 1, 0.01, init)
        assert not np.array_equal(a.points, c.points)

    def test_meta_records_provenance(self, params):
        noise = NoiseConfig(h_path=0.01, pullback_T=1.0, realizations=1,
                            master_seed=7)
        init = sample_ball(1.0, "truncated", 3, 4, seed=0)
        out = pullback_sample(params, noise, 0.25, 0, 0.01, init)
        assert out.meta["sigma"] == 0.25
        assert out.meta["realization"] == 0
        assert out.meta["pullback_T"] == 1.0
        assert out.space == "truncated" and out.half_width == 3

    def test_noise_config_validation(self, params):
        # the intensity is pullback_sample's argument, refused below 0
        init = sample_ball(1.0, "truncated", 3, 4, seed=0)
        with pytest.raises(ValueError, match="sigma"):
            pullback_sample(params, NoiseConfig(pullback_T=1.0), -0.1, 0,
                            0.01, init)
        with pytest.raises(ValueError):
            NoiseConfig(h_path=0.0)
        with pytest.raises(ValueError):
            NoiseConfig(realizations=0)


class TestPullbackBatch:
    T = 2.0
    DT = 0.01

    def noise(self):
        return NoiseConfig(h_path=0.01, pullback_T=self.T, realizations=3,
                           master_seed=2024)

    def test_every_row_equals_its_single_pullback(self, params):
        init = sample_ball(1.5, "truncated", 4, 6, seed=0)
        sigmas = (0.4, 0.1, 0.0)
        # a path horizon beyond T, as the noise study uses for the radius
        batch = pullback_batch(params, self.noise(), sigmas, range(3), self.DT,
                               init, path_horizon=12.0)
        assert batch.points.shape == (3, 3) + init.points.shape
        assert batch.finite.all()
        for path in batch.paths:
            assert path.t_min == -12.0 and path.t_max == 0.0
        for i, sigma in enumerate(sigmas):
            for k in range(3):
                one = pullback_sample(params, self.noise(), sigma, k,
                                      self.DT, init)
                assert batch.points[i, k].tobytes() == one.points.tobytes()

    def test_overflowing_rows_are_flagged_and_leave_the_rest_alone(self, params):
        init = sample_ball(1.5, "truncated", 4, 6, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            batch = pullback_batch(params, self.noise(), (40.0, 0.1), range(3),
                                   self.DT, init)
            with pytest.raises(NonFinite, match="integrator state overflowed"):
                pullback_sample(params, self.noise(), 40.0, 0, self.DT, init)
        assert not batch.finite[0].any()
        assert batch.finite[1].all()
        for k in range(3):
            one = pullback_sample(params, self.noise(), 0.1, k, self.DT, init)
            assert batch.points[1, k].tobytes() == one.points.tobytes()
            plain = self.rk4_oracle(params, self.noise(), 0.1, k, self.DT,
                                    init, self.T)
            assert batch.points[1, k].tobytes() == plain.tobytes()

    def test_each_step_is_four_field_calls_on_the_distinct_rows(
            self, params, monkeypatch):
        """Every stage goes through _grid.field, the package's one field
        kernel, once for the stack of distinct rows: the first call sees
        each distinct cloud's points once, and the stack never grows."""
        shapes, real_field = [], _grid.field

        def counting_field(*args):
            shapes.append(args[1].shape)
            return real_field(*args)

        monkeypatch.setattr(_grid, "field", counting_field)
        init = sample_ball(1.5, "truncated", 4, 6, seed=0)
        noise = NoiseConfig(h_path=0.01, pullback_T=self.T_COLLAPSE,
                            master_seed=2024)
        # three clouds at sigma = 0.4, one shared by the three at sigma = 0
        batch = pullback_batch(params, noise, (0.4, 0.0), range(3), 0.05,
                               init)
        assert batch.n_steps == 300
        assert len(shapes) == 4 * batch.n_steps
        assert shapes[0] == (4 * 6, init.points.shape[1])
        assert {n for _, n in shapes} == {init.points.shape[1]}
        rows = [r for r, _ in shapes]
        assert all(a >= b for a, b in zip(rows, rows[1:]))
        # each sigma = 0.4 cloud goes on as one row, and the six rows of
        # the sigma = 0 cloud as two, once their bits became equal
        assert batch.rows == (rows[0], rows[-1]) == (24, 3 + 2)
        monkeypatch.undo()
        whole = full_stack_pullback(params, noise, (0.4, 0.0), range(3),
                                    0.05, init)
        assert batch.points.tobytes() == whole.tobytes()

    # a horizon at which the points of every sigma > 0 cloud meet bit for
    # bit, with 300 steps of 0.05
    T_COLLAPSE = 15.0

    @pytest.mark.parametrize("n_points", range(1, 7))
    def test_equals_the_full_stack_bit_for_bit(self, params, n_points):
        """Sharing sigma = 0 and repeated (sigma, realization) pairs, and
        going on with one row of rows that became equal, leave every point
        as the whole stack would give it."""
        init = sample_ball(1.5, "truncated", 4, n_points, seed=n_points)
        noise = NoiseConfig(h_path=0.01, pullback_T=self.T_COLLAPSE,
                            master_seed=2024)
        # sigma = 0 twice, sigma = 0.4 twice, realization 0 twice: five
        # distinct clouds of the 5 * 3 pairs
        sigmas, realizations = (0.4, 0.0, 0.1, 0.4, 0.0), (0, 1, 0)
        batch = pullback_batch(params, noise, sigmas, realizations, 0.05,
                               init, path_horizon=20.0)
        whole = full_stack_pullback(params, noise, sigmas, realizations,
                                    0.05, init, path_horizon=20.0)
        assert batch.finite.all()
        assert batch.points.tobytes() == whole.tobytes()
        assert batch.rows[0] == 5 * n_points
        # the four sigma > 0 clouds went on as one row each, and the
        # sigma = 0 cloud as one row or two
        assert batch.rows[1] == {1: 5, 2: 6, 3: 5, 4: 6, 5: 6, 6: 6}[n_points]

    def test_equal_start_points_run_once_per_cloud(self, params):
        """A start cloud with repeated points starts as its distinct points
        once per (sigma, path) key, and every point is still the whole
        stack's."""
        base = sample_ball(1.5, "truncated", 4, 3, seed=5)
        pts = base.points[[0, 1, 0, 2, 1, 0]]
        init = PointCloud(base.space, base.half_width, pts)
        noise = NoiseConfig(h_path=0.01, pullback_T=2.0, master_seed=2024)
        sigmas, realizations = (0.4, 0.0, 0.1), (0, 1)
        batch = pullback_batch(params, noise, sigmas, realizations, 0.05,
                               init)
        whole = full_stack_pullback(params, noise, sigmas, realizations,
                                    0.05, init)
        assert batch.finite.all()
        assert batch.points.tobytes() == whole.tobytes()
        # keys (0.4, 0), (0.4, 1), (0.1, 0), (0.1, 1) and (0, 0), three
        # distinct points each
        assert batch.rows[0] == 5 * 3

    def test_an_overflowing_sigma_stays_flagged(self, params):
        init = sample_ball(1.5, "truncated", 4, 4, seed=0)
        noise = NoiseConfig(h_path=0.01, pullback_T=self.T_COLLAPSE,
                            master_seed=2024)
        sigmas = (40.0, 0.1, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            batch = pullback_batch(params, noise, sigmas, range(3), 0.05,
                                   init)
            whole = full_stack_pullback(params, noise, sigmas, range(3),
                                        0.05, init)
        assert not batch.finite[0].any()
        assert batch.finite[1:].all()
        assert batch.points.tobytes() == whole.tobytes()
        # the 12 overflowed rows are never merged, each sigma = 0.1 cloud
        # goes on as one row, and the sigma = 0 cloud as two
        assert batch.rows == (7 * 4, 3 * 4 + 3 + 2)

    def test_rows_merge_only_with_equal_sigma_path_and_finite_bits(self):
        """Two rows that differ only in the sign of a zero are two rows,
        and so are two rows of equal NaN bits or of equal infinities, two
        rows one ulp apart, and equal rows at another sigma or path."""
        U = np.array([[1.0, 0.0], [1.0, -0.0],      # signed zeros
                      [np.nan, 2.0], [np.nan, 2.0],  # equal NaN bits
                      [np.inf, 2.0], [np.inf, 2.0],
                      [3.0, 4.0], [3.0, 4.0], [3.0, 4.0],
                      [3.0, 4.0 + 2**-50],           # one ulp apart
                      [3.0, 4.0], [3.0, 4.0], [3.0, 4.0]])
        sigma = np.array([0.1] * 11 + [0.2, 0.1])
        path = np.array([0] * 11 + [0, 1])
        keep, group = _distinct(sigma, path, U)
        assert keep.tolist() == [0, 1, 2, 3, 4, 5, 6, 9, 11, 12]
        assert keep[group].tolist() == [0, 1, 2, 3, 4, 5, 6, 6, 6, 9, 6, 11,
                                        12]

    def test_horizon_shorter_than_half_a_step_is_a_value_error(self, params):
        noise = NoiseConfig(h_path=0.001, pullback_T=0.004)
        init = sample_ball(1.0, "truncated", 3, 4, seed=0)
        with pytest.raises(ValueError, match="pullback_T=0.004.*dt=0.01"):
            pullback_batch(params, noise, (0.1,), range(2), 0.01, init)
        with pytest.raises(ValueError, match="pullback_T=0.004.*dt=0.01"):
            pullback_sample(params, noise, 0.1, 0, 0.01, init)

    @staticmethod
    def rk4_oracle(p, noise, sigma, k, dt, init, path_horizon):
        """One (sigma, realization) pullback as a plain RK4 loop that reads
        the path with OUPath.at and evaluates random_field at every stage."""
        n_steps = int(round(noise.pullback_T / dt))
        dt = noise.pullback_T / n_steps
        path = ou_path(realization_seed(noise.master_seed, k), -path_horizon,
                       0.0, noise.h_path)
        f = forcing_grid(p, init.half_width, init.space)

        def F(t, U):
            return _grid.random_field(p, sigma, path.at(t), U, f, init.space)

        U, t = init.points.copy(), -noise.pullback_T
        for _ in range(n_steps):
            k1 = F(t, U)
            k2 = F(t + 0.5 * dt, U + 0.5 * dt * k1)
            k3 = F(t + 0.5 * dt, U + 0.5 * dt * k2)
            k4 = F(t + dt, U + dt * k3)
            U = U + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += dt
        return U

    @pytest.mark.parametrize("space", ["window", "truncated"])
    @pytest.mark.parametrize("sign", ["paper", "continuum"])
    def test_every_row_equals_a_plain_rk4_loop(self, params, space, sign):
        p = params.replace(laplacian_sign=sign)
        init = sample_ball(1.5, space, 4, 5, seed=3)
        sigmas = (0.4, 0.1, 0.0)
        # 235 steps of 2/235, not of 0.0085, on paths that reach back to -12
        batch = pullback_batch(p, self.noise(), sigmas, range(3), 0.0085,
                               init, path_horizon=12.0)
        assert batch.finite.all()
        for i, sigma in enumerate(sigmas):
            for k in range(3):
                one = self.rk4_oracle(p, self.noise(), sigma, k, 0.0085, init,
                                      12.0)
                assert batch.points[i, k].tobytes() == one.tobytes()

    def test_records_the_step_it_took(self, params):
        init = sample_ball(1.0, "truncated", 3, 4, seed=0)
        batch = pullback_batch(params, self.noise(), (0.1,), range(1), 0.0085,
                               init)
        assert (batch.n_steps, batch.dt) == (235, self.T / 235)


class TestNoiseTable:
    @staticmethod
    def table(params, path, t0, dt, n_steps):
        # row 0 at sigma = 0.1, row 1 at sigma = 0, both along the path
        times = _grid.stage_times(t0, dt, n_steps)
        f = forcing_grid(params, 3, "truncated")
        coef_at = _segment_field(params, np.array([0.1, 0.0]),
                                 np.array([0, 0]),
                                 _stage_noise((path,), times), times, f)
        return times, lambda t, U: _grid.field(coef_at(t), U, "truncated")

    @pytest.mark.parametrize("t_min, t_max", [(-5.0, -3.0), (-1.5, 0.0)])
    def test_stage_times_off_the_path_are_refused(self, params, t_min, t_max):
        # the stage times run over [-2, 0]: the first path ends before
        # them, the second starts after them
        path = ou_path(1, t_min, t_max, 0.01)
        with pytest.raises(ValueError, match="time outside the path horizon"):
            self.table(params, path, -2.0, 0.01, 200)

    def test_stage_times_on_the_end_nodes_are_accepted(self, params):
        path = ou_path(1, -1.0, 0.0, 0.25)
        times, rhs = self.table(params, path, -1.0, 0.25, 4)
        assert times[0] == path.grid[0]
        assert times[-1] == path.grid[-1]
        rhs(times[-1], np.zeros((2, 7)))

    def test_a_call_off_its_stage_times_is_refused(self, params):
        path = ou_path(1, -1.0, 0.0, 0.01)
        times, rhs = self.table(params, path, -1.0, 0.01, 100)
        U = np.zeros((2, 7))
        rhs(-1.0, U)
        rhs(-0.995, U)
        for t in (-0.9925, -1.005, 0.005):
            with pytest.raises(ValueError, match="not in the noise table"):
                rhs(t, U)

    def test_rows_are_their_random_field_at_every_stage_time(self, params):
        # called in any order, each row is the field at its own sigma and
        # at z of the stage time
        path = ou_path(2, -4.0, 0.0, 0.01)
        times, rhs = self.table(params, path, -4.0, 4.0 / 39, 39)
        U = sample_ball(1.0, "truncated", 3, 2, seed=1).points
        f = forcing_grid(params, 3, "truncated")
        for t in times[::-1].tolist():
            got = rhs(t, U)
            for r, sigma in enumerate((0.1, 0.0)):
                one = _grid.random_field(params, sigma, path.at(t), U[r], f,
                                         "truncated")
                assert got[r].tobytes() == one.tobytes()
