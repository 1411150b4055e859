import math

import numpy as np
import pytest

from bhlattice import (
    HorizonTooShort,
    LatticeWindow,
    NoiseConfig,
    NonFinite,
    Params,
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
from bhlattice.stochastic import (
    OUPathStack,
    ou_decay,
    ou_innovation_std,
    realization_seed,
)


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

    def test_json_round_trip(self):
        path = ou_path(5, -3.0, 0.0, 0.1)
        back = ou_path_from_json(ou_path_to_json(path))
        assert np.array_equal(back.z, path.z)
        assert back.t_min == path.t_min and back.h_path == path.h_path

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
        noise = NoiseConfig(sigma=0.1, h_path=0.01, pullback_T=2.0,
                            realizations=2, master_seed=2024)
        init = sample_ball(1.5, "truncated", 4, 8, seed=0)
        a = pullback_sample(params, noise, 0, 0.01, init)
        b = pullback_sample(params, noise, 0, 0.01, init)
        assert np.array_equal(a.points, b.points)
        c = pullback_sample(params, noise, 1, 0.01, init)
        assert not np.array_equal(a.points, c.points)

    def test_meta_records_provenance(self, params):
        noise = NoiseConfig(sigma=0.25, h_path=0.01, pullback_T=1.0,
                            realizations=1, master_seed=7)
        init = sample_ball(1.0, "truncated", 3, 4, seed=0)
        out = pullback_sample(params, noise, 0, 0.01, init)
        assert out.meta["sigma"] == 0.25
        assert out.meta["realization"] == 0
        assert out.meta["pullback_T"] == 1.0
        assert out.space == "truncated" and out.half_width == 3

    def test_noise_config_validation(self):
        with pytest.raises(ValueError):
            NoiseConfig(sigma=-0.1)
        with pytest.raises(ValueError):
            NoiseConfig(h_path=0.0)
        with pytest.raises(ValueError):
            NoiseConfig(realizations=0)


class TestPullbackBatch:
    T = 2.0
    DT = 0.01

    def noise(self, sigma=0.1):
        return NoiseConfig(sigma=sigma, h_path=0.01, pullback_T=self.T,
                           realizations=3, master_seed=2024)

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
                one = pullback_sample(params, self.noise(sigma), k, self.DT,
                                      init)
                assert batch.points[i, k].tobytes() == one.points.tobytes()

    def test_overflowing_rows_are_flagged_and_leave_the_rest_alone(self, params):
        init = sample_ball(1.5, "truncated", 4, 6, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            batch = pullback_batch(params, self.noise(), (40.0, 0.1), range(3),
                                   self.DT, init)
            with pytest.raises(NonFinite, match="integrator state overflowed"):
                pullback_sample(params, self.noise(40.0), 0, self.DT, init)
        assert not batch.finite[0].any()
        assert batch.finite[1].all()
        for k in range(3):
            one = pullback_sample(params, self.noise(0.1), k, self.DT, init)
            assert batch.points[1, k].tobytes() == one.points.tobytes()

    def test_stacked_lookup_equals_single_paths_at_every_stage(self):
        seeds = [realization_seed(2024, k) for k in range(4)]
        long = [ou_path(s, -12.0, 0.0, 0.01) for s in seeds]
        short = [ou_path(s, -self.T, 0.0, 0.01) for s in seeds]
        stack = OUPathStack.of(long)
        n_steps = int(round(self.T / self.DT))
        dt = self.T / n_steps
        t = -self.T
        # the stage times of the RK4 loop, with its accumulated rounding
        for _ in range(n_steps):
            for ts in (t, t + 0.5 * dt, t + dt):
                got = stack.at(ts)
                for r in range(len(seeds)):
                    assert got[r] == long[r].at(ts) == short[r].at(ts)
            t += dt
        with pytest.raises(ValueError):
            stack.at(0.5)

    def test_stack_needs_one_grid(self):
        with pytest.raises(ValueError):
            OUPathStack.of([ou_path(1, -2.0, 0.0, 0.01),
                            ou_path(2, -3.0, 0.0, 0.01)])
