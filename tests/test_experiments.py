import dataclasses
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhlattice import (
    AttractorConfig,
    ConfigError,
    GridConfig,
    LatticeWindow,
    NoConvergence,
    NoiseConfig,
    NonFinite,
    PointCloud,
    ResultTable,
    StepConfig,
    StepTooLarge,
    attractor_approx,
    default_config,
    default_params,
    derived_constants,
    global_error,
    hausdorff_sym,
    implicit_step_info,
    l_bound,
    local_error,
    m_bound,
    point_contraction,
    run_error_order,
    run_noise_convergence,
    verify,
    write_table,
)
from bhlattice import _grid, cli, experiments, stepping
from bhlattice.cli import load_config, main
from bhlattice.experiments import (
    attractor_config_for_eps,
    config_hash,
    trend_nonincreasing,
)


class TestConfig:
    def test_default_config_validates(self):
        cfg = default_config()
        dc = cfg.validate()
        assert dc.lambda_star == pytest.approx(6.5625)
        # the eps-study's reference step is derived from eps_list, so no
        # eps_list is too fine for it
        cfg.grids = GridConfig(eps_list=(0.001,))
        cfg.validate()

    def test_rejects_eps_above_cap(self):
        cfg = default_config()
        cfg.grids = GridConfig(eps_list=(0.05,))
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_rejects_unsorted_m_list(self):
        cfg = default_config()
        cfg.grids = GridConfig(m_list=(16, 8))
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_rejects_ascending_sigma_list(self):
        cfg = default_config()
        cfg.grids = GridConfig(sigma_list=(0.0, 0.1))
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_default_params_forcing_norm(self):
        p = default_params()
        assert p.f.norm() == pytest.approx(1.4375)
        assert default_params(f_scale=0.0).f == LatticeWindow.zero()

    def test_config_hash_changes_with_params(self):
        a = default_config()
        b = default_config()
        b.params = default_params(lam=9.0)
        assert config_hash(a) != config_hash(b)
        assert config_hash(a) == config_hash(default_config())

    def test_attractor_scaling(self):
        cfg = default_config()
        acfg = attractor_config_for_eps(cfg.attractor, 0.01, 1.4375)
        # one round each: ceil(2 / (0.01 * 1.4375))
        assert acfg.burn_in == 140
        assert acfg.stabilization_gap == 140


class TestAttractorClouds:
    @staticmethod
    def acceptance_attractor_cfg():
        return AttractorConfig(sample_count=64, burn_in=1000,
                               stabilization_gap=20, stabilization_tol=1e-7,
                               max_rounds=200, seed=0)

    @pytest.mark.parametrize("half_width, mode", [(16, "window"),
                                                  (8, "truncated")])
    def test_stopped_cloud_moves_at_most_tol_afterwards(self, half_width,
                                                        mode):
        # three times the forcing is not certified (kappa > 0), so the cloud
        # is evolved; eps* = 0.0036 there
        p, eps = default_params(f_scale=3.0), 0.003
        base = self.acceptance_attractor_cfg()
        A = experiments.implicit_attractor(p, eps, base, half_width, mode)
        assert A.meta["certified"] is False
        gap = attractor_config_for_eps(
            base, eps, p.lam - derived_constants(p).lambda_star
        ).stabilization_gap
        assert A.meta["steps_evolved"] == (A.meta["rounds"] + 1) * gap
        later = stepping.advance_grid(p, StepConfig(eps=eps), A.points,
                                      5 * gap, mode)
        moved = hausdorff_sym(A, PointCloud(mode, half_width, later))
        assert moved <= base.stabilization_tol

    @pytest.mark.parametrize("half_width, mode", [(16, "window"),
                                                  (8, "truncated")])
    def test_certified_point_is_fixed_by_the_steps(self, half_width, mode):
        p, eps = default_params(), 0.01
        base = self.acceptance_attractor_cfg()
        A = experiments.implicit_attractor(p, eps, base, half_width, mode)
        assert len(A) == 1
        assert A.meta["certified"] is True
        u, _, _ = stepping.equilibrium(p, half_width, mode)
        assert A.meta["kappa"] == point_contraction(p, u, mode) < 0
        assert A.meta["kappa"] == pytest.approx(-0.959, abs=1e-3)
        assert (A.meta["steps_evolved"], A.meta["rounds"],
                A.meta["contraction_ratio"]) == (0, 0, None)
        assert A.meta["max_F"] <= stepping.EQUILIBRIUM_TOL
        assert 1 <= A.meta["newton_iterations"] <= 10
        gap = attractor_config_for_eps(
            base, eps, p.lam - derived_constants(p).lambda_star
        ).stabilization_gap
        later = stepping.advance_grid(p, StepConfig(eps=eps), A.points,
                                      5 * gap, mode)
        moved = hausdorff_sym(A, PointCloud(mode, half_width, later))
        assert moved <= base.stabilization_tol

    def evolved_and_point(self, p, eps, half_width, mode):
        """The cloud that the evolve-until-stable path stops at, built by
        attractor_approx directly, and implicit_attractor's cloud."""
        base = self.acceptance_attractor_cfg()
        dc = derived_constants(p)
        acfg = attractor_config_for_eps(base, eps, p.lam - dc.lambda_star)
        step_cfg = StepConfig(eps=eps)
        cloud = attractor_approx(
            lambda U, n: stepping.advance_grid(p, step_cfg, U, n, mode),
            acfg, dc.r_star, mode, half_width)
        point = experiments.implicit_attractor(p, eps, base, half_width, mode)
        assert len(cloud) == base.sample_count and len(point) == 1
        return cloud, point

    @pytest.mark.parametrize("half_width, mode", [(64, "window"),
                                                  (8, "truncated")])
    def test_certified_point_lies_within_tol_of_the_evolved_cloud(
            self, half_width, mode):
        """At the acceptance config the Newton zero is within tol of the
        cloud that the evolve-until-stable path stops at."""
        cloud, point = self.evolved_and_point(default_params(), 0.01,
                                              half_width, mode)
        assert hausdorff_sym(cloud, point) <= \
            self.acceptance_attractor_cfg().stabilization_tol

    @pytest.mark.parametrize("half_width, mode", [(16, "window"),
                                                  (8, "truncated")])
    def test_twice_the_forcing_is_certified_within_tol_of_the_evolved_cloud(
            self, half_width, mode):
        """Twice the default forcing is certified (kappa = -0.149), and its
        Newton zero is within tol of the cloud that the evolve-until-stable
        path stops at."""
        cloud, point = self.evolved_and_point(default_params(f_scale=2.0),
                                              0.005, half_width, mode)
        assert point.meta["certified"] is True
        assert point.meta["kappa"] == pytest.approx(-0.149, abs=1e-3)
        assert hausdorff_sym(cloud, point) <= \
            self.acceptance_attractor_cfg().stabilization_tol

    def test_uncertified_config_builds_its_cloud_through_attractor_approx(
            self, monkeypatch):
        p = default_params(f_scale=3.0)
        dc = derived_constants(p)
        assert experiments.point_certificate(p, 4, "window")[1]["kappa"] == \
            pytest.approx(0.3585, abs=1e-4)
        assert dc.eps_star == pytest.approx(0.00358, abs=1e-5)
        built = []

        def counting(*args, **kwargs):
            built.append(args[3])
            return attractor_approx(*args, **kwargs)

        monkeypatch.setattr(experiments, "attractor_approx", counting)
        base = AttractorConfig(sample_count=4, seed=0)
        A = experiments.implicit_attractor(p, 0.003, base, 4)
        F = experiments.flow_attractor(p, 0.003, base, 4, mode="truncated")
        assert built == ["window", "truncated"]
        for cloud in (A, F):
            assert len(cloud) == 4 and cloud.meta["steps_evolved"] > 0
            assert cloud.meta["certified"] is False
            assert cloud.meta["kappa"] == pytest.approx(0.3585, abs=1e-3)

    @pytest.mark.parametrize("error", [NoConvergence(50, 3e-9),
                                       NonFinite("Newton iterate overflowed")])
    def test_newton_failure_falls_through_to_the_evolved_cloud(
            self, monkeypatch, error):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(experiments, "equilibrium", fail)
        A = experiments.implicit_attractor(
            default_params(), 0.01, AttractorConfig(sample_count=2), 4)
        assert len(A) == 2 and A.meta["steps_evolved"] > 0
        assert (A.meta["certified"], A.meta["kappa"]) == (False, None)

    def test_step_above_cap_is_refused_on_the_certified_path(
            self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("evaluated the field above eps*")

        p = default_params()
        dc = derived_constants(p)
        assert experiments.point_certificate(p, 4, "window")[1]["certified"]
        monkeypatch.setattr(_grid, "field", refuse)
        with pytest.raises(StepTooLarge):
            experiments.implicit_attractor(p, 2 * dc.eps_star,
                                           AttractorConfig(sample_count=2), 4)

    def test_round_over_budget_is_refused_before_any_step(self, tmp_path,
                                                          monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("advanced a cloud over the round budget")

        monkeypatch.setattr(experiments, "advance_grid", refuse)
        monkeypatch.setattr(_grid, "rk4", refuse)
        monkeypatch.setattr(_grid, "picard_solve", refuse)
        # the default forcing at lam - lam* = 0.01 is not certified (kappa
        # = +0.87), and eps* = 3.15e-7 there: a round at eps = 3e-7 is
        # 6.7e8 steps
        lam = 6.5625 + 0.01
        p = default_params(lam=lam)
        base = AttractorConfig(sample_count=2)
        assert derived_constants(p).eps_star > 3e-7
        with pytest.raises(ConfigError,
                           match=r"eps=3e-07 .* takes 6\.667e\+08"):
            experiments.implicit_attractor(p, 3e-7, base, 4)
        with pytest.raises(ConfigError, match="above the budget"):
            experiments.flow_attractor(p, 1e-4, base, 4)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"params": {"lam": lam}}))
        assert main(["--config", str(cfg_path), "--out", str(tmp_path),
                     "attractor", "--eps", "3e-7"]) == 2
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_certified_config_over_the_round_budget_runs_no_round(
            self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("advanced a certified cloud")

        monkeypatch.setattr(_grid, "rk4", refuse)
        monkeypatch.setattr(_grid, "picard_solve", refuse)
        # unforced at lam - lam* = 1e-5: a round at eps = 0.005 would be
        # 4e7 steps, but the attractor is certified to be {0}
        lam = 6.5625 + 1e-5
        p = default_params(f_scale=0.0, lam=lam)
        base = AttractorConfig(sample_count=2)
        for cloud in (experiments.implicit_attractor(p, 0.005, base, 4),
                      experiments.flow_attractor(p, 0.005, base, 4)):
            assert cloud.points.tolist() == [[0.0] * 9]
            assert cloud.meta["certified"] is True
            # lam* - lam - 2 nu (1 - cos(pi/10)) on the 9 sites
            assert cloud.meta["kappa"] == pytest.approx(
                -1e-5 - 2.0 * (1.0 - math.cos(math.pi / 10)), abs=1e-12)
            assert cloud.meta["steps_evolved"] == 0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "params": {"lam": lam, "f": {"offset": 0, "values": []}}}))
        out = tmp_path / "out"
        assert main(["--config", str(cfg_path), "--out", str(out),
                     "attractor", "--eps", "0.005"]) == 0
        meta = json.loads((out / "cloud_eps0.005.json").read_text())["meta"]
        assert (meta["certified"], meta["steps_evolved"]) == (True, 0)


class TestTrend:
    def test_monotone_passes(self):
        assert trend_nonincreasing([3.0, 2.0, 1.0], 0.1, 0.0)

    def test_small_rise_within_slack(self):
        assert trend_nonincreasing([1.0, 1.05, 1.0], 0.1, 0.0)

    def test_large_rise_fails(self):
        assert not trend_nonincreasing([1.0, 1.5], 0.1, 0.0)

    def test_abs_floor_covers_noise_near_zero(self):
        assert trend_nonincreasing([1e-9, 1.5e-7], 0.1, 2e-7)


class TestTables:
    def test_columns_must_align(self):
        with pytest.raises(ValueError):
            ResultTable("bad", {"a": [1, 2], "b": [1]}, {})

    def test_csv_has_17_significant_digits(self):
        table = ResultTable("t", {"x": [1.0 / 3.0], "n": [3]}, {})
        body = table.to_csv().splitlines()[1]
        x_str, n_str = body.split(",")
        assert float(x_str) == 1.0 / 3.0
        assert n_str == "3"

    def test_write_csv_and_meta(self, tmp_path):
        table = ResultTable("demo", {"x": [1.0, 2.0]}, {"config_hash": "ab"})
        paths = write_table(table, str(tmp_path))
        assert sorted(os.path.basename(p) for p in paths) == \
            ["demo.csv", "demo.meta.json"]
        meta = json.loads((tmp_path / "demo.meta.json").read_text())
        assert meta["config_hash"] == "ab"


class TestNoiseStudy:
    @staticmethod
    def small_config(sigmas):
        cfg = default_config(noise_m=4, pullback_points=4)
        cfg.attractor = AttractorConfig(sample_count=8, seed=0)
        cfg.grids = GridConfig(sigma_list=sigmas)
        cfg.noise = NoiseConfig(h_path=0.01, pullback_T=2.0, realizations=4,
                                master_seed=2024)
        return cfg

    def test_records_each_excluded_realization(self):
        # at sigma = 5 realizations 0 and 3 of this seed overflow by t = 0;
        # 1 and 2 do not, and no realization at a smaller sigma does
        cfg = self.small_config((5.0, 0.2, 0.0))
        with np.errstate(over="ignore", invalid="ignore"):
            table = run_noise_convergence(cfg)
        assert table.column("excluded") == [2, 0, 0]
        assert table.provenance["excluded_realizations"] == [
            {"sigma": 5.0, "realization": k, "reason": "non-finite end state"}
            for k in (0, 3)]
        assert np.isfinite(table.column("mean_dist")).all()
        assert np.isfinite(table.provenance["pullback_spread"]).all()
        json.dumps(table.provenance)

    def test_sigma_slope_is_least_squares_over_positive_sigmas(self):
        cfg = self.small_config((0.4, 0.2, 0.1, 0.0))
        table = run_noise_convergence(cfg)
        prov = table.provenance
        assert prov["excluded_realizations"] == []
        x = np.log(table.column("sigma")[:3])
        y = np.log(table.column("mean_dist")[:3])
        slope = np.sum((x - x.mean()) * (y - y.mean())) / np.sum((x - x.mean()) ** 2)
        assert prov["sigma_slope"] == pytest.approx(slope, rel=1e-12)
        # provenance, not columns: the table keeps its six columns
        assert list(table.columns) == ["sigma", "mean_dist", "max_dist",
                                       "stderr", "excluded", "mean_radius"]

    def test_pullback_spread_vanishes_at_the_criterion_12_config(self):
        # criterion 12's config with 2 realizations: at t = 0 the 8 points
        # of every kept (sigma, k) cloud have met, so each pullback has
        # forgotten where it started
        cfg = default_config(window_half_width=64, pullback_points=8)
        cfg.attractor = AttractorConfig(sample_count=64, burn_in=1000,
                                        stabilization_gap=20,
                                        stabilization_tol=1e-7,
                                        max_rounds=200, seed=0)
        cfg.noise = NoiseConfig(realizations=2)
        table = run_noise_convergence(cfg)
        spread = table.provenance["pullback_spread"]
        assert len(spread) == len(table.column("sigma")) == 5
        assert all(0.0 <= s <= 1e-12 for s in spread)

    def test_pullback_spread_shrinks_with_the_pullback_time(self):
        # the witness is not 0 by construction: a short pullback leaves
        # the start points apart
        def spread(T):
            cfg = self.small_config((0.2, 0.0))
            cfg.noise = NoiseConfig(h_path=0.01, pullback_T=T,
                                    realizations=4, master_seed=2024)
            return run_noise_convergence(cfg).provenance["pullback_spread"]

        short, longer = spread(0.5), spread(2.0)
        assert min(short) > 0.1
        assert all(0.0 < b < 1e-2 * a for a, b in zip(short, longer))

    def test_sigma_slope_needs_two_positive_sigmas(self):
        table = run_noise_convergence(self.small_config((0.2, 0.0)))
        assert table.provenance["sigma_slope"] is None

    def test_provenance_records_the_pullback_step(self):
        # at beta = 2, eps* = 0.0084724 is below h_path, and pullback_T = 3
        # takes round(3 / eps*) = 354 steps of 3/354 = 0.0084746
        cfg = self.small_config((0.1,))
        cfg.params = default_params().replace(beta=2.0)
        cfg.grids = GridConfig(eps_list=(0.005, 0.0025), sigma_list=(0.1,))
        cfg.noise = NoiseConfig(h_path=0.01, pullback_T=3.0, realizations=2,
                                master_seed=2024)
        assert derived_constants(cfg.params).eps_star == \
            pytest.approx(0.0084724, abs=1e-7)
        prov = run_noise_convergence(cfg).provenance
        assert prov["pullback_steps"] == 354
        assert prov["dt"] == 3.0 / 354
        assert prov["dt"] == pytest.approx(0.0084746, abs=1e-7)

    def test_provenance_step_at_the_shipped_config(self):
        # h_path = 0.01 divides pullback_T = 30, so dt stays 0.01
        cfg = self.small_config((0.1,))
        cfg.noise = NoiseConfig(h_path=0.01, pullback_T=30.0, realizations=1,
                                master_seed=2024)
        prov = run_noise_convergence(cfg).provenance
        assert (prov["dt"], prov["pullback_steps"]) == (0.01, 3000)
        # (lam - lam*)^2 h_path^2 / 12 with lam - lam* = 1.4375
        assert prov["radius_quad_rel_err"] == (1.4375 * 0.01) ** 2 / 12.0
        assert prov["radius_quad_rel_err"] <= experiments.RADIUS_QUAD_REL_TOL


class TestErrorOrder:
    EPS = (0.02, 0.01, 0.005)
    T = 0.1

    def config(self):
        cfg = default_config()
        cfg.grids = GridConfig(eps_error_list=self.EPS)
        return cfg

    def one_pair_table(self, cfg, n_samples):
        """The study's columns, one local_error and one global_error call
        per (eps, sample) pair, on the samples run_error_order draws: local
        reference steps eps/5, global reference step min(eps)/5."""
        p = cfg.params.replace(f=LatticeWindow.zero())
        dc = derived_constants(p)
        rng = np.random.default_rng(cfg.master_seed)
        samples = []
        for _ in range(n_samples):
            raw = rng.standard_normal(17)
            raw *= (0.9 * dc.r_star * rng.random() ** (1 / 17)) / np.linalg.norm(raw)
            samples.append(LatticeWindow(-8, raw))
        Lr, Mr = l_bound(p, dc.r_star), m_bound(p, dc.r_star)
        Lr1 = l_bound(p, dc.r_star + 1.0)
        cols = {"eps": list(self.EPS), "local_max": [], "global_max": [],
                "local_bound": [], "global_bound": []}
        dt_glob = min(self.EPS) / 5
        for eps in self.EPS:
            cols["local_max"].append(
                max(local_error(p, eps, y, eps / 5, 32) for y in samples))
            cols["global_max"].append(
                max(global_error(p, eps, y, self.T, dt_glob, 32) for y in samples))
            cols["local_bound"].append(Lr * Mr * Lr1 * eps**2)
            cols["global_bound"].append(Mr / 2.0 * math.exp(Lr * self.T) * eps)
        log_eps = np.log(cols["eps"])
        for name in ("local", "global"):
            slope = float(np.polyfit(log_eps, np.log(cols[name + "_max"]), 1)[0])
            cols[name + "_slope"] = [slope] * len(self.EPS)
        return cols

    @pytest.mark.parametrize("n_samples", [1, 2])
    def test_columns_equal_the_one_pair_loop(self, n_samples):
        cfg = self.config()
        table = run_error_order(cfg, T=self.T, n_samples=n_samples)
        want = self.one_pair_table(cfg, n_samples)
        assert list(table.columns) == list(want)
        for name, col in want.items():
            assert [x.hex() for x in table.column(name)] == \
                [float(x).hex() for x in col], name
        prov = table.provenance
        assert prov["dt_ref_local"] == [eps / 5 for eps in self.EPS]
        assert prov["dt_ref_global"] == min(self.EPS) / 5
        # one run to T at the smallest step, plus 5 steps per eps
        assert prov["reference_rk4_steps"] == 100 + 5 * len(self.EPS)
        assert prov["reference_rows"] == n_samples
        json.dumps(prov)

    def test_references_resolve_the_defects(self, monkeypatch):
        """At the default config, every reference the study integrates moves
        by at most 1e-3 of each defect it is compared with when its step is
        halved."""
        refs, defects = [], []

        def recording_flows(p, Y, dt, n_steps):
            out = stepping.reference_flows(p, Y, dt, n_steps)
            refs.append((p, Y, dt, n_steps, out))
            return out

        def recording_defect(p, eps, Y, n_steps, U):
            value = stepping.defect(p, eps, Y, n_steps, U)
            defects.append((U.tobytes(), value))
            return value

        monkeypatch.setattr(experiments, "reference_flows", recording_flows)
        monkeypatch.setattr(experiments, "defect", recording_defect)
        cfg = default_config()
        run_error_order(cfg)
        # one global run, then one local run per eps
        assert len(refs) == 1 + len(cfg.grids.eps_error_list)
        for p, Y, dt, n_steps, out in refs:
            fine = stepping.reference_flows(p, Y, dt / 2, 2 * n_steps)
            for row, fine_row in zip(out, fine):
                resolved = [d for U, d in defects if U == row.tobytes()]
                assert resolved
                assert np.linalg.norm(row - fine_row) <= 1e-3 * min(resolved)

    def test_finer_references_move_the_default_table_little(self, monkeypatch):
        """Five RK4 steps per eps give the default table of 25 steps per eps
        to 1e-6 relative on local_max and 1e-9 on global_max."""
        cfg = default_config()
        table = run_error_order(cfg)
        assert table.provenance["reference_rk4_steps"] == 1020
        monkeypatch.setattr(experiments, "REFERENCE_STEPS_PER_EPS", 25)
        fine = run_error_order(cfg)
        assert fine.provenance["reference_rk4_steps"] == 5100
        for name, tol in (("local_max", 1e-6), ("global_max", 1e-9)):
            for x, y in zip(table.column(name), fine.column(name)):
                assert abs(x - y) <= tol * y, name

    def test_horizon_must_be_a_multiple_of_every_eps(self):
        with pytest.raises(ConfigError, match="integer multiple"):
            run_error_order(self.config(), T=0.05, n_samples=1)


class TestVerify:
    def test_default_config_passes(self):
        ok, report = verify(default_config())
        failed = [c["check"] for c in report["checks"]
                  if c["status"] != "pass"]
        assert ok, f"failed checks: {failed}"
        assert "config_hash" in report
        assert [c["check"] for c in report["checks"]] == \
            ["dissipativity", "step_cap", "solver_contract",
             "point_attractor"]
        cfg = default_config()
        dc = cfg.validate()
        step_cap = report["checks"][1]["witness"]
        assert step_cap["eps_star"] == dc.eps_star
        assert step_cap["eps_max"] == max(cfg.grids.eps_list)
        assert step_cap["contraction_factor"] == \
            max(cfg.grids.eps_list) * l_bound(cfg.params, dc.r_star + 1.0)
        assert step_cap["contraction_factor"] < 1.0
        point = report["checks"][3]["witness"]
        assert point["certified"] is True
        assert point["kappa"] == pytest.approx(-0.9592, abs=1e-4)
        assert point["max_F"] <= stepping.EQUILIBRIUM_TOL
        assert 1 <= point["newton_iterations"] <= 10

    def test_three_times_the_forcing_passes_point_attractor_uncertified(self):
        cfg = default_config(params=default_params(f_scale=3.0))
        cfg.grids = GridConfig(eps_list=(0.003,))
        ok, report = verify(cfg)
        assert ok
        check = report["checks"][-1]
        assert check["check"] == "point_attractor"
        witness = check["witness"]
        # Newton converges, but J(u*) is not contracting enough: kappa > 0
        assert witness["certified"] is False
        assert witness["kappa"] == pytest.approx(0.3587, abs=1e-4)
        assert witness["max_F"] <= stepping.EQUILIBRIUM_TOL
        assert 1 <= witness["newton_iterations"] <= 10

    def test_uncertified_config_passes_point_attractor_unsolved(
            self, monkeypatch):
        """An overflowing Newton solve leaves no zero to certify: the config
        is uncertified, with the solver's error, and point_attractor still
        passes."""
        def overflow(*args, **kwargs):
            raise NonFinite("Newton iterate overflowed")

        monkeypatch.setattr(experiments, "equilibrium", overflow)
        cfg = default_config(params=default_params(f_scale=3.0))
        cfg.grids = GridConfig(eps_list=(0.003,))
        ok, report = verify(cfg)
        assert ok
        check = report["checks"][-1]
        assert check["check"] == "point_attractor"
        witness = check["witness"]
        assert (witness["certified"], witness["kappa"],
                witness["newton_iterations"], witness["max_F"]) == \
            (False, None, None, None)
        assert witness["error"] == "Newton iterate overflowed"
        json.dumps(report)

    def test_newton_failure_leaves_point_attractor_uncertified(
            self, monkeypatch):
        """Certification needs a converged Newton solve, so a Newton failure
        on the default (otherwise certified) config leaves it uncertified,
        with the solver's residual and iteration count, and point_attractor
        still passes."""
        def fail(*args, **kwargs):
            raise NoConvergence(50, 3e-9)

        monkeypatch.setattr(experiments, "equilibrium", fail)
        ok, report = verify(default_config())
        assert ok
        check = report["checks"][-1]
        assert (check["check"], check["status"]) == ("point_attractor", "pass")
        assert (check["witness"]["certified"],
                check["witness"]["kappa"]) == (False, None)
        assert (check["witness"]["newton_iterations"],
                check["witness"]["max_F"]) == (50, 3e-9)
        json.dumps(report)

    @pytest.mark.parametrize("breach", ["iteration_cap", "ball", "energy"])
    def test_broken_solver_contract_fails(self, breach, monkeypatch,
                                          tmp_path):
        """A step of the sampled stack over the iteration cap, out of the
        absorbing ball or above the energy recurrence fails
        solver_contract, ends the report there and makes the CLI exit 1."""
        r_star = derived_constants(default_params()).r_star
        calls = []

        def breaks(V, info):
            if breach == "iteration_cap":
                # the cap at the default config is 16
                return V, dataclasses.replace(info, iterations=17)
            norms = np.linalg.norm(V, axis=1, keepdims=True)
            if breach == "ball":
                # (a row out of the ball also breaks the energy recurrence)
                W = V.copy()
                W[0] *= 2.0 * r_star / norms[0]
                return W, info
            # every row on the sphere of radius r*: inside the ball's
            # tolerance, above the recurrence's bound
            return V * (r_star / norms), info

        def steps(p, cfg, U, n_steps, mode):
            calls.append((U.shape, n_steps, mode))
            for V, info in stepping.implicit_steps(p, cfg, U, n_steps, mode):
                yield breaks(V, info)

        monkeypatch.setattr(experiments, "implicit_steps", steps)
        ok, report = verify(default_config())
        assert ok is False
        assert calls == [((20, 65), 1, "window")]
        check = report["checks"][-1]
        assert (check["check"], check["status"]) == ("solver_contract",
                                                     "fail")
        assert check["witness"]["iteration_cap"] == 16
        assert all(c["status"] == "pass" for c in report["checks"][:-1])
        assert main(["--out", str(tmp_path), "verify"]) == 1
        written = json.loads((tmp_path / "verify_report.json").read_text())
        assert written["checks"][-1] == check


    @settings(max_examples=80, deadline=None, derandomize=True,
              database=None)
    @given(f_scale=st.floats(0.0, 16.0), lam_over=st.floats(0.05, 40.0),
           eps_frac=st.floats(1e-9, 1.0), u_frac=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_the_energy_bound_keeps_the_ball(self, f_scale, lam_over,
                                             eps_frac, u_frac, seed):
        """The implication that lets verify drop a separate ball check: for
        a start row with ||u|| <= r* and eps <= eps*, every ||v|| whose
        square meets the energy bound is at most r* + 10*fp_tol."""
        p = default_params(f_scale=f_scale, lam=6.5625 + lam_over)
        dc = derived_constants(p)
        eps = eps_frac * dc.eps_star
        fp_tol = StepConfig(eps=eps).fp_tol
        u = np.random.default_rng(seed).standard_normal((1, 65))
        u *= u_frac * dc.r_star / np.linalg.norm(u)
        bound = experiments._energy_bound(p, dc, eps, u, fp_tol)[0]
        # the largest norm whose square meets the bound
        v = math.sqrt(bound)
        while np.nextafter(v, math.inf) ** 2 <= bound:
            v = np.nextafter(v, math.inf)
        while v ** 2 > bound:
            v = np.nextafter(v, 0.0)
        assert v <= dc.r_star + 10 * fp_tol


class TestCli:
    def test_simulate_writes_table(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "simulate", "--steps", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "simulate.csv" in out
        lines = (tmp_path / "simulate.csv").read_text().splitlines()
        assert lines[0] == "step,norm"
        assert len(lines) == 7

    @pytest.mark.parametrize("horizon, h", [("1", "1e-300"),
                                            ("100", "1e-7"), ("10", "1e-6")])
    def test_ou_path_over_the_sample_budget_exits_2(self, tmp_path,
                                                     monkeypatch, capsys,
                                                     horizon, h):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled a path over the budget")

        monkeypatch.setattr(cli, "ou_path", refuse)
        assert main(["--out", str(tmp_path / "out"), "ou-path",
                     "--horizon", horizon, "--h", h]) == 2
        assert "sample budget" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_ou_path_subcommand(self, tmp_path):
        rc = main(["--out", str(tmp_path), "ou-path", "--horizon", "5",
                   "--h", "0.01"])
        assert rc == 0
        doc = json.loads((tmp_path / "ou_path.json").read_text())
        assert doc["t_max"] == 0.0 and len(doc["z"]) == 501

    def test_bad_config_file_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {"gamma": 2.0}}))
        rc = main(["--config", str(cfg), "--out", str(tmp_path),
                   "simulate", "--steps", "1"])
        assert rc == 2

    def test_missing_config_file_exits_2(self, tmp_path):
        rc = main(["--config", str(tmp_path / "nope.json"),
                   "simulate", "--steps", "1"])
        assert rc == 2

    def test_dissipativity_violation_exits_3(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {"lam": 1.0},
                                   "grids": {"eps_list": [0.001]}}))
        rc = main(["--config", str(cfg), "--out", str(tmp_path),
                   "converge-eps"])
        assert rc == 3

    def test_all_realizations_excluded_exits_3(self, tmp_path):
        doc = {"grids": {"sigma_list": [40.0]},
               "noise": {"realizations": 2, "pullback_T": 2.0}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        # every pullback overflows, so no realization is left to average
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFinite, match="sigma=40.0"):
                run_noise_convergence(load_config(str(cfg_path)))
            rc = main(["--config", str(cfg_path), "--out", str(tmp_path),
                       "converge-noise"])
        assert rc == 3

    def test_seed_override(self, tmp_path):
        cfg = load_config(None, seed=99)
        assert (cfg.master_seed, cfg.attractor.seed,
                cfg.noise.master_seed) == (99, 99, 99)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "master_seed": 5, "noise_m": 4,
            "attractor": {"seed": 5, "sample_count": 3},
            "noise": {"master_seed": 5, "realizations": 2}}))
        cfg = load_config(str(cfg_path), seed=99)
        assert (cfg.master_seed, cfg.noise_m) == (99, 4)
        assert (cfg.attractor.seed, cfg.attractor.sample_count) == (99, 3)
        assert (cfg.noise.master_seed, cfg.noise.realizations) == (99, 2)

    @staticmethod
    def seeded_clouds(tmp_path, doc, eps):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        clouds = []
        for seed in (5, 7):
            out = tmp_path / str(seed)
            assert main(["--config", str(cfg_path), "--seed", str(seed),
                         "--out", str(out), "attractor", "--eps", eps]) == 0
            clouds.append(json.loads(
                (out / f"cloud_eps{eps}.json").read_text()))
        return clouds

    def test_seed_override_changes_the_attractor_cloud(self, tmp_path):
        # three times the forcing: not certified, so the cloud is evolved
        # from the seed's ball sample
        clouds = self.seeded_clouds(tmp_path, {
            "params": {"f": {"offset": 0, "values": [4.3125]}},
            "attractor": {"sample_count": 2}, "window_half_width": 4},
            "0.003")
        assert [c["meta"]["certified"] for c in clouds] == [False, False]
        clouds = [c["points"] for c in clouds]
        assert clouds[0] != clouds[1]

    def test_certified_attractor_does_not_depend_on_the_seed(self, tmp_path):
        clouds = self.seeded_clouds(tmp_path, {
            "attractor": {"sample_count": 2}, "window_half_width": 4},
            "0.01")
        assert [c["meta"]["certified"] for c in clouds] == [True, True]
        assert [c["meta"]["seed"] for c in clouds] == [5, 7]
        assert clouds[0]["points"] == clouds[1]["points"]
        assert len(clouds[0]["points"]) == 1

    def test_yaml_config(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text("params:\n  lam: 9.0\nmaster_seed: 5\n")
        cfg = load_config(str(cfg_path))
        assert cfg.params.lam == 9.0
        assert cfg.master_seed == 5

    def test_verify_subcommand_exit_zero(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "verify"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dissipativity" in out
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert all(c["status"] == "pass" for c in report["checks"])
        # the output directory is no part of the configuration or its hash
        assert main(["--out", str(tmp_path / "b"), "verify"]) == 0
        again = json.loads((tmp_path / "b" / "verify_report.json").read_text())
        assert again["config_hash"] == report["config_hash"]

    @pytest.mark.parametrize("doc, failing", [
        # eps* = 0.01026 at the default parameters
        ({"grids": {"eps_list": [0.02, 0.005]}}, "step_cap"),
        ({"grids": {"eps_list": [1.0]}}, "step_cap"),
        ({"grids": {"eps_list": []}}, "step_cap"),
        ({"params": {"lam": 6.0}}, "dissipativity"),
    ])
    def test_verify_failing_check_exits_1_with_report(self, tmp_path, doc,
                                                      failing):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        rc = main(["--config", str(cfg_path), "--out", str(tmp_path),
                   "verify"])
        assert rc == 1
        report = json.loads((tmp_path / "verify_report.json").read_text())
        # the failing check is the last one run
        assert report["checks"][-1]["check"] == failing
        assert report["checks"][-1]["status"] == "fail"
        assert all(c["status"] == "pass" for c in report["checks"][:-1])

    def test_dt_ref_is_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"reference": {"dt_ref": 5e-4}}))
        assert main(["--config", str(cfg_path), "--out", str(tmp_path),
                     "verify"]) == 2

    @pytest.mark.parametrize("doc", [
        {"params": {"lamda": 9}},
        {"windw_half_width": 32},
        {"params": {"f": {"ofset": 1, "values": [1.0]}}},
        # the noise intensities are grids.sigma_list; noise has no sigma
        {"noise": {"sigma": 0.2}},
        # the eps-study's reference step is min(eps_list) / 5, and --out
        # names the output directory
        {"reference": {"eps_ref": 0.001}},
        {"output_dir": "x"},
    ])
    def test_unknown_key_exits_2(self, tmp_path, doc):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["--config", str(cfg_path), "--out", str(tmp_path),
                     "simulate", "--steps", "1"]) == 2

    def test_file_keys_replace_defaults(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "params": {"lam": 9, "f": {"offset": 1, "values": [2]}},
            "grids": {"m_list": [4, 8]}, "noise": {"realizations": 5},
            "window_half_width": 32}))
        cfg = load_config(str(cfg_path))
        assert cfg.params == default_params(lam=9.0).replace(
            f=LatticeWindow.basis(1, 2.0))
        assert cfg.grids == GridConfig(m_list=(4, 8))
        assert cfg.noise == NoiseConfig(realizations=5)
        assert cfg.window_half_width == 32
        # an int coefficient hashes as the float it is converted to
        cfg_path.write_text(json.dumps({"params": {"lam": 8}}))
        assert config_hash(load_config(str(cfg_path))) == \
            config_hash(default_config())

    @pytest.mark.parametrize("command, grids", [
        ("converge-dim", {"eps_list": []}),
        ("converge-dim", {"m_list": []}),
        ("error-order", {"eps_error_list": []}),
        ("converge-noise", {"sigma_list": []}),
        ("converge-eps", {"eps_list": []}),
    ])
    def test_empty_grid_exits_2_before_any_integration(self, tmp_path,
                                                       monkeypatch, command,
                                                       grids):
        def refuse(*args, **kwargs):
            raise AssertionError("integrated an empty study")

        monkeypatch.setattr(_grid, "rk4", refuse)
        monkeypatch.setattr(_grid, "picard_solve", refuse)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"grids": grids}))
        assert main(["--config", str(cfg_path), "--out", str(tmp_path),
                     command]) == 2
        assert not (tmp_path / f"{command}.csv").exists()

    @pytest.mark.parametrize("command, doc", [
        ("simulate", {"window_half_width": "32"}),
        ("converge-noise", {"noise_m": 0}),
        ("verify", {"grids": {"eps_list": "0.01"}}),
        ("converge-noise", {"pullback_points": -1}),
        ("verify", {"master_seed": "x"}),
        # the eps-study derives its reference step from eps_list
        ("converge-eps", {"grids": {"eps_list": ["x"]}}),
        ("attractor", {"attractor": {"sample_count": 2.5}}),
        ("converge-noise", {"noise": {"realizations": 2.5}}),
        ("converge-eps", {"grids": {"eps_list": [-1.0]}}),
        # above the unforced eps* = 0.02128 the error-order study runs
        ("error-order", {"grids": {"eps_error_list": [0.5, 0.25]}}),
        # a truncated system of 3 sites has no tail index k with 2k <= m
        ("converge-dim", {"grids": {"m_list": [1, 8]}}),
        # 0.003 does not divide the error-order horizon T = 0.5
        ("error-order", {"grids": {"eps_error_list": [0.003]}}),
        # shorter than half the pullback step min(eps*, h_path) = 0.01
        ("converge-noise", {"noise": {"pullback_T": 0.001}}),
        # one eps cannot give an order
        ("error-order", {"grids": {"eps_error_list": [0.02]}}),
        # the radius's trapezoid bias estimate is 431, far above 1e-3 (the
        # sigma = 0 radius would be 36.9 against the closed form 2)
        ("converge-noise", {"noise": {"h_path": 50}}),
    ])
    def test_bad_value_exits_2(self, tmp_path, monkeypatch, command, doc):
        def refuse(*args, **kwargs):
            raise AssertionError("integrated with a bad config")

        monkeypatch.setattr(_grid, "rk4", refuse)
        monkeypatch.setattr(_grid, "picard_solve", refuse)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["--config", str(cfg_path), "--out", str(tmp_path),
                     command]) == 2
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("command", ["simulate", "verify", "attractor"])
    @pytest.mark.parametrize("doc", [
        {"window_half_width": 4,
         "params": {"f": {"offset": 5, "values": [1.0]}}},
        {"window_half_width": 4,
         "params": {"f": {"offset": -6, "values": [1.0, 1.0]}}},
        # the default half-width is 128
        {"params": {"f": {"offset": 200, "values": [1.0]}}},
    ])
    def test_forcing_outside_the_window_exits_2(self, tmp_path, monkeypatch,
                                                capsys, command, doc):
        self.refused_forcing(tmp_path, monkeypatch, capsys, command, doc)

    def test_forcing_outside_the_bound_sweep_window_exits_2(
            self, tmp_path, monkeypatch, capsys):
        # inside the default half-width 128, outside the sweep's 32
        doc = {"params": {"f": {"offset": 40, "values": [1.0]}}}
        self.refused_forcing(tmp_path, monkeypatch, capsys, "bounds", doc)

    @staticmethod
    def refused_forcing(tmp_path, monkeypatch, capsys, command, doc):
        def refuse(*args, **kwargs):
            raise AssertionError("integrated a forcing the window cannot hold")

        monkeypatch.setattr(_grid, "field", refuse)
        monkeypatch.setattr(_grid, "picard_solve", refuse)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["--config", str(cfg_path), "--out", str(tmp_path),
                     command]) == 2
        err = capsys.readouterr().err
        assert "params.f has support" in err and "Traceback" not in err
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_forcing_on_the_window_edge_is_accepted(self):
        cfg = cli._config_from_dict({
            "window_half_width": 4,
            "params": {"f": {"offset": -4, "values": [1.0] + [0.0] * 7
                             + [1.0]}}})
        assert cfg.params.f.support == (-4, 4)

    @pytest.mark.parametrize("argv", [
        ["simulate", "--steps", "-1"],
        ["simulate", "--eps", "-0.1"],
        ["simulate", "--amplitude", "nan"],
        ["simulate", "--steps", "x"],
        ["attractor", "--eps", "0"],
        ["ou-path", "--h", "0"],
        ["ou-path", "--horizon", "-5"],
        # every table is written as CSV; there is no --format
        ["--format", "json", "verify"],
        # --out names the one output directory, and "" names none
        ["--out", "", "verify"],
    ])
    def test_bad_subcommand_argument_exits_2(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(tmp_path / "out")] + argv)
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("attractor", [
        {"burn_in": 1}, {"stabilization_gap": 3},
        {"burn_in": 1, "stabilization_gap": 3}])
    def test_derived_attractor_lengths_exit_2_before_any_integration(
            self, tmp_path, monkeypatch, capsys, attractor):
        def refuse(*args, **kwargs):
            raise AssertionError("integrated with a derived length set")

        monkeypatch.setattr(_grid, "rk4", refuse)
        monkeypatch.setattr(_grid, "picard_solve", refuse)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"attractor": attractor}))
        with pytest.raises(ConfigError, match="derived"):
            load_config(str(cfg_path))
        assert main(["--config", str(cfg_path), "--out", str(tmp_path),
                     "attractor", "--eps", "0.01"]) == 2
        assert "ceil(2/(eps*(lam - lam*)))" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_negative_seed_exits_2(self, tmp_path):
        assert main(["--seed", "-1", "--out", str(tmp_path), "verify"]) == 2

    TINY = {"grids": {"eps_list": [0.01], "eps_error_list": [0.02, 0.01],
                      "m_list": [2, 4], "sigma_list": [0.1, 0.0]},
            "attractor": {"sample_count": 2},
            "noise": {"realizations": 2, "pullback_T": 1.0},
            "window_half_width": 8, "noise_m": 4, "pullback_points": 2}
    TABLES = {"converge-eps": "eps_convergence",
              "converge-dim": "dim_convergence",
              "converge-noise": "noise_convergence",
              "error-order": "error_order", "bounds": "bounds"}

    def run_every_subcommand(self, tmp_path, capsys, doc, eps):
        """Run the attractor subcommand at eps and every study; returns the
        cloud's meta and a reader of each table's steps_evolved."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        runs = [(["attractor", "--eps", eps], [f"cloud_eps{eps}.json"])] + [
            ([cmd], [f"{name}.csv", f"{name}.meta.json"])
            for cmd, name in self.TABLES.items()]
        for argv, files in runs:
            assert main(["--config", str(cfg_path), "--out", str(out)]
                        + argv) == 0, argv
            printed = capsys.readouterr().out
            for name in files:
                assert (out / name).is_file(), name
                assert str(out / name) in printed
        assert len(os.listdir(out)) == 11

        def steps(name):
            return json.loads(
                (out / f"{name}.meta.json").read_text())["steps_evolved"]

        meta = json.loads((out / f"cloud_eps{eps}.json").read_text())["meta"]
        return meta, steps

    def test_every_subcommand_runs_at_a_tiny_config(self, tmp_path, capsys):
        # three times the forcing, so the clouds are evolved; eps* = 0.0036
        # there
        doc = dict(self.TINY, params={"f": {"offset": 0, "values": [4.3125]}},
                   grids=dict(self.TINY["grids"], eps_list=[0.003]))
        meta, steps = self.run_every_subcommand(tmp_path, capsys, doc,
                                                "0.003")
        # every cloud says how it stopped, every table how long each of its
        # clouds was evolved; a round is ceil(2/(0.003 * 1.4375)) steps
        assert meta["certified"] is False
        assert meta["steps_evolved"] == (meta["rounds"] + 1) * 464
        assert {"stabilized_distance", "contraction_ratio"} <= set(meta)
        prov = json.loads(
            (tmp_path / "out" / "eps_convergence.meta.json").read_text())
        assert prov["certified"] is False and prov["kappa"] > 0
        assert prov["dt_ref"] == 0.003 / 5
        assert "distances" not in prov
        assert set(steps("eps_convergence")) == {"reference", "rows"}
        assert len(steps("eps_convergence")["rows"]) == 1
        assert len(steps("dim_convergence")["rows"]) == 2
        assert steps("noise_convergence")["deterministic"] > 0
        assert {len(v) for v in steps("bounds").values()} == {12}

    def test_every_subcommand_runs_at_a_tiny_certified_config(self, tmp_path,
                                                              capsys):
        meta, steps = self.run_every_subcommand(tmp_path, capsys, self.TINY,
                                                "0.01")
        # the certified cloud is the Newton zero, evolved by no step
        assert meta["certified"] is True and meta["kappa"] < 0
        assert (meta["steps_evolved"], meta["rounds"],
                meta["contraction_ratio"]) == (0, 0, None)
        assert meta["max_F"] <= stepping.EQUILIBRIUM_TOL
        assert steps("eps_convergence") == {"reference": 0, "rows": [0]}
        # the eps-study compares u* with itself, and says so
        prov = json.loads(
            (tmp_path / "out" / "eps_convergence.meta.json").read_text())
        assert prov["certified"] is True and prov["kappa"] == meta["kappa"]
        assert prov["dt_ref"] == 0.01 / 5
        assert prov["distances"].startswith("0 by construction")
        table = (tmp_path / "out" / "eps_convergence.csv").read_text()
        assert [row.split(",")[1:3] for row in table.splitlines()[1:]] == \
            [["0", "0"]]
        assert steps("dim_convergence") == {"window": 0, "rows": [0, 0]}
        assert steps("noise_convergence") == {"deterministic": 0}
        # every (c, lam) row of the sweep is certified
        assert {len(v) for v in steps("bounds").values()} == {12}
        assert {n for v in steps("bounds").values() for n in v} == {0}


class TestStepCap:
    """validate, verify's step_cap and the solver share one eps <= eps*."""

    @pytest.mark.parametrize("factor, allowed", [
        (1.0, True), (1.0 + 5e-13, False)])
    def test_all_three_agree(self, factor, allowed, tmp_path, monkeypatch):
        cfg = default_config()
        dc = derived_constants(cfg.params)
        eps = dc.eps_star * factor
        assert (eps <= dc.eps_star) == allowed
        cfg.grids = GridConfig(eps_list=(eps,))
        step_cfg = StepConfig(eps=eps)
        u0 = LatticeWindow.basis(0, 0.5)
        if allowed:
            cfg.validate()
            implicit_step_info(cfg.params, step_cfg, u0, 16)
        else:
            with pytest.raises(StepTooLarge):
                cfg.validate()
            with pytest.raises(StepTooLarge):
                implicit_step_info(cfg.params, step_cfg, u0, 16)
        checks = {c["check"]: c["status"] for c in verify(cfg)[1]["checks"]}
        assert checks["step_cap"] == ("pass" if allowed else "fail")
        if not allowed:
            # the attractor subcommand refuses the same eps before integrating
            def refuse(*args, **kwargs):
                raise AssertionError("integrated above eps*")

            monkeypatch.setattr(_grid, "rk4", refuse)
            monkeypatch.setattr(_grid, "picard_solve", refuse)
            assert main(["--out", str(tmp_path), "attractor",
                         "--eps", repr(eps)]) == 2
            assert os.listdir(tmp_path) == []

    def test_step_too_large_is_a_config_error(self):
        assert issubclass(StepTooLarge, ConfigError)

    @pytest.mark.parametrize("command", [
        "attractor", "converge-eps", "converge-dim", "converge-noise",
        "error-order"])
    def test_every_subcommand_exits_2_above_the_cap(self, tmp_path, capsys,
                                                    monkeypatch, command):
        def refuse(*args, **kwargs):
            raise AssertionError("integrated above eps*")

        monkeypatch.setattr(_grid, "rk4", refuse)
        monkeypatch.setattr(_grid, "picard_solve", refuse)
        # eps* is 0.01026 forced and 0.02128 for the unforced error-order
        # study
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "grids": {"eps_list": [0.02], "eps_error_list": [0.05]}}))
        extra = ["--eps", "0.02"] if command == "attractor" else []
        assert main(["--config", str(cfg_path), "--out", str(tmp_path),
                     command, *extra]) == 2
        assert "exceeds the contraction-safe cap" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["cfg.json"]
