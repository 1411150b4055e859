import json
import math
import os

import numpy as np
import pytest

from bhlattice import (
    AttractorConfig,
    ConfigError,
    GridConfig,
    LatticeWindow,
    NoiseConfig,
    NonFinite,
    PointCloud,
    ResultTable,
    StepConfig,
    StepTooLarge,
    default_config,
    default_params,
    derived_constants,
    global_error,
    hausdorff_sym,
    implicit_step_info,
    l_bound,
    local_error,
    m_bound,
    run_error_order,
    run_noise_convergence,
    verify,
    write_table,
)
from bhlattice import _grid, experiments, stepping
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

    def test_rejects_coarse_reference(self):
        cfg = default_config()
        cfg.reference.eps_ref = 0.01
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
        p, eps = default_params(), 0.01
        base = self.acceptance_attractor_cfg()
        A = experiments.implicit_attractor(p, eps, base, half_width, mode)
        gap = attractor_config_for_eps(
            base, eps, p.lam - derived_constants(p).lambda_star
        ).stabilization_gap
        assert A.meta["steps_evolved"] == (A.meta["rounds"] + 1) * gap
        later = stepping.advance_grid(p, StepConfig(eps=eps), A.points,
                                      5 * gap, mode)
        moved = hausdorff_sym(A, PointCloud(mode, half_width, later))
        assert moved <= base.stabilization_tol

    def test_round_over_budget_is_refused_before_any_step(self, tmp_path,
                                                          monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("advanced a cloud over the round budget")

        monkeypatch.setattr(experiments, "advance_grid", refuse)
        monkeypatch.setattr(_grid, "rk4", refuse)
        monkeypatch.setattr(_grid, "picard_solve", refuse)
        # lam - lam* = 1e-5: a round at eps = 0.005 is 4e7 steps
        lam = 6.5625 + 1e-5
        p = default_params(f_scale=0.0, lam=lam)
        base = AttractorConfig(sample_count=2)
        with pytest.raises(ConfigError, match=r"eps=0\.005 .* takes 4e\+07"):
            experiments.implicit_attractor(p, 0.005, base, 4)
        with pytest.raises(ConfigError, match="above the budget"):
            experiments.flow_attractor(p, 0.005, base, 4)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "params": {"lam": lam, "f": {"offset": 0, "values": []}}}))
        assert main(["--config", str(cfg_path), "--out", str(tmp_path),
                     "attractor", "--eps", "0.005"]) == 2
        assert os.listdir(tmp_path) == ["cfg.json"]


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
        paths = write_table(table, str(tmp_path), "csv")
        assert sorted(os.path.basename(p) for p in paths) == \
            ["demo.csv", "demo.meta.json"]
        meta = json.loads((tmp_path / "demo.meta.json").read_text())
        assert meta["config_hash"] == "ab"

    def test_write_json(self, tmp_path):
        table = ResultTable("demo", {"x": [1.0]}, {"k": 1})
        (path,) = write_table(table, str(tmp_path), "json")
        doc = json.loads(open(path).read())
        assert doc["columns"]["x"] == [1.0]

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError):
            write_table(ResultTable("t", {"x": [1]}, {}), str(tmp_path), "xml")


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

    def test_sigma_slope_needs_two_positive_sigmas(self):
        table = run_noise_convergence(self.small_config((0.2, 0.0)))
        assert table.provenance["sigma_slope"] is None


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
        reference steps eps/25, global reference step min(eps)/25."""
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
        dt_glob = min(self.EPS) / 25
        for eps in self.EPS:
            cols["local_max"].append(
                max(local_error(p, eps, y, eps / 25, 32) for y in samples))
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
        assert prov["dt_ref_local"] == [eps / 25 for eps in self.EPS]
        assert prov["dt_ref_global"] == min(self.EPS) / 25
        # one run to T at the smallest step, plus 25 steps per eps
        assert prov["reference_rk4_steps"] == 500 + 25 * len(self.EPS)
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

    def test_horizon_must_be_a_multiple_of_every_eps(self):
        with pytest.raises(ValueError, match="integer multiple"):
            run_error_order(self.config(), T=0.05, n_samples=1)


class TestVerify:
    def test_default_config_passes(self):
        ok, report = verify(default_config())
        failed = [c["check"] for c in report["checks"]
                  if c["status"] != "pass"]
        assert ok, f"failed checks: {failed}"
        assert "config_hash" in report
        assert [c["check"] for c in report["checks"]] == \
            ["dissipativity", "step_cap", "solver_contract"]
        cfg = default_config()
        dc = cfg.validate()
        step_cap = report["checks"][1]["witness"]
        assert step_cap["eps_star"] == dc.eps_star
        assert step_cap["eps_max"] == max(cfg.grids.eps_list)
        assert step_cap["contraction_factor"] == \
            max(cfg.grids.eps_list) * l_bound(cfg.params, dc.r_star + 1.0)
        assert step_cap["contraction_factor"] < 1.0


class TestCli:
    def test_simulate_writes_table(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "simulate", "--steps", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "simulate.csv" in out
        lines = (tmp_path / "simulate.csv").read_text().splitlines()
        assert lines[0] == "step,norm"
        assert len(lines) == 7

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

    def test_seed_override_changes_the_attractor_cloud(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"attractor": {"sample_count": 2},
                                        "window_half_width": 4}))
        clouds = []
        for seed in (5, 7):
            out = tmp_path / str(seed)
            assert main(["--config", str(cfg_path), "--seed", str(seed),
                         "--out", str(out), "attractor", "--eps", "0.01"]) == 0
            doc = json.loads((out / "cloud_eps0.01.json").read_text())
            clouds.append(doc["points"])
        assert clouds[0] != clouds[1]

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
            "grids": {"m_list": [4, 8]}, "noise": {"sigma": 0.2},
            "window_half_width": 32}))
        cfg = load_config(str(cfg_path))
        assert cfg.params == default_params(lam=9.0).replace(
            f=LatticeWindow.basis(1, 2.0))
        assert cfg.grids == GridConfig(m_list=(4, 8))
        assert cfg.noise == NoiseConfig(sigma=0.2)
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
        ("converge-eps", {"reference": {"eps_ref": "x"}}),
        ("attractor", {"attractor": {"sample_count": 2.5}}),
        ("converge-noise", {"noise": {"realizations": 2.5}}),
        ("converge-eps", {"reference": {"eps_ref": -1.0}}),
        # above the unforced eps* = 0.02128 the error-order study runs
        ("error-order", {"grids": {"eps_error_list": [0.5, 0.25]}}),
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

    @pytest.mark.parametrize("argv", [
        ["simulate", "--steps", "-1"],
        ["simulate", "--eps", "-0.1"],
        ["simulate", "--amplitude", "nan"],
        ["simulate", "--steps", "x"],
        ["attractor", "--eps", "0"],
        ["ou-path", "--h", "0"],
        ["ou-path", "--horizon", "-5"],
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

    def test_every_subcommand_runs_at_a_tiny_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "grids": {"eps_list": [0.01], "eps_error_list": [0.02, 0.01],
                      "m_list": [2, 4], "sigma_list": [0.1, 0.0]},
            "attractor": {"sample_count": 2},
            "noise": {"realizations": 2, "pullback_T": 1.0},
            "reference": {"eps_ref": 0.002},
            "window_half_width": 8, "noise_m": 4, "pullback_points": 2}))
        out = tmp_path / "out"
        tables = {"converge-eps": "eps_convergence",
                  "converge-dim": "dim_convergence",
                  "converge-noise": "noise_convergence",
                  "error-order": "error_order", "bounds": "bounds"}
        runs = [(["attractor", "--eps", "0.01"], ["cloud_eps0.01.json"])] + [
            ([cmd], [f"{name}.csv", f"{name}.meta.json"])
            for cmd, name in tables.items()]
        for argv, files in runs:
            assert main(["--config", str(cfg_path), "--out", str(out)]
                        + argv) == 0, argv
            printed = capsys.readouterr().out
            for name in files:
                assert (out / name).is_file(), name
                assert str(out / name) in printed
        assert len(os.listdir(out)) == 11
        # every cloud says how it stopped, every table how long each of its
        # clouds was evolved
        meta = json.loads((out / "cloud_eps0.01.json").read_text())["meta"]
        assert meta["steps_evolved"] == (meta["rounds"] + 1) * 140
        assert {"stabilized_distance", "contraction_ratio"} <= set(meta)

        def steps(name):
            return json.loads(
                (out / f"{name}.meta.json").read_text())["steps_evolved"]

        assert set(steps("eps_convergence")) == {"reference", "rows"}
        assert len(steps("eps_convergence")["rows"]) == 1
        assert len(steps("dim_convergence")["rows"]) == 2
        assert steps("noise_convergence")["deterministic"] > 0
        assert {len(v) for v in steps("bounds").values()} == {12}


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
        cfg.reference.eps_ref = eps / 5
        step_cfg = StepConfig(eps=eps)
        u0 = LatticeWindow.basis(0, 0.5)
        if allowed:
            cfg.validate()
            implicit_step_info(cfg.params, step_cfg, u0, 16)
        else:
            with pytest.raises(ConfigError):
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
