import json
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
    ResultTable,
    default_config,
    default_params,
    run_noise_convergence,
    verify,
    write_table,
)
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
        assert acfg.burn_in == 1392  # ceil(20 / (0.01 * 1.4375))
        assert acfg.stabilization_gap == 140


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


class TestVerify:
    def test_default_config_passes(self):
        ok, report = verify(default_config(), pair_samples=60)
        failed = [c["check"] for c in report["checks"]
                  if c["status"] != "pass"]
        assert ok, f"failed checks: {failed}"
        assert len(report["checks"]) >= 12
        assert "config_hash" in report


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
        assert cfg.master_seed == 99

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
