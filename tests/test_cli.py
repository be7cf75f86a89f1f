import csv
import json
import os

import numpy as np
import pytest

from chemosteer.cli import (EXIT_CHECK_FAILED, EXIT_INVALID,
                            EXIT_NO_CONVERGENCE, EXIT_OK, main, run_selftest)
from chemosteer.config import (ConfigError, RunConfig, apply_override,
                               config_from_dict, initial_data, load_config)
from chemosteer.grid import build_domain

SMALL = [
    "--set", "domain.n_cells=24",
    "--set", "time.n_steps=24",
]


def run_cli(args, tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setenv("CHEMOSTEER_OUT", str(out))
    code = main(args)
    return code, out


def read_report(out):
    with open(out / "report.json") as fh:
        return json.load(fh)


class TestConfig:
    def test_defaults_roundtrip(self):
        cfg = RunConfig()
        again = config_from_dict(json.loads(cfg.canonical_json()))
        assert again.content_hash() == cfg.content_hash()

    def test_hash_changes_with_content(self):
        base = RunConfig()
        d = base.to_dict()
        d["hum"]["epsilon"] = 1e-3
        assert config_from_dict(d).content_hash() != base.content_hash()

    def test_unknown_keys_rejected(self):
        d = RunConfig().to_dict()
        d["hum"]["espilon"] = 1.0
        with pytest.raises(ConfigError):
            config_from_dict(d)
        with pytest.raises(ConfigError):
            config_from_dict({"no_such_section": {}})

    def test_validation_catches_geometry(self):
        d = RunConfig().to_dict()
        d["domain"]["x0"] = 0.9
        with pytest.raises(ConfigError):
            config_from_dict(d)

    def test_load_config_bad_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_apply_override_types(self):
        d = RunConfig().to_dict()
        apply_override(d, "hum.epsilon", "1e-3")
        apply_override(d, "fixed_point.initial_guess", "u0-constant")
        apply_override(d, "carleman.freeze_after_first", "true")
        cfg = config_from_dict(d)
        assert cfg.hum.epsilon == 1e-3
        assert cfg.fixed_point.initial_guess == "u0-constant"
        assert cfg.carleman.freeze_after_first is True

    def test_initial_data_shapes(self, tmp_path):
        dom = build_domain(24, (0.3, 0.7), 0.5)
        cfg = RunConfig()
        u = initial_data(cfg, dom)
        assert u.shape == (24,) and u.min() >= 0.0
        d = cfg.to_dict()
        d["initial_data"]["shape"] = "file"
        d["initial_data"]["file_path"] = str(tmp_path / "u0.txt")
        np.savetxt(d["initial_data"]["file_path"], np.ones(24))
        cfg2 = config_from_dict(d)
        assert np.allclose(initial_data(cfg2, dom), cfg2.initial_data.amplitude)


class TestSelftest:
    def test_all_checks_pass(self):
        ok, checks = run_selftest()
        assert ok
        assert len(checks) >= 15

    def test_fault_injection_fails_duality(self):
        ok, checks = run_selftest(corrupt_adjoint=True)
        assert not ok
        failed = {c["name"] for c in checks if not c["ok"]}
        assert "duality-terminal" in failed and "duality-control" in failed

    def test_cli_exit_codes(self, capsys):
        assert main(["selftest"]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out
        assert main(["selftest", "--inject-adjoint-fault"]) == EXIT_CHECK_FAILED


class TestCommands:
    def test_linear_artifacts(self, tmp_path, monkeypatch):
        code, out = run_cli(["linear"] + SMALL, tmp_path, monkeypatch)
        assert code == EXIT_OK
        for name in ("u.csv", "f.csv", "v.csv", "weights.csv", "report.json"):
            assert (out / name).exists()
        report = read_report(out)
        assert report["config"]["domain"]["n_cells"] == 24
        assert "config_hash" in report
        assert report["reports"]["hum"]["cg_converged"]
        reports = report["reports"]
        assert reports["carleman"]["constraints_certified"] is True
        assert reports["carleman"]["log_w_peak"] < 0.0
        assert reports["m_matrix"]["is_m_matrix"] is True
        history = reports["hum"]["residual_history"]
        assert len(history) == reports["hum"]["cg_iters"]
        assert history[-1] == reports["hum"]["cg_residual"]

        with open(out / "u.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["t", "x", "value"]
        assert len(rows) == 25 * 24
        # level-major ordering: the first 24 rows share t = 0
        assert len({r["t"] for r in rows[:24]}) == 1

    def test_weights_csv_columns(self, tmp_path, monkeypatch):
        _, out = run_cli(["linear"] + SMALL, tmp_path, monkeypatch)
        with open(out / "weights.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["t_mid", "x", "alpha", "w"]
        assert len(rows) == 24 * 24
        assert all(float(r["alpha"]) < 0.0 for r in rows[:48])

    def test_nonlinear_run(self, tmp_path, monkeypatch):
        args = ["nonlinear"] + SMALL + ["--set", "initial_data.amplitude=1e-3"]
        code, out = run_cli(args, tmp_path, monkeypatch)
        assert code == EXIT_OK
        report = read_report(out)
        fp = report["reports"]["fixed_point"]
        assert fp["converged"] and fp["in_K"]
        assert fp["verification_sweeps"]["capped_steps"] == 0
        assert fp["verification_sweeps"]["sweeps"] >= 24
        reports = report["reports"]
        assert reports["carleman"]["constraints_certified"] is True
        assert reports["carleman"]["log_w_peak"] < 0.0
        assert "is_m_matrix" in reports["m_matrix"]
        assert len(reports["hum"]["residual_history"]) == reports["hum"]["cg_iters"]
        with open(out / "history.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == fp["iterations"]

    def test_nonlinear_no_convergence_exit(self, tmp_path, monkeypatch):
        args = ["nonlinear"] + SMALL + ["--set", "fixed_point.max_iters=1",
                                        "--set", "fixed_point.tol=1e-14"]
        code, _ = run_cli(args, tmp_path, monkeypatch)
        assert code == EXIT_NO_CONVERGENCE

    def test_observability(self, tmp_path, monkeypatch):
        args = ["observability", "--samples", "5"] + SMALL
        code, out = run_cli(args, tmp_path, monkeypatch)
        assert code == EXIT_OK
        per_t = read_report(out)["reports"]["observability"]
        assert len(per_t) == 1
        cm = per_t[0]["constant_mode"]
        assert cm["computed_ratio"] == pytest.approx(cm["closed_form_ratio"],
                                                     rel=1e-10)

    def test_sweep_eps(self, tmp_path, monkeypatch):
        args = ["sweep-eps", "--eps-list", "1e-2", "1e-4"] + SMALL
        code, out = run_cli(args, tmp_path, monkeypatch)
        assert code == EXIT_OK
        rows = read_report(out)["reports"]["eps_sweep"]
        assert rows[0]["terminal_norm"] > rows[1]["terminal_norm"]
        assert (out / "eps_sweep.csv").exists()

    def test_oracle_check(self, tmp_path, monkeypatch, capsys):
        args = ["oracle-check", "--set", "domain.n_cells=8",
                "--set", "domain.omega_a=0.25", "--set", "domain.omega_b=0.75",
                "--set", "time.n_steps=8"]
        code, out = run_cli(args, tmp_path, monkeypatch)
        assert code == EXIT_OK
        assert "PASS" in capsys.readouterr().out
        assert read_report(out)["reports"]["oracle_check"]["passed"]

    def test_oracle_check_rejects_large_grid(self, tmp_path, monkeypatch):
        code, _ = run_cli(["oracle-check"], tmp_path, monkeypatch)
        assert code == EXIT_INVALID

    def test_invalid_override_exit(self, tmp_path, monkeypatch):
        code, _ = run_cli(["linear", "--set", "hum.epsilon=-1"],
                          tmp_path, monkeypatch)
        assert code == EXIT_INVALID
        code, _ = run_cli(["linear", "--set", "nonsense"],
                          tmp_path, monkeypatch)
        assert code == EXIT_INVALID

    def test_config_file_plus_override(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        d = RunConfig().to_dict()
        d["domain"]["n_cells"] = 24
        d["time"]["n_steps"] = 24
        cfg_path.write_text(json.dumps(d))
        code, out = run_cli(["linear", "--config", str(cfg_path),
                             "--set", "hum.epsilon=1e-4"],
                            tmp_path, monkeypatch)
        assert code == EXIT_OK
        assert read_report(out)["config"]["hum"]["epsilon"] == 1e-4
