import csv
import inspect
import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

from chemosteer import cli, csvtext, nonlinear
from chemosteer.checks import run_checks
from chemosteer.cli import (EXIT_CHECK_FAILED, EXIT_INVALID,
                            EXIT_NO_CONVERGENCE, EXIT_OK, main)
from chemosteer.config import (ConfigError, RunConfig, apply_override,
                               config_from_dict, initial_data, read_config)
from chemosteer.grid import DomainSpec
from chemosteer.nonlinear import run_nonlinear

from conftest import read_report, run_fresh
from test_contract import named

SMALL = ["--set", "domain.n_cells=24", "--set", "time.n_steps=24"]
SIZE16 = ["--set", "domain.n_cells=16", "--set", "time.n_steps=16"]


def run_cli(args, tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setenv("CHEMOSTEER_OUT", str(out))
    code = main(args)
    return code, out


def reference_csv(header, rows):
    """The CSV text of rows with every float formatted on its own by %.17g."""
    return header + "".join(",".join("%.17g" % float(v) for v in row) + "\n"
                            for row in rows)


class TestConfig:
    def test_defaults_roundtrip(self):
        cfg = RunConfig()
        again = config_from_dict(json.loads(cfg.canonical_json()))
        assert again.content_hash() == cfg.content_hash()

    def test_default_echo_and_hash_pinned(self):
        cfg = RunConfig()
        assert cfg.canonical_json() == (
            '{"carleman":{"delta0":1.5,"freeze_after_first":false,"lambda_scale":1.0,'
            '"s_scale":1.0},"domain":{"n_cells":100,"omega_a":0.3,"omega_b":0.7,"x0":0.5},'
            '"fixed_point":{"initial_guess":"zero","max_iters":30,"tol":1e-06},'
            '"hum":{"cg_max_iters":500,"cg_tol":1e-10,"epsilon":1e-06},'
            '"initial_data":{"amplitude":0.01,"file_path":null,"shape":"cosine"},'
            '"output":{"dir":"out"},"physics":{"chi":1.0,"delta":1.0,"gamma":1.0},'
            '"seed":0,"time":{"T":1.0,"n_steps":200}}')
        assert cfg.content_hash() == (
            "104b25937736862fa9ec0ddcdb410795f051b88276e7e8a308dd26a62e6c2dfa")

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

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="^seed must be nonnegative, got -1$"):
            config_from_dict({"seed": -1})
        assert config_from_dict({"seed": 0}).seed == 0

    def test_load_config_bad_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            read_config(str(p))

    def test_apply_override_types(self):
        d = RunConfig().to_dict()
        apply_override(d, "hum.epsilon=1e-3")
        apply_override(d, "fixed_point.initial_guess=u0-constant")
        apply_override(d, "carleman.freeze_after_first=true")
        cfg = config_from_dict(d)
        assert cfg.hum.epsilon == 1e-3
        assert cfg.fixed_point.initial_guess == "u0-constant"
        assert cfg.carleman.freeze_after_first is True

    def test_initial_data_shapes(self, tmp_path):
        cfg = RunConfig(domain=DomainSpec(24))
        u = initial_data(cfg)
        assert u.shape == (24,) and u.min() >= 0.0
        d = cfg.to_dict()
        d["initial_data"]["shape"] = "file"
        d["initial_data"]["file_path"] = str(tmp_path / "u0.txt")
        np.savetxt(d["initial_data"]["file_path"], np.ones(24))
        cfg2 = config_from_dict(d)
        assert np.allclose(initial_data(cfg2), cfg2.initial_data.amplitude)


class TestSelftest:
    def test_all_checks_pass(self):
        results = run_checks()
        assert all(ok for *_, ok in results)
        assert len(results) == 18

    def test_fault_injection_fails_duality(self):
        failed = {name for name, *_, ok in run_checks(corrupt_adjoint=True) if not ok}
        assert failed == {"duality-terminal", "duality-control"}

    def test_cli_exit_codes(self, capsys):
        assert main(["selftest"]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out
        assert main(["selftest", "--inject-adjoint-fault"]) == EXIT_CHECK_FAILED

    def test_passes_with_asserts_stripped(self, tmp_path):
        assert run_fresh(["selftest"], tmp_path / "out", ("-O",))[0] == EXIT_OK


class TestParser:
    # these ids run rows of test_contract.CONTRACT
    test_usage_errors_exit_2 = named("test_usage_errors_exit_2")
    test_out_of_range_option_exits_2 = named("test_out_of_range_option_exits_2")
    test_horizon_range_edges_run = named("test_horizon_range_edges_run")

    def test_command_options(self):
        args = cli._parse_args(["sweep-T", "--set", "seed=3", "--t-list", "0.5", "1",
                                "--amplitudes", "2"])
        assert args.command == "sweep-T" and args.set == ["seed=3"]
        assert args.t_list == [0.5, 1.0] and args.amplitudes == [2.0]
        assert cli._parse_args(["selftest"]).inject_adjoint_fault is False

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == EXIT_OK
        out = capsys.readouterr().out
        assert all(name in out for name in cli.COMMANDS)

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_command_help_exits_0(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "-h"])
        assert exc.value.code == EXIT_OK
        assert f"usage: chemosteer {command}" in capsys.readouterr().out


class TestCommands:
    # these ids run rows of test_contract.CONTRACT
    test_invalid_input_exits_2_with_one_line = named("test_invalid_input_exits_2_with_one_line")
    test_overflow_exits_3_naming_the_cause = named("test_overflow_exits_3_naming_the_cause")
    test_non_convergence_exits_3_with_one_line = named(
        "test_non_convergence_exits_3_with_one_line")
    test_tiny_valid_amplitude_solves = named("test_tiny_valid_amplitude_solves")
    test_nonlinear_no_convergence_exit = named("test_nonlinear_no_convergence_exit")
    test_oracle_check_rejects_large_grid = named("test_oracle_check_rejects_large_grid")
    test_invalid_override_exit = named("test_invalid_override_exit")
    test_solver_breakdown_exits_3_with_one_line = named(
        "test_solver_breakdown_exits_3_with_one_line")
    test_sweep_T_breakdown_fails_one_cell = named("test_sweep_T_breakdown_fails_one_cell")
    test_sweep_T_missing_data_file_exits_2 = named("test_sweep_T_missing_data_file_exits_2")

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
        assert list(rows[0]) == ["iteration", "increment", "sup_u", "terminal_l2", "B_sup",
                                 "cg_iters", "cg_tol"]
        assert [int(r["cg_iters"]) for r in rows] == [h["cg_iters"] for h in fp["history"]]
        assert float(rows[-1]["cg_tol"]) == report["config"]["hum"]["cg_tol"]

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

    def test_sweep_T_forwards_every_run_option(self, tmp_path, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return {"rows": [], "c1_hat": float("nan"), "fit_rms_residual": float("nan"),
                    "n_fitted": 0}

        monkeypatch.setattr(cli, "threshold_sweep", spy)
        args = ["sweep-T", "--t-list", "1", "--amplitudes", "1e-3",
                "--set", "fixed_point.initial_guess=u0-constant"] + SMALL
        code, _ = run_cli(args, tmp_path, monkeypatch)
        assert code == EXIT_OK and len(calls) == 1
        assert calls[0]["fixed_point"].initial_guess == "u0-constant"
        options = [name for name, p in inspect.signature(run_nonlinear).parameters.items()
                   if p.default is not p.empty]
        assert set(calls[0]) == set(options)

    def test_a_zero_iteration_cap_writes_no_output(self, tmp_path, monkeypatch):
        # the cap once ran no iteration, wrote all-zero fields and exited 3
        argv = ["nonlinear", *SIZE16, "--set", "fixed_point.max_iters=0"]
        code, out = run_cli(argv, tmp_path, monkeypatch)
        assert code == EXIT_INVALID and not out.exists()

    def test_oracle_check(self, tmp_path, monkeypatch, capsys):
        args = ["oracle-check", "--set", "domain.n_cells=8",
                "--set", "domain.omega_a=0.25", "--set", "domain.omega_b=0.75",
                "--set", "time.n_steps=8"]
        code, out = run_cli(args, tmp_path, monkeypatch)
        assert code == EXIT_OK
        assert "PASS" in capsys.readouterr().out
        assert read_report(out)["reports"]["oracle_check"]["passed"]

    def test_verification_breakdown_exits_3_naming_the_step(self, tmp_path, monkeypatch,
                                                            capsys):
        def singular(dl, d, du, b):
            return dl, d, du, b, 1

        monkeypatch.setattr(nonlinear, "dgtsv", singular)
        code, _ = run_cli(["nonlinear"] + SMALL, tmp_path, monkeypatch)
        assert code == EXIT_NO_CONVERGENCE
        assert capsys.readouterr().err == (
            "error: singular implicit step matrix at verification step 1\n")

    @pytest.mark.parametrize("settings", [[], ["--set", "initial_data.shape=bump",
                                               "--set", "initial_data.amplitude=7"]])
    def test_sweep_T_scales_the_configured_shape(self, settings, tmp_path, monkeypatch):
        shapes = []
        monkeypatch.setattr(cli, "threshold_sweep",
                            lambda *args, **kwargs: shapes.append(args[2]) or
                            {"rows": [], "c1_hat": 0.0, "fit_rms_residual": 0.0, "n_fitted": 0})
        argv = ["sweep-T", "--t-list", "1", "--amplitudes", "1e-3"] + SMALL + settings
        assert run_cli(argv, tmp_path, monkeypatch)[0] == EXIT_OK
        x = DomainSpec(24).centers
        unit = np.exp(-100.0 * (x - 0.5) ** 2) if settings else (1.0 + np.cos(np.pi * x)) / 2.0
        assert shapes[0].tobytes() == unit.tobytes()

    def test_tiny_data_norms_scale_with_the_data(self, tmp_path, monkeypatch):
        # squared norms of 1e-160 data once underflowed: u0_l2 and C_hat_energy
        # lost their 5th digit
        reports = {}
        for a in ("1", "1e-160"):
            argv = ["linear", *SIZE16, "--set", f"initial_data.amplitude={a}"]
            code, out = run_cli(argv, tmp_path / a, monkeypatch)
            assert code == EXIT_OK
            reports[a] = read_report(out)["reports"]["control_bound"]
        unit, tiny = reports["1"], reports["1e-160"]
        assert tiny["u0_l2"] == pytest.approx(1e-160 * unit["u0_l2"], rel=1e-12)
        assert tiny["C_hat_energy"] == pytest.approx(unit["C_hat_energy"], rel=1e-9)

    @staticmethod
    def bad_config(tmp_path):
        """A config file whose hum.epsilon is invalid."""
        cfg_path = tmp_path / "cfg.json"
        d = RunConfig().to_dict()
        d["domain"]["n_cells"] = 24
        d["time"]["n_steps"] = 24
        d["hum"]["epsilon"] = -1
        cfg_path.write_text(json.dumps(d))
        return str(cfg_path)

    def test_config_file_plus_override(self, tmp_path, monkeypatch):
        # the override corrects the file value before validation
        code, out = run_cli(["linear", "--config", self.bad_config(tmp_path),
                             "--set", "hum.epsilon=1e-4"],
                            tmp_path, monkeypatch)
        assert code == EXIT_OK
        assert read_report(out)["config"]["hum"]["epsilon"] == 1e-4

    def test_config_file_without_override_exits_2(self, tmp_path, monkeypatch, capsys):
        code, _ = run_cli(["linear", "--config", self.bad_config(tmp_path)],
                          tmp_path, monkeypatch)
        assert code == EXIT_INVALID
        assert capsys.readouterr().err == "error: hum.epsilon must be positive\n"


class TestWriters:
    # Non-uniform levels and centers; the values hold the edge cases of %.17g:
    # the bounds of fixed notation, powers of ten and their neighbours (1e20
    # and 1e-14 round up to the next power of ten), ties that round half-even
    # either way, and values outside (1e-270, 1e270).
    LEVELS = np.array([0.0, 1.0 / 3.0, 0.5, 1e-3 + 1.0, 2.0, 1e-7])
    CENTERS = np.array([2.0**-30, 0.1, 1.0 / 7.0, 0.9999999999999999, 3.0])
    SPECIAL = [-0.0, 5e-324, 1e300, np.nan, np.inf, -np.inf, 3.0, -17.0,
               0.1, 2.0 / 3.0, -1e-310, 0.0, 123456789012345678.0, 1.5e-8,
               1e-5, 1e-4, 1e16, 1e17, 1e23, 1e-12, np.nextafter(1e-12, 1.0),
               -1e-74, np.nextafter(1e74, 0.0), 99999999999999984.0,
               1234567890123456.25, -1234567890123456.75, 1e270, 1e-270, 1e20, -1e-14]

    def field(self, offset=0):
        shape = (self.LEVELS.size, self.CENTERS.size)
        return np.resize(np.roll(self.SPECIAL, offset), shape)

    def test_field_csv_bytes(self, tmp_path):
        values = self.field()
        cli._write_field_csv(tmp_path / "u.csv", values, self.LEVELS, self.CENTERS)
        rows = [(t, x, values[k, i]) for k, t in enumerate(self.LEVELS)
                for i, x in enumerate(self.CENTERS)]
        assert (tmp_path / "u.csv").read_text() == reference_csv("t,x,value\n", rows)

    def test_field_csv_bytes_across_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(csvtext, "BLOCK", 10)   # 3 levels a block, the last one 1
        rng = np.random.default_rng(3)
        levels = np.linspace(0.0, 1.0, 70)
        values = rng.standard_normal((70, 3)) * 10.0 ** rng.integers(-30, 30, (70, 3))
        cli._write_field_csv(tmp_path / "u.csv", values, levels, self.CENTERS[:3])
        rows = [(t, x, values[k, i]) for k, t in enumerate(levels)
                for i, x in enumerate(self.CENTERS[:3])]
        assert (tmp_path / "u.csv").read_text() == reference_csv("t,x,value\n", rows)

    def test_weights_csv_bytes(self, tmp_path):
        weights = SimpleNamespace(t_mid=self.LEVELS, alpha=self.field(), w=self.field(5))
        cli._write_weights_csv(tmp_path / "weights.csv", weights, self.CENTERS)
        rows = [(t, x, weights.alpha[k, i], weights.w[k, i])
                for k, t in enumerate(self.LEVELS) for i, x in enumerate(self.CENTERS)]
        assert (tmp_path / "weights.csv").read_text() == reference_csv(
            "t_mid,x,alpha,w\n", rows)


def test_artifacts_are_per_value_g17(tmp_path, monkeypatch):
    """Every value of the field and weight CSVs of three runs is as %.17g formats it,
    the last run's fields across two csvtext.BLOCKs (161 levels of 64 cells)."""
    assert csvtext.BLOCK < 161 * 64 <= 2 * csvtext.BLOCK
    runs = {"linear": ["linear", *SIZE16], "nonlinear": ["nonlinear", *SIZE16],
            "blocks": ["linear", "--set", "domain.n_cells=64", "--set", "time.n_steps=160"]}
    for run, argv in runs.items():
        code, out = run_cli(argv, tmp_path / run, monkeypatch)
        assert code == EXIT_OK
        for name in ("u", "f", "v") + (("weights",) if argv[0] == "linear" else ()):
            header, *rows, last = (out / f"{name}.csv").read_bytes().split(b"\n")
            assert last == b"" and len(rows) >= 16 * 16, (run, name)
            for row in rows:
                again = b",".join(b"%.17g" % float(v) for v in row.split(b","))
                assert again == row, (run, name, row)


def test_artifacts_equal_plain_writes_with_each_column_formatted_once(tmp_path, monkeypatch):
    """Every field and weight CSV of a linear and a nonlinear run equals, whole file,
    the %.17g text of the arrays it was written from, while csvtext formats each
    distinct t or x column of the run once."""
    written = {}

    def spy(fh, levels, centers, *fields):
        written[fh.name] = [np.array(a) for a in (levels, centers, *fields)]
        write_rows(fh, levels, centers, *fields)

    write_rows = csvtext.write_rows
    monkeypatch.setattr(csvtext, "write_rows", spy)
    # M != N, so that the weights' t_mid is not the centers over again
    sizes = ["--set", "domain.n_cells=16", "--set", "time.n_steps=20"]
    for command, files, columns in (("linear", 4, 3), ("nonlinear", 3, 2)):
        written.clear()
        csvtext._column.cache_clear()
        code, out = run_cli([command, *sizes], tmp_path / command, monkeypatch)
        assert code == EXIT_OK and len(written) == files
        assert csvtext._column.cache_info().misses == columns
        for path, (levels, centers, *fields) in written.items():
            header, text = open(path).read().split("\n", 1)
            rows = [(t, x, *(f[k, i] for f in fields)) for k, t in enumerate(levels)
                    for i, x in enumerate(centers)]
            assert header + "\n" + text == reference_csv(header + "\n", rows), path


class TestOutputErrors:
    # this id runs rows of test_contract.CONTRACT
    test_unwritable_output_exits_2_before_the_solve = named(
        "test_unwritable_output_exits_2_before_the_solve")

    def test_failed_artifact_write_exits_2(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "out" / "u.csv").mkdir(parents=True)
        code, _ = run_cli(["linear"] + SMALL, tmp_path, monkeypatch)
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and err.count("\n") == 1


class TestImportHeapFreeze:
    @pytest.mark.parametrize("argv", [["linear"] + SIZE16, ["selftest"]],
                             ids=["linear", "selftest"])
    def test_a_command_freezes_the_import_heap(self, argv, tmp_path):
        code, frozen, _ = run_fresh(argv, tmp_path / "out")
        assert code == EXIT_OK and frozen > 0

    @pytest.mark.parametrize("argv", [["--version"], ["-h"], ["linear", "-h"]])
    def test_version_and_help_exit_unfrozen(self, argv, tmp_path):
        assert run_fresh(argv, tmp_path / "out")[:2] == (EXIT_OK, 0)

    def test_fresh_artifacts_equal_in_process_ones(self, tmp_path, monkeypatch):
        fresh, here = tmp_path / "fresh", tmp_path / "here"
        assert run_fresh(["linear"] + SIZE16, fresh)[0] == EXIT_OK
        monkeypatch.setenv("CHEMOSTEER_OUT", str(here))
        assert main(["linear"] + SIZE16) == EXIT_OK
        names = sorted(p.name for p in fresh.iterdir())
        assert names == sorted(p.name for p in here.iterdir())

        def untimed(path):  # the bytes, but the wall time in report.json
            return re.sub(rb'("wall_s": )[^\n]*', rb"\1", path.read_bytes())

        for name in names:
            assert untimed(fresh / name) == untimed(here / name), name

