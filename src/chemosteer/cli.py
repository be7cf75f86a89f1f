"""Command-line experiment runner: configuration, persistence, selftest.

Subcommands: linear, nonlinear, observability, sweep-eps, sweep-T,
oracle-check, selftest.  Every command but selftest writes report.json (config
echo plus content hash plus reports) into the output directory, and all but
observability and oracle-check write CSV artifacts beside it.
Exit codes: 0 success, 1 selftest/oracle failure, 2 invalid input or an
unwritable output directory, 3 solver non-convergence, breakdown or exhausted memory.
"""

import argparse
import gc
import json
import math
import os
import sys
import time as _time
import warnings
from dataclasses import replace

import numpy as np

from . import __version__
from .carleman import build_weights
from .checks import dense_kkt_deviation, random_drift, run_checks
from .config import (MAX_GRID_VALUES, ConfigError, RunConfig, apply_override,
                     config_from_dict, initial_data, read_config)
from .diagnostics import observability_probe
from .elliptic import DriftField, drift_from_state, solve_elliptic
from .grid import HORIZON_RANGE
from .hum import SUCCESS_REL_TERMINAL, control_bound_report, solve_penalized
from .nonlinear import remark_check, run_nonlinear, state_guess, threshold_sweep
from .parabolic import SolverError, linf_estimate_report, m_matrix_report

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3


def _fmt(v) -> str:
    """%.17g of a number; an int as %d writes it, and None (no value) as nan."""
    return str(v) if type(v) is int else "nan" if v is None else "%.17g" % float(v)


def _out_dir(cfg: RunConfig) -> str:
    out = os.environ.get("CHEMOSTEER_OUT", cfg.output.dir)
    os.makedirs(out, exist_ok=True)
    return out


def _write_field_csv(path, values, levels, centers):
    """Level-major 't,x,value' rows."""
    from .csvtext import write_rows  # imported here: most commands write no fields
    with open(path, "wb") as fh:
        fh.write(b"t,x,value\n")
        write_rows(fh, levels, centers, values)


def _write_weights_csv(path, weights, centers):
    """'t_mid,x,alpha,w' rows."""
    from .csvtext import write_rows
    with open(path, "wb") as fh:
        fh.write(b"t_mid,x,alpha,w\n")
        write_rows(fh, weights.t_mid, centers, weights.alpha, weights.w)


def _write_table(path, header, rows):
    """A small CSV: the header's columns of each row dict, each cell through _fmt."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(_fmt(row[name]) for name in header) + "\n" for row in rows)


def _write_report(out, cfg, reports, timings):
    record = {
        "tool_version": __version__,
        "config": cfg.to_dict(),
        "config_hash": cfg.content_hash(),
        "reports": reports,
        "timings": timings,
    }
    with open(os.path.join(out, "report.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return record


_HUM_REPORT = ("terminal_norm", "terminal_ratio", "weighted_energy", "control_sup", "cg_iters",
               "cg_residual", "cg_converged", "epsilon", "kappa", "residual_history")
# the line a run that exits 0 prints when its control did not null the state
APPROXIMATE_CONTROL_WARNING = ("|u(T)| / |u0| = {ratio:.3g} exceeds {limit:g} at T={T:g}: "
                               "an approximate control, not a null control")


def _hum_report(sol):
    return {name: getattr(sol, name) for name in _HUM_REPORT}


def _params_report(weights):
    p = weights.params
    return {"lambda": p.lam, "s": p.s, "delta0": p.delta0, "gamma_of_lambda": p.gamma_of_lambda,
            "omega_of_lambda": p.omega_of_lambda, "constraints_certified": p.constraints_certified(),
            "log_w_peak": weights.log_w_peak, "raw_weight_underflows": p.raw_weight_underflows}


def _linear_setup(cfg: RunConfig):
    """Geometry, data, drift (from the configured state guess) and weights."""
    domain, tgrid, physics = cfg.domain, cfg.time, cfg.physics
    u0 = initial_data(cfg)
    xi = state_guess(cfg.fixed_point, u0, tgrid)
    drift = drift_from_state(xi, physics, domain, tgrid)
    weights = build_weights(drift.sup_norm, domain, tgrid, cfg.carleman)
    return domain, tgrid, physics, u0, drift, weights


def cmd_linear(cfg: RunConfig, args, out):
    domain, tgrid, physics, u0, drift, weights = _linear_setup(cfg)
    sol = solve_penalized(u0, drift, weights, domain, tgrid, cfg.hum)
    v = solve_elliptic(sol.u, physics, domain)
    for name, values in (("u", sol.u), ("f", sol.f), ("v", v)):
        _write_field_csv(os.path.join(out, f"{name}.csv"), values, tgrid.levels, domain.centers)
    _write_weights_csv(os.path.join(out, "weights.csv"), weights, domain.centers)
    reports = {
        "carleman": _params_report(weights),
        "m_matrix": m_matrix_report(drift, domain),
        "hum": _hum_report(sol),
        "control_bound": control_bound_report(sol, u0, domain),
        "linf_estimate": linf_estimate_report(sol.u, u0, sol.f, drift, domain, tgrid),
    }
    return reports, sol.failure or EXIT_OK


def cmd_nonlinear(cfg: RunConfig, args, out):
    domain, tgrid = cfg.domain, cfg.time
    u0 = initial_data(cfg)
    result = run_nonlinear(u0, cfg.physics, domain, tgrid, carleman=cfg.carleman,
                           hum=cfg.hum, fixed_point=cfg.fixed_point)
    for name, values in (("u", result.u), ("f", result.f), ("v", result.v)):
        _write_field_csv(os.path.join(out, f"{name}.csv"), values, tgrid.levels, domain.centers)
    _write_table(os.path.join(out, "history.csv"),
                 ("iteration", "increment", "sup_u", "terminal_l2", "B_sup", "cg_iters",
                  "cg_tol"), result.history)
    return {
        "fixed_point": {
            "iterations": result.iterations,
            "converged": result.converged,
            "in_K": result.in_K,
            "verification_terminal_l2": result.verification_terminal_l2,
            "verification_sweeps": result.verification_sweeps,
            "history": result.history,
        },
        "remark": remark_check(result, domain, tgrid),
        "hum": _hum_report(result.hum_last),
        "carleman": _params_report(result.weights),
        "m_matrix": result.m_matrix,
    }, result.failure or EXIT_OK


def cmd_observability(cfg: RunConfig, args, out):
    values = cfg.domain.n_cells * args.samples   # the probe holds about five such arrays
    if values > MAX_GRID_VALUES // 8:
        raise ConfigError(f"--samples times domain.n_cells must be at most "
                          f"{MAX_GRID_VALUES // 8}, got {values}")
    per_t = []
    domain = cfg.domain
    for T in args.t_list or [cfg.time.T]:
        tgrid = replace(cfg.time, T=T)
        drift = DriftField.zero(domain, tgrid)
        weights = build_weights(drift.sup_norm, domain, tgrid, cfg.carleman)
        report = observability_probe(drift, weights, domain, tgrid,
                                     args.samples, cfg.seed)
        per_t.append({"T": float(T), **{k: v for k, v in vars(report).items() if k != "ratios"}})
    return {"observability": per_t}, EXIT_OK


def cmd_sweep_eps(cfg: RunConfig, args, out):
    domain, tgrid, _, u0, drift, weights = _linear_setup(cfg)
    rows, failure = [], None
    for eps in args.eps_list:
        sol = solve_penalized(u0, drift, weights, domain, tgrid,
                              replace(cfg.hum, epsilon=eps))
        if failure is None and not sol.cg_converged:
            failure = f"epsilon {eps:g}: {sol.failure}"
        rows.append(_hum_report(sol))
    _write_table(os.path.join(out, "eps_sweep.csv"),
                 ("epsilon", "terminal_norm", "weighted_energy", "control_sup", "cg_iters"),
                 rows)
    return {"eps_sweep": rows}, failure or EXIT_OK


def cmd_sweep_T(cfg: RunConfig, args, out):
    # the configured shape at unit amplitude; each cell scales it
    shape = initial_data(replace(cfg, initial_data=replace(cfg.initial_data, amplitude=1.0)))
    table = threshold_sweep(args.t_list, args.amplitudes, shape, cfg.physics, cfg.domain,
                            cfg.time, carleman=cfg.carleman, hum=cfg.hum,
                            fixed_point=cfg.fixed_point)
    _write_table(os.path.join(out, "threshold_sweep.csv"), ("T", "kappa0", "a_star"),
                 table["rows"])
    return {"threshold_sweep": table}, EXIT_OK


def cmd_oracle_check(cfg: RunConfig, args, out):
    if cfg.domain.n_cells > 16 or cfg.time.n_steps > 16:
        raise ConfigError("oracle check is limited to n_cells <= 16 and n_steps <= 16")
    domain, tgrid = cfg.domain, cfg.time
    u0 = initial_data(cfg)
    drift = random_drift(np.random.default_rng(cfg.seed), domain, tgrid)
    weights = build_weights(drift.sup_norm, domain, tgrid, cfg.carleman)
    deviation = dense_kkt_deviation(u0, drift, weights, domain, tgrid, cfg.hum.epsilon)
    passed = deviation <= 1e-8
    print(f"oracle-check deviation={_fmt(deviation)} {'PASS' if passed else 'FAIL'}")
    reports = {"oracle_check": {"max_relative_deviation": deviation, "tolerance": 1e-8,
                                "passed": passed}}
    return reports, EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_selftest(args) -> int:
    results = run_checks(args.inject_adjoint_fault)
    width = max(len(name) for name, *_ in results)
    for name, tol, value, ok in results:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  value={_fmt(value)}  "
              f"tol={_fmt(tol)}")
    passed = sum(ok for *_, ok in results)
    print(f"selftest: {passed}/{len(results)} checks passed")
    return EXIT_OK if passed == len(results) else EXIT_CHECK_FAILED


def _positive(kind, lo=0, hi=math.inf):
    """An argparse type: a value of `kind` that is finite and > 0, and in [lo, hi]."""
    def parse(text):
        value = kind(text)
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(f"must be finite and > 0: '{text}'")
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"must lie in [{lo:g}, {hi:g}]: '{text}'")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


_CONFIG_OPTIONS = {
    "--config": {"help": "path to a JSON config document"},
    "--set": {"action": "append", "default": [], "metavar": "PATH=VALUE",
              "help": "dot-path config override, e.g. hum.epsilon=1e-6"},
}
_POSITIVE_FLOAT = _positive(float)
_POSITIVES = {"type": _POSITIVE_FLOAT, "nargs": "+", "required": True}
_HORIZON = _positive(float, *HORIZON_RANGE)

# name -> (help line, handler, {flag: argparse keywords}).  A handler
# (cfg, args, out) writes its artifacts into the output directory `out`, which
# main makes before the solve, and returns (reports, exit code), the code
# replaced by the failure of a solve that did not converge; main times it,
# writes report.json, and ends a failure with its error line and exit 3.
# selftest alone takes no config: its handler (args) returns the exit code.
# Only the chosen command's parser is built, and the top-level one only when
# the first argument is not a command: building a parser per command cost
# every run more than the rest of argument handling.
COMMANDS = {
    "linear": ("linear penalized null-control run", cmd_linear, _CONFIG_OPTIONS),
    "nonlinear": ("fixed-point nonlinear run", cmd_nonlinear, _CONFIG_OPTIONS),
    "observability": ("random observability probe", cmd_observability, {
        **_CONFIG_OPTIONS, "--samples": {"type": _positive(int), "default": 20},
        "--t-list": {"type": _HORIZON, "nargs": "*"}}),
    "sweep-eps": ("penalty parameter sweep", cmd_sweep_eps,
                  {**_CONFIG_OPTIONS, "--eps-list": _POSITIVES}),
    "sweep-T": ("initial-amplitude threshold sweep", cmd_sweep_T, {
        **_CONFIG_OPTIONS, "--t-list": {**_POSITIVES, "type": _HORIZON},
        "--amplitudes": _POSITIVES}),
    "oracle-check": ("dense-solve cross check (small grids)", cmd_oracle_check,
                     _CONFIG_OPTIONS),
    "selftest": ("run the invariant suite", cmd_selftest, {
        "--inject-adjoint-fault": {"action": "store_true", "help": argparse.SUPPRESS}}),
}


def _build_parser() -> argparse.ArgumentParser:
    width = max(map(len, COMMANDS))
    parser = argparse.ArgumentParser(
        prog="chemosteer",
        description="Null-control experiments for the 1-D chemotaxis system",
        epilog="commands:\n" + "\n".join(f"  {name:<{width}}  {text}"
                                          for name, (text, *_) in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("args", nargs=argparse.REMAINDER,
                        help="options of the command (chemosteer COMMAND -h)")
    return parser


def _parse_args(argv):
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in COMMANDS:
        command, rest = argv[0], argv[1:]
    else:  # --help, --version or a usage error
        top = _build_parser().parse_args(argv)
        command, rest = top.command, top.args
    text, _, options = COMMANDS[command]
    parser = argparse.ArgumentParser(prog=f"chemosteer {command}", description=text)
    for flag, spec in options.items():
        parser.add_argument(flag, **spec)
    args = parser.parse_args(rest)
    args.command = command
    return args


def _config_from_args(args) -> RunConfig:
    """The --config document with the --set overrides applied, validated once."""
    data = read_config(args.config) if args.config else {}
    for override in args.set:
        apply_override(data, override)
    return config_from_dict(data)


def main(argv=None) -> int:
    args = _parse_args(argv)
    # the import graph lives to exit: no collection, the shutdown ones included,
    # walks it again (--version and -h exit inside _parse_args)
    gc.freeze()
    handler = COMMANDS[args.command][1]
    # whatever the caller's filters, warnings wait for an exit code: an error stands alone
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            if args.command == "selftest":
                code = handler(args)
            else:
                cfg = _config_from_args(args)
                t0 = _time.perf_counter()
                out = _out_dir(cfg)
                reports, code = handler(cfg, args, out)
                _write_report(out, cfg, reports, {"wall_s": _time.perf_counter() - t0})
                if isinstance(code, str):
                    raise SolverError(code)
                ratio = reports.get("hum", {}).get("terminal_ratio", 0.0)  # linear and nonlinear
                if ratio > SUCCESS_REL_TERMINAL:
                    warnings.warn(APPROXIMATE_CONTROL_WARNING.format(
                        ratio=ratio, limit=SUCCESS_REL_TERMINAL, T=cfg.time.T), RuntimeWarning)
        except (ConfigError, SolverError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INVALID if isinstance(exc, ConfigError) else EXIT_NO_CONVERGENCE
        except MemoryError as exc:  # numpy names the allocation that failed
            print(f"error: out of memory: {exc}", file=sys.stderr)
            return EXIT_NO_CONVERGENCE
        except OSError as exc:  # unreadable inputs raise ConfigError: this is an output
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_INVALID
    for message in dict.fromkeys(str(w.message) for w in caught):  # each once, as first raised
        print(f"warning: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
