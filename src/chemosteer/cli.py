"""Command-line experiment runner: configuration, persistence, selftest.

Subcommands: linear, nonlinear, observability, sweep-eps, sweep-T,
oracle-check, selftest.  Every run writes report.json (config echo plus
content hash plus reports) and CSV artifacts into the output directory.
Exit codes: 0 success, 1 selftest/oracle failure, 2 invalid input,
3 solver non-convergence.
"""

import argparse
import json
import os
import sys
import time as _time

import numpy as np

from . import __version__
from .carleman import build_weights, select_params
from .config import (ConfigError, RunConfig, apply_override, build_geometry,
                     config_from_dict, initial_data, load_config)
from .diagnostics import (RecursionSpec, observability_probe,
                          observability_ratio, recursion_simulate)
from .elliptic import DriftField, PhysicsParams, drift_from_state, drift_from_v, solve_elliptic
from .grid import build_beta, build_domain, build_time_grid
from .hum import (control_bound_report, dense_gramian,
                  gramian_apply, gramian_quadratic_form, solve_penalized)
from .nonlinear import remark_check, run_nonlinear, threshold_sweep
from .parabolic import (inner_l2, level_l2, linf_estimate_report,
                        m_matrix_report, solve_adjoint, solve_forward)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3


def _fmt(v) -> str:
    return "%.17g" % float(v)


def _out_dir(cfg: RunConfig) -> str:
    out = os.environ.get("CHEMOSTEER_OUT", cfg.output.dir)
    os.makedirs(out, exist_ok=True)
    return out


def _write_field_csv(path, values, levels, centers):
    """Level-major 't,x,value' rows."""
    with open(path, "w") as fh:
        fh.write("t,x,value\n")
        for k, t in enumerate(levels):
            for x, v in zip(centers, values[k]):
                fh.write(f"{_fmt(t)},{_fmt(x)},{_fmt(v)}\n")


def _write_weights_csv(path, weights, centers):
    with open(path, "w") as fh:
        fh.write("t_mid,x,alpha,w\n")
        for k, t in enumerate(weights.t_mid):
            for i, x in enumerate(centers):
                fh.write(f"{_fmt(t)},{_fmt(x)},{_fmt(weights.alpha[k, i])},"
                         f"{_fmt(weights.w[k, i])}\n")


def _write_report(out, cfg, reports, timings):
    record = {
        "tool_version": __version__,
        "config": cfg.to_dict(),
        "config_hash": cfg.content_hash(),
        "reports": reports,
        "timings": timings,
    }
    with open(os.path.join(out, "report.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    return record


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _hum_report(sol):
    return {
        "terminal_norm": sol.terminal_norm,
        "weighted_energy": sol.weighted_energy,
        "control_sup": sol.control_sup,
        "cg_iters": sol.cg_iters,
        "cg_residual": sol.cg_residual,
        "cg_converged": sol.cg_converged,
        "epsilon": sol.epsilon,
        "kappa": sol.kappa,
        "residual_history": sol.residual_history,
    }


def _params_report(params, log_w_peak):
    return {
        "lambda": params.lam,
        "s": params.s,
        "delta0": params.delta0,
        "gamma_of_lambda": params.gamma_of_lambda,
        "omega_of_lambda": params.omega_of_lambda,
        "constraints_certified": params.constraints_certified(),
        "log_w_peak": log_w_peak,
    }


def _scales(cfg: RunConfig) -> dict:
    c = cfg.carleman
    return {"delta0": c.delta0, "lambda_scale": c.lambda_scale, "s_scale": c.s_scale}


def _weights(cfg: RunConfig, drift, beta, domain, tgrid):
    """Carleman parameters for drift at the configured scales, and their weights."""
    params = select_params(drift.sup_norm, tgrid.horizon_T, beta, **_scales(cfg))
    return params, build_weights(params, beta, domain, tgrid)


def _linear_setup(cfg: RunConfig):
    """Geometry, data, drift (from the configured state guess) and weights."""
    domain, tgrid, beta, physics = build_geometry(cfg)
    u0 = initial_data(cfg, domain)
    if cfg.fixed_point.initial_guess == "u0-constant":
        xi = np.tile(u0, (tgrid.n_steps + 1, 1))
        _, drift = drift_from_state(xi, physics, domain, tgrid)
    else:
        drift = DriftField.zero(domain, tgrid)
    params, weights = _weights(cfg, drift, beta, domain, tgrid)
    return domain, tgrid, beta, physics, u0, drift, params, weights


def cmd_linear(cfg: RunConfig) -> int:
    t0 = _time.perf_counter()
    domain, tgrid, beta, physics, u0, drift, params, weights = _linear_setup(cfg)
    sol = solve_penalized(u0, drift, weights, domain, tgrid, cfg.hum.epsilon,
                          cg_tol=cfg.hum.cg_tol, cg_max_iters=cfg.hum.cg_max_iters)
    v = solve_elliptic(sol.u, physics, domain)
    out = _out_dir(cfg)
    _write_field_csv(os.path.join(out, "u.csv"), sol.u, tgrid.levels, domain.centers)
    _write_field_csv(os.path.join(out, "f.csv"), sol.f, tgrid.levels, domain.centers)
    _write_field_csv(os.path.join(out, "v.csv"), v, tgrid.levels, domain.centers)
    _write_weights_csv(os.path.join(out, "weights.csv"), weights, domain.centers)
    reports = {
        "carleman": _params_report(params, weights.log_w_peak),
        "m_matrix": m_matrix_report(drift, domain, tgrid),
        "hum": _hum_report(sol),
        "control_bound": control_bound_report(sol, u0, domain),
        "linf_estimate": linf_estimate_report(sol.u, u0, sol.f, drift, domain, tgrid),
    }
    _write_report(out, cfg, reports, {"wall_s": _time.perf_counter() - t0})
    return EXIT_OK if sol.cg_converged else EXIT_NO_CONVERGENCE


def cmd_nonlinear(cfg: RunConfig) -> int:
    t0 = _time.perf_counter()
    domain, tgrid, beta, physics = build_geometry(cfg)
    u0 = initial_data(cfg, domain)
    result = run_nonlinear(
        u0, physics, domain, tgrid, beta,
        **_scales(cfg), freeze_after_first=cfg.carleman.freeze_after_first,
        epsilon=cfg.hum.epsilon, cg_tol=cfg.hum.cg_tol,
        cg_max_iters=cfg.hum.cg_max_iters,
        fp_tol=cfg.fixed_point.tol, fp_max_iters=cfg.fixed_point.max_iters,
        initial_guess=cfg.fixed_point.initial_guess,
    )
    out = _out_dir(cfg)
    _write_field_csv(os.path.join(out, "u.csv"), result.u, tgrid.levels, domain.centers)
    _write_field_csv(os.path.join(out, "f.csv"), result.f, tgrid.levels, domain.centers)
    _write_field_csv(os.path.join(out, "v.csv"), result.v, tgrid.levels, domain.centers)
    with open(os.path.join(out, "history.csv"), "w") as fh:
        fh.write("iteration,increment,sup_u,terminal_l2,B_sup\n")
        for row in result.history:
            fh.write(f"{row['iteration']},{_fmt(row['increment'])},"
                     f"{_fmt(row['sup_u'])},{_fmt(row['terminal_l2'])},"
                     f"{_fmt(row['B_sup'])}\n")
    reports = {
        "fixed_point": {
            "iterations": result.iterations,
            "converged": result.converged,
            "in_K": result.in_K,
            "verification_terminal_l2": result.verification_terminal_l2,
            "verification_sweeps": result.verification_sweeps,
            "history": result.history,
        },
        "remark": remark_check(result, domain, tgrid) if result.iterations else None,
    }
    if result.hum_last is not None:
        reports["hum"] = _hum_report(result.hum_last)
        reports["carleman"] = _params_report(result.params_last, result.log_w_peak)
        reports["m_matrix"] = result.m_matrix
    _write_report(out, cfg, reports, {"wall_s": _time.perf_counter() - t0})
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_observability(cfg: RunConfig, n_samples: int, t_list=None) -> int:
    if n_samples < 1:
        raise ConfigError("need at least one observability sample")
    t0 = _time.perf_counter()
    horizons = t_list if t_list else [cfg.time.T]
    per_t = []
    domain, _, beta, _ = build_geometry(cfg)
    for T in horizons:
        tgrid = build_time_grid(T, cfg.time.n_steps)
        drift = DriftField.zero(domain, tgrid)
        _, weights = _weights(cfg, drift, beta, domain, tgrid)
        report = observability_probe(drift, weights, domain, tgrid,
                                     n_samples, cfg.seed)
        # closed-form cross-check with the constant terminal datum
        const = np.ones(domain.n_cells)
        computed = observability_ratio(const, drift, weights, domain, tgrid)
        mass = tgrid.dt * domain.h * float(
            np.sum(weights.w[:, domain.omega_mask]))
        per_t.append({
            "T": float(T),
            "n_samples": report.n_samples,
            "max_ratio": report.max_ratio,
            "quantiles": report.quantiles,
            "kappa": report.kappa,
            "c_hat_obs": report.c_hat_obs,
            "constant_mode": {
                "computed_ratio": computed,
                "closed_form_ratio": 1.0 / mass,
            },
        })
    out = _out_dir(cfg)
    _write_report(out, cfg, {"observability": per_t},
                  {"wall_s": _time.perf_counter() - t0})
    return EXIT_OK


def cmd_sweep_eps(cfg: RunConfig, eps_list) -> int:
    if not eps_list or any(e <= 0.0 for e in eps_list):
        raise ConfigError("eps sweep needs a list of positive values")
    t0 = _time.perf_counter()
    domain, tgrid, beta, physics, u0, drift, params, weights = _linear_setup(cfg)
    rows = []
    all_converged = True
    for eps in eps_list:
        sol = solve_penalized(u0, drift, weights, domain, tgrid, eps,
                              cg_tol=cfg.hum.cg_tol,
                              cg_max_iters=cfg.hum.cg_max_iters)
        all_converged = all_converged and sol.cg_converged
        rows.append(_hum_report(sol))
    out = _out_dir(cfg)
    with open(os.path.join(out, "eps_sweep.csv"), "w") as fh:
        fh.write("epsilon,terminal_norm,weighted_energy,control_sup,cg_iters\n")
        for r in rows:
            fh.write(f"{_fmt(r['epsilon'])},{_fmt(r['terminal_norm'])},"
                     f"{_fmt(r['weighted_energy'])},{_fmt(r['control_sup'])},"
                     f"{r['cg_iters']}\n")
    _write_report(out, cfg, {"eps_sweep": rows},
                  {"wall_s": _time.perf_counter() - t0})
    return EXIT_OK if all_converged else EXIT_NO_CONVERGENCE


def cmd_sweep_T(cfg: RunConfig, t_list, amplitudes) -> int:
    if not t_list or not amplitudes:
        raise ConfigError("sweep-T needs horizons and amplitudes")
    t0 = _time.perf_counter()
    domain, _, beta, physics = build_geometry(cfg)

    def shape_fn(dom):
        return (1.0 + np.cos(np.pi * dom.centers)) / 2.0

    def steps_for(T):
        return max(cfg.time.n_steps, 4)

    table = threshold_sweep(
        t_list, amplitudes, shape_fn, physics, domain, steps_for, beta,
        **_scales(cfg), freeze_after_first=cfg.carleman.freeze_after_first,
        epsilon=cfg.hum.epsilon, cg_tol=cfg.hum.cg_tol,
        cg_max_iters=cfg.hum.cg_max_iters,
        fp_tol=cfg.fixed_point.tol, fp_max_iters=cfg.fixed_point.max_iters,
    )
    out = _out_dir(cfg)
    with open(os.path.join(out, "threshold_sweep.csv"), "w") as fh:
        fh.write("T,kappa0,a_star\n")
        for row in table["rows"]:
            a_star = _fmt(row["a_star"]) if row["a_star"] is not None else "nan"
            fh.write(f"{_fmt(row['T'])},{_fmt(row['kappa0'])},{a_star}\n")
    _write_report(out, cfg, {"threshold_sweep": table},
                  {"wall_s": _time.perf_counter() - t0})
    return EXIT_OK


def cmd_oracle_check(cfg: RunConfig) -> int:
    if cfg.domain.n_cells > 16 or cfg.time.n_steps > 16:
        raise ConfigError("oracle check is limited to n_cells <= 16 and n_steps <= 16")
    t0 = _time.perf_counter()
    domain, tgrid, beta, physics = build_geometry(cfg)
    u0 = initial_data(cfg, domain)
    rng = np.random.default_rng(cfg.seed)
    faces = np.zeros(domain.n_cells + 1)
    faces[1:-1] = rng.uniform(-1.0, 1.0, domain.n_cells - 1)
    drift = DriftField.constant(faces, tgrid)
    params, weights = _weights(cfg, drift, beta, domain, tgrid)

    sol = solve_penalized(u0, drift, weights, domain, tgrid, cfg.hum.epsilon,
                          cg_tol=1e-13, cg_max_iters=2000)
    g = dense_gramian(drift, weights, domain, tgrid)
    direct = np.linalg.solve(g + cfg.hum.epsilon * np.eye(domain.n_cells),
                             -sol.u_free_terminal)
    if level_l2(sol.phiT, domain.h) == 0.0 and level_l2(direct, domain.h) == 0.0:
        deviation = 0.0
    else:
        deviation = level_l2(sol.phiT - direct, domain.h) / max(
            level_l2(direct, domain.h), 1e-300)
    out = _out_dir(cfg)
    reports = {"oracle_check": {
        "max_relative_deviation": deviation,
        "tolerance": 1e-8,
        "passed": bool(deviation <= 1e-8),
    }}
    _write_report(out, cfg, reports, {"wall_s": _time.perf_counter() - t0})
    print(f"oracle-check deviation={_fmt(deviation)} "
          f"{'PASS' if deviation <= 1e-8 else 'FAIL'}")
    return EXIT_OK if deviation <= 1e-8 else EXIT_CHECK_FAILED


def run_selftest(corrupt_adjoint: bool = False) -> tuple:
    """Full invariant suite at fixed small sizes.

    corrupt_adjoint is a fault-injection hook used to prove the duality
    checks can fail; it perturbs the adjoint trajectory before the duality
    identities are evaluated.
    """
    checks = []

    def record(name, value, tol, ok=None):
        ok = bool(value <= tol) if ok is None else bool(ok)
        checks.append({"name": name, "ok": ok, "value": float(value),
                       "tolerance": float(tol)})

    rng = np.random.default_rng(42)
    domain = build_domain(32, (0.3, 0.7), 0.5)
    tgrid = build_time_grid(1.0, 24)
    beta = build_beta(domain)

    record("beta-validation", abs(beta.validation["deriv_at_x0"]), 1e-10,
           ok=beta.validation["ok"])
    record("omega-mask-count",
           abs(int(domain.omega_mask.sum())
               - int(np.sum((domain.centers > 0.3) & (domain.centers < 0.7)))), 0.5)

    phys = PhysicsParams(chi=1.0, gamma=2.0, delta=4.0)
    v = solve_elliptic(np.ones(domain.n_cells), phys, domain)
    record("elliptic-constant", float(np.abs(v - 2.0).max()), 1e-12)

    errs = []
    for n in (32, 64):
        dom = build_domain(n, (0.3, 0.7), 0.5)
        p1 = PhysicsParams(chi=1.0, gamma=1.0, delta=1.0)
        eta = (np.pi ** 2 + 1.0) * np.cos(np.pi * dom.centers)
        errs.append(np.abs(solve_elliptic(eta, p1, dom)
                           - np.cos(np.pi * dom.centers)).max())
    ratio = errs[0] / errs[1]
    record("elliptic-convergence", abs(ratio - 4.0), 0.5)

    record("drift-boundary-zero",
           abs(drift_from_v(rng.standard_normal(domain.n_cells), 1.0, domain)[[0, -1]]).max(),
           0.0)

    zero_b = DriftField.zero(domain, tgrid)
    u_const = solve_forward(np.ones(domain.n_cells), zero_b, None, domain, tgrid)
    record("forward-constant", float(np.abs(u_const - 1.0).max()), 1e-12)

    faces = np.zeros(domain.n_cells + 1)
    faces[1:-1] = rng.uniform(-1.0, 1.0, domain.n_cells - 1)
    drift = DriftField.constant(faces, tgrid)
    u0 = rng.standard_normal(domain.n_cells)
    u = solve_forward(u0, drift, None, domain, tgrid)
    mass0 = domain.h * np.sum(u0)
    drift_mass = max(abs(domain.h * np.sum(u[k]) - mass0)
                     for k in range(tgrid.n_steps + 1)) / max(abs(mass0), 1e-300)
    record("mass-conservation", drift_mass, 1e-12)

    phiT = rng.standard_normal(domain.n_cells)
    f = rng.standard_normal((tgrid.n_steps + 1, domain.n_cells))
    phi = solve_adjoint(phiT, drift, domain, tgrid)
    if corrupt_adjoint:
        phi = phi * (1.0 + 1e-6)
    u_nof = solve_forward(u0, drift, None, domain, tgrid)
    lhs = inner_l2(u_nof[-1], phiT, domain.h)
    rhs = inner_l2(u0, phi[0], domain.h)
    record("duality-terminal", abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300), 1e-12)

    u_ctl = solve_forward(np.zeros(domain.n_cells), drift, f, domain, tgrid)
    lhs = inner_l2(u_ctl[-1], phiT, domain.h)
    masked = np.where(domain.omega_mask[None, :], f[1:], 0.0)
    rhs = tgrid.dt * domain.h * float(np.sum(masked * phi[:-1]))
    record("duality-control", abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300), 1e-12)

    params = select_params(drift.sup_norm, tgrid.horizon_T, beta)
    weights = build_weights(params, beta, domain, tgrid)
    x = rng.standard_normal(domain.n_cells)
    y = rng.standard_normal(domain.n_cells)
    gx = gramian_apply(x, drift, weights, domain, tgrid)
    gy = gramian_apply(y, drift, weights, domain, tgrid)
    sym = abs(inner_l2(gx, y, domain.h) - inner_l2(x, gy, domain.h))
    scale = level_l2(x, domain.h) * level_l2(y, domain.h)
    record("gramian-symmetry", sym / max(scale, 1e-300), 1e-10)

    qx = inner_l2(gx, x, domain.h)
    qform = gramian_quadratic_form(x, drift, weights, domain, tgrid)
    record("gramian-psd", -qx, 1e-12)
    record("gramian-qform-identity",
           abs(qx - qform) / max(abs(qform), 1e-300), 1e-10)

    record("weight-negativity", float(weights.alpha.max()), 0.0,
           ok=bool(weights.alpha.max() < 0.0))
    omega_lam = params.omega_of_lambda
    alpha0 = weights.alpha.min(axis=1, keepdims=True)
    chain_ok = bool(np.all(weights.alpha <= alpha0 / (1.0 + omega_lam))
                    and np.all(weights.alpha >= alpha0))
    record("weight-chain", 0.0 if chain_ok else 1.0, 0.5)
    record("param-constraints", 0.0 if params.constraints_certified() else 1.0, 0.5)

    r1 = recursion_simulate(RecursionSpec(c=2.0, b=1.0, eps=1.0), 0.4, 10)
    r2 = recursion_simulate(RecursionSpec(c=1.0, b=2.0, eps=1.0), 0.9, 200)
    hand_ok = (abs(r1["sequence"][1] - 0.32) < 1e-15
               and abs(r1["sequence"][2] - 0.2048) < 1e-15
               and abs(r2["sequence"][2] - 1.3122) < 1e-12
               and r2["verdict"] == "diverges")
    record("recursion-hand-rows", 0.0 if hand_ok else 1.0, 0.5)

    sol0 = solve_penalized(np.zeros(domain.n_cells), drift, weights, domain,
                           tgrid, 1e-4)
    record("hum-zero-data", sol0.terminal_norm + sol0.control_sup, 0.0)

    dom8 = build_domain(8, (0.25, 0.75), 0.5)
    tg8 = build_time_grid(1.0, 8)
    beta8 = build_beta(dom8)
    faces8 = np.zeros(9)
    faces8[1:-1] = rng.uniform(-1.0, 1.0, 7)
    drift8 = DriftField.constant(faces8, tg8)
    p8 = select_params(drift8.sup_norm, 1.0, beta8)
    w8 = build_weights(p8, beta8, dom8, tg8)
    u08 = rng.standard_normal(8)
    sol8 = solve_penalized(u08, drift8, w8, dom8, tg8, 1e-4,
                           cg_tol=1e-13, cg_max_iters=2000)
    g8 = dense_gramian(drift8, w8, dom8, tg8)
    direct8 = np.linalg.solve(g8 + 1e-4 * np.eye(8), -sol8.u_free_terminal)
    record("dense-oracle",
           level_l2(sol8.phiT - direct8, dom8.h) / max(level_l2(direct8, dom8.h), 1e-300),
           1e-8)

    return all(c["ok"] for c in checks), checks


def cmd_selftest(corrupt_adjoint: bool = False) -> int:
    ok, checks = run_selftest(corrupt_adjoint=corrupt_adjoint)
    width = max(len(c["name"]) for c in checks)
    for c in checks:
        status = "PASS" if c["ok"] else "FAIL"
        print(f"{c['name']:<{width}}  {status}  value={_fmt(c['value'])}  "
              f"tol={_fmt(c['tolerance'])}")
    print(f"selftest: {sum(c['ok'] for c in checks)}/{len(checks)} checks passed")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chemosteer",
        description="Null-control experiments for the 1-D chemotaxis system",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to a JSON config document")
        p.add_argument("--set", action="append", default=[], metavar="PATH=VALUE",
                       help="dot-path config override, e.g. hum.epsilon=1e-6")

    common(sub.add_parser("linear", help="linear penalized null-control run"))
    common(sub.add_parser("nonlinear", help="fixed-point nonlinear run"))
    p = sub.add_parser("observability", help="random observability probe")
    common(p)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--t-list", type=float, nargs="*", default=None)
    p = sub.add_parser("sweep-eps", help="penalty parameter sweep")
    common(p)
    p.add_argument("--eps-list", type=float, nargs="+", required=True)
    p = sub.add_parser("sweep-T", help="initial-amplitude threshold sweep")
    common(p)
    p.add_argument("--t-list", type=float, nargs="+", required=True)
    p.add_argument("--amplitudes", type=float, nargs="+", required=True)
    common(sub.add_parser("oracle-check", help="dense-solve cross check (small grids)"))
    p = sub.add_parser("selftest", help="run the invariant suite")
    p.add_argument("--inject-adjoint-fault", action="store_true",
                   help=argparse.SUPPRESS)
    return parser


def _config_from_args(args) -> RunConfig:
    if getattr(args, "config", None):
        cfg = load_config(args.config)
        data = cfg.to_dict()
    else:
        data = RunConfig().to_dict()
    for override in getattr(args, "set", []):
        if "=" not in override:
            raise ConfigError(f"override '{override}' must look like path=value")
        path, raw = override.split("=", 1)
        apply_override(data, path, raw)
    return config_from_dict(data)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            return cmd_selftest(corrupt_adjoint=args.inject_adjoint_fault)
        cfg = _config_from_args(args)
        if args.command == "linear":
            return cmd_linear(cfg)
        if args.command == "nonlinear":
            return cmd_nonlinear(cfg)
        if args.command == "observability":
            return cmd_observability(cfg, args.samples, args.t_list)
        if args.command == "sweep-eps":
            return cmd_sweep_eps(cfg, args.eps_list)
        if args.command == "sweep-T":
            return cmd_sweep_T(cfg, args.t_list, args.amplitudes)
        if args.command == "oracle-check":
            return cmd_oracle_check(cfg)
        raise ConfigError(f"unknown command {args.command}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
