"""Outer fixed-point scheme coupling the elliptic drift map with the linear
null-control solve, plus the threshold sweep over initial-data amplitudes.

One outer iteration maps a state guess xi to: the per-level elliptic solve
v, the drift chi * dv/dx, refreshed weight parameters from the current drift
bound, and the penalized control problem for that frozen drift.  A fixed
point of this map is a controlled trajectory of the nonlinear discrete
dynamics; a converged run is re-certified by one genuinely nonlinear forward
solve with the found control.
"""

from dataclasses import dataclass, field

import numpy as np

from .carleman import build_weights, select_params
from .elliptic import DriftField, PhysicsParams, drift_from_state, drift_from_v, solve_elliptic
from .grid import BetaFunction, DomainSpec, TimeGrid
from .hum import HumSolution, solve_penalized
from .parabolic import Propagator, level_l2, m_matrix_report, space_time_l2


@dataclass
class NonlinearResult:
    """Trajectories, control and iteration history of one fixed-point run."""

    u: np.ndarray
    v: np.ndarray
    f: np.ndarray
    iterations: int
    history: list
    converged: bool
    in_K: bool
    verification_terminal_l2: float
    verification_u: np.ndarray = field(repr=False, default=None)
    verification_sweeps: dict = None   # inner sweeps of verify_nonlinear
    hum_last: HumSolution = field(repr=False, default=None)
    params_last: object = field(repr=False, default=None)
    log_w_peak: float = float("nan")   # raw weight-peak exponent, last iteration
    m_matrix: dict = None              # m_matrix_report of the last drift


def _initial_guess(kind: str, u0: np.ndarray, time: TimeGrid) -> np.ndarray:
    u0 = np.asarray(u0, dtype=float)
    if kind == "zero":
        return np.zeros((time.n_steps + 1, u0.size))
    if kind == "u0-constant":
        return np.tile(u0, (time.n_steps + 1, 1))
    raise ValueError(f"unknown initial guess '{kind}'")


def run_nonlinear(u0: np.ndarray, physics: PhysicsParams, domain: DomainSpec,
                  time: TimeGrid, beta: BetaFunction,
                  delta0: float = 1.5, lambda_scale: float = 1.0,
                  s_scale: float = 1.0, freeze_after_first: bool = False,
                  epsilon: float = 1e-6, cg_tol: float = 1e-10,
                  cg_max_iters: int = 500, fp_tol: float = 1e-6,
                  fp_max_iters: int = 30,
                  initial_guess: str = "zero") -> NonlinearResult:
    """Iterate the linearized control map until the state guess converges.

    Stops when |xi_{k+1} - xi_k|_{L2(Q)} <= fp_tol * max(1, |xi_k|) or at the
    iteration cap (returned with converged=False, never raised).  The in_K
    flag records whether every iterate stayed in the unit sup-norm ball; it
    is diagnostic only and does not stop the iteration.
    """
    u0 = np.asarray(u0, dtype=float)
    if fp_tol <= 0.0:
        raise ValueError("fp_tol must be positive")
    xi = _initial_guess(initial_guess, u0, time)
    history = []
    converged = False
    in_k = True
    sol = None
    params = None
    v = np.zeros_like(xi)
    drift = DriftField.zero(domain, time)
    iterations = 0

    for it in range(1, fp_max_iters + 1):
        iterations = it
        v, drift = drift_from_state(xi, physics, domain, time)
        if params is None or not freeze_after_first:
            params = select_params(drift.sup_norm, time.horizon_T, beta,
                                   delta0=delta0, lambda_scale=lambda_scale,
                                   s_scale=s_scale)
        weights = build_weights(params, beta, domain, time)
        sol = solve_penalized(u0, drift, weights, domain, time, epsilon,
                              cg_tol=cg_tol, cg_max_iters=cg_max_iters)
        xi_new = sol.u
        increment = space_time_l2(xi_new - xi, domain.h, time.dt)
        sup_u = float(np.abs(xi_new).max())
        if sup_u > 1.0:
            in_k = False
        history.append({
            "iteration": it,
            "increment": increment,
            "sup_u": sup_u,
            "terminal_l2": sol.terminal_norm,
            "B_sup": drift.sup_norm,
        })
        scale = max(1.0, space_time_l2(xi, domain.h, time.dt))
        xi = xi_new
        if increment <= fp_tol * scale:
            converged = True
            break

    if sol is None:
        # iteration cap of zero: report the (empty) initial guess honestly
        f = np.zeros_like(xi)
        return NonlinearResult(u=xi, v=v, f=f, iterations=0, history=[],
                               converged=False, in_K=in_k,
                               verification_terminal_l2=float("nan"))

    verification, sweeps = verify_nonlinear(u0, sol.f, physics, domain, time,
                                            full_output=True)
    return NonlinearResult(
        u=xi, v=solve_elliptic(xi, physics, domain), f=sol.f,
        iterations=iterations, history=history,
        converged=converged, in_K=in_k,
        verification_terminal_l2=level_l2(verification[-1], domain.h),
        verification_u=verification, verification_sweeps=sweeps,
        hum_last=sol, params_last=params,
        log_w_peak=weights.log_w_peak, m_matrix=m_matrix_report(drift, domain, time),
    )


def verify_nonlinear(u0: np.ndarray, f: np.ndarray, physics: PhysicsParams,
                     domain: DomainSpec, time: TimeGrid,
                     inner_tol: float = 1e-10, max_sweeps: int = 5,
                     full_output: bool = False):
    """Forward solve of the nonlinear discrete dynamics with a given control.

    Each implicit step runs a frozen-coefficient inner loop: the drift is
    recomputed from the elliptic solve of the step-midpoint state until the
    step iterate stabilizes (or after max_sweeps sweeps).  Returns the
    trajectory; with full_output, also a dict with the total number of
    sweeps and the number of steps stopped at max_sweeps before meeting
    inner_tol ("capped_steps").
    """
    u0 = np.asarray(u0, dtype=float)
    n = domain.n_cells
    m = time.n_steps
    mask = domain.omega_mask
    u = np.empty((m + 1, n))
    u[0] = u0
    sweeps = capped = 0
    for k in range(m):
        rhs = u[k].copy()
        if f is not None:
            rhs[mask] += time.dt * f[k + 1][mask]
        u_next = u[k].copy()
        for _ in range(max_sweeps):
            sweeps += 1
            v_mid = solve_elliptic(0.5 * (u[k] + u_next), physics, domain)
            faces = drift_from_v(v_mid, physics.chi, domain)
            candidate = Propagator(faces[None], domain, time.dt).march(rhs)[1]
            delta = level_l2(candidate - u_next, domain.h)
            u_next = candidate
            if delta <= inner_tol * max(1.0, level_l2(u_next, domain.h)):
                break
        else:
            capped += 1
        u[k + 1] = u_next
    if full_output:
        return u, {"sweeps": sweeps, "capped_steps": capped,
                   "max_sweeps": max_sweeps, "inner_tol": inner_tol}
    return u


def remark_check(result: NonlinearResult, domain: DomainSpec, time: TimeGrid) -> dict:
    """Terminal decay of the chemoattractant: |v(., t)|_2 over the tail.

    Reports the per-level norms on the last 10% of levels and the ratio of
    the final norm to the trajectory maximum.
    """
    norms = np.array([level_l2(result.v[k], domain.h)
                      for k in range(result.v.shape[0])])
    tail_start = max(0, result.v.shape[0] - 1 - time.n_steps // 10)
    peak = float(norms.max())
    return {
        "tail_levels": time.levels[tail_start:].tolist(),
        "tail_norms": norms[tail_start:].tolist(),
        "final_norm": float(norms[-1]),
        "max_norm": peak,
        "final_to_max_ratio": float(norms[-1] / peak) if peak > 0.0 else 0.0,
    }


def threshold_sweep(T_list, amplitude_grid, shape_fn, physics: PhysicsParams,
                    domain: DomainSpec, n_steps_per_T, beta: BetaFunction,
                    success_rel_terminal: float = 0.05, **run_kwargs) -> dict:
    """Scan, per horizon, for the largest admissible initial amplitude.

    For each T the amplitudes are scanned in increasing order; a cell counts
    as successful when the fixed point converges, stays in the unit ball,
    and the nonlinear verification terminal norm is below
    success_rel_terminal * |u0|_2.  The scan stops at the first failure, so
    the success indicator is monotone by construction.  The fitted c1_hat is
    the through-origin least-squares slope of -ln a*(T) against 1 + T + 1/T.
    """
    from .grid import build_time_grid

    amplitude_grid = sorted(float(a) for a in amplitude_grid)
    if any(a <= 0.0 for a in amplitude_grid):
        raise ValueError("amplitude grid must be positive")
    rows = []
    for T in T_list:
        time = build_time_grid(T, n_steps_per_T(T) if callable(n_steps_per_T)
                               else int(n_steps_per_T))
        shape = shape_fn(domain)
        a_star = None
        cells = []
        for a in amplitude_grid:
            u0 = a * shape
            result = run_nonlinear(u0, physics, domain, time, beta, **run_kwargs)
            u0_l2 = level_l2(u0, domain.h)
            ok = (result.converged and result.in_K
                  and result.verification_terminal_l2 <= success_rel_terminal * u0_l2)
            cells.append({
                "amplitude": a,
                "converged": result.converged,
                "in_K": result.in_K,
                "verification_terminal_l2": result.verification_terminal_l2,
                "success": bool(ok),
            })
            if not ok:
                break
            a_star = a
        rows.append({
            "T": float(T),
            "kappa0": float(1.0 + T + 1.0 / T),
            "a_star": a_star,
            "cells": cells,
        })

    fitted = [(r["kappa0"], -np.log(r["a_star"])) for r in rows
              if r["a_star"] is not None]
    if fitted:
        x = np.array([p[0] for p in fitted])
        y = np.array([p[1] for p in fitted])
        c1_hat = float(np.dot(x, y) / np.dot(x, x))
        residual = float(np.sqrt(np.mean(np.square(y - c1_hat * x))))
    else:
        c1_hat = float("nan")
        residual = float("nan")
    return {"rows": rows, "c1_hat": c1_hat, "fit_rms_residual": residual,
            "n_fitted": len(fitted)}
