"""Outer fixed-point scheme coupling the elliptic drift map with the linear
null-control solve, plus the threshold sweep over initial-data amplitudes.

One outer iteration maps a state guess xi to: the per-level elliptic solve
v, the drift chi * dv/dx, refreshed weight parameters from the current drift
bound, and the penalized control problem for that frozen drift.  A fixed
point of this map is a controlled trajectory of the nonlinear discrete
dynamics; every run is verified by one genuinely nonlinear forward solve
with the control it found.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.lapack import dgtsv

from .carleman import CarlemanSettings, WeightTables, build_weights
from .elliptic import PhysicsParams, drift_from_state, drift_from_v, solve_elliptic
from .grid import DomainSpec, TimeGrid
from .hum import (SUCCESS_REL_TERMINAL, HumSettings, HumSolution, kappa_const,
                  solve_penalized)
from .parabolic import (SolverError, level_l2, m_matrix_report, space_time_l2,
                        step_matrix_banded)


@dataclass
class NonlinearResult:
    """Trajectories, control and iteration history of one fixed-point run."""

    u: np.ndarray
    v: np.ndarray
    f: np.ndarray
    iterations: int
    history: list
    failure: str                       # why the run did not converge, None when it did
    in_K: bool
    verification_terminal_l2: float
    verification_sweeps: dict          # inner sweeps of verify_nonlinear
    hum_last: HumSolution = field(repr=False)
    weights: WeightTables = field(repr=False)  # of the last iteration
    m_matrix: dict                     # m_matrix_report of the last drift

    @property
    def converged(self) -> bool:
        return self.failure is None


@dataclass(frozen=True)
class FixedPointSettings:
    """The config's fixed_point section: the relative increment at which the
    outer iteration stops, its cap, and the state it starts from."""

    tol: float = 1e-6
    max_iters: int = 30
    initial_guess: str = "zero"

    def __post_init__(self):
        if not (self.tol > 0.0):
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.initial_guess not in ("zero", "u0-constant"):
            raise ValueError(f"initial_guess must be zero or u0-constant: {self.initial_guess!r}")


# CG tolerance of the first outer iteration, and of a later one per unit of the
# relative increment before it: a guess that still moves needs no tight solve
# (the forcing terms of inexact Newton methods, Eisenstat & Walker 1996).
LOOSE_CG_TOL = 1e-2
CG_TOL_PER_INCREMENT = 1e-2


def state_guess(settings: FixedPointSettings, u0: np.ndarray, time: TimeGrid) -> np.ndarray:
    """The (M+1, N) state trajectory an outer iteration starts from."""
    u0 = np.asarray(u0, dtype=float)
    if settings.initial_guess == "zero":
        return np.zeros((time.n_steps + 1, u0.size))
    return np.tile(u0, (time.n_steps + 1, 1))


def run_nonlinear(u0: np.ndarray, physics: PhysicsParams, domain: DomainSpec,
                  time: TimeGrid, carleman: CarlemanSettings = CarlemanSettings(),
                  hum: HumSettings = HumSettings(),
                  fixed_point: FixedPointSettings = FixedPointSettings()) -> NonlinearResult:
    """Iterate the linearized control map until the state guess converges.

    Stops when |xi_{k+1} - xi_k|_{L2(Q)} <= fixed_point.tol * max(1, |xi_k|)
    for an xi_{k+1} solved at hum.cg_tol, or at fixed_point.max_iters.  That
    cap, or any CG solve stopped at its own, leaves the run unconverged, its
    failure naming the first cause (never raised).  An iteration runs CG to
    min(LOOSE_CG_TOL, CG_TOL_PER_INCREMENT * the relative increment before it),
    never below hum.cg_tol, and at hum.cg_tol once the contraction of the last
    two increments predicts that it meets fixed_point.tol.  The in_K flag
    records whether every iterate stayed in the unit sup-norm ball; it is
    diagnostic only and does not stop the iteration.
    """
    u0 = np.asarray(u0, dtype=float)
    xi = state_guess(fixed_point, u0, time)
    history, failure, in_k = [], None, True
    rel = prev = math.inf  # the relative increments of the last two iterations
    weights = None

    for it in range(1, fixed_point.max_iters + 1):
        sol = None  # the previous solution, but for xi, dies before the next drift is built
        drift = drift_from_state(xi, physics, domain, time)
        if weights is None or not carleman.freeze_after_first:
            weights = build_weights(drift.sup_norm, domain, time, carleman)
        if it > 2 and rel * min(rel, prev) <= fixed_point.tol * prev:
            cg_tol = hum.cg_tol
        else:
            cg_tol = max(hum.cg_tol, min(LOOSE_CG_TOL, CG_TOL_PER_INCREMENT * rel))
        sol = solve_penalized(u0, drift, weights, domain, time, replace(hum, cg_tol=cg_tol))
        if failure is None and not sol.cg_converged:
            failure = f"outer iteration {it}: {sol.failure}"
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
            "cg_iters": sol.cg_iters,
            "cg_tol": cg_tol,
        })
        scale = max(1.0, space_time_l2(xi, domain.h, time.dt))
        prev, rel = rel, increment / scale
        xi = xi_new
        if increment <= fixed_point.tol * scale and cg_tol == hum.cg_tol:
            break
    else:
        failure = failure or (f"fixed point stopped at fixed_point.max_iters="
                              f"{fixed_point.max_iters} with increment {increment:.3g}")

    verification, sweeps = verify_nonlinear(u0, sol.f, physics, domain, time, guide=xi)
    return NonlinearResult(
        u=xi, v=solve_elliptic(xi, physics, domain), f=sol.f,
        iterations=len(history), history=history, failure=failure, in_K=in_k,
        verification_terminal_l2=level_l2(verification[-1], domain.h),
        verification_sweeps=sweeps,
        hum_last=sol, weights=weights, m_matrix=m_matrix_report(drift, domain),
    )


# Relative change of a step iterate at which a verification step stops sweeping,
# and the sweeps after which it stops regardless.
INNER_TOL = 1e-10
MAX_SWEEPS = 5


@np.errstate(over="ignore")  # each sweep checks its state
def verify_nonlinear(u0: np.ndarray, f: np.ndarray, physics: PhysicsParams,
                     domain: DomainSpec, time: TimeGrid, guide=None):
    """Forward solve of the nonlinear discrete dynamics with a given control.

    Each implicit step runs a frozen-coefficient inner loop: the drift is
    recomputed from the elliptic solve of the step-midpoint state until the
    step iterate stabilizes (or after MAX_SWEEPS sweeps), each sweep one
    LAPACK dgtsv solve.  The first iterate of step k is u[k], or, given a guide
    trajectory (a fixed point, which solves nearly the same step equations),
    u[k] + guide[k+1] - guide[k] + 2 c_k - c_{k-1} (c_1 alone at k = 1), where
    c_j = (u - guide)[j] - (u - guide)[j-1] is the correction verified at step
    j: the extrapolation of solutions of nearby systems (Fischer, CMAME 163,
    1998).  Either way every step iterates to INNER_TOL.  Returns the trajectory
    and a dict with the total number of sweeps and the number of steps stopped
    at MAX_SWEEPS before meeting INNER_TOL ("capped_steps").  A breakdown, an
    elliptic source that overflows included, raises SolverError.
    """
    u0 = np.asarray(u0, dtype=float)
    if not np.all(np.isfinite(u0)):
        raise SolverError("non-finite initial data")
    mask = domain.omega_mask
    u = np.empty((time.n_steps + 1, domain.n_cells))
    u[0] = u0
    sweeps = capped = 0
    c_prev = c = 0.0  # the corrections verified at the last two steps of a guide
    for k in range(time.n_steps):
        rhs = u[k].copy()
        if f is not None:
            rhs[mask] += time.dt * f[k + 1][mask]
        step = None if guide is None else guide[k + 1] - guide[k]
        u_next = u[k].copy() if guide is None else u[k] + step + (2.0 * c - c_prev)
        for _ in range(MAX_SWEEPS):
            sweeps += 1
            try:
                v_mid = solve_elliptic(0.5 * (u[k] + u_next), physics, domain)
            except SolverError as exc:
                raise SolverError(f"{exc} at verification step {k + 1}") from None
            ab = step_matrix_banded(drift_from_v(v_mid, physics.chi, domain),
                                    domain, time.dt)
            *_, candidate, info = dgtsv(ab[2, :-1], ab[1], ab[0, 1:], rhs)
            if info != 0:
                raise SolverError(f"singular implicit step matrix at verification step {k + 1}")
            delta = level_l2(candidate - u_next, domain.h)
            if not math.isfinite(delta):
                raise SolverError(f"non-finite state after verification step {k + 1}")
            u_next = candidate
            if delta <= INNER_TOL * max(1.0, level_l2(u_next, domain.h)):
                break
        else:
            capped += 1
        if guide is not None:
            correction = u_next - u[k] - step
            c_prev, c = (c if k else correction), correction
        u[k + 1] = u_next
    return u, {"sweeps": sweeps, "capped_steps": capped,
               "max_sweeps": MAX_SWEEPS, "inner_tol": INNER_TOL}


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


def threshold_sweep(T_list, amplitude_grid, shape: np.ndarray, physics: PhysicsParams,
                    domain: DomainSpec, time: TimeGrid, **run_kwargs) -> dict:
    """Scan, per horizon, for the largest admissible initial amplitude.

    The initial data are u0 = a * shape, marched in time.n_steps steps over
    each horizon T.  For each T the amplitudes are scanned in increasing order; a
    cell counts as successful when the fixed point converges, stays in the
    unit ball, and the nonlinear verification terminal norm is below
    SUCCESS_REL_TERMINAL * |u0|_2; a SolverError fails the cell, with its
    message under "error".  The scan stops at the first failure, so
    the success indicator is monotone by construction.  The fitted c1_hat is
    the through-origin least-squares slope of -ln a*(T) against 1 + T + 1/T.
    """
    amplitude_grid = sorted(float(a) for a in amplitude_grid)
    if any(a <= 0.0 for a in amplitude_grid):
        raise ValueError("amplitude grid must be positive")
    rows = []
    for T in T_list:
        tgrid = replace(time, T=T)
        a_star = None
        cells = []
        for a in amplitude_grid:
            u0 = a * shape
            try:
                result = run_nonlinear(u0, physics, domain, tgrid, **run_kwargs)
            except SolverError as exc:
                cells.append({"amplitude": a, "success": False, "error": str(exc)})
                break
            u0_l2 = level_l2(u0, domain.h)
            ok = (result.converged and result.in_K
                  and result.verification_terminal_l2 <= SUCCESS_REL_TERMINAL * u0_l2)
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
            "kappa0": float(kappa_const(0.0, T)),
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
