"""Penalized null control of the linear drift equation via conjugate gradient
on the dual Gramian.

The optimality system of the penalized extremal problem reduces to a single
SPD equation for the dual terminal datum phiT:

    (G + eps I) phiT = -u_free(T),

where G phiT = u(T) obtained by: adjoint solve from phiT, weighted
restriction of the adjoint to the control region (the feedback relation),
forward solve from zero data.  The control is then f = 1_omega * w * phi and
the controlled state satisfies u(T) = -eps * phiT in exact arithmetic.

CG builds phiT as a sum of steps alpha p, and both phiT -> f and
phiT -> u - u_free are linear, so the control and the state are summed from
the feedback and forward trajectories of each G p as CG goes: no march
follows CG (penalized HUM, Boyer, ESAIM: Proc. 41, 2013).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .carleman import WeightTables
from .elliptic import DriftField
from .grid import DomainSpec, TimeGrid
from .parabolic import (Propagator, SolverError, check_levels, growth_constant, inner_l2,
                        level_l2, rho0_const, solve_adjoint, solve_forward)


# |u(T)|_2 / |u0|_2 at or below which a control counts as a null control: the
# threshold sweep's success rule, and the line below which a run does not warn.
SUCCESS_REL_TERMINAL = 0.05


def kappa_const(b_sup: float, T: float) -> float:
    """Observability exponent (1 + |B|^2)(1 + T) + 1/T."""
    return rho0_const(b_sup, T) + 1.0 / T


@dataclass(frozen=True)
class HumSettings:
    """The config's hum section: the penalty epsilon, and the relative residual
    and iteration cap at which CG stops."""

    epsilon: float = 1e-6
    cg_tol: float = 1e-10
    cg_max_iters: int = 500

    def __post_init__(self):
        for name in ("epsilon", "cg_tol"):
            if not (getattr(self, name) > 0.0):
                raise ValueError(f"{name} must be positive")
        if self.cg_max_iters < 1:
            raise ValueError("cg_max_iters must be at least 1")


@dataclass(frozen=True)
class HumSolution:
    """Control, trajectories and diagnostics of one penalized solve."""

    phiT: np.ndarray
    f: np.ndarray                 # (M+1, N), level 0 unused and zero
    u: np.ndarray                 # (M+1, N)
    u_free_terminal: np.ndarray   # u(T) of the uncontrolled trajectory
    terminal_norm: float          # |u(.,T)|_2
    terminal_ratio: float         # |u(.,T)|_2 / |u0|_2, 0 for zero data
    weighted_energy: float        # dt h sum f^2 / w over {w > 0}
    control_sup: float            # sup |1_omega f|
    cg_iters: int
    cg_residual: float            # relative residual at exit
    cg_converged: bool
    residual_history: list = field(repr=False)
    epsilon: float = 0.0
    kappa: float = 0.0
    scale: int = 0                # the solve ran on the data times 2^-scale
    scaled_energy: float = 0.0    # weighted_energy at that scale, 4^-scale of it

    @property
    def failure(self):
        """None for a converged CG, else the cap it stopped at and its residual."""
        return None if self.cg_converged else (f"CG stopped at hum.cg_max_iters={self.cg_iters}"
                                               f" with relative residual {self.cg_residual:.3g}")


def feedback_control(phi: np.ndarray, weights: WeightTables, domain: DomainSpec,
                     out=None) -> np.ndarray:
    """Control from the feedback relation: f^k = 1_omega w^k phi^{k-1}.

    The weight row for control level k lives at midpoint t_{k-1/2} and the
    adjoint value pairing with f^k under the exact transpose identity is the
    one stored at level k-1.  Levels outside omega, and the unused level 0,
    are exactly zero.  phi is (M+1, N) or a batch (M+1, N, K).  f is written
    in one pass, into out if given: a buffer of zeros outside omega and at
    level 0.
    """
    f = np.zeros(phi.shape) if out is None else out
    extra = (1,) * (phi.ndim - 2)
    np.multiply(weights.w.reshape(weights.w.shape + extra), phi[:-1], out=f[1:],
                where=domain.omega_mask.reshape(domain.omega_mask.shape + extra))
    return f


def _gramian_trajectory(phiT: np.ndarray, prop: Propagator, weights: WeightTables,
                        f=None) -> np.ndarray:
    """The forward trajectory driven from zero data by the feedback control
    of the adjoint from phiT (written into f if given); its last level is G phiT."""
    f = feedback_control(solve_adjoint(phiT, prop), weights, prop.domain, f)
    return solve_forward(np.zeros(f.shape[1:]), prop, f)


def gramian_apply(phiT: np.ndarray, drift: DriftField, weights: WeightTables,
                  domain: DomainSpec, time: TimeGrid) -> np.ndarray:
    """G phiT = terminal value of the forward solve driven by the feedback.

    phiT is (N,) or a batch (N, K) of data, one column each.
    """
    return _gramian_trajectory(phiT, Propagator(drift.faces, domain, time.dt),
                               weights)[-1].copy()


def dense_gramian(drift: DriftField, weights: WeightTables, domain: DomainSpec,
                  time: TimeGrid) -> np.ndarray:
    """Assemble G from all basis vectors in one batched apply (small grids only)."""
    return gramian_apply(np.eye(domain.n_cells), drift, weights, domain, time)


def solve_penalized(u0: np.ndarray, drift: DriftField, weights: WeightTables,
                    domain: DomainSpec, time: TimeGrid,
                    settings: HumSettings = HumSettings()) -> HumSolution:
    """Conjugate gradient on (G + eps I) phiT = -u_free(T); the control and
    the state are summed from CG's own trajectories (see the module
    docstring), so a solve marches 1 + 2 cg_iters times.

    The solve runs on the data scaled by the power of two that gives
    u_free(T) unit size, and scales every result back: exactly, wherever no
    value is subnormal, so tiny data cannot underflow the CG.  A CG curvature
    that is not positive, or an energy past the float range, raises
    SolverError.  Non-convergence within the iteration cap is returned as a
    flag rather than raised: the operator is SPD, so a stall signals
    conditioning trouble, not a wrong answer.
    """
    u0 = np.asarray(u0, dtype=float)
    h = domain.h
    prop = Propagator(drift.faces, domain, time.dt)  # every march of the solve shares it
    u = solve_forward(u0, prop)  # free, then controlled
    u_free_terminal = u[-1].copy()
    e = math.frexp(float(np.abs(u_free_terminal).max()))[1]  # u(T) is 2^e x unit size
    np.ldexp(u, -e, out=u)
    rhs = -u[-1]
    rhs_norm = level_l2(rhs, h)
    cells = np.flatnonzero(domain.omega_mask)
    omega = slice(cells[0], cells[-1] + 1)  # DomainSpec makes omega one run of cells
    f_p = np.zeros(u.shape)
    f_omega = np.zeros(f_p[1:, omega].shape)  # the control on omega, summed as CG goes

    phiT, history, iters, converged = np.zeros(domain.n_cells), [], 0, rhs_norm == 0.0
    if not converged:
        r, p = rhs.copy(), rhs.copy()
        rs = inner_l2(r, r, h)
        for iters in range(1, settings.cg_max_iters + 1):
            u_p = _gramian_trajectory(p, prop, weights, f_p)
            ap = u_p[-1] + settings.epsilon * p
            curvature = inner_l2(p, ap, h)
            alpha = rs / curvature if curvature > 0.0 else math.nan
            if not math.isfinite(alpha):
                raise SolverError(f"CG breakdown at iteration {iters}: curvature {curvature:.3g}")
            phiT = phiT + alpha * p
            f_omega += np.multiply(f_p[1:, omega], alpha, out=f_p[1:, omega])
            u += np.multiply(u_p, alpha, out=u_p)
            del u_p  # free this step's trajectory before the next march
            r = r - alpha * ap
            rs_new = inner_l2(r, r, h)
            history.append(float(np.sqrt(rs_new) / rhs_norm))
            if np.sqrt(rs_new) <= settings.cg_tol * rhs_norm:
                converged = True
                break
            p = r + (rs_new / rs) * p
            rs = rs_new
    del f_p, prop  # the marching is done: free its factors
    f = np.zeros(u.shape)  # before the energy, which sums over every cell in this order
    f[1:, omega] = f_omega

    positive = weights.w > 0.0
    energy = time.dt * h * float(np.sum(np.square(f[1:][positive]) / weights.w[positive]))
    terminal, initial = level_l2(u[-1], h), level_l2(u[0], h)  # at the solve's scale
    try:
        weighted, terminal_norm = math.ldexp(energy, 2 * e), math.ldexp(terminal, e)
    except OverflowError:
        raise SolverError("the control energy of these data overflows the float range") from None
    for x in (phiT, f, u):
        np.ldexp(x, e, out=x)
    check_levels(u, "non-finite state after forward step {}", first=True)
    check_levels(f, "non-finite control at level {}", first=True)
    return HumSolution(
        phiT=phiT, f=f, u=u, u_free_terminal=u_free_terminal, terminal_norm=terminal_norm,
        terminal_ratio=terminal / initial if initial > 0.0 else 0.0,
        weighted_energy=weighted, control_sup=float(np.abs(f).max()), cg_iters=iters,
        cg_residual=history[-1] if history else 0.0, cg_converged=converged,
        residual_history=history, epsilon=float(settings.epsilon),
        kappa=kappa_const(drift.sup_norm, time.T), scale=e, scaled_energy=energy,
    )


def control_bound_report(sol: HumSolution, u0: np.ndarray, domain: DomainSpec) -> dict:
    """Empirical constants of the sup-norm and weighted-energy control bounds.

    C_hat_f = ln(sup |f| / |u0|_2) / kappa, and the energy analogue uses
    the value of twice the penalized functional at the optimum.  null_control
    is false for a control that leaves |u(T)| above SUCCESS_REL_TERMINAL |u0|,
    whose C_hat_* are then not the cost of a null control.
    """
    u0_l2 = level_l2(np.asarray(u0, dtype=float), domain.h)
    # squares at the solve's scale, where tiny data do not underflow (same bits otherwise)
    u0_scaled = math.ldexp(u0_l2, -sol.scale)
    lhs = sol.scaled_energy + math.ldexp(sol.terminal_norm, -sol.scale) ** 2 / sol.epsilon
    return {"kappa": sol.kappa, "u0_l2": u0_l2, "control_sup": sol.control_sup,
            "weighted_energy": sol.weighted_energy, "degenerate": bool(u0_l2 == 0.0),
            "null_control": sol.terminal_ratio <= SUCCESS_REL_TERMINAL,
            "C_hat_f": growth_constant(sol.control_sup, u0_l2, sol.kappa),
            "C_hat_energy": growth_constant(lhs, u0_scaled ** 2, sol.kappa)}
