"""Penalized null control of the linear drift equation via conjugate gradient
on the dual Gramian.

The optimality system of the penalized extremal problem reduces to a single
SPD equation for the dual terminal datum phiT:

    (G + eps I) phiT = -u_free(T),

where G phiT = u(T) obtained by: adjoint solve from phiT, weighted
restriction of the adjoint to the control region (the feedback relation),
forward solve from zero data.  The control is then f = 1_omega * w * phi and
the controlled state satisfies u(T) = -eps * phiT in exact arithmetic.
"""

from dataclasses import dataclass, field

import numpy as np

from .carleman import WeightTables
from .elliptic import DriftField
from .grid import DomainSpec, TimeGrid
from .parabolic import inner_l2, level_l2, solve_adjoint, solve_forward


def kappa_const(b_sup: float, T: float) -> float:
    """Observability exponent (1 + |B|^2)(1 + T) + 1/T."""
    return (1.0 + b_sup * b_sup) * (1.0 + T) + 1.0 / T


@dataclass(frozen=True)
class HumSolution:
    """Control, trajectories and diagnostics of one penalized solve."""

    phiT: np.ndarray
    f: np.ndarray                 # (M+1, N), level 0 unused and zero
    u: np.ndarray                 # (M+1, N)
    u_free_terminal: np.ndarray   # u(T) of the uncontrolled trajectory
    terminal_norm: float          # |u(.,T)|_2
    weighted_energy: float        # dt h sum f^2 / w over {w > 0}
    control_sup: float            # sup |1_omega f|
    cg_iters: int
    cg_residual: float            # relative residual at exit
    cg_converged: bool
    residual_history: list = field(repr=False)
    epsilon: float = 0.0
    kappa: float = 0.0


def feedback_control(phi: np.ndarray, weights: WeightTables,
                     domain: DomainSpec) -> np.ndarray:
    """Control from the feedback relation: f^k = 1_omega w^k phi^{k-1}.

    The weight row for control level k lives at midpoint t_{k-1/2} and the
    adjoint value pairing with f^k under the exact transpose identity is the
    one stored at level k-1.  Levels outside omega, and the unused level 0,
    are exactly zero.  phi is (M+1, N) or a batch (M+1, N, K).
    """
    w = weights.w.reshape(weights.w.shape + (1,) * (phi.ndim - 2))
    f = np.zeros(phi.shape)
    f[1:] = w * phi[:-1]
    f[:, ~domain.omega_mask] = 0.0
    return f


def gramian_apply(phiT: np.ndarray, drift: DriftField, weights: WeightTables,
                  domain: DomainSpec, time: TimeGrid) -> np.ndarray:
    """G phiT = terminal value of the forward solve driven by the feedback.

    phiT is (N,) or a batch (N, K) of data, one column each.
    """
    phi = solve_adjoint(phiT, drift, domain, time)
    f = feedback_control(phi, weights, domain)
    u = solve_forward(np.zeros(phi.shape[1:]), drift, f, domain, time)
    return u[-1].copy()


def adjoint_energy(phi: np.ndarray, weights: WeightTables, domain: DomainSpec,
                   time: TimeGrid):
    """Weighted energy dt h sum_{k, omega} w_k phi_{k-1}^2 of an adjoint
    trajectory, one per column of a batch; <G phiT, phiT> for phi from phiT."""
    w = np.where(domain.omega_mask, weights.w, 0.0)
    return time.dt * domain.h * np.einsum("kn,kn...,kn...->...", w, phi[:-1], phi[:-1])


def gramian_quadratic_form(phiT: np.ndarray, drift: DriftField,
                           weights: WeightTables, domain: DomainSpec,
                           time: TimeGrid) -> float:
    """<G phiT, phiT> computed directly as the weighted adjoint energy."""
    return float(adjoint_energy(solve_adjoint(phiT, drift, domain, time),
                                weights, domain, time))


def dense_gramian(drift: DriftField, weights: WeightTables, domain: DomainSpec,
                  time: TimeGrid) -> np.ndarray:
    """Assemble G from all basis vectors in one batched apply (small grids only)."""
    return gramian_apply(np.eye(domain.n_cells), drift, weights, domain, time)


def solve_penalized(u0: np.ndarray, drift: DriftField, weights: WeightTables,
                    domain: DomainSpec, time: TimeGrid, epsilon: float,
                    cg_tol: float = 1e-10, cg_max_iters: int = 500) -> HumSolution:
    """Conjugate gradient on (G + eps I) phiT = -u_free(T), then synthesis.

    Non-convergence within the iteration cap is returned as a flag rather
    than raised: the operator is SPD, so a stall signals conditioning
    trouble, not a wrong answer.
    """
    if epsilon <= 0.0:
        raise ValueError(f"penalty parameter must be positive, got {epsilon}")
    u0 = np.asarray(u0, dtype=float)
    h = domain.h
    u_free = solve_forward(u0, drift, None, domain, time)
    rhs = -u_free[-1]
    rhs_norm = level_l2(rhs, h)

    phiT = np.zeros(domain.n_cells)
    history = []
    iters = 0
    converged = True
    if rhs_norm > 0.0:
        converged = False
        r = rhs.copy()
        p = r.copy()
        rs = inner_l2(r, r, h)
        for iters in range(1, cg_max_iters + 1):
            ap = gramian_apply(p, drift, weights, domain, time) + epsilon * p
            alpha = rs / inner_l2(p, ap, h)
            phiT = phiT + alpha * p
            r = r - alpha * ap
            rs_new = inner_l2(r, r, h)
            history.append(float(np.sqrt(rs_new) / rhs_norm))
            if np.sqrt(rs_new) <= cg_tol * rhs_norm:
                converged = True
                break
            p = r + (rs_new / rs) * p
            rs = rs_new

    phi = solve_adjoint(phiT, drift, domain, time)
    f = feedback_control(phi, weights, domain)
    u = solve_forward(u0, drift, f, domain, time)

    positive = weights.w > 0.0
    fw = f[1:]
    energy = time.dt * h * float(
        np.sum(np.square(fw[positive]) / weights.w[positive])
    )
    return HumSolution(
        phiT=phiT, f=f, u=u, u_free_terminal=u_free[-1],
        terminal_norm=level_l2(u[-1], h),
        weighted_energy=energy,
        control_sup=float(np.abs(f).max()),
        cg_iters=iters,
        cg_residual=history[-1] if history else 0.0,
        cg_converged=converged,
        residual_history=history,
        epsilon=float(epsilon),
        kappa=kappa_const(drift.sup_norm, time.horizon_T),
    )


def control_bound_report(sol: HumSolution, u0: np.ndarray, domain: DomainSpec) -> dict:
    """Empirical constants of the sup-norm and weighted-energy control bounds.

    C_hat_f = ln(sup |f| / |u0|_2) / kappa, and the energy analogue uses
    the value of twice the penalized functional at the optimum.
    """
    u0_l2 = level_l2(np.asarray(u0, dtype=float), domain.h)
    report = {
        "kappa": sol.kappa,
        "u0_l2": u0_l2,
        "control_sup": sol.control_sup,
        "weighted_energy": sol.weighted_energy,
        "degenerate": bool(u0_l2 == 0.0),
    }
    if u0_l2 == 0.0:
        report["C_hat_f"] = float("nan")
        report["C_hat_energy"] = float("nan")
        return report
    if sol.control_sup > u0_l2:
        report["C_hat_f"] = float(np.log(sol.control_sup / u0_l2) / sol.kappa)
    else:
        report["C_hat_f"] = float("-inf")
    lhs = sol.weighted_energy + sol.terminal_norm ** 2 / sol.epsilon
    if lhs > u0_l2 ** 2:
        report["C_hat_energy"] = float(np.log(lhs / u0_l2 ** 2) / sol.kappa)
    else:
        report["C_hat_energy"] = float("-inf")
    return report
