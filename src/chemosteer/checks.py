"""Invariant registry: each exact identity of the solver suite, written once.

The measuring functions take the problem to check, so the selftest, the CLI
and the tests run them at their own sizes.  ``CHECKS`` lists ``(name,
tolerance, measure)``; ``measure(problem)`` on the selftest problem returns
the value, ``(value, ok)`` when passing is not ``value <= tolerance``, or
``float(not holds)`` for a property that must hold.
"""

from types import SimpleNamespace

import numpy as np

from .carleman import build_weights
from .diagnostics import RecursionSpec, recursion_simulate
from .elliptic import DriftField, PhysicsParams, drift_from_v, solve_elliptic
from .grid import DomainSpec, TimeGrid, beta_values
from .hum import HumSettings, dense_gramian, gramian_apply, solve_penalized
from .nonlinear import FixedPointSettings, run_nonlinear
from .parabolic import (Propagator, SolverError, adjoint_observation, inner_l2, level_l2,
                        solve_adjoint, solve_forward)


def beta_derivative(x, x0: float):
    """Analytic derivative of grid.beta_values."""
    eta = (2.0 * x0 - 1.0) / (x0 * (1.0 - x0))
    x = np.asarray(x, dtype=float)
    return np.exp(eta * (x - x0)) * ((1.0 - 2.0 * x) + eta * x * (1.0 - x))


def profile_certificate(domain) -> dict:
    """The profile's invariants, checked on a dense grid of at least 10 N points:
    positive inside (0, 1), zero at 0 and 1, a nonvanishing derivative outside the
    control region, and one sign change of the derivative, between two grid points
    that bracket x0 (exact zeros of the derivative skipped).  "ok" is whether all hold."""
    x0 = domain.x0
    xs = np.linspace(0.0, 1.0, max(10 * domain.n_cells, 1000) + 1)
    bs, ds = beta_values(xs, x0), beta_derivative(xs, x0)
    outside = (xs <= domain.omega_a) | (xs >= domain.omega_b)
    nz = np.flatnonzero(ds)
    at = np.flatnonzero(np.diff(np.sign(ds[nz])))  # sign changes between nz[at] and nz[at + 1]
    lo, hi = xs[nz[at]], xs[nz[at + 1]]
    v = {"beta_at_0": float(bs[0]), "beta_at_1": float(bs[-1]),
         "min_interior": float(bs[1:-1].min()),
         "min_abs_deriv_outside_omega": float(np.abs(ds[outside]).min()),
         "deriv_at_x0": float(beta_derivative(x0, x0)), "n_sign_changes": len(at),
         "sign_change_locations": [float(x) for x in 0.5 * (lo + hi)]}
    v["ok"] = bool(bs[0] == 0.0 and bs[-1] == 0.0 and v["min_interior"] > 0.0
                   and v["min_abs_deriv_outside_omega"] > 0.0 and abs(v["deriv_at_x0"]) < 1e-10
                   and len(at) == 1 and lo[0] <= x0 <= hi[0])
    return v


def random_drift(rng, domain, tgrid, amplitude=1.0, per_step=False):
    """Drift uniform in (-amplitude, amplitude), exactly zero on the boundary faces."""
    rows = (tgrid.n_steps,) if per_step else ()
    faces = np.zeros(rows + (domain.n_cells + 1,))
    faces[..., 1:-1] = rng.uniform(-amplitude, amplitude, rows + (domain.n_cells - 1,))
    return DriftField(faces=faces) if per_step else DriftField.constant(faces, tgrid)


def duality_defect(u0, f, phiT, drift, domain, tgrid, adjoint=solve_adjoint) -> float:
    """Relative defect of <u(T), phiT> = <u0, phi(0)> + dt h sum_k <1_omega f_k, phi_{k-1}>,
    u marched forward from u0 with control f (or None), phi backward from phiT."""
    h, prop = domain.h, Propagator(drift.faces, domain, tgrid.dt)
    phi = adjoint(phiT, prop)
    lhs = inner_l2(solve_forward(u0, prop, f)[-1], phiT, h)
    rhs = inner_l2(u0, phi[0], h)
    if f is not None:
        masked = np.where(domain.omega_mask[None, :], f[1:], 0.0)
        rhs += tgrid.dt * h * float(np.sum(masked * phi[:-1]))
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


def gramian_defects(x, y, drift, weights, domain, tgrid) -> dict:
    """Gramian defects at x, y: "symmetry" |<Gx, y> - <x, Gy>| / (|x| |y|), "psd"
    -<Gx, x>, and "energy" the relative gap of <Gx, x> to adjoint_observation's energy."""
    h, prop = domain.h, Propagator(drift.faces, domain, tgrid.dt)
    gx, gy = gramian_apply(np.column_stack((x, y)), prop, weights)[-1].T
    q = inner_l2(gx, x, h)
    energy = float(adjoint_observation(x, weights.w, prop)[1])
    return {"symmetry": abs(inner_l2(gx, y, h) - inner_l2(x, gy, h))
            / max(level_l2(x, h) * level_l2(y, h), 1e-300),
            "psd": -q, "energy": abs(q - energy) / max(energy, 1e-300)}


def dense_kkt_deviation(u0, drift, weights, domain, tgrid, epsilon) -> float:
    """Relative distance of the CG dual datum from the dense solve of the
    penalized optimality system (G + eps I) phiT = -u_free(T)."""
    sol = solve_penalized(u0, drift, weights, domain, tgrid,
                          HumSettings(epsilon=epsilon, cg_tol=1e-13, cg_max_iters=2000))
    g = dense_gramian(drift, weights, domain, tgrid)
    direct = np.linalg.solve(g + epsilon * np.eye(domain.n_cells), -sol.u_free_terminal)
    return level_l2(sol.phiT - direct, domain.h) / max(level_l2(direct, domain.h), 1e-300)


def refinement_ratio(error) -> float:
    """error(domain) at N = 32 over N = 64: 4 for a second-order scheme."""
    e32, e64 = (error(DomainSpec(n)) for n in (32, 64))
    return e32 / e64


def difference_ratios(values) -> np.ndarray:
    """(v_k - v_k+1) / (v_k+1 - v_k+2) of a quantity on meshes halved in turn:
    4 at second order, 2 at first order."""
    d = np.diff(values)
    return d[:-1] / d[1:]


def refined_control(n_cells, epsilon=None) -> tuple:
    """(weighted energy, terminal norm, terminal / (sqrt(eps) |u0|)) of the control
    of u0 = 1e-2 (1 + cos pi x) / 2 without drift, T = 1, N = n_cells, M = 2N;
    epsilon None is Boyer's eps = h^4, which keeps the last one bounded as h -> 0."""
    domain, tgrid = DomainSpec(n_cells), TimeGrid(1.0, 2 * n_cells)
    weights = build_weights(0.0, domain, tgrid)
    hum = HumSettings(epsilon=domain.h ** 4 if epsilon is None else epsilon)
    u0 = 1e-2 * (1.0 + np.cos(np.pi * domain.centers)) / 2.0
    sol = solve_penalized(u0, DriftField.zero(domain, tgrid), weights, domain, tgrid, hum)
    return (sol.weighted_energy, sol.terminal_norm,
            sol.terminal_norm / (np.sqrt(hum.epsilon) * level_l2(u0, domain.h)))


def refined_nonlinear(n_cells, epsilon=None, chi=10.0) -> tuple:
    """(weighted energy, terminal norm, outer iterations, relative gap of the verified
    terminal norm, terminal / (sqrt(eps) |u0|), that gap over the last outer increment)
    of the fixed point for u0 = 0.5 (1 + cos pi x) / 2 with drift chi dv/dx, T = 1,
    fixed_point.tol = 1e-10, N = n_cells, M = 2N; epsilon None is Boyer's eps = h^4."""
    domain, tgrid = DomainSpec(n_cells), TimeGrid(1.0, 2 * n_cells)
    u0 = 0.5 * (1.0 + np.cos(np.pi * domain.centers)) / 2.0
    hum = HumSettings(epsilon=domain.h ** 4 if epsilon is None else epsilon)
    result = run_nonlinear(u0, PhysicsParams(chi=chi), domain, tgrid, hum=hum,
                           fixed_point=FixedPointSettings(tol=1e-10))
    if not result.converged:
        raise SolverError(f"refined_nonlinear at N={n_cells}: {result.failure}")
    sol = result.hum_last
    gap = abs(result.verification_terminal_l2 - sol.terminal_norm)
    return (sol.weighted_energy, sol.terminal_norm, result.iterations, gap / sol.terminal_norm,
            sol.terminal_norm / (np.sqrt(hum.epsilon) * level_l2(u0, domain.h)),
            gap / result.history[-1]["increment"])


def elliptic_error(dom) -> float:
    """Max error of the elliptic solve of v = cos(pi x) from eta = (pi^2 + 1) v."""
    v = np.cos(np.pi * dom.centers)
    phys = PhysicsParams(chi=1.0, gamma=1.0, delta=1.0)
    return np.abs(solve_elliptic((np.pi ** 2 + 1.0) * v, phys, dom) - v).max()


def mass_drift(u0, drift, domain, tgrid) -> float:
    """Largest change of the mass h sum(u) over a force-free march, relative to its start."""
    mass = domain.h * solve_forward(u0, Propagator(drift.faces, domain, tgrid.dt)).sum(axis=1)
    return float(np.abs(mass - mass[0]).max()) / max(abs(mass[0]), 1e-300)


def weight_chain_holds(weights) -> bool:
    """alpha0 <= alpha <= alpha0 / (1 + omega(lambda)) everywhere, alpha0 the level minimum."""
    alpha0 = weights.alpha.min(axis=1, keepdims=True)
    return bool(np.all(weights.alpha <= alpha0 / (1.0 + weights.params.omega_of_lambda))
                and np.all(weights.alpha >= alpha0))


def recursion_hand_rows() -> tuple:
    """Whether Y_{s+1} = c b^s Y_s^{1+eps} gives two cases worked by hand, (b=1, b=2):
    c=2, eps=1, Y0=0.4: Y1 = 2 * 0.4^2, Y2 = 2 * Y1^2, decays;
    c=1, eps=1, Y0=0.9: Y1 = 0.9^2, Y2 = 2 * Y1^2, diverges."""
    r1 = recursion_simulate(RecursionSpec(c=2.0, b=1.0, eps=1.0), 0.4, 10)
    r2 = recursion_simulate(RecursionSpec(c=1.0, b=2.0, eps=1.0), 0.9, 300)
    return (abs(r1["sequence"][1] - 0.32) < 1e-15 and abs(r1["sequence"][2] - 0.2048) < 1e-15
            and r1["verdict"] == "decays",
            abs(r2["sequence"][1] - 0.81) < 1e-15 and abs(r2["sequence"][2] - 1.3122) < 1e-12
            and r2["verdict"] == "diverges")


def elliptic_constant_defect(domain) -> float:
    """Max error of the elliptic solve for a unit source, solved by delta/gamma = 2."""
    phys = PhysicsParams(chi=1.0, gamma=2.0, delta=4.0)
    return float(np.abs(solve_elliptic(np.ones(domain.n_cells), phys, domain) - 2.0).max())


def forward_constant_defect(value, domain, tgrid) -> float:
    """Max change of a constant state over a force-free march without drift."""
    prop = Propagator(DriftField.zero(domain, tgrid).faces, domain, tgrid.dt)
    return float(np.abs(solve_forward(np.full(domain.n_cells, value), prop) - value).max())


def zero_data_control(drift, weights, domain, tgrid) -> float:
    """Terminal norm plus sup of the penalized control for zero initial data."""
    sol = solve_penalized(np.zeros(domain.n_cells), drift, weights, domain, tgrid)
    return sol.terminal_norm + sol.control_sup


def selftest_problem(corrupt_adjoint=False) -> SimpleNamespace:
    """The selftest problem, drawn in order from one seeded stream: N=32, M=24,
    T=1 with a random constant drift, plus an 8x8 one for the dense oracle.
    corrupt_adjoint scales the adjoint of the duality checks by 1 + 1e-6,
    which proves that they can fail."""
    rng = np.random.default_rng(42)
    domain, tgrid = DomainSpec(32), TimeGrid(1.0, 24)
    p = SimpleNamespace(domain=domain, tgrid=tgrid, adjoint=solve_adjoint,
                        v=rng.standard_normal(32))
    if corrupt_adjoint:
        p.adjoint = lambda *args: solve_adjoint(*args) * (1.0 + 1e-6)
    p.drift = random_drift(rng, domain, tgrid)
    p.u0, p.phiT, p.f = (rng.standard_normal(s) for s in (32, 32, (25, 32)))
    p.weights = build_weights(p.drift.sup_norm, domain, tgrid)
    p.x, p.y = rng.standard_normal(32), rng.standard_normal(32)
    dom8, tg8 = DomainSpec(8, 0.25, 0.75, 0.5), TimeGrid(1.0, 8)
    drift8 = random_drift(rng, dom8, tg8)
    p.oracle = (rng.standard_normal(8), drift8, build_weights(drift8.sup_norm, dom8, tg8),
                dom8, tg8, 1e-4)
    return p


def _gramian(key):
    return lambda p: gramian_defects(p.x, p.y, p.drift, p.weights, p.domain, p.tgrid)[key]


CHECKS = [
    ("beta-validation", 1e-10,
     lambda p: (abs((v := profile_certificate(p.domain))["deriv_at_x0"]), v["ok"])),
    ("omega-mask-count", 0.5,
     lambda p: abs(int(p.domain.omega_mask.sum())
                   - int(np.sum((p.domain.centers > 0.3) & (p.domain.centers < 0.7))))),
    ("elliptic-constant", 1e-12, lambda p: elliptic_constant_defect(p.domain)),
    ("elliptic-convergence", 0.5, lambda p: abs(refinement_ratio(elliptic_error) - 4.0)),
    ("drift-boundary-zero", 0.0, lambda p: abs(drift_from_v(p.v, 1.0, p.domain)[[0, -1]]).max()),
    ("forward-constant", 1e-12, lambda p: forward_constant_defect(1.0, p.domain, p.tgrid)),
    ("mass-conservation", 1e-12, lambda p: mass_drift(p.u0, p.drift, p.domain, p.tgrid)),
    ("duality-terminal", 1e-12,
     lambda p: duality_defect(p.u0, None, p.phiT, p.drift, p.domain, p.tgrid, p.adjoint)),
    ("duality-control", 1e-12, lambda p: duality_defect(
        np.zeros(32), p.f, p.phiT, p.drift, p.domain, p.tgrid, p.adjoint)),
    ("gramian-symmetry", 1e-10, _gramian("symmetry")),
    ("gramian-psd", 1e-12, _gramian("psd")),
    ("gramian-qform-identity", 1e-10, _gramian("energy")),
    ("weight-negativity", 0.0, lambda p: (p.weights.alpha.max(), p.weights.alpha.max() < 0.0)),
    ("weight-chain", 0.5, lambda p: float(not weight_chain_holds(p.weights))),
    ("param-constraints", 0.5, lambda p: float(not p.weights.params.constraints_certified())),
    ("recursion-hand-rows", 0.5, lambda p: float(not all(recursion_hand_rows()))),
    ("hum-zero-data", 0.0, lambda p: zero_data_control(p.drift, p.weights, p.domain, p.tgrid)),
    ("dense-oracle", 1e-8, lambda p: dense_kkt_deviation(*p.oracle)),
]


def evaluate(measure, tolerance, problem) -> tuple:
    """(value, ok) of one registry check on problem."""
    value = measure(problem)
    value, ok = value if isinstance(value, tuple) else (value, value <= tolerance)
    return float(value), bool(ok)


def run_checks(corrupt_adjoint=False) -> list:
    """(name, tolerance, value, ok) of every registry check, in order."""
    p = selftest_problem(corrupt_adjoint)
    return [(name, tol, *evaluate(measure, tol, p)) for name, tol, measure in CHECKS]
