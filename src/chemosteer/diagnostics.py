"""Empirical probes: observability ratio sampling, the level-set recursion
lemma, and the small constant evaluators used by the reports.

The observability ratio of a terminal datum phiT is

    |phi(., 0)|_2^2  /  (dt h sum_{k, omega} w_k phi_{k-1}^2),

the denominator being exactly the Gramian quadratic form.  Random sampling
bounds the hidden constant from below only; for small grids a dense
generalized eigensolve gives the extremal ratio.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .carleman import WeightTables
from .elliptic import DriftField
from .grid import DomainSpec, TimeGrid
from .hum import adjoint_energy, dense_gramian, kappa_const
from .parabolic import level_l2, solve_adjoint


_BATCH_FLOATS = 1 << 18


@dataclass(frozen=True)
class ObservabilityReport:
    """Sampled observability ratios for one drift/weight configuration."""

    n_samples: int
    max_ratio: float
    quantiles: dict
    kappa: float
    c_hat_obs: float
    ratios: list


@dataclass(frozen=True)
class RecursionSpec:
    """Constants of the recursion Y_{s+1} <= c b^s Y_s^{1+eps}, b >= 1."""

    c: float
    b: float
    eps: float

    def __post_init__(self):
        if self.c <= 0.0 or self.eps <= 0.0:
            raise ValueError("c and eps must be positive")
        if self.b < 1.0:
            raise ValueError("b must be >= 1")

    @property
    def threshold(self) -> float:
        return self.c ** (-1.0 / self.eps) * self.b ** (-1.0 / self.eps ** 2)


def _unit_sample(rng, domain: DomainSpec) -> np.ndarray:
    """Random terminal datum of unit discrete L2 norm; zero draws resampled."""
    while True:
        phiT = rng.standard_normal(domain.n_cells)
        norm = level_l2(phiT, domain.h)
        if norm > 0.0:
            return phiT / norm


def observability_probe(drift: DriftField, weights: WeightTables,
                        domain: DomainSpec, time: TimeGrid,
                        n_samples: int, rng_seed: int) -> ObservabilityReport:
    """Ratio statistics over random unit-L2 terminal data (seeded).

    Zero draws are rejected and resampled; every reported ratio is finite
    and positive because the weight peak sits inside the control region.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(rng_seed)
    samples = np.column_stack([_unit_sample(rng, domain) for _ in range(n_samples)])
    # batches of at most _BATCH_FLOATS trajectory values bound the memory
    size = max(1, _BATCH_FLOATS // ((time.n_steps + 1) * domain.n_cells))
    ratios_arr = np.concatenate([
        observability_ratio(samples[:, j:j + size], drift, weights, domain, time)
        for j in range(0, n_samples, size)])
    max_ratio = float(ratios_arr.max())
    kappa = kappa_const(drift.sup_norm, time.horizon_T)
    return ObservabilityReport(
        n_samples=n_samples,
        max_ratio=max_ratio,
        quantiles={
            "q50": float(np.quantile(ratios_arr, 0.5)),
            "q90": float(np.quantile(ratios_arr, 0.9)),
            "q100": max_ratio,
        },
        kappa=kappa,
        c_hat_obs=float(np.log(max_ratio) / kappa),
        ratios=ratios_arr.tolist(),
    )


def observability_ratio(phiT: np.ndarray, drift: DriftField,
                        weights: WeightTables, domain: DomainSpec,
                        time: TimeGrid):
    """Observability ratio of a terminal datum (N,), or one per column of a
    batch (N, K), from a single adjoint march."""
    phi = solve_adjoint(phiT, drift, domain, time)
    denom = adjoint_energy(phi, weights, domain, time)
    num = domain.h * np.sum(np.square(phi[0]), axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom > 0.0, num / denom, np.inf)[()]


def observability_extremal_ratio(drift: DriftField, weights: WeightTables,
                                 domain: DomainSpec, time: TimeGrid,
                                 ridge: float = 1e-14) -> float:
    """Extremal ratio via a dense generalized eigensolve (small grids).

    Assembles the map phiT -> phi(., 0) and the Gramian densely and solves
    S^T S x = mu G x; the Gramian is regularized by a relative ridge, so the
    value is a lower bound on the true extremal ratio.
    """
    n = domain.n_cells
    if n > 64:
        raise ValueError("dense extremal mode is limited to n_cells <= 64")
    s_map = solve_adjoint(np.eye(n), drift, domain, time)[0]
    g = dense_gramian(drift, weights, domain, time)
    g = 0.5 * (g + g.T)
    g_reg = g + ridge * (np.trace(g) / n) * np.eye(n)
    # both forms carry the same cell-quadrature factor h
    a = domain.h * (s_map.T @ s_map)
    b = domain.h * g_reg
    vals = scipy.linalg.eigh(a, b, eigvals_only=True)
    return float(vals[-1])


def recursion_threshold(spec: RecursionSpec) -> float:
    """Largest Y0 for which the recursion lemma guarantees decay."""
    return spec.threshold


def recursion_simulate(spec: RecursionSpec, y0: float, n_steps: int) -> dict:
    """Run the recursion at equality, Y_{s+1} = c b^s Y_s^{1+eps}.

    Carried in log space so the trajectory is representable far past where
    the raw values overflow.  The verdict is not read off the trajectory:
    the offset Z_s = log(Y_s / Y*_s) from the threshold trajectory satisfies
    Z_{s+1} = (1 + eps) Z_s, so its sign is conserved while its magnitude is
    amplified every step -- any trajectory-based test misfires near the
    threshold, where rounding in Y0 is blown up double-exponentially.  The
    verdict therefore classifies by sign(Z_0) within a small tolerance:
    below the threshold the sequence decays, above it it diverges, and at
    the threshold it decays exactly when b > 1 (for b = 1 it is constant,
    reported as "undecided").
    """
    if y0 < 0.0:
        raise ValueError("Y0 must be nonnegative")
    if y0 == 0.0:
        return {"sequence": [0.0] * (n_steps + 1), "verdict": "decays"}
    log_c = math.log(spec.c)
    log_b = math.log(spec.b)
    log_thr = -log_c / spec.eps - log_b / spec.eps ** 2
    z0 = math.log(y0) - log_thr
    if abs(z0) <= 1e-12 * max(1.0, abs(log_thr)):
        verdict = "decays" if spec.b > 1.0 else "undecided"
    elif z0 < 0.0:
        verdict = "decays"
    else:
        verdict = "diverges"

    log_y = math.log(y0)
    seq = [y0]
    for s in range(n_steps):
        log_y = log_c + s * log_b + (1.0 + spec.eps) * log_y
        seq.append(math.exp(log_y) if log_y < 700.0 else float("inf"))
        if abs(log_y) > 700.0:
            break
    return {"sequence": seq, "verdict": verdict}
