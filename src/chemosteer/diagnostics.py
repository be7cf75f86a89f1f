"""Empirical probes: observability ratio sampling and the level-set recursion
lemma.

The observability ratio of a terminal datum phiT is

    |phi(., 0)|_2^2  /  (dt h sum_{k, omega} w_k phi_{k-1}^2),

the denominator being exactly the Gramian quadratic form.  Random sampling
bounds the hidden constant from below only.
"""

import math
from dataclasses import dataclass

import numpy as np

from .carleman import WeightTables
from .elliptic import DriftField
from .grid import DomainSpec, TimeGrid
from .hum import kappa_const
from .parabolic import Propagator, adjoint_observation, level_l2


@dataclass(frozen=True)
class ObservabilityReport:
    """Sampled observability ratios for one drift/weight configuration."""

    n_samples: int
    max_ratio: float
    quantiles: dict
    kappa: float
    c_hat_obs: float
    ratios: list
    constant_mode: dict


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
    constant_mode is the ratio of the constant datum, the batch's last column,
    and its closed form 1 / (dt h sum_omega w), exact for the zero drift.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(rng_seed)
    batch = np.column_stack([_unit_sample(rng, domain) for _ in range(n_samples)]
                            + [np.ones(domain.n_cells)])
    *ratios, constant = observability_ratio(batch, drift, weights, domain, time).tolist()
    max_ratio = max(ratios)
    kappa = kappa_const(drift.sup_norm, time.T)
    mass = time.dt * domain.h * float(np.sum(weights.w[:, domain.omega_mask]))
    return ObservabilityReport(
        n_samples=n_samples,
        max_ratio=max_ratio,
        quantiles={
            "q50": float(np.quantile(ratios, 0.5)),
            "q90": float(np.quantile(ratios, 0.9)),
            "q100": max_ratio,
        },
        kappa=kappa,
        c_hat_obs=float(np.log(max_ratio) / kappa),
        ratios=ratios,
        constant_mode={"computed_ratio": constant, "closed_form_ratio": 1.0 / mass},
    )


def observability_ratio(phiT: np.ndarray, drift: DriftField,
                        weights: WeightTables, domain: DomainSpec,
                        time: TimeGrid):
    """Observability ratio of a terminal datum (N,), or one per column of a
    batch (N, K), from a single adjoint march that stores no trajectory."""
    phi0, denom = adjoint_observation(phiT, weights.w, Propagator(drift.faces, domain, time.dt))
    num = domain.h * np.sum(np.square(phi0), axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom > 0.0, num / denom, np.inf)[()]


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
