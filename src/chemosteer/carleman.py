"""Carleman-style weight tables and admissible parameter selection.

With the profile beta and its sup norm b = max beta, the weight machinery is

    alpha(x, t)  = (e^{lam beta(x)} - e^{2 lam b}) / (t (T - t))   (< 0),
    gamma(lam)   = e^{2 lam b},
    omega(lam)   = e^{-lam b},

and the parameters must satisfy omega(lam) < delta0 - 1 (delta0 in (1, 2))
and s >= gamma(lam) (T + T^2).  The synthesized control is fed back through
the table w ~ e^{delta0 s alpha}, evaluated at the time midpoints t_{k-1/2}
to avoid the singular endpoints.

The stored w is normalized to unit peak: w = e^{delta0 s (alpha - alpha_peak)}.
With the admissible (lam, s) the raw peak e^{delta0 s alpha_peak} is of order
1e-40 or below, which would render the control Gramian numerically invisible
next to any practical penalty parameter; normalizing is equivalent to
rescaling that penalty parameter and leaves the feedback structure (control
vanishing toward t = 0 and t = T, supported where the weight lives) intact.
The raw peak exponent is kept in log_w_peak for reporting.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .grid import BetaFunction, DomainSpec, SolverError, TimeGrid


@dataclass(frozen=True)
class CarlemanSettings:
    """The config's carleman section: delta0 in (1, 2), the positive scales of
    lam and s, and whether a fixed-point run keeps its first parameters."""

    delta0: float = 1.5
    lambda_scale: float = 1.0
    s_scale: float = 1.0
    freeze_after_first: bool = False

    def __post_init__(self):
        if not (1.0 < self.delta0 < 2.0):
            raise ValueError(f"delta0 must lie in (1, 2), got {self.delta0}")
        for name in ("lambda_scale", "s_scale"):
            if not (getattr(self, name) > 0.0):
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class CarlemanParams:
    """Admissible weight parameters (lam, s, delta0) for a given drift bound."""

    lam: float
    s: float
    delta0: float
    beta_sup: float
    horizon_T: float
    b_sup: float

    @property
    def gamma_of_lambda(self) -> float:
        return float(np.exp(2.0 * self.lam * self.beta_sup))

    @property
    def omega_of_lambda(self) -> float:
        return float(np.exp(-self.lam * self.beta_sup))

    def constraints_certified(self) -> bool:
        return (
            1.0 < self.delta0 < 2.0
            and self.omega_of_lambda < self.delta0 - 1.0
            and self.s >= self.gamma_of_lambda * (self.horizon_T + self.horizon_T ** 2)
        )


@dataclass(frozen=True)
class WeightTables:
    """alpha and normalized weight tables at the M time midpoints.

    Row k-1 of each table corresponds to the midpoint t_{k-1/2} and hence to
    the control level k.  w is e^{delta0 s (alpha - alpha_peak)}, in [0, 1],
    with entries flushing to exactly zero where the exponent underflows.
    """

    params: CarlemanParams
    t_mid: np.ndarray    # (M,)
    alpha: np.ndarray    # (M, N)
    w: np.ndarray        # (M, N)
    log_w_peak: float    # delta0 * s * max(alpha): log of the raw peak weight


def select_params(b_sup: float, T: float, beta: BetaFunction,
                  settings: CarlemanSettings = CarlemanSettings(), *,
                  stacklevel: int = 2) -> CarlemanParams:
    """Choose lam and s from the drift bound, enforcing both constraints.

    lam starts from lambda_scale * (1 + b_sup^2) and is raised if needed so
    that omega(lam) < delta0 - 1; s starts from s_scale * (1 + b_sup^2) *
    (T + T^2) and is raised if needed to s >= gamma(lam) (T + T^2).  Emits a
    warning, attributed stacklevel frames up, when the raw mid-horizon weight
    would underflow (computation proceeds on the normalized table regardless).
    """
    bsq = 1.0 + b_sup * b_sup
    lam = settings.lambda_scale * bsq
    lam_min = -np.log(settings.delta0 - 1.0) / beta.sup_norm
    if lam <= lam_min:
        lam = lam_min * (1.0 + 1e-9)
    gamma_lam = float(np.exp(2.0 * lam * beta.sup_norm))
    s = settings.s_scale * bsq * (T + T * T)
    s = max(s, gamma_lam * (T + T * T))
    params = CarlemanParams(
        lam=float(lam), s=float(s), delta0=float(settings.delta0),
        beta_sup=float(beta.sup_norm), horizon_T=float(T), b_sup=float(b_sup),
    )
    if not params.constraints_certified():
        raise ValueError(f"weight parameters fail the admissibility constraints: {params}")
    alpha0_mid = (1.0 - gamma_lam) * 4.0 / (T * T)  # min of alpha at t = T/2
    if params.delta0 * params.s * abs(alpha0_mid) > 700.0:
        warnings.warn(
            "raw mid-horizon weight underflows; normalized table remains usable",
            RuntimeWarning, stacklevel=stacklevel,
        )
    return params


def build_weights(b_sup: float, beta: BetaFunction, domain: DomainSpec, time: TimeGrid,
                  settings: CarlemanSettings = CarlemanSettings()) -> WeightTables:
    """The weights of a drift bounded by b_sup: the parameters select_params
    chooses on the horizon of time, then alpha and the normalized weight at
    all midpoints.

    All exponentials are assembled in log space; underflow to exactly zero
    is accepted and is what switches the feedback off near t = 0 and t = T.
    A table past the float range (delta0 s alpha overflows) raises SolverError.
    """
    if time.n_steps < 4:
        raise ValueError("need at least 4 time steps for the weight tables")
    T = time.horizon_T
    params = select_params(b_sup, T, beta, settings, stacklevel=3)
    t = time.midpoints[:, None]                      # (M, 1)
    denom = t * (T - t)
    e_lb = np.exp(params.lam * beta.at_centers)[None, :]
    with np.errstate(over="ignore"):  # checked below, at the peak
        alpha = (e_lb - params.gamma_of_lambda) / denom
        exponent = params.delta0 * params.s * alpha
    peak = float(exponent.max())
    if not np.isfinite(peak):
        raise SolverError(f"the Carleman weight table overflows: delta0 s alpha is {peak} "
                          f"at lambda={params.lam:.6g}, s={params.s:.6g}")
    return WeightTables(
        params=params, t_mid=time.midpoints.copy(),
        alpha=alpha, w=np.exp(exponent - peak), log_w_peak=peak,
    )
