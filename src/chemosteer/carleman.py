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
from dataclasses import dataclass, replace

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

    @property
    def raw_weight_underflows(self) -> bool:
        """Whether the raw weight e^{delta0 s alpha} underflows at mid-horizon
        (alpha at t = T/2 is most negative where beta = 0)."""
        alpha0_mid = (1.0 - self.gamma_of_lambda) * 4.0 / (self.horizon_T * self.horizon_T)
        return self.delta0 * self.s * abs(alpha0_mid) > 700.0

    def constraints_certified(self) -> bool:
        return (
            1.0 < self.delta0 < 2.0
            and self.omega_of_lambda < self.delta0 - 1.0
            and self.s >= self.gamma_of_lambda * (self.horizon_T + self.horizon_T ** 2)
        )


@dataclass(frozen=True)
class WeightTables:
    """Normalized weight table at the M time midpoints, and alpha when read.

    Row k-1 of each table corresponds to the midpoint t_{k-1/2} and hence to
    the control level k.  w is e^{delta0 s (alpha - alpha_peak)}, in [0, 1],
    with entries flushing to exactly zero where the exponent underflows.
    """

    params: CarlemanParams
    t_mid: np.ndarray    # (M,)
    e_lam_beta: np.ndarray  # (N,) e^{lam beta}
    w: np.ndarray        # (M, N)
    log_w_peak: float    # delta0 * s * max(alpha): log of the raw peak weight

    @property
    def alpha(self) -> np.ndarray:
        """(M, N) table (e^{lam beta} - gamma(lam)) / (t (T - t)), evaluated on each read."""
        t = self.t_mid[:, None]
        return (self.e_lam_beta - self.params.gamma_of_lambda) / (t * (self.params.horizon_T - t))


UNDERFLOW_WARNING = "raw mid-horizon weight underflows; normalized table remains usable"


def select_params(b_sup: float, T: float, beta: BetaFunction,
                  settings: CarlemanSettings = CarlemanSettings()) -> CarlemanParams:
    """Choose lam and s from the drift bound, enforcing both constraints.

    lam starts from lambda_scale * (1 + b_sup^2) and is raised if needed so
    that omega(lam) < delta0 - 1; s starts from s_scale * (1 + b_sup^2) *
    (T + T^2) and is raised if needed to s >= gamma(lam) (T + T^2).
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
    return params


def build_weights(b_sup: float, domain: DomainSpec, time: TimeGrid,
                  settings: CarlemanSettings = CarlemanSettings()) -> WeightTables:
    """The weights of a drift bounded by b_sup: the parameters select_params
    chooses for the profile of domain on the horizon of time, then alpha and
    the normalized weight at all midpoints.

    All exponentials are assembled in log space; underflow to exactly zero
    is accepted and is what switches the feedback off near t = 0 and t = T.
    A table past the float range (lam, s or delta0 s alpha overflows) raises
    SolverError; only a table that does not emits UNDERFLOW_WARNING when the
    raw mid-horizon weight underflows.
    """
    beta = domain.beta
    with np.errstate(over="ignore", invalid="ignore"):  # checked below, at the peak
        params = select_params(b_sup, time.T, beta, settings)
        tables = WeightTables(params, time.midpoints.copy(), np.exp(params.lam * beta.at_centers),
                              w=None, log_w_peak=0.0)  # its alpha forms the exponent
        # named, not a temporary: numpy tests a large temporary for in-place reuse by a
        # backtrace(), whose first call makes about 0.4 MB of unwind tables resident
        alpha = tables.alpha
        exponent = params.delta0 * params.s * alpha
    peak = float(exponent.max())
    if not np.isfinite(peak):
        raise SolverError(f"the Carleman weight table overflows: delta0 s alpha is {peak} "
                          f"at lambda={params.lam:.6g}, s={params.s:.6g}")
    if params.raw_weight_underflows:
        warnings.warn(UNDERFLOW_WARNING, RuntimeWarning, stacklevel=2)
    return replace(  # w exponentiated in place
        tables, log_w_peak=peak, w=np.exp(np.subtract(exponent, peak, out=exponent), out=exponent))
