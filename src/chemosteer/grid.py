"""Interval geometry, time grid, and the auxiliary profile driving the weights.

The spatial domain is always the unit interval, discretized by a uniform
cell-centered finite-volume grid so that zero-flux boundary conditions are
exact on the boundary faces.  The control region is an open subinterval
(a, b); a cell belongs to it iff its center does.
"""

import functools
from dataclasses import dataclass

import numpy as np


class GeometryError(ValueError):
    """Invalid domain, control region, or profile construction."""


class SolverError(RuntimeError):
    """A solver breakdown: non-finite values met while solving."""


# Horizons T the weights are computed for; far outside, T * T under/overflows.
HORIZON_RANGE = (1e-6, 1e6)
# The profile certificate samples at least this many points per cell.
DENSE_FACTOR = 10


@dataclass(frozen=True)
class DomainSpec:
    """Uniform cell-centered grid on (0, 1) with a marked control subinterval;
    the config's domain section.  h, the arrays and beta are formed on first read.

    Attributes:
        n_cells: number N >= 8 of cells of width h = 1/N.
        omega_a, omega_b: the open control region (a, b), 0 < a < b < 1, 2h wide or more.
        x0: interior point of (a, b) where the weight profile peaks.
        centers: cell centers x_i = (i + 1/2) h, shape (N,).
        faces: cell faces x_{i+1/2} = i h, shape (N+1,).
        omega_mask: boolean per cell, True iff the center lies in (a, b).
        beta: the certified weight profile of the grid.
    """

    n_cells: int = 100
    omega_a: float = 0.3
    omega_b: float = 0.7
    x0: float = 0.5

    def __post_init__(self):
        a, b = self.omega_a, self.omega_b
        if not self.n_cells >= 8:
            raise GeometryError(f"n_cells must be >= 8, got {self.n_cells}")
        if not 0.0 < a < 1.0:
            raise GeometryError(f"omega_a must lie in (0, 1), got {a}")
        if not a < b < 1.0:
            raise GeometryError(f"omega_b must lie in ({a}, 1), got {b}")
        if not a < self.x0 < b:
            raise GeometryError(f"x0 must lie inside ({a}, {b}), got {self.x0}")
        if b - a < 2.0 * self.h:
            raise GeometryError(f"omega_b must lie two cells (h={self.h}) past {a}, got {b}")

    @functools.cached_property
    def h(self) -> float:
        return 1.0 / self.n_cells

    @functools.cached_property
    def centers(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) * self.h

    @functools.cached_property
    def faces(self) -> np.ndarray:
        return np.arange(self.n_cells + 1) * self.h

    @functools.cached_property
    def omega_mask(self) -> np.ndarray:
        return (self.centers > self.omega_a) & (self.centers < self.omega_b)

    @functools.cached_property
    def beta(self) -> "BetaFunction":
        """Sample the profile and certify its invariants numerically.

        The certificate checks, on a dense grid of at least DENSE_FACTOR * N
        points: positivity in the interior, vanishing at the boundary, a
        nonvanishing derivative outside the control region, and a single sign
        change of the derivative located at x0.  A failed certificate signals a
        construction bug and raises GeometryError.
        """
        x0 = self.x0
        eta = (2.0 * x0 - 1.0) / (x0 * (1.0 - x0))
        n_dense = max(DENSE_FACTOR * self.n_cells, 1000) + 1
        xs = np.linspace(0.0, 1.0, n_dense)
        bs = beta_values(xs, x0)
        ds = beta_derivative(xs, x0)

        interior = (xs > 0.0) & (xs < 1.0)
        outside = (xs <= self.omega_a) | (xs >= self.omega_b)
        # skip exact zeros (the dense grid can hit the critical point dead on)
        nz = np.nonzero(np.sign(ds))[0]
        nzsign = np.sign(ds)[nz]
        trans = np.nonzero(nzsign[:-1] * nzsign[1:] < 0)[0]
        change_locs = [0.5 * (xs[nz[i]] + xs[nz[i + 1]]) for i in trans]

        validation = {
            "beta_at_0": float(bs[0]),
            "beta_at_1": float(bs[-1]),
            "min_interior": float(bs[interior].min()),
            "min_abs_deriv_outside_omega": float(np.abs(ds[outside]).min()),
            "deriv_at_x0": float(beta_derivative(x0, x0)),
            "n_sign_changes": int(len(change_locs)),
            "sign_change_locations": [float(x) for x in change_locs],
        }
        ok = (
            bs[0] == 0.0
            and bs[-1] == 0.0
            and validation["min_interior"] > 0.0
            and validation["min_abs_deriv_outside_omega"] > 0.0
            and abs(validation["deriv_at_x0"]) < 1e-10
            and len(change_locs) == 1
            and self.omega_a < change_locs[0] < self.omega_b
        )
        validation["ok"] = bool(ok)
        if not ok:
            raise GeometryError(f"profile construction failed validation: {validation}")

        return BetaFunction(
            eta=eta,
            at_centers=beta_values(self.centers, x0),
            sup_norm=float(bs.max()),
            validation=validation,
        )


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time levels t_k = k*dt on [0, T], shape (M+1,), plus the interval
    midpoints t_{k-1/2}, k = 1..M; the config's time section.  T lies in
    HORIZON_RANGE and n_steps M >= 4, the fewest the weight tables take; dt and
    the arrays are formed on first read."""

    T: float = 1.0
    n_steps: int = 200

    def __post_init__(self):
        lo, hi = HORIZON_RANGE
        if not lo <= self.T <= hi:
            raise GeometryError(f"T must lie in [{lo:g}, {hi:g}], got {self.T}")
        if not self.n_steps >= 4:
            raise GeometryError(f"n_steps must be at least 4, got {self.n_steps}")

    @functools.cached_property
    def dt(self) -> float:
        return self.T / self.n_steps

    @functools.cached_property
    def levels(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_steps + 1)

    @functools.cached_property
    def midpoints(self) -> np.ndarray:
        return (np.arange(self.n_steps) + 0.5) * self.dt


@dataclass(frozen=True)
class BetaFunction:
    """Samples of the weight profile beta(x) = x(1-x) exp(eta (x - x0)).

    eta = (2 x0 - 1) / (x0 (1 - x0)) places the unique interior critical
    point of beta at x0, while keeping beta(0) = beta(1) = 0 and a
    nonvanishing derivative on the closed set outside the control region.

    Attributes:
        eta: exponent slope.
        at_centers: samples at the cell centers.
        sup_norm: max of beta over [0, 1], from dense sampling.
        validation: numeric certificate of the profile invariants.
    """

    eta: float
    at_centers: np.ndarray
    sup_norm: float
    validation: dict


def beta_values(x, x0: float):
    """beta(x) = x(1-x) exp(eta (x - x0)) with the critical point pinned at x0."""
    eta = (2.0 * x0 - 1.0) / (x0 * (1.0 - x0))
    x = np.asarray(x, dtype=float)
    return x * (1.0 - x) * np.exp(eta * (x - x0))


def beta_derivative(x, x0: float):
    """Analytic derivative of beta_values."""
    eta = (2.0 * x0 - 1.0) / (x0 * (1.0 - x0))
    x = np.asarray(x, dtype=float)
    return np.exp(eta * (x - x0)) * ((1.0 - 2.0 * x) + eta * x * (1.0 - x))
