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
    """Invalid domain, control region, or time grid."""


class SolverError(RuntimeError):
    """A solver breakdown: non-finite values met while solving."""


# Horizons T the weights are computed for; far outside, T * T under/overflows.
HORIZON_RANGE = (1e-6, 1e6)


@dataclass(frozen=True)
class DomainSpec:
    """Uniform cell-centered grid on (0, 1) with a marked control subinterval;
    the config's domain section.  h, the arrays and the profile are formed on first read.

    Attributes:
        n_cells: number N >= 8 of cells of width h = 1/N.
        omega_a, omega_b: the open control region (a, b), 0 < a < b < 1, 2h wide or more.
        x0: interior point of (a, b) where the weight profile peaks.
        centers: cell centers x_i = (i + 1/2) h, shape (N,).
        omega_mask: boolean per cell, True iff the center lies in (a, b).
        beta: the weight profile beta_values at the centers, shape (N,).
        beta_sup: its maximum over [0, 1], beta(x0).
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
    def omega_mask(self) -> np.ndarray:
        return (self.centers > self.omega_a) & (self.centers < self.omega_b)

    @functools.cached_property
    def beta(self) -> np.ndarray:
        """The weight profile at the cell centers, shape (N,)."""
        return beta_values(self.centers, self.x0)

    @functools.cached_property
    def beta_sup(self) -> float:
        """max beta over [0, 1], which is beta(x0): beta' = e^{eta (x - x0)} q(x) with the
        quadratic q(x) = (1 - 2x) + eta x (1 - x), q(0) = 1 and q(1) = -1, so q has one root
        in (0, 1), which is x0 by the choice of eta: beta rises up to x0 and falls after it."""
        return float(beta_values(self.x0, self.x0))


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


def beta_values(x, x0: float):
    """beta(x) = x(1-x) exp(eta (x - x0)) with the critical point pinned at x0."""
    eta = (2.0 * x0 - 1.0) / (x0 * (1.0 - x0))
    x = np.asarray(x, dtype=float)
    return x * (1.0 - x) * np.exp(eta * (x - x0))

