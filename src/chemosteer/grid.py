"""Interval geometry, time grid, and the auxiliary profile driving the weights.

The spatial domain is always the unit interval, discretized by a uniform
cell-centered finite-volume grid so that zero-flux boundary conditions are
exact on the boundary faces.  The control region is an open subinterval
(a, b); a cell belongs to it iff its center does.
"""

from dataclasses import dataclass

import numpy as np


class GeometryError(ValueError):
    """Invalid domain, control region, or profile construction."""


class SolverError(RuntimeError):
    """A solver breakdown: non-finite values met while solving."""


@dataclass(frozen=True)
class DomainSpec:
    """Uniform cell-centered grid on (0, 1) with a marked control subinterval.

    Attributes:
        n_cells: number N of cells of width h = 1/N.
        omega_a, omega_b: endpoints of the open control region (a, b).
        x0: interior point of (a, b) where the weight profile peaks.
        h: cell width.
        centers: cell centers x_i = (i + 1/2) h, shape (N,).
        faces: cell faces x_{i+1/2} = i h, shape (N+1,).
        omega_mask: boolean per cell, True iff the center lies in (a, b).
    """

    n_cells: int
    omega_a: float
    omega_b: float
    x0: float
    h: float
    centers: np.ndarray
    faces: np.ndarray
    omega_mask: np.ndarray


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time levels t_k = k*dt on [0, T] plus interval midpoints."""

    horizon_T: float
    n_steps: int
    dt: float
    levels: np.ndarray     # (M+1,)
    midpoints: np.ndarray  # (M,), t_{k-1/2} for k = 1..M


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


def build_domain(n_cells: int, omega: tuple, x0: float) -> DomainSpec:
    """Construct the grid and control-region mask.

    Raises GeometryError for n_cells < 8, a control region that is not a
    proper subinterval of (0, 1), x0 outside (a, b), or a control region
    narrower than two cells.
    """
    a, b = float(omega[0]), float(omega[1])
    n_cells = int(n_cells)
    if n_cells < 8:
        raise GeometryError(f"n_cells must be >= 8, got {n_cells}")
    if not (0.0 < a < b < 1.0):
        raise GeometryError(f"control region must satisfy 0 < a < b < 1, got ({a}, {b})")
    if not (a < x0 < b):
        raise GeometryError(f"x0={x0} must lie inside the control region ({a}, {b})")
    h = 1.0 / n_cells
    if b - a < 2.0 * h:
        raise GeometryError(
            f"control region ({a}, {b}) is narrower than two cells (h={h})"
        )
    centers = (np.arange(n_cells) + 0.5) * h
    faces = np.arange(n_cells + 1) * h
    mask = (centers > a) & (centers < b)
    return DomainSpec(
        n_cells=n_cells, omega_a=a, omega_b=b, x0=float(x0),
        h=h, centers=centers, faces=faces, omega_mask=mask,
    )


# Horizons T the weights are computed for; far outside, T * T under/overflows.
HORIZON_RANGE = (1e-6, 1e6)


def build_time_grid(horizon_T: float, n_steps: int) -> TimeGrid:
    """Uniform time grid with M steps on [0, T], T inside HORIZON_RANGE."""
    T = float(horizon_T)
    M = int(n_steps)
    lo, hi = HORIZON_RANGE
    if not lo <= T <= hi:
        raise GeometryError(f"horizon must lie in [{lo:g}, {hi:g}], got {T}")
    if M < 1:
        raise GeometryError(f"n_steps must be positive, got {M}")
    dt = T / M
    levels = np.linspace(0.0, T, M + 1)
    midpoints = (np.arange(M) + 0.5) * dt
    return TimeGrid(horizon_T=T, n_steps=M, dt=dt, levels=levels, midpoints=midpoints)


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


# The profile certificate samples at least this many points per cell.
DENSE_FACTOR = 10


def build_beta(domain: DomainSpec) -> BetaFunction:
    """Sample the profile and certify its invariants numerically.

    The certificate checks, on a dense grid of at least DENSE_FACTOR * N
    points: positivity in the interior, vanishing at the boundary, a
    nonvanishing derivative outside the control region, and a single sign
    change of the derivative located at x0.  A failed certificate signals a
    construction bug and raises GeometryError.
    """
    x0 = domain.x0
    eta = (2.0 * x0 - 1.0) / (x0 * (1.0 - x0))
    n_dense = max(DENSE_FACTOR * domain.n_cells, 1000) + 1
    xs = np.linspace(0.0, 1.0, n_dense)
    bs = beta_values(xs, x0)
    ds = beta_derivative(xs, x0)

    interior = (xs > 0.0) & (xs < 1.0)
    outside = (xs <= domain.omega_a) | (xs >= domain.omega_b)
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
        and domain.omega_a < change_locs[0] < domain.omega_b
    )
    validation["ok"] = bool(ok)
    if not ok:
        raise GeometryError(f"profile construction failed validation: {validation}")

    return BetaFunction(
        eta=eta,
        at_centers=beta_values(domain.centers, x0),
        sup_norm=float(bs.max()),
        validation=validation,
    )
