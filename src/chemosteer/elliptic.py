"""Per-level elliptic solve 0 = v'' - gamma v + delta eta and the drift field.

The discretization is the standard second-order finite-volume stencil with
ghost-cell reflection for the homogeneous Neumann condition, solved directly
(the system is symmetric positive definite and tridiagonal).  The drift
B = chi * v' lives on cell faces so that B.nu = 0 holds exactly on the
boundary.
"""

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .grid import DomainSpec, SolverError, TimeGrid


@dataclass(frozen=True)
class PhysicsParams:
    """Positive model constants: sensitivity chi, decay gamma, secretion delta;
    the config's physics section."""

    chi: float = 1.0
    gamma: float = 1.0
    delta: float = 1.0

    def __post_init__(self):
        if not (self.chi >= 0.0):
            raise ValueError(f"chi must be nonnegative, got {self.chi}")
        for name in ("gamma", "delta"):
            if not (getattr(self, name) > 0.0):
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass(frozen=True)
class DriftField:
    """Face-sampled drift per time step, boundary faces identically zero.

    faces has shape (n_steps, n_cells + 1); row k is the drift used by the
    implicit step from level k to level k+1.  Rows that are one row (a
    zero-stride broadcast, as zero and constant build) are stored as that row.
    """

    faces: np.ndarray

    def __post_init__(self):
        # a private copy, read-only, so the frozen record cannot change under its users
        f = np.asarray(self.faces)
        if f.ndim != 2:
            raise ValueError("drift faces must be a (n_steps, n_faces) array")
        rows = np.array(f[:1] if f.strides[0] == 0 else f, dtype=float)
        object.__setattr__(self, "faces", np.broadcast_to(rows, f.shape))
        if np.any(rows[:, 0] != 0.0) or np.any(rows[:, -1] != 0.0):
            raise ValueError("drift must vanish on boundary faces")
        if not np.all(np.isfinite(rows)):
            raise SolverError("drift contains non-finite values")

    @property
    def sup_norm(self) -> float:
        """np.abs(faces).max() without the |faces| table; + 0.0 makes a zero
        maximum +0.0, as abs does."""
        return float(max(self.faces.max(), -self.faces.min()) + 0.0)

    @classmethod
    def zero(cls, domain: DomainSpec, time: TimeGrid) -> "DriftField":
        return cls(faces=np.broadcast_to(0.0, (time.n_steps, domain.n_cells + 1)))

    @classmethod
    def constant(cls, face_slice: np.ndarray, time: TimeGrid) -> "DriftField":
        """Broadcast one face slice to every time step."""
        face_slice = np.asarray(face_slice, dtype=float)
        return cls(faces=np.broadcast_to(face_slice, (time.n_steps, face_slice.shape[-1])))


@functools.lru_cache(maxsize=1)
def elliptic_factors(gamma: float, n_cells: int, h: float) -> tuple:
    """LDL^T factors (d, e) of the elliptic operator (LAPACK dpttrf), kept for
    the last (gamma, n_cells, h), a key that omega and x0 do not change.  A gamma
    too small to keep the operator definite raises ValueError."""
    h2 = h * h
    diag = np.full(n_cells, gamma + 2.0 / h2)
    diag[0] -= 1.0 / h2                        # reflected ghost at x=0
    diag[-1] -= 1.0 / h2                       # reflected ghost at x=1
    d, e, info = dpttrf(diag, np.full(n_cells - 1, -1.0 / h2))
    if info != 0 or not np.all(np.isfinite(diag)):
        raise ValueError(f"elliptic operator is not positive definite "
                         f"(physics.gamma={gamma!r}, n_cells={n_cells})")
    return d, e


@np.errstate(over="ignore")  # the source and v are checked below
def solve_elliptic(eta: np.ndarray, physics: PhysicsParams,
                   domain: DomainSpec) -> np.ndarray:
    """Solve -(v_{i+1} - 2 v_i + v_{i-1})/h^2 + gamma v_i = delta eta_i.

    Ghost-cell reflection (v_{-1} = v_0, v_N = v_{N-1}) encodes the Neumann
    condition; the resulting matrix is SPD, its LDL^T factors are computed
    once per grid and each call is one back substitution (LAPACK dpttrs).
    eta is one level (N,) or a stack of levels (L, N), solved in one call.
    A non-finite source or solution raises SolverError.
    """
    source = physics.delta * np.asarray(eta, dtype=float).T
    if not np.isfinite(source).all():
        raise SolverError("elliptic source contains non-finite values")
    v, _ = dpttrs(*elliptic_factors(physics.gamma, domain.n_cells, domain.h), source)
    if not np.isfinite(v).all():
        raise SolverError("elliptic solution contains non-finite values")
    return v.T


def drift_from_v(v: np.ndarray, chi: float, domain: DomainSpec) -> np.ndarray:
    """Face-sampled drift chi * dv/dx of (N,) or (L, N) levels; boundary
    faces exactly zero."""
    v = np.asarray(v, dtype=float)
    faces = np.zeros(v.shape[:-1] + (domain.n_cells + 1,))
    faces[..., 1:-1] = chi * (v[..., 1:] - v[..., :-1]) / domain.h
    return faces


@np.errstate(over="ignore")  # DriftField checks the drift
def drift_from_state(xi: np.ndarray, physics: PhysicsParams, domain: DomainSpec,
                     time: TimeGrid) -> DriftField:
    """Elliptic solve of every level of a state trajectory, then per-step drift.

    Returns the DriftField whose step-k row is computed from the average of
    the solutions v at the adjacent levels, i.e. the trajectory sampled at the
    step midpoint (exact by linearity of the elliptic solve).  A state whose
    source delta * xi, solution v or drift overflows raises SolverError.
    """
    v = solve_elliptic(xi, physics, domain)
    return DriftField(faces=drift_from_v(0.5 * (v[:-1] + v[1:]), physics.chi, domain))
