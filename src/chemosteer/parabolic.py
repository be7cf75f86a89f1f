"""Implicit-Euler forward solver for the drift-diffusion equation and its
exact algebraic transpose.

The spatial operator is in conservative flux form with zero flux at the
boundary faces,

    F_{i+1/2} = (u_{i+1} - u_i)/h - B_{i+1/2} (u_i + u_{i+1})/2,
    (A u)_i   = (F_{i+1/2} - F_{i-1/2}) / h,

so the total mass h * sum(u) is exactly conserved by force-free steps.  The
backward solver is the transpose of the forward time-stepping map in the
discrete L2 inner products, not an independent discretization: this is what
makes the control Gramian exactly symmetric.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .elliptic import DriftField
from .grid import DomainSpec, TimeGrid


class SolverError(RuntimeError):
    """Non-finite values encountered during time stepping."""


@dataclass(frozen=True)
class SpaceTimeField:
    """Cell-sampled scalar field over all time levels, values shape (M+1, N)."""

    values: np.ndarray
    h: float
    dt: float

    @property
    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())

    def l2_at_level(self, k: int) -> float:
        return level_l2(self.values[k], self.h)

    def l2_space_time(self) -> float:
        return space_time_l2(self.values, self.h, self.dt)


def level_l2(slice_values: np.ndarray, h: float) -> float:
    """Discrete L2(Omega) norm via cell quadrature."""
    return float(np.sqrt(h * np.sum(np.square(slice_values))))


def space_time_l2(values: np.ndarray, h: float, dt: float) -> float:
    """Discrete L2(Q) norm, summing levels 1..M (the implicit-step levels)."""
    return float(np.sqrt(dt * h * np.sum(np.square(values[1:]))))


def inner_l2(x: np.ndarray, y: np.ndarray, h: float) -> float:
    """Discrete L2(Omega) inner product."""
    return float(h * np.dot(np.ravel(x), np.ravel(y)))


def rho0_const(b_sup: float, T: float) -> float:
    """Growth exponent (1 + |B|^2)(1 + T) of the sup-norm estimate."""
    return (1.0 + b_sup * b_sup) * (1.0 + T)


def step_matrix_banded(face_drift: np.ndarray, domain: DomainSpec,
                       dt: float) -> np.ndarray:
    """Banded form of I - dt*A, one step or a stack of steps at once.

    For one face slice (N+1,) the result is the (3, N) LAPACK band storage
    (superdiagonal, diagonal, subdiagonal); for a stack (M, N+1) it has shape
    (3, M, N) and ab[:, k] is the band storage of step k.
    """
    face_drift = np.asarray(face_drift, dtype=float)
    n = domain.n_cells
    h = domain.h
    bi = face_drift[..., 1:n]                 # interior faces 1..n-1
    upper = (1.0 / h) * (1.0 / h - 0.5 * bi)  # coeff of u_{i+1} in row i
    lower = (1.0 / h) * (1.0 / h + 0.5 * bi)  # coeff of u_{i-1} in row i+1
    diag = np.zeros(face_drift.shape[:-1] + (n,))
    diag[..., :-1] -= lower
    diag[..., 1:] -= upper
    ab = np.zeros((3,) + diag.shape)
    ab[0, ..., 1:] = -dt * upper
    ab[1] = 1.0 - dt * diag
    ab[2, ..., :-1] = -dt * lower
    return ab


class Propagator:
    """LU factors (LAPACK dgttrf) of the implicit step matrices of one drift.

    Forward steps solve with the factors (dgttrs), adjoint steps with their
    transpose on the same factors (dgttrs, trans='T'), so the adjoint march
    is the algebraic transpose of the forward one by construction.  A drift
    that is the same at every step is factored once (n_factored == 1).
    """

    def __init__(self, faces: np.ndarray, domain: DomainSpec, dt: float):
        self.n_steps = len(faces)
        if np.all(faces == faces[0]):
            faces = faces[:1]
        self.n_factored = len(faces)
        ab = step_matrix_banded(faces, domain, dt)
        self.dl, self.d, self.du = ab[2, :, :-1], ab[1], ab[0, :, 1:]
        self.du2 = np.empty((self.n_factored, domain.n_cells - 2))
        self.ipiv = np.empty((self.n_factored, domain.n_cells), dtype=np.int32)
        for k in range(self.n_factored):
            (self.dl[k], self.d[k], self.du[k], self.du2[k], self.ipiv[k],
             info) = dgttrf(self.dl[k], self.d[k], self.du[k])
            if info != 0:
                raise SolverError(f"singular implicit step matrix at step {k + 1}")

    def march(self, start: np.ndarray, source=None, transpose: bool = False) -> np.ndarray:
        """All M+1 levels from start, (N,) or a batch (N, K) of columns.

        Forward: x[0] = start, x[k+1] = S_k^{-1} (x[k] + source[k]).
        Transpose: x[M] = start, x[k] = S_k^{-T} x[k+1].
        """
        m = self.n_steps
        # each level of a batch is Fortran-ordered, as LAPACK takes it
        x = np.empty((m + 1,) + start.shape[::-1]).transpose(0, *range(start.ndim, 0, -1))
        x[m if transpose else 0] = start
        for k in (range(m - 1, -1, -1) if transpose else range(m)):
            src, dst = (k + 1, k) if transpose else (k, k + 1)
            rhs = x[src] if source is None else x[src] + source[k]
            i = min(k, self.n_factored - 1)
            x[dst], _ = dgttrs(self.dl[i], self.d[i], self.du[i], self.du2[i],
                               self.ipiv[i], rhs, trans="T" if transpose else "N")
        return x


_last = [None, None]  # (drift, h, dt) and the propagator of the last march


def propagator(drift: DriftField, domain: DomainSpec, dt: float) -> Propagator:
    """The propagator of drift, held for one drift at a time and reused while
    consecutive marches share it (DriftField faces are read-only)."""
    key = _last[0]
    if key is None or key[0] is not drift or key[1:] != (domain.h, dt):
        _last[:] = None, None  # release the previous factors first
        _last[:] = (drift, domain.h, dt), Propagator(drift.faces, domain, dt)
    return _last[1]


def _check_levels(x: np.ndarray, message: str, first: bool):
    """Raise SolverError naming the first (or, marching backward, the last)
    level of a march that holds a non-finite value."""
    bad = np.flatnonzero(~np.isfinite(x).all(axis=tuple(range(1, x.ndim))))
    if bad.size:
        raise SolverError(message.format(bad[0] if first else bad[-1]))


def m_matrix_report(drift: DriftField, domain: DomainSpec, time: TimeGrid) -> dict:
    """Check whether every implicit step matrix is an M-matrix.

    Off-diagonal entries of I - dt*A are nonpositive iff h |B| <= 2 on every
    interior face; positivity of the data is then preserved by each step.
    """
    b_max = float(np.abs(drift.faces[:, 1:-1]).max()) if domain.n_cells > 1 else 0.0
    margin = 2.0 / domain.h - b_max
    return {
        "is_m_matrix": bool(margin >= 0.0),
        "max_face_drift": b_max,
        "threshold": 2.0 / domain.h,
    }


def solve_forward(u0: np.ndarray, drift: DriftField, f, domain: DomainSpec,
                  time: TimeGrid) -> np.ndarray:
    """March (I - dt A_k) u^{k+1} = u^k + dt (1_omega f)^{k+1} over all steps.

    u0 is (N,) or a batch (N, K); f may be None (no control) or a (M+1, N)
    array, (M+1, N, K) for a batch; its level-0 slice is never used.
    Returns the full trajectory, shape (M+1,) + u0.shape.
    """
    u0 = np.asarray(u0, dtype=float)
    if not np.all(np.isfinite(u0)):
        raise SolverError("non-finite initial data")
    mask = domain.omega_mask.reshape((-1,) + (1,) * (u0.ndim - 1))
    source = None if f is None else time.dt * np.where(mask, f[1:], 0.0)
    u = propagator(drift, domain, time.dt).march(u0, source)
    _check_levels(u, "non-finite state after forward step {}", first=True)
    return u


def solve_adjoint(phiT: np.ndarray, drift: DriftField, domain: DomainSpec,
                  time: TimeGrid) -> np.ndarray:
    """Exact transpose of the forward map, marched backward from phi^M = phiT.

    phi[k] = (I - dt A_k)^{-T} phi[k+1], so that for any u0 and control f

        <u^M, phiT> = <u0, phi[0]> + dt * sum_{k=1..M} <(1_omega f)^k, phi[k-1]>

    holds to rounding error.  The control at level k therefore pairs with
    the adjoint value stored at level k-1.  phiT is (N,) or a batch (N, K).
    """
    phiT = np.asarray(phiT, dtype=float)
    if not np.all(np.isfinite(phiT)):
        raise SolverError("non-finite terminal data")
    phi = propagator(drift, domain, time.dt).march(phiT, transpose=True)
    _check_levels(phi, "non-finite adjoint state at level {}", first=False)
    return phi


def linf_estimate_report(u: np.ndarray, u0: np.ndarray, f, drift: DriftField,
                         domain: DomainSpec, time: TimeGrid) -> dict:
    """Empirical version of the sup-norm growth estimate.

    Reports K0 = |force|_inf + |u0|_inf, the exponent rho0, and the fitted
    constant C_hat = ln(|u|_inf / K0) / rho0 (-inf when |u|_inf <= K0).
    """
    u0 = np.asarray(u0, dtype=float)
    if f is None:
        force_sup = 0.0
    else:
        masked = np.where(domain.omega_mask[None, :], f[1:], 0.0)
        force_sup = float(np.abs(masked).max()) if masked.size else 0.0
    k0 = force_sup + float(np.abs(u0).max())
    sup_u = float(np.abs(u).max())
    rho0 = rho0_const(drift.sup_norm, time.horizon_T)
    report = {
        "K0": k0,
        "rho0": rho0,
        "sup_u": sup_u,
        "degenerate": bool(k0 == 0.0),
    }
    if k0 == 0.0:
        report["C_hat"] = float("nan")
        report["consistent"] = bool(sup_u == 0.0)
    else:
        report["C_hat"] = float(np.log(sup_u / k0) / rho0) if sup_u > k0 else float("-inf")
        report["consistent"] = True
    return report
