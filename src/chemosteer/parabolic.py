"""Implicit-Euler forward solver for the drift-diffusion equation and its
exact algebraic transpose.

The spatial operator is in conservative flux form with zero flux at the
boundary faces,

    F_{i+1/2} = (u_{i+1} - u_i)/h - B_{i+1/2} (u_i + u_{i+1})/2,
    (A u)_i   = (F_{i+1/2} - F_{i-1/2}) / h,

so the total mass h * sum(u) is exactly conserved by force-free steps.  The
backward solver is the transpose of the forward time-stepping map in the
discrete L2 inner products, not an independent discretization: this is what
makes the control Gramian exactly symmetric.  Steps solve with LAPACK LDL^T
factors of I - dt*A for the zero drift, whose step is symmetric, else LU.
"""

import math

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs, dpttrf, dpttrs

from .elliptic import DriftField
from .grid import DomainSpec, SolverError, TimeGrid


@np.errstate(over="ignore")  # an overflowing sum takes the exact branch below
def level_l2(values: np.ndarray, h: float) -> float:
    """Discrete L2(Omega) norm via cell quadrature, sqrt(h sum(values^2)).  Where
    the plain sum of squares leaves [2^-960, 2^960], the values are first scaled
    exactly by the power of two that brings their peak into [1/2, 1), so tiny
    data do not underflow.  A norm past the float range is inf."""
    s = np.square(values).sum()
    if not 2.0 ** -960 <= s <= 2.0 ** 960:
        peak = float(np.abs(values).max(initial=0.0))
        if 0.0 < peak < math.inf:
            k = math.frexp(peak)[1]
            return float(np.ldexp(math.sqrt(h * np.square(np.ldexp(values, -k)).sum()), k))
    return math.sqrt(h * s)


def space_time_l2(values: np.ndarray, h: float, dt: float) -> float:
    """Discrete L2(Q) norm, summing levels 1..M (the implicit-step levels)."""
    return level_l2(values[1:], dt * h)


def inner_l2(x: np.ndarray, y: np.ndarray, h: float) -> float:
    """Discrete L2(Omega) inner product."""
    return float(h * np.dot(np.ravel(x), np.ravel(y)))


def rho0_const(b_sup: float, T: float) -> float:
    """Growth exponent (1 + |B|^2)(1 + T) of the sup-norm estimate."""
    return (1.0 + b_sup * b_sup) * (1.0 + T)


def growth_constant(value: float, base: float, rate: float) -> float:
    """The constant C of value = base e^{C rate}: ln(value / base) / rate, -inf
    when value <= base, nan when base is zero."""
    if base == 0.0:
        return float("nan")
    return float(np.log(value / base) / rate) if value > base else float("-inf")


def step_matrix_banded(face_drift: np.ndarray, domain: DomainSpec,
                       dt: float) -> np.ndarray:
    """Banded form of I - dt*A, one step or a stack of steps at once.

    For one face slice (N+1,) the result is the (3, N) LAPACK band storage
    (superdiagonal, diagonal, subdiagonal); for a stack (M, N+1) it has shape
    (3, M, N) and ab[:, k] is the band storage of step k.  Each coefficient is
    formed in its band row, with no temporary beside the result.
    """
    face_drift = np.asarray(face_drift, dtype=float)
    n = domain.n_cells
    ih = 1.0 / domain.h
    ab = np.empty((3,) + face_drift.shape[:-1] + (n,))
    upper, diag, lower = ab[0, ..., 1:], ab[1], ab[2, ..., :-1]
    ab[0, ..., 0] = ab[2, ..., -1] = 0.0      # outside the matrix
    np.multiply(0.5, face_drift[..., 1:n], out=lower)  # b/2 on interior faces 1..n-1
    np.subtract(ih, lower, out=upper)
    upper *= ih                               # ih (ih - b/2), coeff of u_{i+1} in row i
    lower += ih
    lower *= ih                               # ih (ih + b/2), coeff of u_{i-1} in row i+1
    diag[..., -1] = 0.0                       # diag = diagonal of A, for now
    np.subtract(0.0, lower, out=diag[..., :-1])
    diag[..., 1:] -= upper
    ab *= -dt
    diag += 1.0
    return ab


class Propagator:
    """Factors of the implicit step matrices of one drift, built by a solve for
    its marches and freed with it; solve is the LAPACK routine each step calls.

    A drift that is the same at every step is factored once (n_factored == 1).
    The zero drift's step S = S^T is positive definite: its LDL^T factors
    (dpttrf) serve forward and adjoint steps alike (dpttrs).  Any other drift
    is LU-factored (dgttrf), and adjoint steps solve with the transpose on the
    same factors (dgttrs, trans='T'), so the adjoint march is the algebraic
    transpose of the forward one by construction.  The LU steps whose factoring
    did not pivot share one zero du2 and one identity ipiv, owned by this propagator.
    """

    def __init__(self, faces: np.ndarray, domain: DomainSpec, dt: float):
        self.domain, self.dt, self.n_steps = domain, dt, len(faces)
        if np.all(faces == faces[0]):
            faces = faces[:1]
        self.n_factored = len(faces)
        ab = step_matrix_banded(faces, domain, dt)
        if self.n_factored == 1 and not faces.any():
            d, e, info = dpttrf(ab[1, 0], ab[0, 0, 1:])
            if info != 0:
                raise SolverError("implicit step matrix is not positive definite")
            self.solve, self.steps = dpttrs, [(d, e)] * self.n_steps
            return
        self.solve, self.steps = dgttrs, []  # the dgttrs arguments of each step
        unpivoted = shared = None
        for k in range(self.n_factored):
            # the factors overwrite the band rows of step k in place
            dl, d, du, du2, ipiv, info = dgttrf(ab[2, k, :-1], ab[1, k], ab[0, k, 1:], 1, 1, 1)
            if info != 0:
                raise SolverError(f"singular implicit step matrix at step {k + 1}")
            if unpivoted is None:
                unpivoted = np.arange(1, len(ipiv) + 1, dtype=ipiv.dtype).tobytes()
            if ipiv.tobytes() == unpivoted:  # no row swapped, so du2 stayed zero
                du2, ipiv = shared = shared or (du2, ipiv)
            self.steps.append((dl, d, du, du2, ipiv))
        self.steps *= self.n_steps // self.n_factored  # shared factors serve every step

    def levels(self, x: np.ndarray, source=None, transpose: bool = False):
        """The one solve loop: step the Fortran-ordered level x, (N,) or (N, K),
        in place and yield (k, x) after each step.  Forward, x <- S_k^{-1} (x +
        source[k]) is level k+1, k = 0..M-1; transposed, x <- S_k^{-T} x is level k."""
        solve, steps = self.solve, self.steps
        mode = (1,) if solve is dpttrs else ("T" if transpose else "N", 1)  # trans, overwrite_b
        for k in (range(self.n_steps - 1, -1, -1) if transpose else range(self.n_steps)):
            if source is not None:
                x += source[k]
            solve(*steps[k], x, *mode)
            yield (k if transpose else k + 1), x

    def trajectory(self, shape: tuple, fill=np.empty) -> np.ndarray:
        """An (M+1,) + shape array of fill's levels, each Fortran-ordered as march stores it."""
        return fill((self.n_steps + 1,) + shape[::-1]).transpose(0, *range(len(shape), 0, -1))

    def march(self, start: np.ndarray, source=None, transpose: bool = False,
              out=None) -> np.ndarray:
        """All M+1 levels from start, (N,) or a batch (N, K) of columns, stored in out
        (default a new trajectory()): x[0] = start forward, x[M] transposed.  Step k
        reads source[k] before level k+1 is stored, so source may be out[1:]."""
        x = self.trajectory(start.shape) if out is None else out
        x[self.n_steps if transpose else 0] = start
        for k, level in self.levels(np.array(start, order="F"), source, transpose):
            x[k] = level
        return x


def check_levels(x: np.ndarray, message: str, first: bool):
    """Raise SolverError naming the first (or, marching backward, the last)
    level of a march that holds a non-finite value."""
    if math.isfinite(x.sum()):  # a finite sum has finite terms
        return
    bad = np.flatnonzero(~np.isfinite(x).all(axis=tuple(range(1, x.ndim))))
    if bad.size:
        raise SolverError(message.format(bad[0] if first else bad[-1]))


def m_matrix_report(drift: DriftField, domain: DomainSpec) -> dict:
    """Check whether every implicit step matrix is an M-matrix.

    Off-diagonal entries of I - dt*A are nonpositive iff h |B| <= 2 on every
    interior face; positivity of the data is then preserved by each step.
    """
    b_max = float(np.abs(drift.faces[:, 1:-1]).max())
    margin = 2.0 / domain.h - b_max
    return {
        "is_m_matrix": bool(margin >= 0.0),
        "max_face_drift": b_max,
        "threshold": 2.0 / domain.h,
    }


def solve_forward(u0: np.ndarray, prop: Propagator, f=None) -> np.ndarray:
    """March (I - dt A_k) u^{k+1} = u^k + dt (1_omega f)^{k+1} over all steps.

    u0 is (N,) or a batch (N, K); f may be None (no control) or a (M+1, N)
    array, (M+1, N, K) for a batch; its level-0 slice is never used.
    Returns the full trajectory, shape (M+1,) + u0.shape; its levels 1..M first
    hold the source dt (1_omega f)^k that step k-1 adds before overwriting it.
    """
    u0 = np.asarray(u0, dtype=float)
    if not np.all(np.isfinite(u0)):
        raise SolverError("non-finite initial data")
    u = prop.trajectory(u0.shape, np.empty if f is None else np.zeros)
    if f is not None:
        mask = prop.domain.omega_mask.reshape((-1,) + (1,) * (u0.ndim - 1))
        np.multiply(f[1:], prop.dt, out=u[1:], where=mask)
    u = prop.march(u0, None if f is None else u[1:], out=u)
    check_levels(u, "non-finite state after forward step {}", first=True)
    return u


def solve_adjoint(phiT: np.ndarray, prop: Propagator) -> np.ndarray:
    """Exact transpose of the forward map, marched backward from phi^M = phiT.

    phi[k] = (I - dt A_k)^{-T} phi[k+1], so that for any u0 and control f

        <u^M, phiT> = <u0, phi[0]> + dt * sum_{k=1..M} <(1_omega f)^k, phi[k-1]>

    holds to rounding error.  The control at level k therefore pairs with
    the adjoint value stored at level k-1.  phiT is (N,) or a batch (N, K).
    """
    phiT = np.asarray(phiT, dtype=float)
    if not np.all(np.isfinite(phiT)):
        raise SolverError("non-finite terminal data")
    phi = prop.march(phiT, transpose=True)
    check_levels(phi, "non-finite adjoint state at level {}", first=False)
    return phi


def adjoint_observation(phiT: np.ndarray, w: np.ndarray, prop: Propagator):
    """phi[0] of solve_adjoint(phiT, prop) and the observed energy dt h sum_{k<M}
    sum_omega w[k] phi[k]^2, one per column of a batch (N, K), summed as the levels
    pass, so O(N K) memory.  Raises solve_adjoint's SolverError."""
    phi = np.array(phiT, dtype=float, order="F")
    if not np.all(np.isfinite(phi)):
        raise SolverError("non-finite terminal data")
    acc, sq = np.zeros_like(phi), np.empty_like(phi)
    w = w.reshape(w.shape + (1,) * (phi.ndim - 1))
    for k, level in prop.levels(phi, transpose=True):
        acc += np.multiply(np.square(level, out=sq), w[k], out=sq)
    if not np.all(np.isfinite(phi)):  # a non-finite level spreads to every level below it
        solve_adjoint(phiT, prop)  # raises, naming that level
    acc[~prop.domain.omega_mask] = 0.0
    return phi, prop.dt * prop.domain.h * acc.sum(axis=0)


def linf_estimate_report(u: np.ndarray, u0: np.ndarray, f, drift: DriftField,
                         domain: DomainSpec, time: TimeGrid) -> dict:
    """Empirical version of the sup-norm growth estimate.

    Reports K0 = |force|_inf + |u0|_inf, the exponent rho0, and the fitted
    constant C_hat = ln(|u|_inf / K0) / rho0 (-inf when |u|_inf <= K0).
    """
    u0 = np.asarray(u0, dtype=float)
    force_sup = float(np.abs(np.where(domain.omega_mask, f[1:], 0.0)).max())
    k0 = force_sup + float(np.abs(u0).max())
    sup_u = float(np.abs(u).max())
    rho0 = rho0_const(drift.sup_norm, time.T)
    return {"K0": k0, "rho0": rho0, "sup_u": sup_u, "degenerate": bool(k0 == 0.0),
            "C_hat": growth_constant(sup_u, k0, rho0),
            "consistent": bool(k0 > 0.0 or sup_u == 0.0)}
