"""Null-control synthesis for a 1-D parabolic-elliptic chemotaxis system.

Solvers for the drift-diffusion state equation and its exact discrete
adjoint, a penalized-HUM control synthesizer driven by Carleman-style
weights, the outer fixed-point scheme for the nonlinear coupling, and
empirical diagnostics for the associated quantitative bounds.
"""

__version__ = "0.1.0"

from .carleman import (CarlemanParams, CarlemanSettings, WeightTables, build_weights,
                       select_params)
from .diagnostics import (ObservabilityReport, RecursionSpec,
                          observability_probe, recursion_simulate)
from .elliptic import DriftField, PhysicsParams, drift_from_v, solve_elliptic
from .grid import DomainSpec, TimeGrid
from .hum import (HumSettings, HumSolution, control_bound_report, gramian_apply,
                  kappa_const, solve_penalized)
from .nonlinear import (FixedPointSettings, NonlinearResult, remark_check, run_nonlinear,
                        threshold_sweep, verify_nonlinear)
from .parabolic import (Propagator, linf_estimate_report, rho0_const, solve_adjoint,
                        solve_forward)
