import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from chemosteer import hum, nonlinear
from chemosteer.carleman import CarlemanSettings
from chemosteer.elliptic import PhysicsParams, drift_from_v, solve_elliptic
from chemosteer.grid import DomainSpec, TimeGrid
from chemosteer.hum import HumSettings, solve_penalized
from chemosteer.nonlinear import (FixedPointSettings, remark_check, run_nonlinear,
                                  threshold_sweep, verify_nonlinear)
from chemosteer.parabolic import Propagator, SolverError, level_l2
from conftest import default_weights


@pytest.fixture
def small_setup():
    domain = DomainSpec(40)
    tgrid = TimeGrid(1.0, 40)
    u0 = 1e-3 * (1.0 + np.cos(np.pi * domain.centers)) / 2.0
    return domain, tgrid, u0


def test_converges_small_data(small_setup):
    domain, tgrid, u0 = small_setup
    phys = PhysicsParams(chi=1.0, gamma=1.0, delta=1.0)
    result = run_nonlinear(u0, phys, domain, tgrid, hum=HumSettings(epsilon=1e-6))
    assert result.converged
    assert result.in_K
    assert result.iterations <= 10
    assert result.history[-1]["increment"] <= result.history[0]["increment"]
    # the certified nonlinear re-solve must reach a small terminal norm
    assert result.verification_terminal_l2 <= 1e-3 * level_l2(u0, domain.h)


def test_decoupled_matches_linear_exactly(small_setup):
    # with chi = 0 the drift vanishes, so the fixed point closes in one
    # correction and reproduces the linear solver bit for bit
    domain, tgrid, u0 = small_setup
    phys = PhysicsParams(chi=0.0, gamma=1.0, delta=1.0)
    result = run_nonlinear(u0, phys, domain, tgrid, hum=HumSettings(epsilon=1e-6))
    assert result.converged

    from chemosteer.elliptic import DriftField
    drift = DriftField.zero(domain, tgrid)
    weights = default_weights(domain, tgrid, b_sup=0.0)
    sol = solve_penalized(u0, drift, weights, domain, tgrid, HumSettings(epsilon=1e-6))
    assert np.array_equal(result.u, sol.u)
    assert np.array_equal(result.f, sol.f)


def test_history_rows_complete(small_setup, monkeypatch):
    domain, tgrid, u0 = small_setup
    phys = PhysicsParams(chi=1.0, gamma=1.0, delta=1.0)
    solved = []
    monkeypatch.setattr(nonlinear, "solve_penalized", lambda *args: solved.append(
        solve_penalized(*args)) or solved[-1])
    hum_settings = HumSettings(epsilon=1e-6)
    result = run_nonlinear(u0, phys, domain, tgrid, hum=hum_settings)
    for row in result.history:
        assert set(row) == {"iteration", "increment", "sup_u",
                            "terminal_l2", "B_sup", "cg_iters", "cg_tol"}
    assert [r["iteration"] for r in result.history] == \
        list(range(1, result.iterations + 1))
    assert sum(r["cg_iters"] for r in result.history) == sum(s.cg_iters for s in solved)
    assert result.history[0]["cg_tol"] == nonlinear.LOOSE_CG_TOL
    assert result.history[-1]["cg_tol"] == hum_settings.cg_tol  # the result is a tight solve


@pytest.mark.parametrize("chi", [0.0, 1.0])
def test_zero_data_converge_to_a_zero_control(chi, small_setup):
    # every increment is exactly 0: the contraction test of the CG schedule divides by none
    domain, tgrid, u0 = small_setup
    result = run_nonlinear(np.zeros_like(u0), PhysicsParams(chi=chi), domain, tgrid,
                           hum=HumSettings(epsilon=1e-6))
    assert result.converged
    assert [r["increment"] for r in result.history] == [0.0] * result.iterations
    assert not result.f.any() and not result.u.any()


def test_a_zero_increment_before_a_tight_solve():
    # two loose solves stop at the same CG iterate, so iteration 2 moves by exactly 0;
    # iteration 4 then weighs the contraction against that zero increment
    domain, tgrid = DomainSpec(8), TimeGrid(1.0, 8)
    u0 = (1.0 + np.cos(np.pi * domain.centers)) / 2.0
    result = run_nonlinear(u0, PhysicsParams(chi=0.0), domain, tgrid)
    assert result.converged and result.iterations == 4
    assert result.history[1]["increment"] == 0.0 and result.history[1]["cg_tol"] > 1e-10


def test_zero_iteration_cap():
    # a cap of 0 once ran no iteration and reported all-zero fields as unconverged
    with pytest.raises(ValueError, match="^max_iters must be at least 1$"):
        FixedPointSettings(max_iters=0)


def test_u0_constant_initial_guess(small_setup):
    domain, tgrid, u0 = small_setup
    phys = PhysicsParams(chi=1.0, gamma=1.0, delta=1.0)
    result = run_nonlinear(u0, phys, domain, tgrid, hum=HumSettings(epsilon=1e-6),
                           fixed_point=FixedPointSettings(initial_guess="u0-constant"))
    assert result.converged
    with pytest.raises(ValueError):
        run_nonlinear(u0, phys, domain, tgrid,
                      fixed_point=FixedPointSettings(initial_guess="bogus"))


def test_freeze_after_first(small_setup):
    domain, tgrid, u0 = small_setup
    phys = PhysicsParams(chi=1.0, gamma=1.0, delta=1.0)
    result = run_nonlinear(u0, phys, domain, tgrid,
                           carleman=CarlemanSettings(freeze_after_first=True),
                           hum=HumSettings(epsilon=1e-6))
    assert result.converged
    # parameters were selected from the zero initial guess and kept
    assert result.weights.params.b_sup == 0.0


@pytest.mark.parametrize("freeze", [True, False])
def test_frozen_run_builds_its_table_once(freeze, small_setup, monkeypatch):
    domain, tgrid, u0 = small_setup
    build, tables = nonlinear.build_weights, []
    monkeypatch.setattr(nonlinear, "build_weights",
                        lambda *args, **kwargs: tables.append(build(*args, **kwargs))
                        or tables[-1])
    result = run_nonlinear(u0, PhysicsParams(), domain, tgrid,
                           carleman=CarlemanSettings(freeze_after_first=freeze))
    assert result.converged and result.iterations > 1
    assert len(tables) == (1 if freeze else result.iterations)
    assert result.weights is tables[-1]


def test_underflow_warned_once_by_a_run_that_does_not_break_down(small_setup,
                                                                 monkeypatch):
    domain, tgrid, u0 = small_setup
    carleman = CarlemanSettings(s_scale=50.0)  # every table's raw weight underflows
    with pytest.warns(RuntimeWarning, match="underflows") as record:
        result = run_nonlinear(u0, PhysicsParams(), domain, tgrid, carleman=carleman)
    assert result.iterations > 1 and len(record) == 1
    assert record[0].filename == __file__

    def broken(*args, **kwargs):
        raise SolverError("broken")

    # a breakdown after the tables are built is the run's only message
    monkeypatch.setattr(nonlinear, "verify_nonlinear", broken)
    with warnings.catch_warnings(), pytest.raises(SolverError, match="^broken$"):
        warnings.simplefilter("error")
        run_nonlinear(u0, PhysicsParams(), domain, tgrid, carleman=carleman)


def test_verify_nonlinear_zero_control_mass(small_setup):
    domain, tgrid, u0 = small_setup
    phys = PhysicsParams(chi=1.0, gamma=1.0, delta=1.0)
    u, _ = verify_nonlinear(u0, None, phys, domain, tgrid)
    mass = domain.h * u.sum(axis=1)
    assert np.abs(mass - mass[0]).max() <= 1e-12 * max(abs(mass[0]), 1e-300)


def test_verify_nonlinear_reports_capped_steps(small_setup, monkeypatch):
    domain, tgrid, u0 = small_setup
    phys = PhysicsParams(chi=1.0, gamma=1.0, delta=1.0)
    _, sweeps = verify_nonlinear(u0, None, phys, domain, tgrid)
    assert sweeps["capped_steps"] == 0 and sweeps["max_sweeps"] == 5
    assert tgrid.n_steps < sweeps["sweeps"] <= 5 * tgrid.n_steps
    # one sweep never confirms the step iterate, so every step is capped
    monkeypatch.setattr(nonlinear, "MAX_SWEEPS", 1)
    _, capped = verify_nonlinear(u0, None, phys, domain, tgrid)
    assert capped["capped_steps"] == tgrid.n_steps and capped["max_sweeps"] == 1
    assert capped["sweeps"] == tgrid.n_steps


def propagator_verification(u0, f, physics, domain, time, inner_tol=1e-10, max_sweeps=5):
    """verify_nonlinear as it was written with a one-step Propagator march per
    sweep (dgttrf + dgttrs): the oracle of its one-shot dgtsv kernel."""
    m, mask = time.n_steps, domain.omega_mask
    u = np.empty((m + 1, domain.n_cells))
    u[0] = u0
    sweeps = capped = 0
    for k in range(m):
        rhs = u[k].copy()
        rhs[mask] += time.dt * f[k + 1][mask]
        u_next = u[k].copy()
        for _ in range(max_sweeps):
            sweeps += 1
            v_mid = solve_elliptic(0.5 * (u[k] + u_next), physics, domain)
            faces = drift_from_v(v_mid, physics.chi, domain)
            candidate = Propagator(faces[None], domain, time.dt).march(rhs)[1]
            delta = level_l2(candidate - u_next, domain.h)
            u_next = candidate
            if delta <= inner_tol * max(1.0, level_l2(u_next, domain.h)):
                break
        else:
            capped += 1
        u[k + 1] = u_next
    return u, sweeps, capped


@pytest.mark.parametrize("max_sweeps", [5, 1])
def test_verify_nonlinear_bitwise_equal_to_propagator_sweeps(small_setup, max_sweeps, monkeypatch):
    domain, tgrid, _ = small_setup
    phys = PhysicsParams(chi=10.0, gamma=1.0, delta=1.0)
    u0 = 0.5 * (1.0 + np.cos(np.pi * domain.centers))
    rng = np.random.default_rng(4)
    f = rng.standard_normal((tgrid.n_steps + 1, domain.n_cells))
    monkeypatch.setattr(nonlinear, "MAX_SWEEPS", max_sweeps)
    u, report = verify_nonlinear(u0, f, phys, domain, tgrid)
    u_ref, sweeps, capped = propagator_verification(u0, f, phys, domain, tgrid,
                                                    max_sweeps=max_sweeps)
    assert u.tobytes() == u_ref.tobytes()
    assert (report["sweeps"], report["capped_steps"]) == (sweeps, capped)
    assert sweeps > tgrid.n_steps if max_sweeps > 1 else capped == tgrid.n_steps


def test_verification_guided_by_the_fixed_point(small_setup):
    domain, tgrid, _ = small_setup
    phys = PhysicsParams(chi=10.0, gamma=1.0, delta=1.0)
    u0 = 0.05 * (1.0 + np.cos(np.pi * domain.centers))
    result = run_nonlinear(u0, phys, domain, tgrid, hum=HumSettings(epsilon=1e-6))
    assert result.converged
    u_free, free = verify_nonlinear(u0, result.f, phys, domain, tgrid)
    u_guided, guided = verify_nonlinear(u0, result.f, phys, domain, tgrid, guide=result.u)
    assert result.verification_sweeps == guided   # run_nonlinear passes its fixed point
    assert guided["sweeps"] < free["sweeps"]
    assert guided["capped_steps"] == free["capped_steps"] == 0
    assert level_l2(u_guided[-1], domain.h) == pytest.approx(
        level_l2(u_free[-1], domain.h), rel=1e-8)


def test_a_capped_cg_leaves_the_fixed_point_unconverged(small_setup):
    # the increment test alone once reported such a run as converged
    domain, tgrid, u0 = small_setup
    phys = PhysicsParams(chi=1.0, gamma=1.0, delta=1.0)
    capped = HumSettings(epsilon=1e-6, cg_max_iters=1)
    result = run_nonlinear(u0, phys, domain, tgrid, hum=capped)
    assert not result.converged and not result.hum_last.cg_converged
    # the first outer iteration runs CG to LOOSE_CG_TOL, which one CG iteration reaches
    assert result.history[0]["cg_iters"] == 1 and result.history[0]["cg_tol"] == 1e-2
    assert result.failure.startswith("outer iteration 2: CG stopped at hum.cg_max_iters=1 ")
    amplitude = float(np.abs(u0).max())
    table = threshold_sweep([1.0], [amplitude], u0 / amplitude, phys, domain, tgrid,
                            hum=capped)
    (cell,) = table["rows"][0]["cells"]
    assert table["rows"][0]["a_star"] is None
    assert not cell["converged"] and not cell["success"]


def test_no_factors_outlive_run_nonlinear(small_setup, monkeypatch):
    domain, tgrid, u0 = small_setup
    built = []

    class Recorded(Propagator):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(weakref.ref(self))

    monkeypatch.setattr(hum, "Propagator", Recorded)
    result = run_nonlinear(u0, PhysicsParams(chi=1.0, gamma=1.0, delta=1.0),
                           domain, tgrid, hum=HumSettings(epsilon=1e-6))
    gc.collect()
    assert result.converged and len(built) == result.iterations
    assert [ref() for ref in built] == [None] * len(built)


def test_no_solution_outlives_the_start_of_the_next_solve(small_setup, monkeypatch):
    domain, tgrid, u0 = small_setup
    returned, alive_at_start = [], []

    def recorded(*args, **kwargs):
        alive_at_start.append([ref() is not None for ref in returned])
        sol = solve_penalized(*args, **kwargs)
        returned.append(weakref.ref(sol))
        return sol

    monkeypatch.setattr(nonlinear, "solve_penalized", recorded)
    result = run_nonlinear(u0, PhysicsParams(chi=1.0, gamma=1.0, delta=1.0),
                           domain, tgrid, hum=HumSettings(epsilon=1e-6))
    assert result.converged and result.iterations == len(returned) >= 2
    assert not any(any(alive) for alive in alive_at_start)
    assert returned[-1]() is result.hum_last


def test_fixed_point_peak_memory():
    # one solution, no stored alpha, no separate forward source, no per-step du2 and
    # ipiv where no row is swapped and no control off omega at the peak
    domain, time = DomainSpec(200), TimeGrid(1.0, 400)
    u0 = 0.5 * (1.0 + np.cos(np.pi * domain.centers)) / 2.0
    tracemalloc.start()
    try:
        result = run_nonlinear(u0, PhysicsParams(chi=10.0), domain, time,
                               fixed_point=FixedPointSettings(tol=3.5e-6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.converged and result.iterations == 7
    assert sum(row["cg_iters"] for row in result.history) <= 17  # 28 with every CG tight
    assert peak <= 10.4 * (time.n_steps + 1) * domain.n_cells * 8  # 11.95 before


def test_verify_nonlinear_breakdowns_raise_solver_error(small_setup, monkeypatch):
    domain, tgrid, u0 = small_setup
    phys = PhysicsParams(chi=1.0, gamma=1.0, delta=1.0)
    f = np.zeros((tgrid.n_steps + 1, domain.n_cells))
    f[3, domain.omega_mask] = np.inf
    with pytest.raises(SolverError, match="non-finite state after verification step 3$"):
        verify_nonlinear(u0, f, phys, domain, tgrid)
    with pytest.raises(SolverError, match="non-finite initial data"):
        verify_nonlinear(np.full(domain.n_cells, np.nan), None, phys, domain, tgrid)
    # delta u overflows the elliptic source of the first sweep
    with pytest.raises(SolverError, match="^elliptic source contains non-finite values "
                                          "at verification step 1$"):
        verify_nonlinear(1e13 * u0, None, PhysicsParams(delta=1e300), domain, tgrid)
    with pytest.raises(ValueError, match="not positive definite"):  # bad input, no breakdown
        verify_nonlinear(u0, None, PhysicsParams(gamma=1e-300), domain, tgrid)
    # a zero step matrix: dgtsv reports the singular pivot
    monkeypatch.setattr(nonlinear, "step_matrix_banded",
                        lambda faces, domain, dt: np.zeros((3, domain.n_cells)))
    with pytest.raises(SolverError, match="singular implicit step matrix at verification step 1$"):
        verify_nonlinear(u0, None, phys, domain, tgrid)


def test_run_nonlinear_reports_verification_sweeps(small_setup):
    domain, tgrid, u0 = small_setup
    phys = PhysicsParams(chi=1.0, gamma=1.0, delta=1.0)
    result = run_nonlinear(u0, phys, domain, tgrid, hum=HumSettings(epsilon=1e-6))
    assert result.verification_sweeps["capped_steps"] == 0
    assert result.m_matrix["is_m_matrix"]
    assert result.weights.log_w_peak < 0.0


def test_remark_check_tail(small_setup):
    domain, tgrid, u0 = small_setup
    phys = PhysicsParams(chi=1.0, gamma=1.0, delta=1.0)
    result = run_nonlinear(u0, phys, domain, tgrid, hum=HumSettings(epsilon=1e-6))
    rep = remark_check(result, domain, tgrid)
    assert len(rep["tail_norms"]) == len(rep["tail_levels"])
    # the chemoattractant is driven down with the population density
    assert rep["final_to_max_ratio"] < 0.05


def test_invalid_fp_tol(small_setup):
    domain, tgrid, u0 = small_setup
    phys = PhysicsParams(chi=1.0, gamma=1.0, delta=1.0)
    with pytest.raises(ValueError):
        run_nonlinear(u0, phys, domain, tgrid, fixed_point=FixedPointSettings(tol=0.0))


class TestThresholdSweep:
    def test_monotone_scan_and_fit(self):
        domain = DomainSpec(40)
        phys = PhysicsParams(chi=1.0, gamma=1.0, delta=1.0)
        shape = (1.0 + np.cos(np.pi * domain.centers)) / 2.0
        table = threshold_sweep(
            [0.5, 1.0], [1e-3, 1e-2, 2.0], shape, phys, domain, TimeGrid(1.0, 40),
            hum=HumSettings(epsilon=1e-6), fixed_point=FixedPointSettings(max_iters=15),
        )
        for row in table["rows"]:
            flags = [c["success"] for c in row["cells"]]
            # monotone by construction: all True then (maybe) one False
            assert flags == sorted(flags, reverse=True)
            assert row["a_star"] is not None
        assert table["n_fitted"] == 2
        assert np.isfinite(table["c1_hat"])

    def test_rejects_nonpositive_amplitudes(self):
        domain = DomainSpec(40)
        phys = PhysicsParams(chi=1.0, gamma=1.0, delta=1.0)
        with pytest.raises(ValueError):
            threshold_sweep([1.0], [0.0, 1.0], np.ones(domain.n_cells),
                            phys, domain, TimeGrid(1.0, 40))
