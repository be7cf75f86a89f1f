import numpy as np
import pytest

from chemosteer.elliptic import PhysicsParams
from chemosteer.grid import build_beta, build_domain, build_time_grid
from chemosteer.hum import solve_penalized
from chemosteer.nonlinear import (remark_check, run_nonlinear, threshold_sweep,
                                  verify_nonlinear)
from chemosteer.parabolic import level_l2
from conftest import default_weights


@pytest.fixture
def small_setup():
    domain = build_domain(40, (0.3, 0.7), 0.5)
    tgrid = build_time_grid(1.0, 40)
    beta = build_beta(domain)
    u0 = 1e-3 * (1.0 + np.cos(np.pi * domain.centers)) / 2.0
    return domain, tgrid, beta, u0


def test_converges_small_data(small_setup):
    domain, tgrid, beta, u0 = small_setup
    phys = PhysicsParams(chi=1.0, gamma=1.0, delta=1.0)
    result = run_nonlinear(u0, phys, domain, tgrid, beta, epsilon=1e-6)
    assert result.converged
    assert result.in_K
    assert result.iterations <= 10
    assert result.history[-1]["increment"] <= result.history[0]["increment"]
    # the certified nonlinear re-solve must reach a small terminal norm
    assert result.verification_terminal_l2 <= 1e-3 * level_l2(u0, domain.h)


def test_decoupled_matches_linear_exactly(small_setup):
    # with chi = 0 the drift vanishes, so the fixed point closes in one
    # correction and reproduces the linear solver bit for bit
    domain, tgrid, beta, u0 = small_setup
    phys = PhysicsParams(chi=0.0, gamma=1.0, delta=1.0)
    result = run_nonlinear(u0, phys, domain, tgrid, beta, epsilon=1e-6)
    assert result.converged

    from chemosteer.elliptic import DriftField
    drift = DriftField.zero(domain, tgrid)
    weights = default_weights(domain, tgrid, beta, b_sup=0.0)
    sol = solve_penalized(u0, drift, weights, domain, tgrid, 1e-6)
    assert np.array_equal(result.u, sol.u)
    assert np.array_equal(result.f, sol.f)


def test_history_rows_complete(small_setup):
    domain, tgrid, beta, u0 = small_setup
    phys = PhysicsParams(chi=1.0, gamma=1.0, delta=1.0)
    result = run_nonlinear(u0, phys, domain, tgrid, beta, epsilon=1e-6)
    for row in result.history:
        assert set(row) == {"iteration", "increment", "sup_u",
                            "terminal_l2", "B_sup"}
    assert [r["iteration"] for r in result.history] == \
        list(range(1, result.iterations + 1))


def test_zero_iteration_cap(small_setup):
    domain, tgrid, beta, u0 = small_setup
    phys = PhysicsParams(chi=1.0, gamma=1.0, delta=1.0)
    result = run_nonlinear(u0, phys, domain, tgrid, beta, fp_max_iters=0)
    assert not result.converged
    assert result.iterations == 0 and result.history == []


def test_u0_constant_initial_guess(small_setup):
    domain, tgrid, beta, u0 = small_setup
    phys = PhysicsParams(chi=1.0, gamma=1.0, delta=1.0)
    result = run_nonlinear(u0, phys, domain, tgrid, beta,
                           initial_guess="u0-constant", epsilon=1e-6)
    assert result.converged
    with pytest.raises(ValueError):
        run_nonlinear(u0, phys, domain, tgrid, beta, initial_guess="bogus")


def test_freeze_after_first(small_setup):
    domain, tgrid, beta, u0 = small_setup
    phys = PhysicsParams(chi=1.0, gamma=1.0, delta=1.0)
    result = run_nonlinear(u0, phys, domain, tgrid, beta,
                           freeze_after_first=True, epsilon=1e-6)
    assert result.converged
    # parameters were selected from the zero initial guess and kept
    assert result.params_last.b_sup == 0.0


def test_verify_nonlinear_zero_control_mass(small_setup):
    domain, tgrid, beta, u0 = small_setup
    phys = PhysicsParams(chi=1.0, gamma=1.0, delta=1.0)
    u = verify_nonlinear(u0, None, phys, domain, tgrid)
    mass = domain.h * u.sum(axis=1)
    assert np.abs(mass - mass[0]).max() <= 1e-12 * max(abs(mass[0]), 1e-300)


def test_verify_nonlinear_reports_capped_steps(small_setup):
    domain, tgrid, beta, u0 = small_setup
    phys = PhysicsParams(chi=1.0, gamma=1.0, delta=1.0)
    u, sweeps = verify_nonlinear(u0, None, phys, domain, tgrid, full_output=True)
    assert np.array_equal(u, verify_nonlinear(u0, None, phys, domain, tgrid))
    assert sweeps["capped_steps"] == 0
    assert tgrid.n_steps < sweeps["sweeps"] <= 5 * tgrid.n_steps
    # one sweep never confirms the step iterate, so every step is capped
    _, capped = verify_nonlinear(u0, None, phys, domain, tgrid, max_sweeps=1,
                                 full_output=True)
    assert capped["capped_steps"] == tgrid.n_steps
    assert capped["sweeps"] == tgrid.n_steps


def test_run_nonlinear_reports_verification_sweeps(small_setup):
    domain, tgrid, beta, u0 = small_setup
    phys = PhysicsParams(chi=1.0, gamma=1.0, delta=1.0)
    result = run_nonlinear(u0, phys, domain, tgrid, beta, epsilon=1e-6)
    assert result.verification_sweeps["capped_steps"] == 0
    assert result.m_matrix["is_m_matrix"]
    assert result.log_w_peak < 0.0


def test_remark_check_tail(small_setup):
    domain, tgrid, beta, u0 = small_setup
    phys = PhysicsParams(chi=1.0, gamma=1.0, delta=1.0)
    result = run_nonlinear(u0, phys, domain, tgrid, beta, epsilon=1e-6)
    rep = remark_check(result, domain, tgrid)
    assert len(rep["tail_norms"]) == len(rep["tail_levels"])
    # the chemoattractant is driven down with the population density
    assert rep["final_to_max_ratio"] < 0.05


def test_invalid_fp_tol(small_setup):
    domain, tgrid, beta, u0 = small_setup
    phys = PhysicsParams(chi=1.0, gamma=1.0, delta=1.0)
    with pytest.raises(ValueError):
        run_nonlinear(u0, phys, domain, tgrid, beta, fp_tol=0.0)


class TestThresholdSweep:
    def test_monotone_scan_and_fit(self):
        domain = build_domain(40, (0.3, 0.7), 0.5)
        beta = build_beta(domain)
        phys = PhysicsParams(chi=1.0, gamma=1.0, delta=1.0)

        def shape(dom):
            return (1.0 + np.cos(np.pi * dom.centers)) / 2.0

        table = threshold_sweep(
            [0.5, 1.0], [1e-3, 1e-2, 2.0], shape, phys, domain,
            lambda T: 40, beta, epsilon=1e-6, fp_max_iters=15,
        )
        for row in table["rows"]:
            flags = [c["success"] for c in row["cells"]]
            # monotone by construction: all True then (maybe) one False
            assert flags == sorted(flags, reverse=True)
            assert row["a_star"] is not None
        assert table["n_fitted"] == 2
        assert np.isfinite(table["c1_hat"])

    def test_rejects_nonpositive_amplitudes(self):
        domain = build_domain(40, (0.3, 0.7), 0.5)
        beta = build_beta(domain)
        phys = PhysicsParams(chi=1.0, gamma=1.0, delta=1.0)
        with pytest.raises(ValueError):
            threshold_sweep([1.0], [0.0, 1.0], lambda d: np.ones(d.n_cells),
                            phys, domain, 40, beta)
