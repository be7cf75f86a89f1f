import numpy as np
import pytest

from chemosteer.checks import (dense_kkt_deviation, gramian_defects, random_drift,
                               zero_data_control)
from chemosteer.elliptic import DriftField
from chemosteer.grid import build_beta, build_domain, build_time_grid
from chemosteer.hum import (control_bound_report, dense_gramian,
                            feedback_control, gramian_apply, kappa_const,
                            solve_penalized)
from chemosteer.parabolic import level_l2
from conftest import default_weights


def test_kappa_const():
    assert kappa_const(0.0, 1.0) == pytest.approx(3.0)
    assert kappa_const(2.0, 0.5) == pytest.approx(5.0 * 1.5 + 2.0)


@pytest.mark.parametrize("seed", range(5))
def test_gramian_symmetry(domain32, tgrid24, beta32, seed):
    rng = np.random.default_rng(seed)
    drift = random_drift(rng, domain32, tgrid24, amplitude=1.0, per_step=True)
    weights = default_weights(domain32, tgrid24, beta32, b_sup=drift.sup_norm)
    x = rng.standard_normal(32)
    y = rng.standard_normal(32)
    d = gramian_defects(x, y, drift, weights, domain32, tgrid24)
    assert d["symmetry"] <= 1e-10


@pytest.mark.parametrize("seed", range(5))
def test_quadratic_form_identity(domain32, tgrid24, beta32, seed):
    rng = np.random.default_rng(50 + seed)
    drift = random_drift(rng, domain32, tgrid24, amplitude=1.0)
    weights = default_weights(domain32, tgrid24, beta32, b_sup=drift.sup_norm)
    x = rng.standard_normal(32)
    d = gramian_defects(x, rng.standard_normal(32), drift, weights, domain32, tgrid24)
    # with q_apply >= -1e-12 the energy identity also bounds q_direct from below
    assert d["psd"] <= 1e-12
    assert d["energy"] <= 1e-10


def test_feedback_control_structure(domain32, tgrid24, beta32):
    rng = np.random.default_rng(2)
    weights = default_weights(domain32, tgrid24, beta32)
    phi = rng.standard_normal((tgrid24.n_steps + 1, 32))
    f = feedback_control(phi, weights, domain32)
    assert np.all(f[0] == 0.0)
    assert np.all(f[:, ~domain32.omega_mask] == 0.0)
    inside = domain32.omega_mask
    assert np.array_equal(f[1:, inside], weights.w[:, inside] * phi[:-1, inside])


def test_dense_gramian_matches_apply(domain32, tgrid24, beta32):
    rng = np.random.default_rng(9)
    drift = random_drift(rng, domain32, tgrid24, amplitude=0.5)
    weights = default_weights(domain32, tgrid24, beta32, b_sup=drift.sup_norm)
    g = dense_gramian(drift, weights, domain32, tgrid24)
    x = rng.standard_normal(32)
    gx = gramian_apply(x, drift, weights, domain32, tgrid24)
    assert np.abs(g @ x - gx).max() <= 1e-12 * max(np.abs(gx).max(), 1e-300)
    assert np.abs(g - g.T).max() <= 1e-12 * np.abs(g).max()


class TestSolvePenalized:
    def test_zero_data_shortcut(self, domain32, tgrid24, beta32):
        drift = DriftField.zero(domain32, tgrid24)
        weights = default_weights(domain32, tgrid24, beta32)
        sol = solve_penalized(np.zeros(32), drift, weights, domain32, tgrid24, 1e-4)
        assert sol.cg_converged and sol.cg_iters == 0
        assert zero_data_control(drift, weights, domain32, tgrid24) == 0.0

    def test_invalid_epsilon(self, domain32, tgrid24, beta32):
        drift = DriftField.zero(domain32, tgrid24)
        weights = default_weights(domain32, tgrid24, beta32)
        with pytest.raises(ValueError):
            solve_penalized(np.ones(32), drift, weights, domain32, tgrid24, 0.0)

    def test_terminal_is_minus_eps_phiT(self, domain32, tgrid24, beta32):
        # optimality: u(T) = -eps phiT up to the CG tolerance
        drift = DriftField.zero(domain32, tgrid24)
        weights = default_weights(domain32, tgrid24, beta32)
        u0 = 1e-2 * (1.0 + np.cos(np.pi * domain32.centers)) / 2.0
        sol = solve_penalized(u0, drift, weights, domain32, tgrid24, 1e-4,
                              cg_tol=1e-12)
        assert sol.cg_converged
        defect = level_l2(sol.u[-1] + 1e-4 * sol.phiT, domain32.h)
        assert defect <= 1e-10 * max(sol.terminal_norm, level_l2(u0, domain32.h))

    def test_controlled_beats_free_decay(self, domain32, tgrid24, beta32):
        drift = DriftField.zero(domain32, tgrid24)
        weights = default_weights(domain32, tgrid24, beta32)
        u0 = 1e-2 * (1.0 + np.cos(np.pi * domain32.centers)) / 2.0
        sol = solve_penalized(u0, drift, weights, domain32, tgrid24, 1e-6)
        free_norm = level_l2(sol.u_free_terminal, domain32.h)
        assert sol.terminal_norm < 1e-2 * free_norm

    def test_energy_and_sup_reported(self, domain32, tgrid24, beta32):
        rng = np.random.default_rng(21)
        drift = random_drift(rng, domain32, tgrid24, amplitude=0.5)
        weights = default_weights(domain32, tgrid24, beta32, b_sup=drift.sup_norm)
        u0 = rng.uniform(0.0, 1e-2, 32)
        sol = solve_penalized(u0, drift, weights, domain32, tgrid24, 1e-4)
        assert sol.weighted_energy > 0.0
        assert sol.control_sup == np.abs(sol.f).max()
        rep = control_bound_report(sol, u0, domain32)
        assert rep["kappa"] == sol.kappa
        assert np.isfinite(rep["C_hat_energy"]) or rep["C_hat_energy"] == float("-inf")

    def test_iteration_cap_flags_not_raises(self, domain32, tgrid24, beta32):
        drift = DriftField.zero(domain32, tgrid24)
        weights = default_weights(domain32, tgrid24, beta32)
        u0 = 1e-2 * (1.0 + np.cos(np.pi * domain32.centers)) / 2.0
        sol = solve_penalized(u0, drift, weights, domain32, tgrid24, 1e-6,
                              cg_tol=1e-16, cg_max_iters=1)
        assert not sol.cg_converged
        assert sol.cg_iters == 1
        assert np.all(np.isfinite(sol.u))


@pytest.mark.parametrize("eps", [1e-2, 1e-4])
def test_dense_kkt_oracle_small_grid(eps):
    # CG against the dense factorized optimality system on an 8x8 problem
    dom = build_domain(8, (0.25, 0.75), 0.5)
    tg = build_time_grid(1.0, 8)
    beta = build_beta(dom)
    rng = np.random.default_rng(31)
    drift = random_drift(rng, dom, tg, amplitude=1.0)
    weights = default_weights(dom, tg, beta, b_sup=drift.sup_norm)
    u0 = rng.standard_normal(8)
    assert dense_kkt_deviation(u0, drift, weights, dom, tg, eps) <= 1e-8
