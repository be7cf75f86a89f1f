import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from chemosteer import hum
from chemosteer.checks import (dense_kkt_deviation, gramian_defects, random_drift,
                               zero_data_control)
from chemosteer.elliptic import DriftField
from chemosteer.grid import DomainSpec, TimeGrid
from chemosteer.hum import (HumSettings, control_bound_report, dense_gramian,
                            feedback_control, gramian_apply, kappa_const,
                            solve_penalized)
from chemosteer.parabolic import (Propagator, SolverError, level_l2, solve_adjoint,
                                  solve_forward)
from conftest import default_weights, propagator_of


def test_kappa_const():
    assert kappa_const(0.0, 1.0) == pytest.approx(3.0)
    assert kappa_const(2.0, 0.5) == pytest.approx(5.0 * 1.5 + 2.0)


@pytest.mark.parametrize("seed", range(5))
def test_gramian_symmetry(domain32, tgrid24, seed):
    rng = np.random.default_rng(seed)
    drift = random_drift(rng, domain32, tgrid24, amplitude=1.0, per_step=True)
    weights = default_weights(domain32, tgrid24, b_sup=drift.sup_norm)
    x = rng.standard_normal(32)
    y = rng.standard_normal(32)
    d = gramian_defects(x, y, drift, weights, domain32, tgrid24)
    assert d["symmetry"] <= 1e-10


@pytest.mark.parametrize("seed", range(5))
def test_quadratic_form_identity(domain32, tgrid24, seed):
    rng = np.random.default_rng(50 + seed)
    drift = random_drift(rng, domain32, tgrid24, amplitude=1.0)
    weights = default_weights(domain32, tgrid24, b_sup=drift.sup_norm)
    x = rng.standard_normal(32)
    d = gramian_defects(x, rng.standard_normal(32), drift, weights, domain32, tgrid24)
    # with q_apply >= -1e-12 the energy identity also bounds q_direct from below
    assert d["psd"] <= 1e-12
    assert d["energy"] <= 1e-10


def test_feedback_control_structure(domain32, tgrid24):
    rng = np.random.default_rng(2)
    weights = default_weights(domain32, tgrid24)
    phi = rng.standard_normal((tgrid24.n_steps + 1, 32))
    f = feedback_control(phi, weights, domain32)
    assert np.all(f[0] == 0.0)
    assert np.all(f[:, ~domain32.omega_mask] == 0.0)
    inside = domain32.omega_mask
    assert np.array_equal(f[1:, inside], weights.w[:, inside] * phi[:-1, inside])


def test_dense_gramian_matches_apply(domain32, tgrid24):
    rng = np.random.default_rng(9)
    drift = random_drift(rng, domain32, tgrid24, amplitude=0.5)
    weights = default_weights(domain32, tgrid24, b_sup=drift.sup_norm)
    g = dense_gramian(drift, weights, domain32, tgrid24)
    x = rng.standard_normal(32)
    gx = gramian_apply(x, propagator_of(drift, domain32, tgrid24), weights)[-1]
    assert np.abs(g @ x - gx).max() <= 1e-12 * max(np.abs(gx).max(), 1e-300)
    assert np.abs(g - g.T).max() <= 1e-12 * np.abs(g).max()


class TestSolvePenalized:
    def test_zero_data_shortcut(self, domain32, tgrid24):
        drift = DriftField.zero(domain32, tgrid24)
        weights = default_weights(domain32, tgrid24)
        sol = solve_penalized(np.zeros(32), drift, weights, domain32, tgrid24,
                              HumSettings(epsilon=1e-4))
        assert sol.cg_converged and sol.cg_iters == 0
        assert zero_data_control(drift, weights, domain32, tgrid24) == 0.0

    def test_invalid_epsilon(self, domain32, tgrid24):
        drift = DriftField.zero(domain32, tgrid24)
        weights = default_weights(domain32, tgrid24)
        with pytest.raises(ValueError):
            solve_penalized(np.ones(32), drift, weights, domain32, tgrid24,
                            HumSettings(epsilon=0.0))

    def test_terminal_is_minus_eps_phiT(self, domain32, tgrid24):
        # optimality: u(T) = -eps phiT up to the CG tolerance
        drift = DriftField.zero(domain32, tgrid24)
        weights = default_weights(domain32, tgrid24)
        u0 = 1e-2 * (1.0 + np.cos(np.pi * domain32.centers)) / 2.0
        sol = solve_penalized(u0, drift, weights, domain32, tgrid24,
                              HumSettings(epsilon=1e-4, cg_tol=1e-12))
        assert sol.cg_converged
        defect = level_l2(sol.u[-1] + 1e-4 * sol.phiT, domain32.h)
        assert defect <= 1e-10 * max(sol.terminal_norm, level_l2(u0, domain32.h))

    def test_controlled_beats_free_decay(self, domain32, tgrid24):
        drift = DriftField.zero(domain32, tgrid24)
        weights = default_weights(domain32, tgrid24)
        u0 = 1e-2 * (1.0 + np.cos(np.pi * domain32.centers)) / 2.0
        sol = solve_penalized(u0, drift, weights, domain32, tgrid24, HumSettings(epsilon=1e-6))
        free_norm = level_l2(sol.u_free_terminal, domain32.h)
        assert sol.terminal_norm < 1e-2 * free_norm

    def test_energy_and_sup_reported(self, domain32, tgrid24):
        rng = np.random.default_rng(21)
        drift = random_drift(rng, domain32, tgrid24, amplitude=0.5)
        weights = default_weights(domain32, tgrid24, b_sup=drift.sup_norm)
        u0 = rng.uniform(0.0, 1e-2, 32)
        sol = solve_penalized(u0, drift, weights, domain32, tgrid24, HumSettings(epsilon=1e-4))
        assert sol.weighted_energy > 0.0
        assert sol.control_sup == np.abs(sol.f).max()
        rep = control_bound_report(sol, u0, domain32)
        assert rep["kappa"] == sol.kappa
        assert np.isfinite(rep["C_hat_energy"]) or rep["C_hat_energy"] == float("-inf")

    def test_iteration_cap_flags_not_raises(self, domain32, tgrid24):
        drift = DriftField.zero(domain32, tgrid24)
        weights = default_weights(domain32, tgrid24)
        u0 = 1e-2 * (1.0 + np.cos(np.pi * domain32.centers)) / 2.0
        sol = solve_penalized(u0, drift, weights, domain32, tgrid24,
                              HumSettings(epsilon=1e-6, cg_tol=1e-16, cg_max_iters=1))
        assert not sol.cg_converged
        assert sol.cg_iters == 1
        assert np.all(np.isfinite(sol.u))


@pytest.mark.parametrize("eps", [1e-2, 1e-4])
def test_dense_kkt_oracle_small_grid(eps):
    # CG against the dense factorized optimality system on an 8x8 problem
    dom = DomainSpec(8, 0.25, 0.75, 0.5)
    tg = TimeGrid(1.0, 8)
    rng = np.random.default_rng(31)
    drift = random_drift(rng, dom, tg, amplitude=1.0)
    weights = default_weights(dom, tg, b_sup=drift.sup_norm)
    u0 = rng.standard_normal(8)
    assert dense_kkt_deviation(u0, drift, weights, dom, tg, eps) <= 1e-8


def cosine_data(domain, amplitude):
    return amplitude * (1.0 + np.cos(np.pi * domain.centers)) / 2.0


class TestSynthesisByLinearity:
    def test_one_free_march_and_two_per_cg_iteration(self, domain32, tgrid24, monkeypatch):
        rng = np.random.default_rng(41)
        drift = random_drift(rng, domain32, tgrid24, amplitude=1.0, per_step=True)
        weights = default_weights(domain32, tgrid24, b_sup=drift.sup_norm)
        marches = []
        march = Propagator.march
        monkeypatch.setattr(Propagator, "march",
                            lambda self, *a, **k: marches.append(1) or march(self, *a, **k))
        sol = solve_penalized(cosine_data(domain32, 1e-2), drift, weights,
                              domain32, tgrid24, HumSettings(epsilon=1e-6))
        assert sol.cg_iters >= 3
        assert len(marches) == 1 + 2 * sol.cg_iters

    def test_each_cg_iteration_applies_the_gramian_once(self, domain32, tgrid24, monkeypatch):
        # CG applies G through the public operator, so a trace of it counts CG's work
        rng = np.random.default_rng(43)
        drift = random_drift(rng, domain32, tgrid24, amplitude=1.0, per_step=True)
        weights = default_weights(domain32, tgrid24, b_sup=drift.sup_norm)
        applies = []
        apply = hum.gramian_apply
        monkeypatch.setattr(hum, "gramian_apply",
                            lambda *a, **k: applies.append(1) or apply(*a, **k))
        sol = solve_penalized(cosine_data(domain32, 1e-2), drift, weights,
                              domain32, tgrid24, HumSettings(epsilon=1e-6))
        assert sol.cg_iters >= 3
        assert len(applies) == sol.cg_iters

    def test_one_propagator_per_solve_freed_with_it(self, domain32, tgrid24, monkeypatch):
        rng = np.random.default_rng(44)
        drift = random_drift(rng, domain32, tgrid24, amplitude=1.0, per_step=True)
        weights = default_weights(domain32, tgrid24, b_sup=drift.sup_norm)
        built = []

        class Recorded(Propagator):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(weakref.ref(self))

        monkeypatch.setattr(hum, "Propagator", Recorded)
        sol = solve_penalized(cosine_data(domain32, 1e-2), drift, weights,
                              domain32, tgrid24, HumSettings(epsilon=1e-6))
        gc.collect()
        assert sol.cg_iters >= 3 and len(built) == 1
        assert built[0]() is None

    def test_state_and_control_match_their_marches(self, domain32, tgrid24):
        # the synthesized pair against the adjoint and forward marches of phiT
        rng = np.random.default_rng(42)
        drift = random_drift(rng, domain32, tgrid24, amplitude=1.5, per_step=True)
        weights = default_weights(domain32, tgrid24, b_sup=drift.sup_norm)
        u0 = rng.uniform(0.0, 1e-2, 32)
        sol = solve_penalized(u0, drift, weights, domain32, tgrid24, HumSettings(epsilon=1e-6))
        prop = propagator_of(drift, domain32, tgrid24)
        f = feedback_control(solve_adjoint(sol.phiT, prop), weights, domain32)
        u = solve_forward(u0, prop, sol.f)
        assert np.abs(sol.f - f).max() <= 1e-12 * np.abs(f).max()
        assert np.abs(sol.u - u).max() <= 1e-12 * np.abs(u).max()
        # +0.0, not -0.0, off omega and at level 0
        assert not np.ascontiguousarray(sol.f[:, ~domain32.omega_mask]).view(np.uint64).any()
        assert not sol.f[0].view(np.uint64).any()

    def test_power_of_two_data_scale_every_result_bitwise(self, domain32, tgrid24):
        # 2^-600 data underflowed the CG curvature to a zero control before
        # the solve was scaled to unit size
        rng = np.random.default_rng(43)
        drift = random_drift(rng, domain32, tgrid24, amplitude=1.0, per_step=True)
        weights = default_weights(domain32, tgrid24, b_sup=drift.sup_norm)
        one, low = (solve_penalized(np.ldexp(cosine_data(domain32, 1e-2), k), drift,
                                    weights, domain32, tgrid24, HumSettings(epsilon=1e-6))
                     for k in (0, -600))
        assert low.cg_iters == one.cg_iters and low.residual_history == one.residual_history
        for a, b in ((one.f, low.f), (one.u, low.u), (one.phiT, low.phiT)):
            assert np.array_equal(np.ldexp(a, -600), b)
        assert low.terminal_norm == np.ldexp(one.terminal_norm, -600) > 0.0

    @pytest.mark.parametrize("amplitude", [1e-155, 1e-160, 1e-300])
    def test_tiny_data_give_the_scaled_control(self, domain32, tgrid24, amplitude):
        drift = DriftField.zero(domain32, tgrid24)
        weights = default_weights(domain32, tgrid24)
        one, tiny = (solve_penalized(cosine_data(domain32, a), drift, weights,
                                     domain32, tgrid24, HumSettings(epsilon=1e-6))
                      for a in (1.0, amplitude))
        assert tiny.cg_converged and tiny.cg_iters == one.cg_iters
        scale = amplitude * np.abs(one.f).max()
        assert np.abs(tiny.f - amplitude * one.f).max() <= 1e-12 * scale
        assert tiny.terminal_norm == pytest.approx(amplitude * one.terminal_norm, rel=1e-10)

    def test_energy_past_the_float_range_raises_solver_error(self, domain32, tgrid24):
        drift = DriftField.zero(domain32, tgrid24)
        weights = default_weights(domain32, tgrid24)
        with pytest.raises(SolverError, match="overflows the float range"):
            solve_penalized(cosine_data(domain32, 1e160), drift, weights, domain32, tgrid24,
                            HumSettings(epsilon=1e-6))

    @pytest.mark.parametrize("epsilon", [1e-320, 5e-324, 1e308])
    def test_cg_breakdown_raises_solver_error(self, domain32, tgrid24, epsilon):
        # no weight leaves G = 0, and a subnormal eps leaves the curvature
        # eps |p|^2 at zero or its step alpha overflowing; eps = 1e308 takes
        # the curvature past the float range
        drift = DriftField.zero(domain32, tgrid24)
        weights = default_weights(domain32, tgrid24)
        blind = dataclasses.replace(weights, w=np.zeros_like(weights.w))
        with pytest.raises(SolverError, match="CG breakdown at iteration 1"):
            solve_penalized(cosine_data(domain32, 1e-2), drift, blind, domain32, tgrid24,
                            HumSettings(epsilon=epsilon))


def test_solve_peak_memory_with_a_per_step_drift():
    # the forward march's source lives in the trajectory it becomes, unpivoted steps
    # share one du2 and ipiv, and CG sums the control on omega alone
    domain, time = DomainSpec(200), TimeGrid(1.0, 400)
    drift = random_drift(np.random.default_rng(0), domain, time, amplitude=1.0, per_step=True)
    weights = default_weights(domain, time, b_sup=drift.sup_norm)
    tracemalloc.start()
    try:
        sol = solve_penalized(cosine_data(domain, 0.5), drift, weights, domain, time)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.cg_converged
    assert peak <= 7.3 * (time.n_steps + 1) * domain.n_cells * 8  # 8.93 with per-step pivots
