import numpy as np
import pytest

from chemosteer.elliptic import DriftField
from chemosteer.grid import build_domain, build_time_grid
from chemosteer.hum import dense_gramian, gramian_apply
from chemosteer.parabolic import (Propagator, SolverError, SpaceTimeField,
                                  inner_l2, level_l2, linf_estimate_report,
                                  m_matrix_report, propagator, solve_adjoint,
                                  solve_forward, space_time_l2)
from conftest import default_weights, random_drift


def test_constant_preserved(domain32, tgrid24):
    drift = DriftField.zero(domain32, tgrid24)
    u = solve_forward(np.full(32, 2.5), drift, None, domain32, tgrid24)
    assert np.abs(u - 2.5).max() < 1e-12


def test_mass_conservation_with_drift(domain32, tgrid24):
    rng = np.random.default_rng(3)
    drift = random_drift(rng, domain32, tgrid24, amplitude=2.0, per_step=True)
    u0 = rng.standard_normal(32)
    u = solve_forward(u0, drift, None, domain32, tgrid24)
    mass = domain32.h * u.sum(axis=1)
    assert np.abs(mass - mass[0]).max() <= 1e-12 * max(1.0, abs(mass[0]))


def test_heat_fourier_oracle():
    # pure diffusion with Neumann data: u0 = 1 + cos(pi x) decays its
    # oscillatory mode like e^{-pi^2 t}
    dom = build_domain(200, (0.3, 0.7), 0.5)
    tg = build_time_grid(0.1, 400)
    drift = DriftField.zero(dom, tg)
    u0 = 1.0 + np.cos(np.pi * dom.centers)
    u = solve_forward(u0, drift, None, dom, tg)
    exact = 1.0 + np.exp(-np.pi ** 2 * 0.1) * np.cos(np.pi * dom.centers)
    assert np.abs(u[-1] - exact).max() < 1e-2


def test_spatial_convergence_second_order():
    errs = []
    for n in (32, 64):
        dom = build_domain(n, (0.3, 0.7), 0.5)
        tg = build_time_grid(0.1, round(2 * n * n * 0.1))
        drift = DriftField.zero(dom, tg)
        u0 = 1.0 + np.cos(np.pi * dom.centers)
        u = solve_forward(u0, drift, None, dom, tg)
        exact = 1.0 + np.exp(-np.pi ** 2 * 0.1) * np.cos(np.pi * dom.centers)
        errs.append(np.abs(u[-1] - exact).max())
    assert 3.5 <= errs[0] / errs[1] <= 4.5


@pytest.mark.parametrize("seed", range(5))
def test_duality_terminal(domain32, tgrid24, seed):
    rng = np.random.default_rng(seed)
    drift = random_drift(rng, domain32, tgrid24, amplitude=1.5, per_step=True)
    u0 = rng.standard_normal(32)
    phiT = rng.standard_normal(32)
    u = solve_forward(u0, drift, None, domain32, tgrid24)
    phi = solve_adjoint(phiT, drift, domain32, tgrid24)
    lhs = inner_l2(u[-1], phiT, domain32.h)
    rhs = inner_l2(u0, phi[0], domain32.h)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


@pytest.mark.parametrize("seed", range(5))
def test_duality_with_control(domain32, tgrid24, seed):
    # the control at level k pairs with the adjoint value at level k-1
    rng = np.random.default_rng(100 + seed)
    drift = random_drift(rng, domain32, tgrid24, amplitude=1.5, per_step=True)
    phiT = rng.standard_normal(32)
    f = rng.standard_normal((tgrid24.n_steps + 1, 32))
    u = solve_forward(np.zeros(32), drift, f, domain32, tgrid24)
    phi = solve_adjoint(phiT, drift, domain32, tgrid24)
    lhs = inner_l2(u[-1], phiT, domain32.h)
    masked = np.where(domain32.omega_mask[None, :], f[1:], 0.0)
    rhs = tgrid24.dt * domain32.h * float(np.sum(masked * phi[:-1]))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


def test_implicit_step_l2_stability(domain32, tgrid24):
    # one implicit step grows the L2 norm by at most 1/(1 - dt B^2 / 2)
    rng = np.random.default_rng(7)
    drift = random_drift(rng, domain32, tgrid24, amplitude=2.0)
    b = drift.sup_norm
    bound = 1.0 / (1.0 - tgrid24.dt * b * b / 2.0)
    u0 = rng.standard_normal(32)
    u = solve_forward(u0, drift, None, domain32, tgrid24)
    for k in range(tgrid24.n_steps):
        r = level_l2(u[k + 1], domain32.h) / level_l2(u[k], domain32.h)
        assert r <= bound * (1.0 + 1e-12)


def test_m_matrix_report(domain32, tgrid24):
    ok = m_matrix_report(random_drift(np.random.default_rng(0), domain32,
                                      tgrid24, amplitude=1.0),
                         domain32, tgrid24)
    assert ok["is_m_matrix"]
    huge = random_drift(np.random.default_rng(0), domain32, tgrid24,
                        amplitude=100.0)
    # force at least one face past the 2/h threshold
    faces = huge.faces.copy()
    faces[:, 5] = 3.0 / domain32.h
    bad = m_matrix_report(DriftField(faces=faces), domain32, tgrid24)
    assert not bad["is_m_matrix"]


def test_positivity_preserved_in_m_matrix_regime(domain32, tgrid24):
    rng = np.random.default_rng(11)
    drift = random_drift(rng, domain32, tgrid24, amplitude=1.0, per_step=True)
    assert m_matrix_report(drift, domain32, tgrid24)["is_m_matrix"]
    u0 = rng.uniform(0.1, 1.0, 32)
    u = solve_forward(u0, drift, None, domain32, tgrid24)
    assert u.min() > 0.0


def test_nonfinite_state_raises(domain32, tgrid24):
    drift = DriftField.zero(domain32, tgrid24)
    with pytest.raises(SolverError):
        solve_forward(np.full(32, np.inf), drift, None, domain32, tgrid24)


def test_space_time_field_helpers(domain32, tgrid24):
    vals = np.ones((tgrid24.n_steps + 1, 32))
    field = SpaceTimeField(values=vals, h=domain32.h, dt=tgrid24.dt)
    assert field.sup_norm == 1.0
    assert field.l2_at_level(0) == pytest.approx(1.0)
    # space-time norm counts levels 1..M only: sqrt(M dt * N h) = sqrt(T)
    assert field.l2_space_time() == pytest.approx(1.0)
    assert space_time_l2(vals, domain32.h, tgrid24.dt) == pytest.approx(1.0)


class TestLinfReport:
    def test_force_free_decay(self, domain32, tgrid24):
        drift = DriftField.zero(domain32, tgrid24)
        u0 = 1.0 + np.cos(np.pi * domain32.centers)
        u = solve_forward(u0, drift, None, domain32, tgrid24)
        rep = linf_estimate_report(u, u0, None, drift, domain32, tgrid24)
        # K0 is the sup of the cell-sampled data, just shy of 2
        assert rep["K0"] == pytest.approx(np.abs(u0).max())
        assert rep["rho0"] == pytest.approx(2.0)
        # the maximum principle keeps sup|u| at K0, so C_hat collapses
        assert rep["C_hat"] == float("-inf")
        assert rep["consistent"]

    def test_zero_data_degenerate(self, domain32, tgrid24):
        drift = DriftField.zero(domain32, tgrid24)
        u = solve_forward(np.zeros(32), drift, None, domain32, tgrid24)
        rep = linf_estimate_report(u, np.zeros(32), None, drift, domain32, tgrid24)
        assert rep["degenerate"] and rep["consistent"]

    def test_forced_run_finite_constant(self, domain32, tgrid24):
        rng = np.random.default_rng(4)
        drift = random_drift(rng, domain32, tgrid24, amplitude=1.0)
        f = rng.standard_normal((tgrid24.n_steps + 1, 32))
        u0 = rng.standard_normal(32)
        u = solve_forward(u0, drift, f, domain32, tgrid24)
        rep = linf_estimate_report(u, u0, f, drift, domain32, tgrid24)
        assert np.isfinite(rep["K0"]) and rep["K0"] > 0.0
        assert rep["rho0"] == (1.0 + drift.sup_norm ** 2) * 2.0


class TestPropagator:
    def test_batch_columns_equal_single_marches_bitwise(self, domain32, tgrid24):
        rng = np.random.default_rng(21)
        drift = random_drift(rng, domain32, tgrid24, amplitude=1.5, per_step=True)
        start = rng.standard_normal((32, 5))
        f = rng.standard_normal((tgrid24.n_steps + 1, 32, 5))
        u = solve_forward(start, drift, f, domain32, tgrid24)
        phi = solve_adjoint(start, drift, domain32, tgrid24)
        assert u.shape == phi.shape == (tgrid24.n_steps + 1, 32, 5)
        for j in range(5):
            single_u = solve_forward(start[:, j], drift, f[..., j], domain32, tgrid24)
            single_phi = solve_adjoint(start[:, j], drift, domain32, tgrid24)
            assert np.array_equal(u[..., j], single_u)
            assert np.array_equal(phi[..., j], single_phi)

    def test_duality_and_symmetry_per_step_drift(self, domain32, tgrid24, beta32):
        rng = np.random.default_rng(22)
        drift = random_drift(rng, domain32, tgrid24, amplitude=1.0, per_step=True)
        u0 = rng.standard_normal(32)
        phiT = rng.standard_normal(32)
        lhs = inner_l2(solve_forward(u0, drift, None, domain32, tgrid24)[-1],
                       phiT, domain32.h)
        rhs = inner_l2(u0, solve_adjoint(phiT, drift, domain32, tgrid24)[0],
                       domain32.h)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))
        weights = default_weights(domain32, tgrid24, beta32, b_sup=drift.sup_norm)
        g = dense_gramian(drift, weights, domain32, tgrid24)
        assert np.abs(g - g.T).max() <= 1e-12 * np.abs(g).max()
        for j in (0, 13, 31):
            e = np.zeros(32)
            e[j] = 1.0
            assert np.array_equal(g[:, j], gramian_apply(e, drift, weights,
                                                         domain32, tgrid24))

    def test_time_invariant_drift_factored_once(self, domain32, tgrid24):
        rng = np.random.default_rng(23)
        constant = random_drift(rng, domain32, tgrid24, amplitude=1.0)
        per_step = random_drift(rng, domain32, tgrid24, amplitude=1.0, per_step=True)
        zero = DriftField.zero(domain32, tgrid24)
        assert propagator(zero, domain32, tgrid24.dt).n_factored == 1
        assert propagator(constant, domain32, tgrid24.dt).n_factored == 1
        assert propagator(per_step, domain32, tgrid24.dt).n_factored == tgrid24.n_steps
        # consecutive marches on one drift share its factors
        prop = propagator(constant, domain32, tgrid24.dt)
        assert propagator(constant, domain32, tgrid24.dt) is prop

    def test_shared_factors_match_per_step_factors(self, domain32, tgrid24):
        rng = np.random.default_rng(24)
        drift = random_drift(rng, domain32, tgrid24, amplitude=1.0)
        shared = Propagator(drift.faces, domain32, tgrid24.dt)
        faces = drift.faces.copy()
        faces[-1, 1] += 1.0  # breaks time invariance at the last step only
        per_step = Propagator(faces, domain32, tgrid24.dt)
        assert (shared.n_factored, per_step.n_factored) == (1, tgrid24.n_steps)
        u0 = rng.standard_normal(32)
        a = shared.march(u0)[:-1]
        b = per_step.march(u0)[:-1]
        assert np.array_equal(a, b)

    def test_singular_step_raises(self):
        # h = 1/8, B = 2/h on face 1 and dt = -h^2/2 make row 0 of I - dt*A
        # exactly zero, so the LU factorization meets an exact zero pivot
        dom = build_domain(8, (0.25, 0.75), 0.5)
        faces = np.zeros((3, 9))
        faces[:, 1] = 2.0 / dom.h
        with pytest.raises(SolverError, match="singular"):
            Propagator(faces, dom, -dom.h ** 2 / 2.0)

    def test_nonfinite_data_and_forward_level_reported(self, domain32, tgrid24):
        drift = DriftField.zero(domain32, tgrid24)
        phiT = np.ones(32)
        phiT[3] = np.nan
        with pytest.raises(SolverError, match="terminal data"):
            solve_adjoint(phiT, drift, domain32, tgrid24)
        f = np.zeros((tgrid24.n_steps + 1, 32))
        f[5, domain32.omega_mask] = np.inf
        with pytest.raises(SolverError, match="after forward step 5$"):
            solve_forward(np.ones(32), drift, f, domain32, tgrid24)
