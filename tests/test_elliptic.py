import numpy as np
import pytest

from chemosteer.elliptic import (DriftField, PhysicsParams, drift_from_state,
                                 drift_from_v, solve_elliptic)
from chemosteer.grid import build_domain, build_time_grid


def test_constant_solution_exact(domain32):
    phys = PhysicsParams(chi=1.0, gamma=2.0, delta=4.0)
    v = solve_elliptic(np.ones(32), phys, domain32)
    assert np.abs(v - 2.0).max() < 1e-12


def test_zero_source(domain32):
    phys = PhysicsParams(chi=1.0, gamma=1.0, delta=1.0)
    v = solve_elliptic(np.zeros(32), phys, domain32)
    assert np.abs(v).max() == 0.0


def test_manufactured_convergence_second_order():
    # oracle: v(x) = cos(pi x) solves the equation with
    # eta = (pi^2 + gamma) / delta * cos(pi x)
    phys = PhysicsParams(chi=1.0, gamma=1.0, delta=1.0)
    errs = []
    for n in (32, 64):
        dom = build_domain(n, (0.3, 0.7), 0.5)
        eta = (np.pi ** 2 + 1.0) * np.cos(np.pi * dom.centers)
        v = solve_elliptic(eta, phys, dom)
        errs.append(np.abs(v - np.cos(np.pi * dom.centers)).max())
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_linearity(domain32):
    rng = np.random.default_rng(0)
    phys = PhysicsParams(chi=1.0, gamma=0.7, delta=2.0)
    e1 = rng.standard_normal(32)
    e2 = rng.standard_normal(32)
    v12 = solve_elliptic(e1 + e2, phys, domain32)
    v1 = solve_elliptic(e1, phys, domain32)
    v2 = solve_elliptic(e2, phys, domain32)
    assert np.abs(v12 - v1 - v2).max() <= 1e-12 * max(1.0, np.abs(v12).max())


@pytest.mark.parametrize("seed", range(10))
def test_sup_bound(domain32, seed):
    # M-matrix discretization obeys |v|_inf <= (delta/gamma) |eta|_inf
    rng = np.random.default_rng(seed)
    phys = PhysicsParams(chi=1.0, gamma=1.3, delta=0.8)
    eta = rng.standard_normal(32)
    v = solve_elliptic(eta, phys, domain32)
    assert np.abs(v).max() <= phys.delta / phys.gamma * np.abs(eta).max() + 1e-14


def test_batched_levels_match_per_level_solves(domain32):
    phys = PhysicsParams(chi=1.0, gamma=2.0, delta=3.0)
    eta = np.random.default_rng(8).standard_normal((25, 32))
    v = solve_elliptic(eta, phys, domain32)
    loop = np.array([solve_elliptic(level, phys, domain32) for level in eta])
    assert v.shape == eta.shape
    assert np.abs(v - loop).max() <= 1e-14 * np.abs(loop).max()


def test_nonfinite_source_rejected(domain32):
    phys = PhysicsParams(chi=1.0, gamma=1.0, delta=1.0)
    bad = np.zeros(32)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        solve_elliptic(bad, phys, domain32)


def test_physics_validation():
    with pytest.raises(ValueError):
        PhysicsParams(chi=1.0, gamma=0.0, delta=1.0)
    with pytest.raises(ValueError):
        PhysicsParams(chi=1.0, gamma=1.0, delta=-1.0)
    with pytest.raises(ValueError):
        PhysicsParams(chi=-1.0, gamma=1.0, delta=1.0)
    # the decoupled case chi = 0 must stay constructible
    PhysicsParams(chi=0.0, gamma=1.0, delta=1.0)


class TestDrift:
    def test_constant_v_zero_drift(self, domain32):
        faces = drift_from_v(np.full(32, 3.7), 2.0, domain32)
        assert np.abs(faces).max() == 0.0

    def test_boundary_faces_zero(self, domain32):
        rng = np.random.default_rng(1)
        faces = drift_from_v(rng.standard_normal(32), 1.5, domain32)
        assert faces[0] == 0.0 and faces[-1] == 0.0

    def test_cosine_derivative_oracle(self):
        dom = build_domain(200, (0.3, 0.7), 0.5)
        faces = drift_from_v(np.cos(np.pi * dom.centers), 2.0, dom)
        exact = -2.0 * np.pi * np.sin(np.pi * dom.faces[1:-1])
        assert np.abs(faces[1:-1] - exact).max() < 5e-4

    def test_gain_stable_under_refinement(self):
        # empirical |B|_inf <= C chi |eta|_inf with C stable across grids
        phys = PhysicsParams(chi=2.0, gamma=1.0, delta=1.0)
        gains = []
        for n in (64, 128):
            dom = build_domain(n, (0.3, 0.7), 0.5)
            eta = np.sin(2.0 * np.pi * dom.centers)
            v = solve_elliptic(eta, phys, dom)
            faces = drift_from_v(v, phys.chi, dom)
            gains.append(np.abs(faces).max() / (phys.chi * np.abs(eta).max()))
        assert abs(gains[0] - gains[1]) <= 0.2 * gains[0]

    def test_drift_field_validation(self, tgrid24):
        with pytest.raises(ValueError):
            DriftField(faces=np.ones((tgrid24.n_steps, 33)))
        bad = np.zeros((tgrid24.n_steps, 33))
        bad[0, 5] = np.inf
        with pytest.raises(ValueError):
            DriftField(faces=bad)

    def test_drift_from_state_decoupled(self, domain32, tgrid24):
        phys = PhysicsParams(chi=0.0, gamma=1.0, delta=1.0)
        xi = np.random.default_rng(2).standard_normal((tgrid24.n_steps + 1, 32))
        _, drift = drift_from_state(xi, phys, domain32, tgrid24)
        assert drift.sup_norm == 0.0
