import numpy as np
import pytest
from scipy.linalg import solveh_banded

from chemosteer.checks import (elliptic_constant_defect, elliptic_error, random_drift,
                               refinement_ratio)
from chemosteer.elliptic import (DriftField, PhysicsParams, drift_from_state,
                                 drift_from_v, solve_elliptic)
from chemosteer.grid import DomainSpec
from chemosteer.parabolic import SolverError, m_matrix_report


def test_constant_solution_exact(domain32):
    assert elliptic_constant_defect(domain32) < 1e-12


def test_zero_source(domain32):
    phys = PhysicsParams(chi=1.0, gamma=1.0, delta=1.0)
    v = solve_elliptic(np.zeros(32), phys, domain32)
    assert np.abs(v).max() == 0.0


def test_manufactured_convergence_second_order():
    assert 3.5 <= refinement_ratio(elliptic_error) <= 4.5


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


def test_bitwise_equal_to_solveh_banded():
    # the factors are kept for one grid at a time: alternating grids and
    # gammas would read stale factors if the cache key missed any of them
    rng = np.random.default_rng(9)
    grids = [DomainSpec(32), DomainSpec(50)]
    for domain, gamma in [(grids[0], 1.0), (grids[1], 1.0), (grids[1], 0.3),
                          (grids[0], 0.3), (grids[0], 1.0)]:
        phys = PhysicsParams(chi=1.0, gamma=gamma, delta=1.7)
        n, h2 = domain.n_cells, domain.h * domain.h
        ab = np.zeros((2, n))
        ab[0, 1:] = -1.0 / h2
        ab[1, :] = gamma + 2.0 / h2
        ab[1, 0] -= 1.0 / h2
        ab[1, -1] -= 1.0 / h2
        for eta in (rng.standard_normal(n), rng.standard_normal((7, n))):
            v = solve_elliptic(eta, phys, domain)
            assert v.shape == eta.shape
            assert v.tobytes() == solveh_banded(ab, phys.delta * eta.T).T.tobytes()


def test_nonfinite_source_rejected(domain32):
    phys = PhysicsParams(chi=1.0, gamma=1.0, delta=1.0)
    bad = np.zeros(32)
    bad[3] = np.nan
    with pytest.raises(SolverError, match="^elliptic source contains non-finite values$"):
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
        dom = DomainSpec(200)
        faces = drift_from_v(np.cos(np.pi * dom.centers), 2.0, dom)
        exact = -2.0 * np.pi * np.sin(np.pi * (np.arange(1, 200) * dom.h))
        assert np.abs(faces[1:-1] - exact).max() < 5e-4

    def test_gain_stable_under_refinement(self):
        # empirical |B|_inf <= C chi |eta|_inf with C stable across grids
        phys = PhysicsParams(chi=2.0, gamma=1.0, delta=1.0)
        gains = []
        for n in (64, 128):
            dom = DomainSpec(n)
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
        with pytest.raises(SolverError, match="^drift contains non-finite values$"):
            DriftField(faces=bad)

    @pytest.mark.parametrize("kind", ["zero", "constant"])
    def test_time_invariant_drift_is_one_row_broadcast(self, kind, domain32, tgrid24):
        row = random_drift(np.random.default_rng(4), domain32, tgrid24).faces[0]
        drift = (DriftField.zero(domain32, tgrid24) if kind == "zero"
                 else DriftField.constant(row, tgrid24))
        faces = drift.faces
        assert faces.shape == (tgrid24.n_steps, 33)
        assert faces.strides[0] == 0 and not faces.flags.writeable
        expected = np.zeros(33) if kind == "zero" else row
        assert np.array_equal(faces, np.tile(expected, (tgrid24.n_steps, 1)))

    def test_drift_record_does_not_alias_its_input(self, tgrid24):
        row = np.zeros(33)
        row[1:-1] = np.linspace(-1.0, 1.0, 31)
        broadcast = DriftField(faces=np.broadcast_to(row, (tgrid24.n_steps, 33)))
        per_step_input = np.tile(row, (tgrid24.n_steps, 1))
        per_step = DriftField(faces=per_step_input)
        expected = per_step_input.copy()
        row[1:-1] = 7.0
        per_step_input[:, 1:-1] = 7.0
        assert broadcast.faces.strides[0] == 0 and per_step.faces.strides[0] != 0
        for drift in (broadcast, per_step):
            assert not drift.faces.flags.writeable
            assert np.array_equal(drift.faces, expected)

    @pytest.mark.parametrize("kind", ["per-step", "constant", "chi-zero", "signed-zeros"])
    def test_sup_norms_are_the_abs_maximum_bitwise(self, kind, domain32, tgrid24):
        # a zero maximum must read +0.0, as np.abs gives it, not -0.0 (printed as -0)
        rng = np.random.default_rng(6)
        if kind == "chi-zero":  # 0 * (a falling v) makes interior faces -0.0
            xi = rng.standard_normal((tgrid24.n_steps + 1, 32))
            drift = drift_from_state(xi, PhysicsParams(chi=0.0), domain32, tgrid24)
            assert np.signbit(drift.faces[:, 1:-1]).any()
        elif kind == "signed-zeros":
            faces = -np.zeros((tgrid24.n_steps, 33))
            faces[0, 0] = 0.0
            drift = DriftField(faces=faces)
        else:
            drift = random_drift(rng, domain32, tgrid24, per_step=kind == "per-step")
        pairs = [(drift.sup_norm, np.abs(drift.faces).max()),
                 (m_matrix_report(drift, domain32)["max_face_drift"],
                  np.abs(drift.faces[:, 1:-1]).max())]
        for value, expected in pairs:
            assert type(value) is float
            assert np.float64(value).tobytes() == expected.tobytes()

    def test_drift_from_state_decoupled(self, domain32, tgrid24):
        phys = PhysicsParams(chi=0.0, gamma=1.0, delta=1.0)
        xi = np.random.default_rng(2).standard_normal((tgrid24.n_steps + 1, 32))
        drift = drift_from_state(xi, phys, domain32, tgrid24)
        assert drift.sup_norm == 0.0

    @pytest.mark.parametrize("constants, cause", [
        ({"chi": 1e300}, "drift contains non-finite values"),
        ({"delta": 1e300}, "elliptic source contains non-finite values")])
    def test_drift_from_state_overflow_is_a_breakdown(self, constants, cause, domain32,
                                                      tgrid24):
        # a solver state past what the constants allow is a breakdown (exit 3), worded
        # by the layer that meets it
        phys = PhysicsParams(**constants)
        xi = np.tile(1e10 * np.cos(np.pi * domain32.centers), (tgrid24.n_steps + 1, 1))
        with pytest.raises(SolverError, match=f"^{cause}$"):
            drift_from_state(xi, phys, domain32, tgrid24)

    def test_drift_from_state_singular_operator_is_bad_input(self, domain32, tgrid24):
        xi = np.ones((tgrid24.n_steps + 1, 32))
        with pytest.raises(ValueError, match="not positive definite"):
            drift_from_state(xi, PhysicsParams(gamma=1e-300), domain32, tgrid24)
