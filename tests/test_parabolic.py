import functools
import tracemalloc

import numpy as np
import pytest
from scipy.linalg.lapack import dgttrf, dgttrs, dpttrf, dpttrs

from chemosteer.checks import (duality_defect, forward_constant_defect, mass_drift,
                               random_drift, refinement_ratio)
from chemosteer.elliptic import DriftField
from chemosteer.grid import DomainSpec, TimeGrid
from chemosteer.hum import dense_gramian, gramian_apply
from chemosteer.parabolic import (Propagator, SolverError, adjoint_observation, level_l2,
                                  linf_estimate_report, m_matrix_report, solve_adjoint,
                                  solve_forward, space_time_l2, step_matrix_banded)
from conftest import default_weights, heat_error, propagator_of


def test_constant_preserved(domain32, tgrid24):
    assert forward_constant_defect(2.5, domain32, tgrid24) < 1e-12


def test_mass_conservation_with_drift(domain32, tgrid24):
    rng = np.random.default_rng(3)
    drift = random_drift(rng, domain32, tgrid24, amplitude=2.0, per_step=True)
    u0 = rng.standard_normal(32)
    assert mass_drift(u0, drift, domain32, tgrid24) <= 1e-12


def test_heat_fourier_oracle():
    # pure diffusion with Neumann data: u0 = 1 + cos(pi x) decays its
    # oscillatory mode like e^{-pi^2 t}
    dom = DomainSpec(200)
    tg = TimeGrid(0.1, 400)
    drift = DriftField.zero(dom, tg)
    u0 = 1.0 + np.cos(np.pi * dom.centers)
    u = solve_forward(u0, propagator_of(drift, dom, tg))
    exact = 1.0 + np.exp(-np.pi ** 2 * 0.1) * np.cos(np.pi * dom.centers)
    assert np.abs(u[-1] - exact).max() < 1e-2


def test_spatial_convergence_second_order():
    assert 3.5 <= refinement_ratio(heat_error) <= 4.5


@pytest.mark.parametrize("seed", range(5))
def test_duality_terminal(domain32, tgrid24, seed):
    rng = np.random.default_rng(seed)
    drift = random_drift(rng, domain32, tgrid24, amplitude=1.5, per_step=True)
    u0 = rng.standard_normal(32)
    phiT = rng.standard_normal(32)
    assert duality_defect(u0, None, phiT, drift, domain32, tgrid24) <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_duality_with_control(domain32, tgrid24, seed):
    # the control at level k pairs with the adjoint value at level k-1
    rng = np.random.default_rng(100 + seed)
    drift = random_drift(rng, domain32, tgrid24, amplitude=1.5, per_step=True)
    phiT = rng.standard_normal(32)
    f = rng.standard_normal((tgrid24.n_steps + 1, 32))
    assert duality_defect(np.zeros(32), f, phiT, drift, domain32, tgrid24) <= 1e-12


def test_implicit_step_l2_stability(domain32, tgrid24):
    # one implicit step grows the L2 norm by at most 1/(1 - dt B^2 / 2)
    rng = np.random.default_rng(7)
    drift = random_drift(rng, domain32, tgrid24, amplitude=2.0)
    b = drift.sup_norm
    bound = 1.0 / (1.0 - tgrid24.dt * b * b / 2.0)
    u0 = rng.standard_normal(32)
    u = solve_forward(u0, propagator_of(drift, domain32, tgrid24))
    for k in range(tgrid24.n_steps):
        r = level_l2(u[k + 1], domain32.h) / level_l2(u[k], domain32.h)
        assert r <= bound * (1.0 + 1e-12)


def test_m_matrix_report(domain32, tgrid24):
    ok = m_matrix_report(random_drift(np.random.default_rng(0), domain32,
                                      tgrid24, amplitude=1.0),
                         domain32)
    assert ok["is_m_matrix"]
    huge = random_drift(np.random.default_rng(0), domain32, tgrid24,
                        amplitude=100.0)
    # force at least one face past the 2/h threshold
    faces = huge.faces.copy()
    faces[:, 5] = 3.0 / domain32.h
    bad = m_matrix_report(DriftField(faces=faces), domain32)
    assert not bad["is_m_matrix"]


def test_positivity_preserved_in_m_matrix_regime(domain32, tgrid24):
    rng = np.random.default_rng(11)
    drift = random_drift(rng, domain32, tgrid24, amplitude=1.0, per_step=True)
    assert m_matrix_report(drift, domain32)["is_m_matrix"]
    u0 = rng.uniform(0.1, 1.0, 32)
    u = solve_forward(u0, propagator_of(drift, domain32, tgrid24))
    assert u.min() > 0.0


def test_nonfinite_state_raises(domain32, tgrid24):
    drift = DriftField.zero(domain32, tgrid24)
    with pytest.raises(SolverError):
        solve_forward(np.full(32, np.inf), propagator_of(drift, domain32, tgrid24))


def test_space_time_field_helpers(domain32, tgrid24):
    vals = np.ones((tgrid24.n_steps + 1, 32))
    assert level_l2(vals[0], domain32.h) == pytest.approx(1.0)
    # space-time norm counts levels 1..M only: sqrt(M dt * N h) = sqrt(T)
    vals[0] = 5.0
    assert space_time_l2(vals, domain32.h, tgrid24.dt) == pytest.approx(1.0)


class TestLinfReport:
    def test_force_free_decay(self, domain32, tgrid24):
        drift = DriftField.zero(domain32, tgrid24)
        u0 = 1.0 + np.cos(np.pi * domain32.centers)
        u = solve_forward(u0, propagator_of(drift, domain32, tgrid24))
        rep = linf_estimate_report(u, u0, np.zeros_like(u), drift, domain32, tgrid24)
        # K0 is the sup of the cell-sampled data, just shy of 2
        assert rep["K0"] == pytest.approx(np.abs(u0).max())
        assert rep["rho0"] == pytest.approx(2.0)
        # the maximum principle keeps sup|u| at K0, so C_hat collapses
        assert rep["C_hat"] == float("-inf")
        assert rep["consistent"]

    def test_zero_data_degenerate(self, domain32, tgrid24):
        drift = DriftField.zero(domain32, tgrid24)
        u = solve_forward(np.zeros(32), propagator_of(drift, domain32, tgrid24))
        rep = linf_estimate_report(u, np.zeros(32), np.zeros_like(u), drift, domain32, tgrid24)
        assert rep["degenerate"] and rep["consistent"]

    def test_forced_run_finite_constant(self, domain32, tgrid24):
        rng = np.random.default_rng(4)
        drift = random_drift(rng, domain32, tgrid24, amplitude=1.0)
        f = rng.standard_normal((tgrid24.n_steps + 1, 32))
        u0 = rng.standard_normal(32)
        u = solve_forward(u0, propagator_of(drift, domain32, tgrid24), f)
        rep = linf_estimate_report(u, u0, f, drift, domain32, tgrid24)
        assert np.isfinite(rep["K0"]) and rep["K0"] > 0.0
        assert rep["rho0"] == (1.0 + drift.sup_norm ** 2) * 2.0


class TestPropagator:
    def test_batch_columns_equal_single_marches_bitwise(self, domain32, tgrid24):
        rng = np.random.default_rng(21)
        per_step = random_drift(rng, domain32, tgrid24, amplitude=1.5, per_step=True)
        start = rng.standard_normal((32, 5))
        f = rng.standard_normal((tgrid24.n_steps + 1, 32, 5))
        for drift in (per_step, DriftField.zero(domain32, tgrid24)):  # LU, then LDL^T
            prop = propagator_of(drift, domain32, tgrid24)
            u = solve_forward(start, prop, f)
            phi = solve_adjoint(start, prop)
            assert u.shape == phi.shape == (tgrid24.n_steps + 1, 32, 5)
            for j in range(5):
                single_u = solve_forward(start[:, j], prop, f[..., j])
                single_phi = solve_adjoint(start[:, j], prop)
                assert np.array_equal(u[..., j], single_u)
                assert np.array_equal(phi[..., j], single_phi)

    def test_duality_and_symmetry_per_step_drift(self, domain32, tgrid24):
        rng = np.random.default_rng(22)
        drift = random_drift(rng, domain32, tgrid24, amplitude=1.0, per_step=True)
        u0 = rng.standard_normal(32)
        phiT = rng.standard_normal(32)
        assert duality_defect(u0, None, phiT, drift, domain32, tgrid24) <= 1e-12
        weights = default_weights(domain32, tgrid24, b_sup=drift.sup_norm)
        g = dense_gramian(drift, weights, domain32, tgrid24)
        assert np.abs(g - g.T).max() <= 1e-12 * np.abs(g).max()
        for j in (0, 13, 31):
            e = np.zeros(32)
            e[j] = 1.0
            assert np.array_equal(g[:, j], gramian_apply(
                e, propagator_of(drift, domain32, tgrid24), weights)[-1])

    def test_time_invariant_drift_factored_once(self, domain32, tgrid24):
        rng = np.random.default_rng(23)
        constant = random_drift(rng, domain32, tgrid24, amplitude=1.0)
        per_step = random_drift(rng, domain32, tgrid24, amplitude=1.0, per_step=True)
        zero = DriftField.zero(domain32, tgrid24)
        assert propagator_of(zero, domain32, tgrid24).n_factored == 1
        assert propagator_of(constant, domain32, tgrid24).n_factored == 1
        assert propagator_of(per_step, domain32, tgrid24).n_factored == tgrid24.n_steps

    @pytest.mark.parametrize("kind, solve", [("zero", dpttrs), ("constant", dgttrs)],
                             ids=["zero", "constant"])
    def test_broadcast_drift_marches_as_its_tiled_copy(self, kind, solve, domain32, tgrid24):
        rng = np.random.default_rng(24)
        drift = (DriftField.zero(domain32, tgrid24) if kind == "zero"
                 else random_drift(rng, domain32, tgrid24, amplitude=1.5))
        assert drift.faces.strides[0] == 0
        tiled = DriftField(faces=np.tile(drift.faces[0], (tgrid24.n_steps, 1)))
        assert tiled.faces.strides[0] != 0
        props = [propagator_of(d, domain32, tgrid24) for d in (drift, tiled)]
        for prop in props:
            assert prop.solve is solve and prop.n_factored == 1
        start = rng.standard_normal((32, 3))
        f = rng.standard_normal((tgrid24.n_steps + 1, 32, 3))
        for march in (lambda p: solve_forward(start, p, f), lambda p: solve_adjoint(start, p)):
            assert march(props[0]).tobytes() == march(props[1]).tobytes()

    def test_only_the_zero_drift_solves_with_ldlt(self, domain32, tgrid24):
        rng = np.random.default_rng(23)
        constant = random_drift(rng, domain32, tgrid24, amplitude=1.0)
        per_step = random_drift(rng, domain32, tgrid24, amplitude=1.0, per_step=True)
        zero_but_one = np.zeros_like(per_step.faces)
        zero_but_one[5] = per_step.faces[5]
        signed_zeros = np.where(rng.random(per_step.faces.shape) < 0.5, -0.0, 0.0)
        solves = {kind: Propagator(faces, domain32, tgrid24.dt).solve for kind, faces in [
            ("zero", DriftField.zero(domain32, tgrid24).faces), ("signed-zeros", signed_zeros),
            ("constant", constant.faces), ("per-step", per_step.faces),
            ("zero-but-one-step", zero_but_one)]}
        assert solves == {"zero": dpttrs, "signed-zeros": dpttrs, "constant": dgttrs,
                          "per-step": dgttrs, "zero-but-one-step": dgttrs}

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
        dom = DomainSpec(8, 0.25, 0.75, 0.5)
        faces = np.zeros((3, 9))
        faces[:, 1] = 2.0 / dom.h
        with pytest.raises(SolverError, match="singular"):
            Propagator(faces, dom, -dom.h ** 2 / 2.0)

    def test_indefinite_zero_drift_step_raises(self):
        # dt = -h^2/2 puts the eigenvalues of I - dt*A in (-1, 1]: dpttrf meets a
        # nonpositive pivot
        dom = DomainSpec(8, 0.25, 0.75, 0.5)
        with pytest.raises(SolverError, match="^implicit step matrix is not positive definite$"):
            Propagator(np.zeros((3, 9)), dom, -dom.h ** 2 / 2.0)

    def test_nonfinite_data_and_forward_level_reported(self, domain32, tgrid24):
        drift = DriftField.zero(domain32, tgrid24)
        phiT = np.ones(32)
        phiT[3] = np.nan
        with pytest.raises(SolverError, match="terminal data"):
            solve_adjoint(phiT, propagator_of(drift, domain32, tgrid24))
        f = np.zeros((tgrid24.n_steps + 1, 32))
        f[5, domain32.omega_mask] = np.inf
        with pytest.raises(SolverError, match="after forward step 5$"):
            solve_forward(np.ones(32), propagator_of(drift, domain32, tgrid24), f)


def reference_march(faces, domain, dt, start, source=None, transpose=False, lu=False):
    """Propagator.march as it was written before its levels were solved in
    place (a fresh right-hand side and a copy of the solve's result per step),
    on factors of its own: dpttrf of each step of a zero drift, unless lu is
    set, and dgttrf of every step otherwise."""
    m = len(faces)
    ab = step_matrix_banded(faces, domain, dt)
    if lu or faces.any():
        factors = [dgttrf(ab[2, k, :-1], ab[1, k], ab[0, k, 1:])[:5] for k in range(m)]
        solve = functools.partial(dgttrs, trans="T" if transpose else "N")
    else:
        factors, solve = [dpttrf(ab[1, k], ab[0, k, 1:])[:2] for k in range(m)], dpttrs
    x = np.empty((m + 1,) + start.shape[::-1]).transpose(0, *range(start.ndim, 0, -1))
    x[m if transpose else 0] = start
    for k in (range(m - 1, -1, -1) if transpose else range(m)):
        src, dst = (k + 1, k) if transpose else (k, k + 1)
        rhs = x[src] if source is None else x[src] + source[k]
        x[dst], _ = solve(*factors[k], rhs)
    return x


def dense_march(faces, domain, dt, start, source=None, transpose=False):
    """The march by np.linalg.solve of each dense step matrix (its transpose adjoint)."""
    ab = step_matrix_banded(faces, domain, dt)
    m, x = len(faces), np.empty((len(faces) + 1,) + start.shape)
    x[m if transpose else 0] = start
    for k in (range(m - 1, -1, -1) if transpose else range(m)):
        s = np.diag(ab[1, k]) + np.diag(ab[0, k, 1:], 1) + np.diag(ab[2, k, :-1], -1)
        if transpose:
            x[k] = np.linalg.solve(s.T, x[k + 1])
        else:
            x[k + 1] = np.linalg.solve(s, x[k] if source is None else x[k] + source[k])
    return x


@pytest.mark.parametrize("batch", [(), (3,)], ids=["single", "batch"])
@pytest.mark.parametrize("kind", ["forward-source", "forward", "adjoint"])
def test_ldlt_march_matches_lu_and_dense_marches(domain32, tgrid24, batch, kind):
    """The zero drift's LDL^T march against an LU march and a dense solve of the
    same step matrices, relative to each level's largest value."""
    rng = np.random.default_rng(32)
    faces = DriftField.zero(domain32, tgrid24).faces
    prop = Propagator(faces, domain32, tgrid24.dt)
    assert prop.solve is dpttrs
    start = rng.standard_normal((32,) + batch)
    source = (rng.standard_normal((tgrid24.n_steps, 32) + batch)
              if kind == "forward-source" else None)
    transpose = kind == "adjoint"
    x = prop.march(start, source, transpose)
    scale = np.abs(x).max(axis=1, keepdims=True)
    for other in (reference_march(faces, domain32, tgrid24.dt, start, source, transpose, lu=True),
                  dense_march(faces, domain32, tgrid24.dt, start, source, transpose)):
        assert np.all(np.abs(x - other) <= 1e-13 * scale)


def pivoting_drift(rng, domain, tgrid):
    """A per-step drift with h|B| up to 40 at every third step, whose factoring
    pivots, and h|B| below 0.05 at the others, whose factoring does not."""
    faces = random_drift(rng, domain, tgrid, amplitude=1.5, per_step=True).faces.copy()
    faces[::3] *= 40.0 / (domain.h * 1.5)
    return DriftField(faces=faces)


def pivoted(step):
    ipiv = step[4]
    return not np.array_equal(ipiv, np.arange(1, len(ipiv) + 1))


@pytest.mark.parametrize("drift_kind", ["shared", "per-step", "pivoting", "zero"])
@pytest.mark.parametrize("batch", [(), (3,)], ids=["single", "batch"])
@pytest.mark.parametrize("kind", ["forward-source", "forward", "adjoint"])
def test_in_place_march_equals_reference_bitwise(domain32, tgrid24, drift_kind, batch, kind):
    rng = np.random.default_rng(25)
    drift = (pivoting_drift(rng, domain32, tgrid24) if drift_kind == "pivoting" else
             DriftField.zero(domain32, tgrid24) if drift_kind == "zero" else
             random_drift(rng, domain32, tgrid24, amplitude=1.5,
                          per_step=drift_kind == "per-step"))
    prop = Propagator(drift.faces, domain32, tgrid24.dt)
    assert prop.n_factored == (tgrid24.n_steps if drift_kind in ("per-step", "pivoting") else 1)
    if drift_kind == "pivoting":
        assert [pivoted(step) for step in prop.steps] == [k % 3 == 0 for k in range(24)]
    start = rng.standard_normal((32,) + batch)
    source = (rng.standard_normal((tgrid24.n_steps, 32) + batch)
              if kind == "forward-source" else None)
    transpose = kind == "adjoint"
    assert np.array_equal(prop.march(start, source, transpose),
                          reference_march(drift.faces, domain32, tgrid24.dt, start,
                                          source, transpose))


def test_unpivoted_steps_share_their_pivots(domain32, tgrid24):
    drift = pivoting_drift(np.random.default_rng(25), domain32, tgrid24)
    prop, other = (Propagator(drift.faces, domain32, tgrid24.dt) for _ in range(2))
    flat = [step for step in prop.steps if not pivoted(step)]
    pivoting = [step for step in prop.steps if pivoted(step)]
    assert len(flat) == 16 and len(pivoting) == 8
    assert all(step[3] is flat[0][3] and step[4] is flat[0][4] for step in flat)
    assert not flat[0][3].any()
    owned = [a for step in pivoting for a in step[3:]]
    assert len({id(a) for a in owned + list(flat[0][3:])}) == len(owned) + 2
    # a propagator owns all its arrays: none is another's or a view of one
    for step, twin in zip(prop.steps, other.steps):
        assert not any(np.may_share_memory(a, b) for a in step for b in twin)


def bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def banded_with_temporaries(face_drift, domain, dt):
    """step_matrix_banded as written with a temporary per coefficient: the
    reference for its bits."""
    face_drift = np.asarray(face_drift, dtype=float)
    n = domain.n_cells
    ih = 1.0 / domain.h
    half_b = 0.5 * face_drift[..., 1:n]
    upper = ih * (ih - half_b)
    lower = ih * (ih + half_b)
    ab = np.zeros((3,) + face_drift.shape[:-1] + (n,))
    ab[0, ..., 1:] = upper
    ab[2, ..., :-1] = lower
    ab[1, ..., :-1] -= lower
    ab[1, ..., 1:] -= upper
    ab *= -dt
    ab[1] += 1.0
    return ab


@pytest.mark.parametrize("rows", [(), (24,)], ids=["slice", "stack"])
@pytest.mark.parametrize("data", ["random", "signed-zeros"])
def test_step_matrix_banded_keeps_its_bits(tgrid24, rows, data):
    domain = DomainSpec(30)  # 1/h not a power of two: products round
    rng = np.random.default_rng(31)
    shape = rows + (31,)
    faces = (rng.uniform(-100.0, 100.0, shape) if data == "random" else
             np.where(rng.random(shape) < 0.5, -0.0, 0.0))
    faces[..., 5] = 60.0  # h |B| = 2: a zero coefficient
    expected = banded_with_temporaries(faces, domain, tgrid24.dt)
    ab = step_matrix_banded(faces, domain, tgrid24.dt)
    assert ab.shape == (3,) + rows + (30,)
    assert np.array_equal(bits(ab), bits(expected))


def test_step_matrix_banded_peak_memory():
    # the band stack and numpy's iteration buffers: no coefficient temporaries
    domain, time = DomainSpec(200), TimeGrid(1.0, 400)
    drift = random_drift(np.random.default_rng(0), domain, time, amplitude=1.0, per_step=True)
    tracemalloc.start()
    try:
        step_matrix_banded(drift.faces, domain, time.dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * (time.n_steps + 1) * domain.n_cells * 8  # 6.18 with them


@pytest.mark.parametrize("batch", [(), (3,)], ids=["single", "batch"])
@pytest.mark.parametrize("data", ["random", "signed-zeros"])
def test_forward_source_in_trajectory_equals_separate_source_bitwise(domain32, tgrid24,
                                                                     batch, data):
    """solve_forward stores dt 1_omega f in the levels it then overwrites; the march
    must add the bits of the separate table dt * np.where(mask, f[1:], 0.0)."""
    rng = np.random.default_rng(29)
    drift = random_drift(rng, domain32, tgrid24, amplitude=1.5, per_step=True)
    prop = Propagator(drift.faces, domain32, tgrid24.dt)
    mask = domain32.omega_mask.reshape((-1,) + (1,) * len(batch))
    # nonzero outside omega and at level 0, -0.0 on omega at levels 2, 4, ...
    f = rng.standard_normal((tgrid24.n_steps + 1, 32) + batch)
    f[2::2] = np.where(mask, -0.0, f[2::2])
    start = rng.standard_normal((32,) + batch)
    if data == "signed-zeros":  # -0.0 everywhere at the start and on omega at every level
        start[:] = -0.0
        f[1:] = np.where(mask, -0.0, f[1:])
    source = tgrid24.dt * np.where(mask, f[1:], 0.0)
    expected = reference_march(drift.faces, domain32, tgrid24.dt, start, source)
    assert np.array_equal(bits(solve_forward(start, prop, f)), bits(expected))
    assert np.array_equal(bits(prop.march(start, source)), bits(expected))


class TestAdjointObservation:
    """The storage-free adjoint march against the stored trajectory it replaces."""

    @pytest.mark.parametrize("per_step", [False, True], ids=["zero", "per-step"])
    @pytest.mark.parametrize("batch", [(), (4,)], ids=["single", "batch"])
    def test_matches_stored_trajectory(self, domain32, tgrid24, per_step, batch):
        rng = np.random.default_rng(26)
        drift = (random_drift(rng, domain32, tgrid24, amplitude=1.5, per_step=True)
                 if per_step else DriftField.zero(domain32, tgrid24))
        weights = default_weights(domain32, tgrid24, b_sup=drift.sup_norm)
        phiT = rng.standard_normal((32,) + batch)
        prop = propagator_of(drift, domain32, tgrid24)
        phi0, energy = adjoint_observation(phiT, weights.w, prop)
        phi = solve_adjoint(phiT, prop)
        assert np.shape(energy) == batch
        qform = domain32.h * np.sum(gramian_apply(phiT, prop, weights)[-1] * phiT, axis=0)
        assert np.all(np.abs(energy / qform - 1.0) <= 1e-13)
        num = domain32.h * np.sum(np.square(phi0), axis=0)
        assert np.all(np.abs(num / (domain32.h * np.sum(np.square(phi[0]), axis=0)) - 1.0)
                      <= 1e-13)

    def test_batch_columns_equal_single_calls_bitwise(self, domain32, tgrid24):
        rng = np.random.default_rng(27)
        per_step = random_drift(rng, domain32, tgrid24, amplitude=1.5, per_step=True)
        phiT = rng.standard_normal((32, 5))
        for drift in (per_step, DriftField.zero(domain32, tgrid24)):  # LU, then LDL^T
            weights = default_weights(domain32, tgrid24, b_sup=drift.sup_norm)
            prop = propagator_of(drift, domain32, tgrid24)
            phi0, energy = adjoint_observation(phiT, weights.w, prop)
            for j in range(5):
                single0, single = adjoint_observation(phiT[:, j], weights.w, prop)
                assert np.array_equal(phi0[:, j], single0)
                assert energy[j] == single

    def test_nonfinite_data_and_level_raise(self, domain32, tgrid24):
        weights = default_weights(domain32, tgrid24)
        drift = DriftField.zero(domain32, tgrid24)
        phiT = np.ones((32, 2))
        phiT[3, 1] = np.nan
        with pytest.raises(SolverError, match="^non-finite terminal data$"):
            adjoint_observation(phiT, weights.w, propagator_of(drift, domain32, tgrid24))
        # a strong drift overflows the first backward step of data at the float maximum
        drift = random_drift(np.random.default_rng(0), domain32, tgrid24, amplitude=1e3,
                             per_step=True)
        phiT = np.full(32, 1.7e308)
        phiT[::2] *= -1.0
        prop = propagator_of(drift, domain32, tgrid24)
        with pytest.raises(SolverError, match="^non-finite adjoint state at level 23$"):
            solve_adjoint(phiT, prop)
        with pytest.raises(SolverError, match="^non-finite adjoint state at level 23$"):
            adjoint_observation(phiT, weights.w, prop)
