"""Acceptance suite: one test per shipped guarantee, each printing a
single pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to
see them as they complete).

Empirical baselines recorded here were produced by this code on its first
green run and act as regression bounds; analytic values come from
independent closed forms (dense linear algebra, Fourier modes, hand
computation).
"""

import time as _time

import numpy as np

from chemosteer.checks import (dense_kkt_deviation, difference_ratios, duality_defect,
                               elliptic_error, gramian_defects, mass_drift, random_drift,
                               recursion_hand_rows, refined_control, refined_nonlinear,
                               refinement_ratio, weight_chain_holds)
from chemosteer.diagnostics import RecursionSpec, recursion_simulate
from chemosteer.elliptic import DriftField, PhysicsParams
from chemosteer.grid import DomainSpec, TimeGrid
from chemosteer.hum import HumSettings, solve_penalized
from chemosteer.nonlinear import FixedPointSettings, run_nonlinear, threshold_sweep
from chemosteer.parabolic import level_l2
from conftest import default_weights, heat_error


def report(name, ok, detail):
    print(f"[{name}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


def cosine_data(domain, amplitude):
    return amplitude * (1.0 + np.cos(np.pi * domain.centers)) / 2.0


def test_criterion_01_discrete_duality():
    # forward/adjoint transpose identity on 100 random problem tuples
    t0 = _time.perf_counter()
    dom = DomainSpec(50)
    tg = TimeGrid(1.0, 50)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        drift = random_drift(rng, dom, tg, amplitude=2.0, per_step=True)
        u0 = rng.standard_normal(50)
        f = rng.standard_normal((51, 50))
        phiT = rng.standard_normal(50)
        worst = max(worst, duality_defect(u0, f, phiT, drift, dom, tg))
    wall = _time.perf_counter() - t0
    report("duality", worst <= 1e-12 and wall < 10.0,
           f"max relative defect {worst:.3e} (tol 1e-12), {wall:.1f}s")


def test_criterion_02_gramian_symmetry_psd(domain32, tgrid24):
    rng = np.random.default_rng(2)
    worst_sym = 0.0
    worst_psd = 0.0
    worst_id = 0.0
    for _ in range(50):
        drift = random_drift(rng, domain32, tgrid24, amplitude=1.5)
        weights = default_weights(domain32, tgrid24, b_sup=drift.sup_norm)
        x = rng.standard_normal(32)
        y = rng.standard_normal(32)
        d = gramian_defects(x, y, drift, weights, domain32, tgrid24)
        worst_sym = max(worst_sym, d["symmetry"])
        worst_psd = max(worst_psd, d["psd"])
        worst_id = max(worst_id, d["energy"])
    ok = worst_sym <= 1e-10 and worst_psd <= 1e-12 and worst_id <= 1e-10
    report("gramian", ok,
           f"symmetry {worst_sym:.3e}, psd defect {worst_psd:.3e}, "
           f"energy identity {worst_id:.3e}")


def test_criterion_03_dense_kkt_oracle():
    t0 = _time.perf_counter()
    dom = DomainSpec(8, 0.25, 0.75, 0.5)
    tg = TimeGrid(1.0, 8)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(5):
        drift = random_drift(rng, dom, tg, amplitude=1.0)
        weights = default_weights(dom, tg, b_sup=drift.sup_norm)
        u0 = rng.standard_normal(8)
        for eps in (1e-2, 1e-4):
            worst = max(worst, dense_kkt_deviation(u0, drift, weights, dom, tg, eps))
    wall = _time.perf_counter() - t0
    report("dense-oracle", worst <= 1e-8 and wall < 5.0,
           f"max relative deviation {worst:.3e} (tol 1e-8), {wall:.1f}s")


_DECAY_CACHE = {}


def decay_run():
    """Shared penalty sweep for the two criteria that inspect it."""
    if not _DECAY_CACHE:
        t0 = _time.perf_counter()
        dom = DomainSpec(100)
        tg = TimeGrid(1.0, 200)
        drift = DriftField.zero(dom, tg)
        weights = default_weights(dom, tg, b_sup=0.0)
        u0 = cosine_data(dom, 1e-2)
        sols = {eps: solve_penalized(u0, drift, weights, dom, tg, HumSettings(epsilon=eps))
                for eps in (1e-2, 1e-4, 1e-6)}
        _DECAY_CACHE.update(dom=dom, sols=sols,
                            wall=_time.perf_counter() - t0)
    return _DECAY_CACHE


def test_criterion_04_null_control_decay():
    run = decay_run()
    sols, wall = run["sols"], run["wall"]
    norms = [sols[e].terminal_norm for e in (1e-2, 1e-4, 1e-6)]
    ok = (norms[0] > norms[1] > norms[2]
          and norms[2] <= norms[0] / 10.0
          and all(sols[e].cg_converged for e in sols)
          and wall < 60.0)
    report("eps-decay", ok,
           f"terminal norms {norms[0]:.3e} > {norms[1]:.3e} > {norms[2]:.3e}, "
           f"reduction {norms[0] / norms[2]:.0f}x")


def test_criterion_05_control_structure():
    run = decay_run()
    dom, sols = run["dom"], run["sols"]
    ok = True
    for sol in sols.values():
        outside = sol.f[:, ~dom.omega_mask]
        ok = ok and np.all(outside == 0.0)
        ok = ok and np.all(sol.f[0] == 0.0) and np.all(sol.f[1] == 0.0)
        ok = ok and np.all(sol.f[-1] == 0.0)
    report("control-structure", bool(ok),
           "f == 0 outside the control region and at the first/last levels "
           "(exact zeros)")


def test_criterion_06_nonlinear_fixed_point():
    t0 = _time.perf_counter()
    dom = DomainSpec(100)
    tg = TimeGrid(1.0, 200)
    phys = PhysicsParams(chi=1.0, gamma=1.0, delta=1.0)
    u0 = cosine_data(dom, 1e-3)
    result = run_nonlinear(u0, phys, dom, tg, hum=HumSettings(epsilon=1e-6))
    wall = _time.perf_counter() - t0
    u0_l2 = level_l2(u0, dom.h)
    value = result.verification_terminal_l2
    # regression baseline from the first green run of this configuration
    baseline = 5.5514733293425695e-08
    ok = (result.converged and result.iterations <= 30
          and value <= 1e-3 * u0_l2
          and 0.8 * baseline <= value <= 1.2 * baseline
          and wall < 600.0)
    report("nonlinear-fp", ok,
           f"converged in {result.iterations} iters, verified terminal "
           f"{value:.6e} (bound {1e-3 * u0_l2:.3e}, baseline {baseline:.3e} "
           f"+-20%), {wall:.0f}s")


def test_criterion_07_decoupled_equivalence():
    dom = DomainSpec(50)
    tg = TimeGrid(1.0, 50)
    u0 = cosine_data(dom, 1e-2)
    result = run_nonlinear(u0, PhysicsParams(chi=0.0, gamma=1.0, delta=1.0),
                           dom, tg, hum=HumSettings(epsilon=1e-6))
    drift = DriftField.zero(dom, tg)
    weights = default_weights(dom, tg, b_sup=0.0)
    sol = solve_penalized(u0, drift, weights, dom, tg, HumSettings(epsilon=1e-6))
    ok = (result.converged
          and np.array_equal(result.u, sol.u)
          and np.array_equal(result.f, sol.f))
    report("decoupled", ok,
           "chi=0 fixed point reproduces the linear solve bit for bit")


def test_criterion_08_conservation_and_convergence():
    # mass conservation without control
    dom = DomainSpec(64)
    tg = TimeGrid(1.0, 64)
    rng = np.random.default_rng(8)
    drift = random_drift(rng, dom, tg, amplitude=2.0, per_step=True)
    u0 = rng.uniform(0.5, 1.5, 64)
    drift_of_mass = mass_drift(u0, drift, dom, tg)
    # manufactured elliptic and heat-mode convergence under grid doubling
    ell_ratio = refinement_ratio(elliptic_error)
    par_ratio = refinement_ratio(heat_error)

    ok = (drift_of_mass <= 1e-12 and 3.5 <= ell_ratio <= 4.5
          and 3.5 <= par_ratio <= 4.5)
    report("conservation-convergence", ok,
           f"mass drift {drift_of_mass:.3e}, elliptic ratio {ell_ratio:.2f}, "
           f"parabolic ratio {par_ratio:.2f}")


def test_criterion_09_recursion_lemma():
    # hand-checked rows of the equality dynamics
    hand_ok = all(recursion_hand_rows())

    rng = np.random.default_rng(9)
    failures = 0
    for _ in range(200):
        spec = RecursionSpec(c=float(rng.uniform(1.01, 10.0)),
                             b=float(rng.uniform(1.01, 10.0)),
                             eps=float(rng.uniform(0.1, 3.0)))
        y_star = spec.threshold
        if recursion_simulate(spec, y_star, 500)["verdict"] != "decays":
            failures += 1
        if recursion_simulate(spec, 2.0 * y_star, 500)["verdict"] != "diverges":
            failures += 1
    report("recursion", hand_ok and failures == 0,
           f"hand rows exact, {failures} misclassifications over 200 random "
           "specs (threshold decays / 2x threshold diverges)")


def test_criterion_10_weight_sanity(domain32):
    from chemosteer.carleman import build_weights
    ok = True
    detail = []
    for T, b_sup in ((0.25, 0.0), (1.0, 0.0), (1.0, 1.5), (4.0, 0.7)):
        tg = TimeGrid(T, 24)
        weights = build_weights(b_sup, domain32, tg)
        ok = ok and weights.params.constraints_certified()
        ok = ok and bool(weights.alpha.max() < 0.0)
        ok = ok and weight_chain_holds(weights)
        detail.append(f"T={T}")
    report("weight-sanity", bool(ok),
           "alpha < 0, per-level chain and parameter constraints certified "
           f"for {', '.join(detail)}")


def test_criterion_11_threshold_sweep():
    dom = DomainSpec(40)
    phys = PhysicsParams(chi=1.0, gamma=1.0, delta=1.0)
    shape = (1.0 + np.cos(np.pi * dom.centers)) / 2.0
    table = threshold_sweep(
        [0.25, 1.0, 4.0], [1e-3, 1e-2, 0.1, 0.5, 2.0], shape, phys, dom, TimeGrid(1.0, 60),
        hum=HumSettings(epsilon=1e-6), fixed_point=FixedPointSettings(max_iters=20),
    )
    monotone = all(
        [c["success"] for c in row["cells"]]
        == sorted((c["success"] for c in row["cells"]), reverse=True)
        for row in table["rows"]
    )
    found = all(row["a_star"] is not None for row in table["rows"])
    ok = monotone and found and table["c1_hat"] >= 0.0
    report("threshold-sweep", ok,
           f"a* = {[row['a_star'] for row in table['rows']]} for "
           f"T = [0.25, 1, 4], fitted c1 = {table['c1_hat']:.4f} >= 0")


def test_criterion_12_control_refinement():
    # penalized control of cosine data without drift on N = 20..320, M = 2N.
    # Measured: energy ratios 3.60, 3.90, 3.97 (second order); terminal
    # ratios 4.09, 2.20, 1.91, i.e. first order (implicit Euler) from N = 40;
    # Boyer ratio 0.170, 0.091, 0.116, 0.048 with eps = h^4 on N = 20..160.
    # Bounds: the order +- 0.5 (energy) and +- 0.35 (terminal), Boyer <= 0.25.
    t0 = _time.perf_counter()
    sizes = (20, 40, 80, 160, 320)
    energy, terminal, _ = zip(*(refined_control(n, 1e-6) for n in sizes))
    boyer = [refined_control(n)[2] for n in sizes[:4]]
    e_ratios, t_ratios = difference_ratios(energy), difference_ratios(terminal[1:])
    wall = _time.perf_counter() - t0
    ok = (np.all(np.abs(e_ratios - 4.0) <= 0.5) and np.all(np.abs(t_ratios - 2.0) <= 0.35)
          and max(boyer) <= 0.25 and wall < 2.0)
    report("control-refinement", bool(ok),
           f"energy ratios {np.round(e_ratios, 2).tolist()}, terminal ratios "
           f"{np.round(t_ratios, 2).tolist()}, terminal / (sqrt(h^4) |u0|) "
           f"{np.round(boyer, 3).tolist()}, {wall:.2f}s")


def test_criterion_13_nonlinear_refinement():
    # the chi = 10 fixed point of cosine data on N = 20..160, M = 2N.  Measured:
    # energy ratios 3.60, 3.90 (second order); terminal ratios 2.69, 2.36, falling
    # to first order (2.17 at N = 320, left out for time); 12 outer iterations at
    # every N; verification gap <= 1.3e-9.  Bounds: energy 4 +- 0.5, terminal
    # falling with the last in 2 +- 0.4, the same outer count, gap <= 1e-8.
    t0 = _time.perf_counter()
    sizes = (20, 40, 80, 160)
    energy, terminal, outer, gap, *_ = zip(*(refined_nonlinear(n, 1e-6) for n in sizes))
    e_ratios, t_ratios = difference_ratios(energy), difference_ratios(terminal)
    wall = _time.perf_counter() - t0
    ok = (np.all(np.abs(e_ratios - 4.0) <= 0.5) and np.all(np.diff(t_ratios) < 0.0)
          and abs(t_ratios[-1] - 2.0) <= 0.4 and len(set(outer)) == 1 and max(gap) <= 1e-8
          and wall < 2.0)
    report("nonlinear-refinement", bool(ok),
           f"energy ratios {np.round(e_ratios, 3).tolist()}, terminal ratios "
           f"{np.round(t_ratios, 3).tolist()}, outer iterations {list(outer)}, "
           f"verification gap {max(gap):.2e}, {wall:.2f}s")


def test_criterion_14_nonlinear_refinement_at_boyer_epsilon():
    # the fixed point of criterion 13 with Boyer's eps = h^4 on N = 20..160, M = 2N.
    # Measured: Boyer ratio 0.189, 0.220, 0.329, 0.138 (bounded, not monotone, as
    # criterion 12's); 12 outer iterations at every N; the verification gap over the
    # last outer increment 1.2e-3, 2.4e-3, 2.7e-3, 2.9e-3, while the relative gap grows
    # to 4.1e-8 as |u(T)| falls.  Bounds: Boyer <= 0.4, gap per increment <= 1e-2.
    t0 = _time.perf_counter()
    *_, outer, _, boyer, per_increment = zip(*(refined_nonlinear(n) for n in (20, 40, 80, 160)))
    wall = _time.perf_counter() - t0
    ok = max(boyer) <= 0.4 and max(per_increment) <= 1e-2 and len(set(outer)) == 1 and wall < 2.0
    report("nonlinear-refinement-boyer", bool(ok),
           f"terminal / (sqrt(h^4) |u0|) {np.round(boyer, 3).tolist()}, verification gap / "
           f"last increment {[f'{r:.1e}' for r in per_increment]}, outer iterations "
           f"{list(outer)}, {wall:.2f}s")
