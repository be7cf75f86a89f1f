import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from chemosteer.checks import random_drift, recursion_hand_rows
from chemosteer.diagnostics import (ObservabilityReport, RecursionSpec, observability_probe,
                                    observability_ratio, recursion_simulate)
from chemosteer.elliptic import DriftField
from chemosteer.grid import DomainSpec, TimeGrid
from chemosteer.hum import dense_gramian
from chemosteer.parabolic import level_l2, solve_adjoint
from conftest import default_weights, propagator_of


def extremal_ratio(drift, weights, domain, time, ridge=1e-14):
    """Extremal observability ratio via a dense generalized eigensolve.

    Assembles the map phiT -> phi(., 0) and the Gramian densely and solves
    S^T S x = mu G x; the Gramian is regularized by a relative ridge, so the
    value is a lower bound on the true extremal ratio.
    """
    n = domain.n_cells
    s_map = solve_adjoint(np.eye(n), propagator_of(drift, domain, time))[0]
    g = dense_gramian(drift, weights, domain, time)
    g = 0.5 * (g + g.T)
    g_reg = g + ridge * (np.trace(g) / n) * np.eye(n)
    # both forms carry the same cell-quadrature factor h
    a = domain.h * (s_map.T @ s_map)
    b = domain.h * g_reg
    return float(scipy.linalg.eigh(a, b, eigvals_only=True)[-1])


class TestObservability:
    def test_probe_deterministic_per_seed(self, domain32, tgrid24):
        drift = DriftField.zero(domain32, tgrid24)
        weights = default_weights(domain32, tgrid24)
        r1 = observability_probe(drift, weights, domain32, tgrid24, 10, 7)
        r2 = observability_probe(drift, weights, domain32, tgrid24, 10, 7)
        assert r1.ratios == r2.ratios

    def test_nested_seed_prefix(self, domain32, tgrid24):
        # a longer run with the same seed extends, not reshuffles, the draws
        drift = DriftField.zero(domain32, tgrid24)
        weights = default_weights(domain32, tgrid24)
        short = observability_probe(drift, weights, domain32, tgrid24, 5, 3)
        long = observability_probe(drift, weights, domain32, tgrid24, 15, 3)
        assert long.ratios[:5] == short.ratios
        assert long.max_ratio >= short.max_ratio

    def test_constant_mode_closed_form(self, domain32, tgrid24):
        drift = DriftField.zero(domain32, tgrid24)
        weights = default_weights(domain32, tgrid24)
        ratios = observability_probe(drift, weights, domain32, tgrid24, 3, 0).constant_mode
        assert ratios["computed_ratio"] == pytest.approx(ratios["closed_form_ratio"], rel=1e-12)

    @pytest.mark.parametrize("per_step", [False, True], ids=["zero", "per-step"])
    def test_batch_with_constant_mode_equals_separate_marches_bitwise(self, domain32, tgrid24,
                                                                      per_step):
        """The constant mode rides in the samples' batch as its last column; each
        ratio is the bits of the datum's own march."""
        drift = (random_drift(np.random.default_rng(6), domain32, tgrid24, per_step=True)
                 if per_step else DriftField.zero(domain32, tgrid24))
        weights = default_weights(domain32, tgrid24, b_sup=drift.sup_norm)
        probe = observability_probe(drift, weights, domain32, tgrid24, 6, 4)
        rng = np.random.default_rng(4)
        for ratio in probe.ratios:
            phiT = rng.standard_normal(32)
            phiT /= level_l2(phiT, domain32.h)
            assert ratio == observability_ratio(phiT, drift, weights, domain32, tgrid24)
        assert probe.constant_mode["computed_ratio"] == observability_ratio(
            np.ones(32), drift, weights, domain32, tgrid24)

    def test_extremal_dominates_samples(self, domain32, tgrid24):
        rng = np.random.default_rng(5)
        drift = random_drift(rng, domain32, tgrid24, amplitude=0.5)
        weights = default_weights(domain32, tgrid24, b_sup=drift.sup_norm)
        probe = observability_probe(drift, weights, domain32, tgrid24, 30, 11)
        extremal = extremal_ratio(drift, weights, domain32, tgrid24)
        assert extremal >= probe.max_ratio * (1.0 - 1e-8)

    def test_report_fields(self, domain32, tgrid24):
        drift = DriftField.zero(domain32, tgrid24)
        weights = default_weights(domain32, tgrid24)
        rep = observability_probe(drift, weights, domain32, tgrid24, 8, 0)
        assert isinstance(rep, ObservabilityReport)
        assert rep.n_samples == 8 and len(rep.ratios) == 8
        assert rep.quantiles["q100"] == rep.max_ratio
        assert rep.c_hat_obs == pytest.approx(math.log(rep.max_ratio) / rep.kappa)

    def test_ratio_stores_no_trajectory(self):
        domain, time = DomainSpec(200), TimeGrid(1.0, 400)
        drift = DriftField.zero(domain, time)
        weights = default_weights(domain, time)
        phiT = np.random.default_rng(8).standard_normal((200, 20))
        tracemalloc.start()
        try:
            ratios = observability_ratio(phiT, drift, weights, domain, time)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ratios.shape == (20,) and np.all(np.isfinite(ratios))
        # less than one (M+1, N) trajectory, let alone one per column
        assert peak < (time.n_steps + 1) * domain.n_cells * 8

    def test_probe_rejects_zero_samples(self, domain32, tgrid24):
        drift = DriftField.zero(domain32, tgrid24)
        weights = default_weights(domain32, tgrid24)
        with pytest.raises(ValueError):
            observability_probe(drift, weights, domain32, tgrid24, 0, 0)


class TestRecursion:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            RecursionSpec(c=0.0, b=1.0, eps=1.0)
        with pytest.raises(ValueError):
            RecursionSpec(c=1.0, b=0.5, eps=1.0)
        with pytest.raises(ValueError):
            RecursionSpec(c=1.0, b=1.0, eps=0.0)

    def test_threshold_closed_form(self):
        spec = RecursionSpec(c=2.0, b=4.0, eps=0.5)
        expected = 2.0 ** (-2.0) * 4.0 ** (-4.0)
        assert spec.threshold == pytest.approx(expected, rel=1e-12)

    def test_hand_rows_b_one(self):
        assert recursion_hand_rows()[0]

    def test_hand_rows_b_two(self):
        assert recursion_hand_rows()[1]

    @pytest.mark.parametrize("seed", range(20))
    def test_threshold_dichotomy_random(self, seed):
        rng = np.random.default_rng(seed)
        spec = RecursionSpec(c=float(rng.uniform(1.1, 5.0)),
                             b=float(rng.uniform(1.1, 5.0)),
                             eps=float(rng.uniform(0.2, 2.0)))
        y_star = spec.threshold
        below = recursion_simulate(spec, y_star, 2000)
        assert below["verdict"] == "decays"
        above = recursion_simulate(spec, 2.0 * y_star, 2000)
        assert above["verdict"] == "diverges"

    def test_zero_start(self):
        out = recursion_simulate(RecursionSpec(c=3.0, b=2.0, eps=1.0), 0.0, 5)
        assert out["verdict"] == "decays"
        assert out["sequence"] == [0.0] * 6

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            recursion_simulate(RecursionSpec(c=1.0, b=1.0, eps=1.0), -1.0, 5)
