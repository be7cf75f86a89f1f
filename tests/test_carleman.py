import tracemalloc
import warnings

import numpy as np
import pytest

from chemosteer.carleman import CarlemanSettings, build_weights, select_params
from chemosteer.checks import weight_chain_holds
from chemosteer.grid import DomainSpec, GeometryError, TimeGrid
from chemosteer.parabolic import SolverError
from conftest import default_weights


class TestSelectParams:
    def test_defaults_certified(self, beta32):
        params = select_params(0.0, 1.0, beta32)
        assert params.constraints_certified()
        # with sup beta = 1/4 and delta0 = 3/2 the floor is -ln(1/2)/(1/4)
        assert params.lam == pytest.approx(4.0 * np.log(2.0), rel=1e-8)
        assert params.gamma_of_lambda == pytest.approx(4.0, rel=1e-8)
        assert params.s == pytest.approx(8.0, rel=1e-7)

    def test_lambda_scale_dominates_floor(self, beta32):
        params = select_params(1.0, 1.0, beta32, CarlemanSettings(lambda_scale=3.0))
        assert params.raw_weight_underflows
        # 3 * (1 + 1) = 6 exceeds the floor, so it is taken verbatim
        assert params.lam == 6.0
        assert params.gamma_of_lambda == pytest.approx(np.exp(3.0))

    def test_identity_omega_sqrt_gamma(self, beta32):
        params = select_params(0.7, 2.0, beta32, CarlemanSettings(lambda_scale=5.0))
        assert params.raw_weight_underflows
        assert params.omega_of_lambda * np.sqrt(params.gamma_of_lambda) == \
            pytest.approx(1.0, rel=1e-12)

    def test_s_floor_tracks_horizon(self, beta32):
        for T in (0.25, 1.0, 4.0):
            params = select_params(0.0, T, beta32)
            assert params.s >= params.gamma_of_lambda * (T + T * T) * (1 - 1e-12)

    def test_invalid_delta0(self, beta32):
        with pytest.raises(ValueError):
            select_params(0.0, 1.0, beta32, CarlemanSettings(delta0=1.0))
        with pytest.raises(ValueError):
            select_params(0.0, 1.0, beta32, CarlemanSettings(delta0=2.5))

    def test_invalid_scales(self, beta32):
        with pytest.raises(ValueError):
            select_params(0.0, 1.0, beta32, CarlemanSettings(lambda_scale=0.0))
        with pytest.raises(ValueError):
            select_params(0.0, 1.0, beta32, CarlemanSettings(s_scale=-1.0))

    def test_underflow_warning(self, beta32):
        # select_params only flags the underflow; build_weights warns of it
        params = select_params(0.0, 1.0, beta32, CarlemanSettings(s_scale=50.0))
        assert params.raw_weight_underflows

    def test_uncertified_params_raise(self, beta32):
        # a non-finite drift bound leaves lam and s undefined; the check is
        # a raised error, not an assert that vanishes under python -O
        with pytest.raises(ValueError, match="admissibility"):
            select_params(float("nan"), 1.0, beta32)


class TestWeightTables:
    def test_alpha_negative_everywhere(self, domain32, tgrid24):
        weights = default_weights(domain32, tgrid24)
        assert weights.alpha.max() < 0.0

    def test_alpha_closed_form(self, domain32, tgrid24):
        weights = default_weights(domain32, tgrid24)
        p = weights.params
        T = tgrid24.T
        k, i = 5, 11
        t = tgrid24.midpoints[k]
        expected = (np.exp(p.lam * domain32.beta.at_centers[i])
                    - np.exp(2.0 * p.lam * domain32.beta.sup_norm)) / (t * (T - t))
        assert weights.alpha[k, i] == pytest.approx(expected, rel=1e-10)

    def test_chain_inequality(self, domain32, tgrid24):
        # alpha0 <= alpha <= alpha0 / (1 + omega(lam)) < 0 at every entry
        assert weight_chain_holds(default_weights(domain32, tgrid24))

    def test_time_symmetry(self, domain32, tgrid24):
        # midpoints are symmetric about T/2, so the tables must be too
        weights = default_weights(domain32, tgrid24)
        assert np.abs(weights.alpha - weights.alpha[::-1]).max() <= \
            1e-12 * np.abs(weights.alpha).max()
        assert np.abs(weights.w - weights.w[::-1]).max() <= 1e-12

    def test_peak_normalization(self, domain32, tgrid24):
        weights = default_weights(domain32, tgrid24)
        assert weights.w.max() == 1.0
        assert weights.w.min() >= 0.0
        assert weights.log_w_peak < 0.0

    def test_endpoint_rows_underflow(self, domain32):
        # with a fine time grid the first/last rows underflow to exact zero
        tg = TimeGrid(1.0, 200)
        weights = default_weights(domain32, tg)
        assert np.all(weights.w[0] == 0.0)
        assert np.all(weights.w[-1] == 0.0)

    def test_peak_inside_control_region(self, domain32, tgrid24):
        weights = default_weights(domain32, tgrid24)
        k, i = np.unravel_index(np.argmax(weights.w), weights.w.shape)
        assert domain32.omega_mask[i]
        assert abs(tgrid24.midpoints[k] - 0.5 * tgrid24.T) <= tgrid24.dt

    def test_too_few_steps_rejected(self):
        with pytest.raises(GeometryError, match="^n_steps must be at least 4, got 3$"):
            TimeGrid(1.0, 3)

    @pytest.mark.parametrize("T", [0.5, 2.0])
    def test_params_chosen_on_the_horizon_of_time(self, T, domain32, beta32):
        tg = TimeGrid(T, 24)
        weights = build_weights(0.7, domain32, tg)
        assert weights.params.horizon_T == tg.T
        assert weights.params == select_params(0.7, T, beta32)

    def test_underflow_warning_points_at_the_caller(self, domain32, tgrid24):
        with pytest.warns(RuntimeWarning, match="underflows") as record:
            build_weights(0.0, domain32, tgrid24, CarlemanSettings(s_scale=50.0))
        assert record[0].filename == __file__

    def test_overflowing_table_raises(self, domain32, tgrid24):
        # lambda = 1000 makes s ~ 3e217, and delta0 s alpha overflows to -inf: the
        # table would be NaN throughout.  The breakdown is the only message: neither
        # numpy's overflow nor the raw-weight underflow warning comes before it
        with warnings.catch_warnings(), pytest.raises(
                SolverError, match="^the Carleman weight table overflows: delta0 s alpha is -inf"):
            warnings.simplefilter("error")
            build_weights(0.0, domain32, tgrid24, CarlemanSettings(lambda_scale=1e3))

    def test_overflowing_parameters_raise(self, domain32, tgrid24):
        # lambda = 1e300 overflows gamma(lambda) and s to inf, and alpha is NaN
        with warnings.catch_warnings(), pytest.raises(
                SolverError, match="^the Carleman weight table overflows: delta0 s alpha is nan"):
            warnings.simplefilter("error")
            build_weights(0.0, domain32, tgrid24, CarlemanSettings(lambda_scale=1e300))


def test_weights_exponentiated_in_place():
    domain, time = DomainSpec(200), TimeGrid(1.0, 400)
    domain.beta  # the profile is certified before the trace starts
    tracemalloc.start()
    try:
        weights = build_weights(0.0, domain, time)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # at most the exponent table and the alpha it is formed from, no temporary beside them
    assert peak <= 2.5 * time.n_steps * domain.n_cells * 8
    # only w outlives the call: alpha is evaluated when read
    assert kept <= 1.5 * (time.n_steps + 1) * domain.n_cells * 8
    params = weights.params
    expected = np.exp(params.delta0 * params.s * weights.alpha - weights.log_w_peak)
    assert np.array_equal(weights.w, expected)


def test_alpha_read_keeps_its_bits(domain32, tgrid24):
    weights = build_weights(0.7, domain32, tgrid24)
    p, t = weights.params, weights.t_mid[:, None]
    expected = ((np.exp(p.lam * domain32.beta.at_centers) - np.exp(2.0 * p.lam * p.beta_sup))
                / (t * (p.horizon_T - t)))
    assert weights.alpha.shape == (tgrid24.n_steps, domain32.n_cells)
    assert np.array_equal(weights.alpha.view(np.uint64), expected.view(np.uint64))
