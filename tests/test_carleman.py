import numpy as np
import pytest

from chemosteer.carleman import build_weights, select_params
from chemosteer.grid import build_time_grid
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
        with pytest.warns(RuntimeWarning):
            params = select_params(1.0, 1.0, beta32, lambda_scale=3.0)
        # 3 * (1 + 1) = 6 exceeds the floor, so it is taken verbatim
        assert params.lam == 6.0
        assert params.gamma_of_lambda == pytest.approx(np.exp(3.0))

    def test_identity_omega_sqrt_gamma(self, beta32):
        with pytest.warns(RuntimeWarning):
            params = select_params(0.7, 2.0, beta32, lambda_scale=5.0)
        assert params.omega_of_lambda * np.sqrt(params.gamma_of_lambda) == \
            pytest.approx(1.0, rel=1e-12)

    def test_s_floor_tracks_horizon(self, beta32):
        for T in (0.25, 1.0, 4.0):
            params = select_params(0.0, T, beta32)
            assert params.s >= params.gamma_of_lambda * (T + T * T) * (1 - 1e-12)

    def test_invalid_delta0(self, beta32):
        with pytest.raises(ValueError):
            select_params(0.0, 1.0, beta32, delta0=1.0)
        with pytest.raises(ValueError):
            select_params(0.0, 1.0, beta32, delta0=2.5)

    def test_invalid_scales(self, beta32):
        with pytest.raises(ValueError):
            select_params(0.0, 1.0, beta32, lambda_scale=0.0)
        with pytest.raises(ValueError):
            select_params(0.0, 1.0, beta32, s_scale=-1.0)

    def test_underflow_warning(self, beta32):
        with pytest.warns(RuntimeWarning):
            select_params(0.0, 1.0, beta32, s_scale=50.0)

    def test_uncertified_params_raise(self, beta32):
        # a non-finite drift bound leaves lam and s undefined; the check is
        # a raised error, not an assert that vanishes under python -O
        with pytest.raises(ValueError, match="admissibility"):
            select_params(float("nan"), 1.0, beta32)


class TestWeightTables:
    def test_alpha_negative_everywhere(self, domain32, tgrid24, beta32):
        weights = default_weights(domain32, tgrid24, beta32)
        assert weights.alpha.max() < 0.0

    def test_alpha_closed_form(self, domain32, tgrid24, beta32):
        weights = default_weights(domain32, tgrid24, beta32)
        p = weights.params
        T = tgrid24.horizon_T
        k, i = 5, 11
        t = tgrid24.midpoints[k]
        expected = (np.exp(p.lam * beta32.at_centers[i])
                    - np.exp(2.0 * p.lam * beta32.sup_norm)) / (t * (T - t))
        assert weights.alpha[k, i] == pytest.approx(expected, rel=1e-10)

    def test_chain_inequality(self, domain32, tgrid24, beta32):
        # alpha0 <= alpha <= alpha0 / (1 + omega(lam)) < 0 at every entry
        weights = default_weights(domain32, tgrid24, beta32)
        omega_lam = weights.params.omega_of_lambda
        alpha0 = weights.alpha.min(axis=1, keepdims=True)
        assert np.all(weights.alpha >= alpha0)
        assert np.all(weights.alpha <= alpha0 / (1.0 + omega_lam))

    def test_time_symmetry(self, domain32, tgrid24, beta32):
        # midpoints are symmetric about T/2, so the tables must be too
        weights = default_weights(domain32, tgrid24, beta32)
        assert np.abs(weights.alpha - weights.alpha[::-1]).max() <= \
            1e-12 * np.abs(weights.alpha).max()
        assert np.abs(weights.w - weights.w[::-1]).max() <= 1e-12

    def test_peak_normalization(self, domain32, tgrid24, beta32):
        weights = default_weights(domain32, tgrid24, beta32)
        assert weights.w.max() == 1.0
        assert weights.w.min() >= 0.0
        assert weights.log_w_peak < 0.0

    def test_endpoint_rows_underflow(self, domain32, beta32):
        # with a fine time grid the first/last rows underflow to exact zero
        tg = build_time_grid(1.0, 200)
        weights = default_weights(domain32, tg, beta32)
        assert np.all(weights.w[0] == 0.0)
        assert np.all(weights.w[-1] == 0.0)

    def test_peak_inside_control_region(self, domain32, tgrid24, beta32):
        weights = default_weights(domain32, tgrid24, beta32)
        k, i = np.unravel_index(np.argmax(weights.w), weights.w.shape)
        assert domain32.omega_mask[i]
        assert abs(tgrid24.midpoints[k] - 0.5 * tgrid24.horizon_T) <= tgrid24.dt

    def test_too_few_steps_rejected(self, domain32, beta32):
        params = select_params(0.0, 1.0, beta32)
        with pytest.raises(ValueError):
            build_weights(params, beta32, domain32, build_time_grid(1.0, 3))
