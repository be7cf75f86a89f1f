import numpy as np
import pytest

from chemosteer.grid import (HORIZON_RANGE, GeometryError, beta_derivative, beta_values,
                             build_beta, build_domain, build_time_grid)


class TestBuildDomain:
    def test_mask_n100(self):
        dom = build_domain(100, (0.3, 0.7), 0.5)
        expected = np.zeros(100, dtype=bool)
        expected[30:70] = True
        assert np.array_equal(dom.omega_mask, expected)

    def test_mask_n8(self):
        dom = build_domain(8, (0.25, 0.75), 0.5)
        assert list(np.nonzero(dom.omega_mask)[0]) == [2, 3, 4, 5]

    def test_mask_count_exact(self):
        dom = build_domain(64, (0.21, 0.55), 0.4)
        n_inside = int(np.sum((dom.centers > 0.21) & (dom.centers < 0.55)))
        assert int(dom.omega_mask.sum()) == n_inside

    def test_x0_outside_omega_rejected(self):
        with pytest.raises(GeometryError):
            build_domain(100, (0.3, 0.7), 0.8)

    def test_degenerate_omega_rejected(self):
        with pytest.raises(GeometryError):
            build_domain(100, (0.5, 0.51), 0.505)

    def test_too_few_cells_rejected(self):
        with pytest.raises(GeometryError):
            build_domain(4, (0.3, 0.7), 0.5)

    def test_bad_interval_rejected(self):
        with pytest.raises(GeometryError):
            build_domain(100, (0.7, 0.3), 0.5)

    def test_grid_layout(self):
        dom = build_domain(10, (0.3, 0.7), 0.5)
        assert dom.h == 0.1
        assert np.allclose(dom.centers, np.arange(10) * 0.1 + 0.05)
        assert dom.faces[0] == 0.0 and dom.faces[-1] == 1.0


class TestTimeGrid:
    def test_levels(self):
        tg = build_time_grid(2.0, 8)
        assert tg.levels[0] == 0.0 and tg.levels[-1] == 2.0
        assert np.all(np.diff(tg.levels) > 0.0)
        assert np.allclose(tg.midpoints, tg.levels[:-1] + 0.125)

    def test_invalid(self):
        with pytest.raises(GeometryError):
            build_time_grid(-1.0, 8)
        with pytest.raises(GeometryError):
            build_time_grid(1.0, 0)

    def test_horizon_range(self):
        lo, hi = HORIZON_RANGE
        assert build_time_grid(lo, 8).horizon_T == lo
        assert build_time_grid(hi, 8).horizon_T == hi
        for T in (0.0, np.nextafter(lo, 0.0), np.nextafter(hi, np.inf), 1e-300, 1e300,
                  np.nan, np.inf):
            with pytest.raises(GeometryError, match="horizon must lie in"):
                build_time_grid(T, 8)


class TestBeta:
    def test_symmetric_case(self):
        dom = build_domain(100, (0.3, 0.7), 0.5)
        beta = build_beta(dom)
        assert beta.eta == 0.0
        assert beta.sup_norm == pytest.approx(0.25, abs=1e-12)
        assert beta_derivative(0.0, 0.5) == pytest.approx(1.0)
        assert beta_derivative(1.0, 0.5) == pytest.approx(-1.0)
        # symmetric case is plain x(1-x)
        assert np.allclose(beta.at_centers, dom.centers * (1 - dom.centers))

    def test_skewed_critical_point(self):
        # the second root of the derivative's quadratic factor is
        # (1 - x0) / (1 - 2 x0) = 1.5 for x0 = 0.25, outside [0, 1]
        dom = build_domain(100, (0.1, 0.4), 0.25)
        beta = build_beta(dom)
        assert beta.eta == pytest.approx(-8.0 / 3.0)
        assert beta.validation["n_sign_changes"] == 1
        assert beta.validation["sign_change_locations"][0] == pytest.approx(0.25, abs=1e-3)

    @pytest.mark.parametrize("x0,omega", [(0.5, (0.3, 0.7)), (0.35, (0.2, 0.5)),
                                          (0.62, (0.5, 0.8))])
    def test_boundary_values_exact(self, x0, omega):
        assert beta_values(0.0, x0) == 0.0
        assert beta_values(1.0, x0) == 0.0
        dom = build_domain(64, omega, x0)
        beta = build_beta(dom)
        assert abs(beta.validation["deriv_at_x0"]) < 1e-10
        assert beta.validation["min_abs_deriv_outside_omega"] > 0.0
        assert beta.validation["min_interior"] > 0.0
