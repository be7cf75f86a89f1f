import numpy as np
import pytest

from chemosteer.grid import (HORIZON_RANGE, DomainSpec, GeometryError, TimeGrid,
                             beta_derivative, beta_values)


class TestBuildDomain:
    def test_mask_n100(self):
        dom = DomainSpec(100)
        expected = np.zeros(100, dtype=bool)
        expected[30:70] = True
        assert np.array_equal(dom.omega_mask, expected)

    def test_mask_n8(self):
        dom = DomainSpec(8, 0.25, 0.75, 0.5)
        assert list(np.nonzero(dom.omega_mask)[0]) == [2, 3, 4, 5]

    def test_mask_count_exact(self):
        dom = DomainSpec(64, 0.21, 0.55, 0.4)
        n_inside = int(np.sum((dom.centers > 0.21) & (dom.centers < 0.55)))
        assert int(dom.omega_mask.sum()) == n_inside

    def test_x0_outside_omega_rejected(self):
        with pytest.raises(GeometryError):
            DomainSpec(100, 0.3, 0.7, 0.8)

    def test_degenerate_omega_rejected(self):
        with pytest.raises(GeometryError):
            DomainSpec(100, 0.5, 0.51, 0.505)

    def test_too_few_cells_rejected(self):
        with pytest.raises(GeometryError):
            DomainSpec(4)

    def test_bad_interval_rejected(self):
        with pytest.raises(GeometryError):
            DomainSpec(100, 0.7, 0.3, 0.5)

    def test_grid_layout(self):
        dom = DomainSpec(10)
        assert dom.h == 0.1
        assert np.allclose(dom.centers, np.arange(10) * 0.1 + 0.05)


    def test_records_allocate_on_first_read(self):
        # a grid far past config.MAX_GRID_VALUES validates without forming an array
        assert set(vars(DomainSpec(10 ** 11))) <= {"n_cells", "omega_a", "omega_b", "x0", "h"}
        assert set(vars(TimeGrid(1.0, 10 ** 11))) == {"T", "n_steps"}


def test_arrays_keep_the_bits_of_their_formulas():
    """The records' arrays, formed on first read, are bitwise these closed formulas."""
    n, m, a, b, T = 200, 400, 0.3, 0.7, 1.0
    dom, tg = DomainSpec(n, a, b, 0.5), TimeGrid(T, m)
    h, dt = 1.0 / n, T / m
    centers = (np.arange(n) + 0.5) * h
    expected = {"centers": centers,
                "omega_mask": (centers > a) & (centers < b),
                "levels": np.linspace(0.0, T, m + 1), "midpoints": (np.arange(m) + 0.5) * dt}
    assert (dom.h, tg.dt) == (h, dt)
    for name, want in expected.items():
        got = getattr(tg if name in ("levels", "midpoints") else dom, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


class TestTimeGrid:
    def test_levels(self):
        tg = TimeGrid(2.0, 8)
        assert tg.levels[0] == 0.0 and tg.levels[-1] == 2.0
        assert np.all(np.diff(tg.levels) > 0.0)
        assert np.allclose(tg.midpoints, tg.levels[:-1] + 0.125)

    def test_invalid(self):
        with pytest.raises(GeometryError):
            TimeGrid(-1.0, 8)
        with pytest.raises(GeometryError):
            TimeGrid(1.0, 0)

    def test_horizon_range(self):
        lo, hi = HORIZON_RANGE
        assert TimeGrid(lo, 8).T == lo
        assert TimeGrid(hi, 8).T == hi
        for T in (0.0, np.nextafter(lo, 0.0), np.nextafter(hi, np.inf), 1e-300, 1e300,
                  np.nan, np.inf):
            with pytest.raises(GeometryError, match="^T must lie in"):
                TimeGrid(T, 8)


class TestBeta:
    def test_symmetric_case(self):
        dom = DomainSpec(100)
        beta = dom.beta
        assert beta.eta == 0.0
        assert beta.sup_norm == pytest.approx(0.25, abs=1e-12)
        assert beta_derivative(0.0, 0.5) == pytest.approx(1.0)
        assert beta_derivative(1.0, 0.5) == pytest.approx(-1.0)
        # symmetric case is plain x(1-x)
        assert np.allclose(beta.at_centers, dom.centers * (1 - dom.centers))

    def test_skewed_critical_point(self):
        # the second root of the derivative's quadratic factor is
        # (1 - x0) / (1 - 2 x0) = 1.5 for x0 = 0.25, outside [0, 1]
        dom = DomainSpec(100, 0.1, 0.4, 0.25)
        beta = dom.beta
        assert beta.eta == pytest.approx(-8.0 / 3.0)
        assert beta.validation["n_sign_changes"] == 1
        assert beta.validation["sign_change_locations"][0] == pytest.approx(0.25, abs=1e-3)

    @pytest.mark.parametrize("x0,omega", [(0.5, (0.3, 0.7)), (0.35, (0.2, 0.5)),
                                          (0.62, (0.5, 0.8))])
    def test_boundary_values_exact(self, x0, omega):
        assert beta_values(0.0, x0) == 0.0
        assert beta_values(1.0, x0) == 0.0
        dom = DomainSpec(64, *omega, x0)
        beta = dom.beta
        assert abs(beta.validation["deriv_at_x0"]) < 1e-10
        assert beta.validation["min_abs_deriv_outside_omega"] > 0.0
        assert beta.validation["min_interior"] > 0.0
