import numpy as np
import pytest

from chemosteer import build_beta, build_domain, build_time_grid, build_weights
from chemosteer.elliptic import DriftField
from chemosteer.parabolic import solve_forward


@pytest.fixture
def domain32():
    return build_domain(32, (0.3, 0.7), 0.5)


@pytest.fixture
def tgrid24():
    return build_time_grid(1.0, 24)


@pytest.fixture
def beta32(domain32):
    return build_beta(domain32)


def default_weights(domain, tgrid, beta, b_sup=0.0):
    return build_weights(b_sup, beta, domain, tgrid)


def heat_error(dom):
    """Max error of the heat mode 1 + e^{-pi^2 t} cos(pi x) at t = 0.1, with dt ~ h^2."""
    tg = build_time_grid(0.1, round(2 * dom.n_cells ** 2 * 0.1))
    mode = np.cos(np.pi * dom.centers)
    u = solve_forward(1.0 + mode, DriftField.zero(dom, tg), None, dom, tg)
    return np.abs(u[-1] - (1.0 + np.exp(-np.pi ** 2 * 0.1) * mode)).max()
