"""Every invariant of the registry holds on the fixed selftest problems."""

import pytest

from chemosteer import checks
from chemosteer.checks import CHECKS, evaluate, selftest_problem


@pytest.fixture(scope="module")
def problem():
    return selftest_problem()


@pytest.mark.parametrize("name, tolerance, measure", CHECKS,
                         ids=[name for name, *_ in CHECKS])
def test_registry_check(problem, name, tolerance, measure):
    value, ok = evaluate(measure, tolerance, problem)
    assert ok, f"{name}: value {value!r}, tolerance {tolerance!r}"


def test_beta_validation_fails_under_a_shifted_profile(problem, monkeypatch):
    # the certificate's profile with the eta of x0 + 0.05 peaks 0.05 past x0
    _, tolerance, measure = next(check for check in CHECKS if check[0] == "beta-validation")
    assert evaluate(measure, tolerance, problem)[1]
    for name in ("beta_values", "beta_derivative"):
        monkeypatch.setattr(checks, name, lambda x, x0, f=getattr(checks, name): f(x, x0 + 0.05))
    value, ok = evaluate(measure, tolerance, problem)
    assert not ok and value > tolerance
