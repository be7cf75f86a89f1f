"""Every invariant of the registry holds on the fixed selftest problems."""

import pytest

from chemosteer.checks import CHECKS, evaluate, selftest_problem


@pytest.fixture(scope="module")
def problem():
    return selftest_problem()


@pytest.mark.parametrize("name, tolerance, measure", CHECKS,
                         ids=[name for name, *_ in CHECKS])
def test_registry_check(problem, name, tolerance, measure):
    value, ok = evaluate(measure, tolerance, problem)
    assert ok, f"{name}: value {value!r}, tolerance {tolerance!r}"
