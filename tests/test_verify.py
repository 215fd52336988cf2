import numpy as np

import l1subgrad.verify as verify
from l1subgrad.numerics import Rng
from l1subgrad.problems import make_quadratic
from l1subgrad.solvers import subgradient_step


def _rate_instance_after(steps: int):
    """The first `rate` suite instance (seed offset 0) and its iterate after `steps` steps."""
    prob = make_quadratic(50, Rng(301), eig_range=(1.0, 10.0), pin_extremes=True)
    obj = prob.objective
    h = 1.0 / obj.lipschitz_L
    x = prob.x0.copy()
    for _ in range(steps):
        x = subgradient_step(obj, x, h)
    return obj, x, h


def _cycle_from(obj, x, h, cap=1000):
    """Iterate until the map returns to x; the points visited, x first."""
    cycle = [x]
    y = subgradient_step(obj, x, h)
    while not np.array_equal(y, x):
        cycle.append(y)
        assert len(cycle) < cap, "no cycle through x"
        y = subgradient_step(obj, y, h)
    return cycle


class TestLimitPoint:
    def test_cycle_found_in_few_steps(self, monkeypatch):
        obj, x, h = _rate_instance_after(500)
        calls = []

        def counted(*args):
            calls.append(1)
            return subgradient_step(*args)

        monkeypatch.setattr(verify, "subgradient_step", counted)
        x_star = verify._limit_point(obj, x, h)
        assert len(calls) <= 50

        cycle = _cycle_from(obj, x_star, h)
        values = [obj.value(p) for p in cycle]
        assert obj.value(x_star) == min(values)

    def test_fixed_point_returned_as_is(self):
        obj = verify._oscillation_objective()
        zero = np.array([0.0])
        assert np.array_equal(subgradient_step(obj, zero, 100.0), zero)
        assert np.array_equal(verify._limit_point(obj, zero, 100.0), zero)

    def test_rate_instance_still_passes(self):
        (result,) = verify.suite_rate(instances=1)
        assert result.passed, result.margin
