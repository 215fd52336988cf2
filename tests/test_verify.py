from dataclasses import replace

import numpy as np

import l1subgrad.verify as verify
from l1subgrad.numerics import Rng
from l1subgrad.problems import make_quadratic
from l1subgrad.solvers import (
    SolverState,
    _Cycle,
    accelerated_step,
    classic_subgradient_step,
    subgradient_step,
)


def _cycle_from(obj, x, h, cap=1000):
    """Iterate until the map returns to x; the points visited, x first."""
    cycle = [x]
    y = subgradient_step(obj, x, h)
    while not np.array_equal(y, x):
        cycle.append(y)
        assert len(cycle) < cap, "no cycle through x"
        y = subgradient_step(obj, y, h)
    return cycle


def _least_bytes_limit_point(obj, x, h, cap=20_000):
    """Reference: step until a point repeats, take that point's cycle, walk it
    from its least-bytes point and keep the first least-valued point."""
    seen = set()
    while x.tobytes() not in seen:
        assert len(seen) < cap, "no cycle"
        seen.add(x.tobytes())
        x = subgradient_step(obj, x, h)
    cycle = _cycle_from(obj, x, h)
    start = min(range(len(cycle)), key=lambda i: cycle[i].tobytes())
    walk = cycle[start:] + cycle[:start]
    return walk[int(np.argmin([obj.value(p) for p in walk]))]


def _full_gaps(prob, iters):
    """Every iterate's gap, stepping to ``iters`` with no cycle test."""
    obj = prob.objective
    h = 1.0 / obj.lipschitz_L
    x = prob.x0.copy()
    iterates = [x.copy()]
    for _ in range(iters):
        x = subgradient_step(obj, x, h)
        iterates.append(x)
    return verify._quadratic_gaps(prob, iterates, _least_bytes_limit_point(obj, x, h))


def _rate_instance(seed, i, n=50):
    return make_quadratic(n, Rng(seed + 301 + i), eig_range=(1.0, 10.0), pin_extremes=True)


def _full_rate(seed, instances, n=50, iters=500):
    worst = np.inf
    for i in range(instances):
        prob = _rate_instance(seed, i, n)
        obj = prob.objective
        kappa = 1.0 / (1.0 + obj.mu / obj.lipschitz_L)
        gaps = _full_gaps(prob, iters)
        bound = gaps[0] * kappa ** np.arange(iters + 1) * (1.0 + 1e-9)
        worst = min(worst, float(np.min(bound - gaps)))
    detail = f"{instances} quadratics n={n}, mu=1, L=10, k <= {iters}, relative slack 1e-9"
    return verify.PropertyResult("rate", worst >= 0.0, worst, detail)


def _full_dominance(seed, instances, iters=300):
    worst = np.inf
    checked = 0
    for i in range(instances):
        prob = verify._dominance_instance(seed, i, instances)
        obj = prob.objective
        h = 1.0 / obj.lipschitz_L
        state = SolverState.initial(obj, prob.x0)
        for _ in range(iters):
            state = accelerated_step(obj, state, h)
            f_q = obj.value(state.q)
            worst = min(worst, f_q + 1e-12 * (1.0 + abs(f_q)) - state.f_x)
            checked += 1
    detail = (f"{instances} instances x {iters} iterations ({checked} checks), "
              "slack 1e-12*(1+|f|)")
    return verify.PropertyResult("dominance", worst >= 0.0, worst, detail)


def _full_anti_oscillation():
    obj = verify._oscillation_objective()
    h = 1.0 / obj.lipschitz_L
    x = np.array([0.37])
    hit = None
    stayed = True
    for k in range(1, 21):
        x = subgradient_step(obj, x, h)
        if x[0] == 0.0 and hit is None:
            hit = k
        elif hit is not None and x[0] != 0.0:
            stayed = False
    crossing = verify.PropertyResult(
        "anti-oscillation/crossing", hit is not None and hit <= 5 and stayed,
        float(5 - (hit if hit is not None else 999)),
        f"exact zero reached at iteration {hit}, stayed: {stayed}",
    )
    x = np.array([0.37])
    closest = np.inf
    for k in range(1, 10_001):
        x = classic_subgradient_step(obj, x, k, scale=h, exponent=0.0)
        closest = min(closest, abs(float(x[0])))
    classic = verify.PropertyResult(
        "anti-oscillation/classic", closest > h / 4.0, float(closest - h / 4.0),
        f"min |x_k| = {closest:.6g} over 10^4 iterations vs h/4 = {h / 4.0}",
    )
    return [crossing, classic]


class TestSuitesStopOnCycles:
    """Suites that stop stepping on a cycle report what stepping to the end reports."""

    def test_rate_matches_full_loop(self):
        assert verify.suite_rate(instances=4) == [_full_rate(0, 4)]

    def test_rate_gaps_tiled_over_the_cycle_match_every_gap(self, monkeypatch):
        measured = []
        gaps = verify._quadratic_gaps

        def counted(prob, iterates, x_star):
            measured.append(len(iterates))
            return gaps(prob, iterates, x_star)

        full = [_full_gaps(_rate_instance(0, i), 500) for i in range(4)]
        monkeypatch.setattr(verify, "_quadratic_gaps", counted)
        for i in range(4):
            assert verify._rate_gaps(_rate_instance(0, i), 500).tobytes() == full[i].tobytes()
        # some instance closed its cycle before step 500 and had its gaps tiled
        assert len(measured) == 4 and min(measured) < 501, measured

    def test_dominance_matches_full_loop(self):
        assert verify.suite_dominance(instances=8) == [_full_dominance(0, 8)]

    def test_anti_oscillation_matches_full_loop(self):
        assert verify.suite_anti_oscillation() == _full_anti_oscillation()


def test_margins_do_not_depend_on_the_worker_count(workers):
    """The suites that fork give every margin bit for bit as one process does."""
    suites = [
        lambda: verify.suite_dominance(instances=12, iters=100),
        lambda: verify.suite_rate(instances=5),
        lambda: verify.suite_pl(instances=3, samples_per=50),
    ]
    results = []
    for count in (1, 2, 3):
        workers(count)
        results.append([
            (r.name, r.passed, r.margin.hex(), r.detail) for suite in suites for r in suite()
        ])
    assert results[1] == results[0] and results[2] == results[0]


def _counted_steps(monkeypatch):
    """Route `verify.subgradient_step` through a counter; the list of calls."""
    calls = []

    def counted(*args):
        calls.append(1)
        return subgradient_step(*args)

    monkeypatch.setattr(verify, "subgradient_step", counted)
    return calls


def _closing_step(prob):
    """The step at which `_Cycle` closes the rate trajectory, and its period."""
    obj = prob.objective
    h = 1.0 / obj.lipschitz_L
    x = prob.x0
    cycle = _Cycle(x.tobytes())
    for k in range(1, 20_001):
        x = subgradient_step(obj, x, h)
        period = cycle.period(x.tobytes())
        if period:
            return k, period
    raise AssertionError("no cycle")


class TestRateGaps:
    def test_rate_instance_still_passes(self):
        (result,) = verify.suite_rate(instances=1)
        assert result.passed, result.margin

    def test_matches_full_loop_within_and_past_iters(self):
        # the cycles close at steps 147-207: past iters 0 to 100, within 500
        for i in range(6):
            prob = _rate_instance(0, i)
            for iters in (0, 1, 2, 20, 100, 500):
                got = verify._rate_gaps(prob, iters)
                assert got.tobytes() == _full_gaps(prob, iters).tobytes(), (i, iters)

    def test_no_cycle_takes_the_last_point(self):
        prob = _rate_instance(0, 0)
        iters, cap = 3, 7
        assert _closing_step(prob)[0] > iters + cap
        obj = prob.objective
        h = 1.0 / obj.lipschitz_L
        walk = [prob.x0]
        for _ in range(iters + cap):
            walk.append(subgradient_step(obj, walk[-1], h))
        expected = verify._quadratic_gaps(prob, walk[: iters + 1], walk[-1])
        assert verify._rate_gaps(prob, iters, cap=cap).tobytes() == expected.tobytes()

    def test_fixed_start_takes_one_step(self, monkeypatch):
        # gamma above every |b_i| makes 0 the minimizer, and a fixed point of the step
        n = 10
        prob = make_quadratic(n, Rng(7), eig_range=(1.0, 10.0), pin_extremes=True, gamma=1e3)
        prob = replace(prob, x0=np.zeros(n))
        h = 1.0 / prob.objective.lipschitz_L
        assert subgradient_step(prob.objective, prob.x0, h).tobytes() == prob.x0.tobytes()
        calls = _counted_steps(monkeypatch)
        gaps = verify._rate_gaps(prob, 50)
        assert len(calls) == 1
        assert gaps.tobytes() == np.zeros(51).tobytes()

    def test_steps_to_the_closing_step_and_round_the_cycle(self, monkeypatch):
        for i in range(3):
            prob = _rate_instance(0, i)
            closing, period = _closing_step(prob)
            for iters in (0, 500):
                calls = _counted_steps(monkeypatch)
                verify._rate_gaps(prob, iters)
                assert len(calls) <= closing + period - 1, (i, iters, len(calls))
