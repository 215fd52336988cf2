import dataclasses

import numpy as np
import pytest

from l1subgrad.numerics import Rng
from l1subgrad.objective import CompositeObjective
from l1subgrad.problems import make_2d, make_quadratic
from l1subgrad.solvers import (
    FistaState,
    SolverConfig,
    SolverError,
    SolverState,
    accelerated_step,
    classic_subgradient_step,
    fista_restart_step,
    ista_step,
    run,
    subgradient_step,
)


def _quad_1d(lam=1.0, offset=0.0, gamma=1.0):
    return CompositeObjective(
        eval_g=lambda x: 0.5 * lam * float(x[0] ** 2) + offset * float(x[0]),
        grad_g=lambda x: lam * x + offset,
        gamma=gamma,
        lipschitz_L=lam,
        dim=1,
        mu=lam,
    )


class TestSubgradientStep:
    def test_1d_hand_trace_lands_exactly_on_zero(self):
        # x=0.5, h=1: d = 1.5, forward point -1 crosses, re-evaluation at 0
        # gives d=0, both candidates are 0, the tie picks the completed point
        obj = _quad_1d()
        out = subgradient_step(obj, np.array([0.5]), 1.0)
        assert out[0] == 0.0

    def test_minimizer_is_fixed_point(self):
        obj = make_2d().objective
        x_star = np.array([1.0, 0.0])
        assert np.array_equal(subgradient_step(obj, x_star, 1.0 / obj.lipschitz_L), x_star)

    def test_2d_example_crossing_prefers_pinned_point(self):
        # from the canonical start the second component crosses; the pinned
        # candidate x'=(0.95, 0) evaluates below the completed x''=(0.7744.., 0)
        prob = make_2d()
        obj = prob.objective
        h = 1.0 / obj.lipschitz_L
        x0 = prob.x0
        sub = obj.min_norm_subgradient(x0)
        x_temp = x0 - h * sub
        assert x_temp[0] > 0.0 and x_temp[1] < 0.0
        x_prime = np.array([0.95, 0.0])
        assert obj.min_norm_subgradient(x_prime)[1] == 0.0
        x_second = np.array([x_temp[0], 0.0])
        assert obj.value(x_prime) < obj.value(x_second)
        out = subgradient_step(obj, x0, h)
        assert np.array_equal(out, x_prime)

    def test_crossed_components_use_reevaluated_subgradient(self):
        # g'(0) = -2 with gamma=1: after pinning, the re-evaluated direction is
        # sign(-2)*max(2-1, 0) = -1, so the completed point is at +h, not at
        # the stale forward value
        obj = _quad_1d(lam=1.0, offset=-2.0)
        h = 0.3
        x = np.array([-0.1])
        # forward: d = 1*(-0.1) - 2 + (-1) = -3.1, x_temp = -0.1 + 3.1*h > 0
        out = subgradient_step(obj, x, h)
        assert out[0] == pytest.approx(h * 1.0)

    def test_monotone_decrease_at_auto_step(self):
        rng = Rng(7)
        prob = make_quadratic(30, rng)
        obj = prob.objective
        h = 1.0 / obj.lipschitz_L
        x = prob.x0.copy()
        f = obj.value(x)
        for _ in range(200):
            x = subgradient_step(obj, x, h)
            f_new = obj.value(x)
            assert f_new <= f + 1e-12 * (1.0 + abs(f))
            f = f_new

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            subgradient_step(_quad_1d(), np.array([1.0]), 0.0)

    def test_gradient_evaluation_counts(self):
        calls = {"n": 0}

        def counting(base):
            def grad(x):
                calls["n"] += 1
                return base(x)

            return grad

        plain = make_2d().objective
        obj = CompositeObjective(
            eval_g=plain.eval_g, grad_g=counting(plain.grad_g), gamma=plain.gamma,
            lipschitz_L=plain.lipschitz_L, dim=2, mu=plain.mu,
        )
        h = 1.0 / obj.lipschitz_L
        subgradient_step(obj, np.array([1.0, 0.0]), h)  # fixed point, no crossing
        assert calls["n"] == 1
        calls["n"] = 0
        subgradient_step(obj, np.array([0.95, 0.5]), h)  # second component crosses
        assert calls["n"] == 2

    def test_nonfinite_forward_point_raises(self):
        obj = CompositeObjective(
            eval_g=lambda x: 0.0,
            grad_g=lambda x: np.full_like(x, 1e308),
            gamma=0.0,
            lipschitz_L=1.0,
            dim=1,
        )
        with np.errstate(over="ignore"), pytest.raises(SolverError):
            subgradient_step(obj, np.array([1.0]), 1e10)


class TestAcceleratedStep:
    def test_first_iteration_matches_plain_step(self):
        prob = make_quadratic(12, Rng(5))
        obj = prob.objective
        h = 1.0 / obj.lipschitz_L
        state = accelerated_step(obj, SolverState.initial(obj, prob.x0), h)
        expected = subgradient_step(obj, prob.x0, h)
        assert np.array_equal(state.x, expected)
        assert np.array_equal(state.q, expected)
        assert np.allclose(state.p, (expected - prob.x0) / np.sqrt(h))

    def test_pinned_candidate_resets_momentum(self):
        prob = make_2d()
        obj = prob.objective
        h = 1.0 / obj.lipschitz_L
        state = accelerated_step(obj, SolverState.initial(obj, prob.x0), h)
        # the crossing branch selects x' here, so momentum must be fully zeroed
        assert np.array_equal(state.x, [0.95, 0.0])
        assert np.all(state.p == 0.0)

    def test_fixed_point(self):
        obj = make_2d().objective
        x_star = np.array([1.0, 0.0])
        state = SolverState(x=x_star.copy(), p=np.zeros(2), k=0, f_x=obj.value(x_star))
        out = accelerated_step(obj, state, 1.0 / obj.lipschitz_L)
        assert np.array_equal(out.x, x_star)
        assert np.all(out.p == 0.0)

    def test_momentum_never_flips_strict_sign(self):
        prob = make_quadratic(20, Rng(9))
        obj = prob.objective
        h = 1.0 / obj.lipschitz_L
        state = SolverState.initial(obj, prob.x0)
        for _ in range(150):
            state = accelerated_step(obj, state, h)
            assert np.all(state.x * state.q >= 0.0)

    def test_per_iteration_dominance(self):
        for seed in range(10):
            prob = make_quadratic(15, Rng(100 + seed))
            obj = prob.objective
            h = 1.0 / obj.lipschitz_L
            state = SolverState.initial(obj, prob.x0)
            for _ in range(50):
                state = accelerated_step(obj, state, h)
                f_q = obj.value(state.q)
                assert state.f_x <= f_q + 1e-12 * (1.0 + abs(f_q))

    def test_cached_gradient_matches_fresh_evaluation(self):
        prob = make_quadratic(10, Rng(3))
        obj = prob.objective
        h = 1.0 / obj.lipschitz_L
        state = SolverState.initial(obj, prob.x0)
        for _ in range(30):
            state = accelerated_step(obj, state, h)
            if state.grad_cache is not None:
                assert np.array_equal(state.grad_cache, obj.smooth_grad(state.x))

    def test_state_value_invariant(self):
        prob = make_quadratic(10, Rng(4))
        obj = prob.objective
        state = SolverState.initial(obj, prob.x0)
        for _ in range(20):
            state = accelerated_step(obj, state, 1.0 / obj.lipschitz_L)
            assert state.f_x == obj.value(state.x)


class TestIstaStep:
    def test_no_penalty_is_gradient_step(self):
        obj = _quad_1d(lam=2.0, gamma=0.0)
        x = np.array([1.0])
        assert ista_step(obj, x, 0.25)[0] == 1.0 - 0.25 * 2.0

    def test_forward_zero_stays_zero(self):
        obj = _quad_1d()
        assert ista_step(obj, np.array([0.0]), 0.7)[0] == 0.0

    def test_1d_hand_trace(self):
        # forward point 0.5 - 1*0.5 = 0, threshold keeps it at 0
        obj = _quad_1d()
        assert ista_step(obj, np.array([0.5]), 1.0)[0] == 0.0


class TestFistaRestart:
    def test_first_step_equals_ista(self):
        prob = make_quadratic(8, Rng(11))
        obj = prob.objective
        h = 1.0 / obj.lipschitz_L
        state = fista_restart_step(obj, FistaState.initial(prob.x0), h)
        assert np.array_equal(state.x, ista_step(obj, prob.x0, h))

    def test_1d_restart_never_triggers(self):
        obj = _quad_1d(lam=1.5, offset=-3.0)
        h = 1.0 / obj.lipschitz_L
        state = FistaState.initial(np.array([4.0]))
        f_prev = obj.value(state.x)
        for _ in range(50):
            state = fista_restart_step(obj, state, h)
            assert state.t >= 1.0
            f_new = obj.value(state.x)
            assert f_new <= f_prev + 1e-12 * (1.0 + abs(f_prev))
            f_prev = f_new

    def test_restart_fires_and_then_descends(self):
        prob = make_quadratic(30, Rng(13))
        obj = prob.objective
        h = 1.0 / obj.lipschitz_L
        state = FistaState.initial(prob.x0)
        restarts = 0
        for _ in range(300):
            prev_f = obj.value(state.x)
            state = fista_restart_step(obj, state, h)
            if state.t == 1.0:
                restarts += 1
                # the step right after a reset is a plain forward-backward step
                follow = fista_restart_step(obj, state, h)
                assert obj.value(follow.x) <= obj.value(state.x) + 1e-12 * (1.0 + abs(prev_f))
        assert restarts > 0

    def test_beats_ista_on_quadratic(self):
        prob = make_quadratic(40, Rng(15))
        obj = prob.objective
        f_ref = None
        cfg_i = SolverConfig(method="ista", max_iter=100)
        cfg_f = SolverConfig(method="fista", max_iter=100)
        ista_trace = run(obj, prob.x0, cfg_i, f_ref)
        fista_trace = run(obj, prob.x0, cfg_f, f_ref)
        assert fista_trace.f_values[-1] <= ista_trace.f_values[-1]


class TestClassicStep:
    def test_schedule_scale_ten_quarter_exponent(self):
        obj = _quad_1d(gamma=0.0)
        x = np.array([1.0])
        out = classic_subgradient_step(obj, x, k=1, scale=10.0, exponent=0.25)
        assert out[0] == 1.0 - 10.0 * 1.0

    def test_schedule_inverse_k(self):
        obj = _quad_1d(gamma=0.0)
        out = classic_subgradient_step(obj, np.array([1.0]), k=4, scale=1.0, exponent=1.0)
        assert out[0] == 1.0 - 0.25 * 1.0

    def test_requires_positive_iteration_index(self):
        with pytest.raises(ValueError):
            classic_subgradient_step(_quad_1d(), np.array([1.0]), 0, 1.0, 0.5)

    def test_constant_step_oscillation_stays_separated(self):
        # on |x| + eps*x^2/2 with a constant step, iterates started off the
        # step lattice never settle near the minimizer
        eps = 0.01
        obj = CompositeObjective(
            eval_g=lambda x: 0.5 * eps * float(x[0] ** 2),
            grad_g=lambda x: eps * x,
            gamma=1.0,
            lipschitz_L=eps,
            dim=1,
            mu=eps,
        )
        h = 1.0
        x = np.array([0.37])
        for k in range(1, 2001):
            x = classic_subgradient_step(obj, x, k, scale=h, exponent=0.0)
            assert abs(x[0]) >= h / 4.0


class TestRunDriver:
    def test_zero_iterations_single_record(self):
        prob = make_2d()
        trace = run(prob.objective, prob.x0, SolverConfig(method="alg1", max_iter=0))
        assert len(trace) == 1
        assert trace.f_values[0] == prob.objective.value(prob.x0)

    def test_record_count_and_gaps(self):
        prob = make_2d()
        trace = run(
            prob.objective, prob.x0, SolverConfig(method="ista", max_iter=37), f_ref=prob.f_ref
        )
        assert len(trace) == 38
        assert trace.gaps() is not None and len(trace.gaps()) == 38

    def test_auto_step_resolves_to_inverse_lipschitz(self):
        prob = make_2d()
        trace = run(prob.objective, prob.x0, SolverConfig(method="alg1", max_iter=1))
        assert trace.h == 1.0 / prob.objective.lipschitz_L

    def test_alg1_trace_non_increasing(self):
        prob = make_quadratic(25, Rng(19))
        trace = run(prob.objective, prob.x0, SolverConfig(method="alg1", max_iter=300))
        f = trace.f_values
        assert np.all(np.diff(f) <= 1e-12 * (1.0 + np.abs(f[:-1])))

    def test_deterministic_repetition(self):
        prob = make_quadratic(20, Rng(21))
        cfg = SolverConfig(method="alg2", max_iter=100)
        a = run(prob.objective, prob.x0, cfg)
        b = run(prob.objective, prob.x0, cfg)
        assert np.array_equal(a.f_values, b.f_values)

    def test_classic_divergence_freezes_to_inf(self):
        prob = make_quadratic(20, Rng(23))  # eigenvalues up to 100, scale-10 steps blow up
        cfg = SolverConfig(method="classic", max_iter=400)
        trace = run(prob.objective, prob.x0, cfg)
        assert len(trace) == 401
        assert not np.any(np.isnan(trace.f_values))
        assert trace.f_values[-1] == np.inf

    def test_error_carries_iteration_index(self):
        calls = {"n": 0}

        def grad(x):
            calls["n"] += 1
            if calls["n"] > 3:
                return np.full_like(x, np.nan)
            return x.copy()

        obj = CompositeObjective(
            eval_g=lambda x: 0.5 * float(x @ x), grad_g=grad, gamma=0.1, lipschitz_L=1.0, dim=2
        )
        with pytest.raises(SolverError, match="iteration"):
            run(obj, np.array([5.0, 4.0]), SolverConfig(method="alg1", max_iter=50))

    def test_no_value_is_evaluated_twice(self):
        # eval_g and grad_g counted through dataclasses.replace, as perfbench's trace does
        calls = {"eval": 0, "grad": 0}

        def counted(fn, slot):
            def call(x):
                calls[slot] += 1
                return fn(x)

            return call

        prob = make_quadratic(30, Rng(7))
        obj = dataclasses.replace(
            prob.objective,
            eval_g=counted(prob.objective.eval_g, "eval"),
            grad_g=counted(prob.objective.grad_g, "grad"),
        )
        iters = 100
        h = 1.0 / obj.lipschitz_L

        # alg1: one grad_g per step plus one at x' when a sign crosses; f is
        # evaluated at x0, once per plain step and twice per crossing step
        run(obj, prob.x0, SolverConfig(method="alg1", max_iter=iters))
        crossings = calls["grad"] - iters
        assert crossings > 0
        assert calls["eval"] == 1 + iters + crossings

        # alg2: exactly the evaluations of driving the steps by hand
        calls.update(eval=0)
        run(obj, prob.x0, SolverConfig(method="alg2", max_iter=iters))
        in_run = calls["eval"]
        calls.update(eval=0)
        state = SolverState.initial(obj, prob.x0)
        for _ in range(iters):
            state = accelerated_step(obj, state, h)
        assert in_run == calls["eval"]

    def test_rejects_nonfinite_start(self):
        prob = make_2d()
        with pytest.raises(ValueError):
            run(prob.objective, np.array([np.nan, 0.0]), SolverConfig(method="alg1", max_iter=1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(method="sgd", max_iter=10)
        with pytest.raises(ValueError):
            SolverConfig(method="alg1", max_iter=-1)
        with pytest.raises(ValueError):
            SolverConfig(method="alg1", max_iter=10, step_h=0.0)

    def test_final_iterate_returned(self):
        prob = make_2d()
        trace = run(prob.objective, prob.x0, SolverConfig(method="alg1", max_iter=50))
        assert trace.x_final is not None
        assert prob.objective.value(trace.x_final) == trace.f_values[-1]
