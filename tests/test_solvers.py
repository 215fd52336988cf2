import dataclasses
import math
import os
import signal
import threading
import time
import warnings

from unittest import mock

import numpy as np
import pytest

import l1subgrad._fork as _fork
import l1subgrad._helper as _helper
import l1subgrad._rowsplit as _rowsplit
import l1subgrad.bench as bench
import l1subgrad.objective as objective
import l1subgrad.problems as problems
import l1subgrad.solvers as solvers
from l1subgrad.bench import EXPERIMENTS, ExperimentConfig, build_problem, run_experiment
from l1subgrad.numerics import Rng, as_vector
from l1subgrad.objective import CompositeObjective
from l1subgrad.problems import make_2d, make_quadratic
from l1subgrad.solvers import (
    METHODS,
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

    @pytest.mark.parametrize("h", [np.inf, np.nan])
    def test_rejects_nonfinite_step(self, h):
        obj, x = _quad_1d(), np.array([1.0])
        with pytest.raises(ValueError, match="finite"):
            subgradient_step(obj, x, h)
        with pytest.raises(ValueError, match="finite"):
            ista_step(obj, x, h)
        with pytest.raises(ValueError, match="finite"):
            accelerated_step(obj, SolverState.initial(obj, x), h)
        with pytest.raises(ValueError, match="finite"):
            fista_restart_step(obj, FistaState.initial(x), h)

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
        state = SolverState(x=x_star.copy(), p=np.zeros(2), f_x=obj.value(x_star),
                            grad=obj.smooth_grad(x_star))
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

    @pytest.mark.parametrize("family", ["quadratic", "lasso", "logistic", "logsumexp", "toy2d"])
    @pytest.mark.parametrize("public", [False, True], ids=["kernel", "public"])
    def test_state_gradient_is_the_gradient_at_x(self, family, public):
        prob = build_problem(family, 3, **({} if family == "toy2d" else {"n": 12}))
        obj = prob.objective
        h = 1.0 / obj.lipschitz_L
        step = accelerated_step if public else solvers._accelerated_step
        state = SolverState.initial(obj, prob.x0)
        for k in range(51):
            if k:
                state = step(obj, state, h)
            assert state.grad.tobytes() == obj.smooth_grad(state.x).tobytes(), k

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
        cfg_i = SolverConfig(method="ista", max_iter=100)
        cfg_f = SolverConfig(method="fista", max_iter=100)
        ista_trace = run(obj, prob.x0, cfg_i)
        fista_trace = run(obj, prob.x0, cfg_f)
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

    @pytest.mark.parametrize("scale, exponent, message", [
        (-1.0, 0.5, "classic_step_scale must be finite and > 0"),
        (0.0, 0.5, "classic_step_scale must be finite and > 0"),
        (np.nan, 0.5, "classic_step_scale must be finite and > 0"),
        (np.inf, 0.5, "classic_step_scale must be finite and > 0"),
        (1.0, -np.inf, "classic_step_exponent must be finite and >= 0"),
        (1.0, np.nan, "classic_step_exponent must be finite and >= 0"),
        (1.0, -1.0, "classic_step_exponent must be finite and >= 0"),
    ], ids=[
        "scale-negative", "scale-zero", "scale-nan", "scale-inf",
        "exponent-minus-inf", "exponent-nan", "exponent-negative",
    ])
    def test_rejects_bad_schedule_as_the_config_does(self, scale, exponent, message):
        with pytest.raises(ValueError, match=message):
            classic_subgradient_step(_quad_1d(), np.array([1.0]), 1, scale, exponent)
        with pytest.raises(ValueError, match=message):
            SolverConfig(
                method="classic", max_iter=1, classic_step_scale=scale,
                classic_step_exponent=exponent,
            )

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
        assert len(trace.f_values) == 1
        assert trace.f_values[0] == prob.objective.value(prob.x0)

    def test_record_count(self):
        prob = make_2d()
        trace = run(prob.objective, prob.x0, SolverConfig(method="ista", max_iter=37))
        assert len(trace.f_values) == 38

    def test_auto_step_resolves_to_inverse_lipschitz(self):
        prob = make_2d()
        auto = run(prob.objective, prob.x0, SolverConfig(method="alg1", max_iter=20))
        explicit = run(
            prob.objective, prob.x0,
            SolverConfig(method="alg1", max_iter=20, step_h=1.0 / prob.objective.lipschitz_L),
        )
        assert np.array_equal(auto.f_values, explicit.f_values)

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
        assert len(trace.f_values) == 401
        assert not np.any(np.isnan(trace.f_values))
        assert trace.f_values[-1] == np.inf

    def test_error_carries_iteration_index(self):
        calls = {"n": 0}

        # the fault comes at the second call (the pinned point x' of iteration
        # 1), before the iterate parks at 0 and `run` stops calling grad_g
        def grad(x):
            calls["n"] += 1
            if calls["n"] > 1:
                return np.full_like(x, np.nan)
            return x.copy()

        obj = CompositeObjective(
            eval_g=lambda x: 0.5 * float(x @ x), grad_g=grad, gamma=0.1, lipschitz_L=1.0, dim=2
        )
        with pytest.raises(SolverError, match="iteration"):
            run(obj, np.array([5.0, 4.0]), SolverConfig(method="alg1", max_iter=50))

    def test_no_value_is_evaluated_twice(self):
        prob = make_quadratic(30, Rng(7))
        obj, calls = _counted_oracle(prob.objective)
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

    @pytest.mark.parametrize("method", ["alg1", "alg2", "ista", "fista", "classic"])
    def test_rejects_start_where_f_is_not_finite(self, method):
        # |x0|_1 times this weight overflows, while x0 itself is finite
        prob = make_2d(gamma=1.5e308)
        with pytest.raises(ValueError, match=r"^f\(x0\) must be finite, got inf$"):
            run(prob.objective, prob.x0, SolverConfig(method=method, max_iter=5))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(method="sgd", max_iter=10)
        with pytest.raises(ValueError):
            SolverConfig(method="alg1", max_iter=-1)
        with pytest.raises(ValueError):
            SolverConfig(method="alg1", max_iter=10, step_h=0.0)
        for h in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="finite positive"):
                SolverConfig(method="alg1", max_iter=3, step_h=h)

    def test_final_iterate_returned(self):
        prob = make_2d()
        trace = run(prob.objective, prob.x0, SolverConfig(method="alg1", max_iter=50))
        assert trace.x_final is not None
        assert prob.objective.value(trace.x_final) == trace.f_values[-1]


def _counted_oracle(obj):
    """``obj`` with eval_g/grad_g counted through dataclasses.replace, as perfbench counts them."""
    calls = {"eval": 0, "grad": 0}

    def counted(fn, slot):
        def call(x):
            calls[slot] += 1
            return fn(x)

        return call

    counted_obj = dataclasses.replace(
        obj, eval_g=counted(obj.eval_g, "eval"), grad_g=counted(obj.grad_g, "grad")
    )
    return counted_obj, calls


def _hand_loop(obj, x0, cfg):
    """f values of driving the public step functions by hand, as `run` records them."""
    h = cfg.resolve_step(obj)
    x = np.array(x0, dtype=np.float64)
    acc = SolverState.initial(obj, x)
    fista = FistaState.initial(x)
    f_values = [obj.value(x)]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, cfg.max_iter + 1):
            if cfg.method == "alg1":
                x = subgradient_step(obj, x, h)
            elif cfg.method == "alg2":
                acc = accelerated_step(obj, acc, h)
                x = acc.x
            elif cfg.method == "ista":
                x = ista_step(obj, x, h)
            elif cfg.method == "fista":
                fista = fista_restart_step(obj, fista, h)
                x = fista.x
            else:
                x = classic_subgradient_step(
                    obj, x, k, cfg.classic_step_scale, cfg.classic_step_exponent
                )
            f = obj.value(x) if np.all(np.isfinite(x)) else np.inf
            if not np.isfinite(f):
                f_values += [np.inf] * (cfg.max_iter + 1 - len(f_values))
                break
            f_values.append(f)
    return np.array(f_values)


class TestLeanLoop:
    """`run` checks its inputs once and drives the same kernels as the public steps."""

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    @pytest.mark.parametrize("method", METHODS)
    def test_run_matches_public_steps_bitwise(self, experiment, method):
        prob = build_problem(experiment, 1, n=12, m=9, k=10)
        (cfg,) = ExperimentConfig(
            experiment, trials=1, solvers=(method,), max_iter=40
        ).solver_configs()
        trace = run(prob.objective, prob.x0, cfg)
        assert trace.f_values.tobytes() == _hand_loop(prob.objective, prob.x0, cfg).tobytes()

    @pytest.mark.parametrize("experiment", ["quadratic", "toy2d"])
    def test_coercions_do_not_grow_with_iterations(self, experiment, monkeypatch):
        calls = []

        def counted(x, dim=None):
            calls.append(None)
            return as_vector(x, dim=dim)

        monkeypatch.setattr(solvers, "as_vector", counted)
        monkeypatch.setattr(objective, "as_vector", counted)
        prob = build_problem(experiment, 0, n=30)
        for method in METHODS:
            counts = []
            for iters in (10, 200):
                calls.clear()
                run(prob.objective, prob.x0, SolverConfig(method=method, max_iter=iters))
                counts.append(len(calls))
            assert counts[0] == counts[1], (method, counts)

    def test_public_steps_reject_wrong_length(self):
        obj = make_2d().objective
        x = np.zeros(3)
        with pytest.raises(ValueError, match="dimension"):
            subgradient_step(obj, x, 0.5)
        with pytest.raises(ValueError, match="dimension"):
            accelerated_step(obj, SolverState(x=x, p=np.zeros(3), f_x=0.0, grad=x), 0.5)
        with pytest.raises(ValueError, match="dimension"):
            accelerated_step(
                obj, SolverState(x=np.zeros(2), p=np.zeros(3), f_x=0.0, grad=np.zeros(2)), 0.5
            )
        with pytest.raises(ValueError, match="dimension"):
            accelerated_step(obj, SolverState(x=np.ones(2), p=np.zeros(2), f_x=0.0, grad=x), 0.5)
        with pytest.raises(ValueError, match="dimension"):
            ista_step(obj, x, 0.5)
        with pytest.raises(ValueError, match="dimension"):
            fista_restart_step(obj, FistaState.initial(x), 0.5)
        with pytest.raises(ValueError, match="dimension"):
            classic_subgradient_step(obj, x, 1, 1.0, 1.0)


class TestParking:
    """`run` stops once a step leaves the state the next step reads unchanged."""

    @pytest.mark.parametrize("method", METHODS)
    def test_run_stops_calling_the_oracle_once_parked(self, method):
        prob = build_problem("toy2d", 0)
        counts = []
        for iters in (500, 1000):
            obj, calls = _counted_oracle(prob.objective)
            (cfg,) = ExperimentConfig(
                "toy2d", trials=1, solvers=(method,), max_iter=iters
            ).solver_configs()
            trace = run(obj, prob.x0, cfg)
            counts.append(dict(calls))
            # stopping early records the bytes that stepping to the end records
            hand = _hand_loop(prob.objective, prob.x0, cfg)
            assert trace.f_values.tobytes() == hand.tobytes()
        if method == "classic":
            # its step depends on k, so it never parks: f at x0, then one of each per step
            assert counts == [{"eval": 501, "grad": 500}, {"eval": 1001, "grad": 1000}]
        else:
            assert counts[0] == counts[1]
            assert counts[0]["grad"] < 150, counts

    def test_signed_zero_is_a_change(self):
        # bytes, not values, are compared: -0.0 and 0.0 differ
        def key(x, p):
            return SolverState(x=x, p=p, f_x=0.0, grad=np.zeros(2)).key()

        ones = np.ones(2)
        assert solvers._Cycle(key(np.array([0.0, 1.0]), ones)).period(
            key(np.array([0.0, 1.0]), ones)) == 1
        assert solvers._Cycle(key(np.array([-0.0, 1.0]), ones)).period(
            key(np.array([0.0, 1.0]), ones)) == 0
        assert solvers._Cycle(key(ones, np.zeros(2))).period(key(ones, np.zeros(2))) == 1
        assert solvers._Cycle(key(ones, np.zeros(2))).period(key(ones, -np.zeros(2))) == 0


class TestCycles:
    """`run` stops once the state closes a cycle of any period, with the bytes of stepping on."""

    def test_period_is_the_least_period_after_any_tail(self):
        # states 0..6 lead into the cycle 7, 8, 9, 10, 11, 7, ...
        def state(k):
            return np.array([float(k if k < 7 else 7 + (k - 7) % 5)])

        cycle = solvers._Cycle(state(0).tobytes())
        periods = [cycle.period(state(k).tobytes()) for k in range(1, 40)]
        closed = next(k for k, p in enumerate(periods, 1) if p)
        assert periods[closed - 1] == 5
        assert closed >= 12 and np.array_equal(state(closed), state(closed - 5))
        assert not any(periods[: closed - 1])

    @pytest.mark.parametrize("least_last", [False, True])
    @pytest.mark.parametrize("tail, period", [
        (0, 1), (0, 2), (0, 95), (4, 1), (3, 95), (1000, 7), (2000, 2), (700, 95),
    ])
    def test_least_period_found_by_tail_plus_twice_the_period(self, tail, period, least_last):
        # distinct keys in a seeded order: the tail, then the cycle repeated;
        # with least_last the cycle's least key comes last, the latest case
        keys = [np.array([v]).tobytes() for v in Rng(tail + period).gaussians(tail + period)]
        assert len(set(keys)) == len(keys)
        ring = keys[tail:]
        if least_last:
            at = ring.index(min(ring))
            ring = ring[at + 1:] + ring[:at + 1]

        def key(k):
            return keys[k] if k < tail else ring[(k - tail) % period]

        cycle = solvers._Cycle(key(0))
        for k in range(1, tail + 2 * period + 1):
            found = cycle.period(key(k))
            if found:
                break
        assert found == period and k >= tail + period and key(k) == key(k - period)

    @staticmethod
    def _states(method, obj, x0, h):
        """The states alg1 or alg2 reads, from the start, by the public steps."""
        state = SolverState.initial(obj, x0) if method == "alg2" else x0
        while True:
            yield state
            if method == "alg2":
                state = accelerated_step(obj, state, h)
            else:
                state = subgradient_step(obj, state, h)

    @pytest.mark.parametrize("method, repeat, period", [("alg2", 578, 2), ("alg1", 472, 8)])
    def test_run_stops_by_tail_plus_twice_the_period(self, method, repeat, period):
        prob = build_problem("quadratic", 0, n=200)
        cfg = SolverConfig(method=method, max_iter=2000)
        h = cfg.resolve_step(prob.objective)
        obj, calls = _counted_oracle(prob.objective)
        key = SolverState.key if method == "alg2" else np.ndarray.tobytes
        seen = {}
        for k, state in enumerate(self._states(method, obj, prob.x0, h)):
            if key(state) in seen:
                break
            seen[key(state)] = k
        assert (k, k - seen[key(state)]) == (repeat, period)

        # the detector closes by step tail + 2 periods = repeat + period, and
        # the steps it then takes for x_final are fewer than one period, so
        # run calls grad_g no more often than repeat + 2 periods of steps do
        calls["grad"] = 0
        for _ in zip(range(repeat + 2 * period + 1), self._states(method, obj, prob.x0, h)):
            pass
        by_hand = calls["grad"]
        calls["grad"] = 0
        trace = run(obj, prob.x0, cfg)
        assert calls["grad"] <= by_hand, (calls["grad"], by_hand)

        assert trace.f_values.tobytes() == _hand_loop(prob.objective, prob.x0, cfg).tobytes()
        for _, state in zip(range(cfg.max_iter + 1), self._states(method, obj, prob.x0, h)):
            pass
        x = state.x if method == "alg2" else state
        assert trace.x_final.tobytes() == x.tobytes()

    @staticmethod
    def _period_two_instance():
        # alg1 on this instance repeats its iterate with period 2 from step 193
        return make_quadratic(50, Rng(302), eig_range=(1.0, 10.0), pin_extremes=True)

    @pytest.mark.parametrize("iters", [1000, 1001])
    def test_period_two_cycle_matches_public_steps_bitwise(self, iters):
        prob = self._period_two_instance()
        obj = prob.objective
        cfg = SolverConfig(method="alg1", max_iter=iters)
        trace = run(obj, prob.x0, cfg)
        assert trace.f_values.tobytes() == _hand_loop(obj, prob.x0, cfg).tobytes()
        x = prob.x0
        for _ in range(iters):
            x = subgradient_step(obj, x, cfg.resolve_step(obj))
        assert trace.x_final.tobytes() == x.tobytes()

    def test_oracle_not_called_once_cycling(self):
        prob = self._period_two_instance()
        counts = {}
        for iters in (1000, 1001, 2000):
            obj, calls = _counted_oracle(prob.objective)
            run(obj, prob.x0, SolverConfig(method="alg1", max_iter=iters))
            counts[iters] = dict(calls)
        # the cycle closes at the same step k in every run; after it, x_final
        # costs (max_iter - k) % 2 more steps, so 1000 and 1001 differ by one
        assert counts[1000] == counts[2000]
        assert counts[1000]["grad"] < 600, counts
        step = {slot: abs(counts[1001][slot] - counts[1000][slot]) for slot in ("eval", "grad")}
        assert 1 <= step["grad"] <= 2 and step["eval"] <= 2, counts

    def test_fista_false_repeat_does_not_stop_it(self):
        # fista's (x, y) repeats with period 4 at step 131 on this instance, but
        # its t keeps growing, so only a period-1 repeat may stop it
        prob = build_problem("logistic", 2)
        obj, calls = _counted_oracle(prob.objective)
        cfg = SolverConfig(method="fista", max_iter=300)
        trace = run(obj, prob.x0, cfg)
        assert calls["grad"] == 300
        assert trace.f_values.tobytes() == _hand_loop(prob.objective, prob.x0, cfg).tobytes()


# The alg1/alg2 kernels as they were before their numpy calls were cut, kept
# here as the reference the current kernels must match bit for bit. Each
# records the branches it takes in ``seen``.


def _reference_min_norm(grad, x, gamma):
    on_support = grad + gamma * np.sign(x)
    if np.count_nonzero(x) == x.size:
        return on_support
    shrunk = np.sign(grad) * np.maximum(np.abs(grad) - gamma, 0.0)
    return np.where(x != 0.0, on_support, shrunk)


def _reference_crossing(obj, x, sub, h, seen):
    x_temp = x - h * sub
    if not np.isfinite(x_temp).all():
        raise SolverError("non-finite values in the forward point x - h*d")
    prod = x_temp * x
    if (prod >= 0.0).all():
        seen["plain"] += 1
        return x_temp, None, False, None
    mask = prod <= 0.0
    x_prime = np.where(mask, 0.0, x)
    sub_prime = _reference_min_norm(obj._grad(x_prime), x_prime, obj.gamma)
    v = np.where(mask, -h * sub_prime, -h * sub)
    x_second = x_prime + v
    if not np.isfinite(x_second).all():
        raise SolverError("non-finite values in the completed point x''")
    f_prime = obj._value(x_prime)
    f_second = obj._value(x_second)
    if f_prime < f_second:
        seen["x' wins"] += 1
        return x_prime, mask, True, f_prime
    seen["x'' wins"] += 1
    return x_second, mask, False, f_second


def _reference_subgradient_step(obj, x, h, seen):
    sub = _reference_min_norm(obj._grad(x), x, obj.gamma)
    x_next, _, _, f_next = _reference_crossing(obj, x, sub, h, seen)
    return x_next, f_next


def _reference_accelerated_step(obj, state, h, seen):
    x, p = state.x, state.p
    sub = _reference_min_norm(state.grad, x, obj.gamma)
    q, mask, prime_selected, f_q = _reference_crossing(obj, x, sub, h, seen)
    if mask is None:
        q_old = x
        p = np.where(q == 0.0, 0.0, p)
    else:
        p = np.where(mask, 0.0, p)
        q_old = np.where(mask, 0.0, x)
        if prime_selected:
            p = np.zeros(obj.dim)
    sqrt_h = math.sqrt(h)
    q_prime = q + sqrt_h * p
    flip = q_prime * q < 0.0
    if flip.any():
        seen["flip"] += 1
        q_prime = np.where(flip, 0.0, q_prime)
        p = (q_prime - q) / sqrt_h
    grad_qp = obj._grad(q_prime)
    crossed = q * q_prime < 0.0
    if crossed.any():
        raise ValueError("sign-inconsistent pair")
    r = float((grad_qp + obj.gamma * np.sign(q + q_prime)) @ p)
    if r <= 0.0:
        seen["accept"] += 1
        return SolverState(x=q_prime, p=p + (q - q_old) / sqrt_h, f_x=obj._value(q_prime),
                           grad=grad_qp, q=q)
    seen["reject"] += 1
    f_new = f_q if f_q is not None else obj._value(q)
    return SolverState(x=q, p=(q - q_old) / sqrt_h, f_x=f_new, grad=obj._grad(q), q=q)


def _kernel_states():
    """Seeded (objective, alg2 state, h): random states with zeros and momentum
    of every scale on small quadratics and lasso, then the states along alg2
    runs on the 2-D example and two larger instances."""
    rng = Rng(71)
    for i in range(300):
        n = 2 + i % 5
        prob = make_quadratic(n, rng) if i % 2 else build_problem("lasso", i, m=n + 2, n=n)
        obj = prob.objective
        x = np.where(rng.uniforms(n) < 0.3, 0.0, rng.gaussians(n, 0.0, 2.0))
        p = rng.gaussians(n, 0.0, 10.0 ** rng.uniform(-3.0, 1.0))
        h = rng.uniform(0.1, 2.0) / obj.lipschitz_L
        yield obj, SolverState(x=x, p=p, f_x=obj.value(x), grad=obj.smooth_grad(x)), h
    for prob in (make_2d(), make_quadratic(40, Rng(7)), build_problem("lasso", 0, m=30, n=40)):
        obj = prob.objective
        h = 1.0 / obj.lipschitz_L
        state = SolverState.initial(obj, prob.x0)
        for _ in range(150):
            yield obj, state, h
            state = solvers._accelerated_step(obj, state, h)


class TestKernelsMatchReference:
    def test_steps_match_reference_kernels_bitwise(self):
        seen = dict.fromkeys(("plain", "x' wins", "x'' wins", "flip", "accept", "reject"), 0)
        for obj, state, h in _kernel_states():
            x_next, _, _, f_next = solvers._crossing_phase(obj, state.x, obj._sub(state.x), h)
            ref_x, ref_f = _reference_subgradient_step(obj, state.x, h, seen)
            assert x_next.tobytes() == ref_x.tobytes()
            assert f_next == ref_f or (f_next is None and ref_f is None)

            got = solvers._accelerated_step(obj, state, h)
            ref = _reference_accelerated_step(obj, state, h, seen)
            for name in ("x", "p", "q", "grad"):
                assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name
            assert np.float64(got.f_x).tobytes() == np.float64(ref.f_x).tobytes()
        assert all(seen.values()), seen


# alg2 on a small instance of each matrix family; together their walks reach
# crossings, flips, kept moves and fallbacks (with the helper lent on the
# quadratic), and cycles
_OVERLAP_SIZES = {
    "quadratic": dict(n=30, gamma=3.0),
    "lasso": dict(m=20, n=40),
    "logistic": dict(m=30, n=20),
    "logsumexp": dict(k=30, n=20, gamma=0.2),
}


def _split(family, seed=0, **sizes):
    """``build_problem(family, seed, **sizes)`` with the size constant
    lowered, so that the instance splits its gradient's rows
    (`_rowsplit.RowSplit`), and alg2 may lend a quadratic the helper."""
    with mock.patch.object(problems, "_BLOCK_MIN_SIZE", 1):
        return build_problem(family, seed, **sizes)


def _wrap(obj, name, fn):
    """Replace the method ``name`` of ``obj``'s row split by ``fn(method, x)``,
    in this process and, after the fork, in the helper's."""
    rows = obj._rows
    method = getattr(rows, name)
    setattr(rows, name, lambda x, *args: fn(method, x, *args))
    return obj


def _patient(obj, seconds=2e-4):
    """``obj`` with a momentum test that sleeps ``seconds`` first in this
    process: each lent step then waits long enough for the helper's result,
    however small the instance."""
    home = os.getpid()

    def covers(method, x, p):
        if os.getpid() == home:
            time.sleep(seconds)
        return method(x, p)

    return _wrap(obj, "covers", covers)


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _split_states():
    """Seeded (family, alg2 state, h) on each matrix family with its rows
    split: random states with zeros and momentum of every scale, then the
    states along an alg2 run."""
    rng = Rng(101)
    for family, sizes in _OVERLAP_SIZES.items():
        prob = _split(family, **sizes)
        obj = prob.objective
        n = obj.dim
        for _ in range(100):
            x = np.where(rng.uniforms(n) < 0.6, 0.0, rng.gaussians(n, 0.0, 2.0))
            p = np.where(rng.uniforms(n) < 0.3, 0.0,
                         rng.gaussians(n, 0.0, 10.0 ** rng.uniform(-3.0, 1.0)))
            h = rng.uniform(0.1, 2.0) / obj.lipschitz_L
            yield family, SolverState(x=x, p=p, f_x=obj.value(x), grad=obj.smooth_grad(x)), h
        h = 1.0 / obj.lipschitz_L
        state = SolverState.initial(obj, prob.x0)
        for _ in range(150):
            yield family, state, h
            state = solvers._accelerated_step(obj, state, h)


class TestSupportRowTest:
    """alg2's momentum test on the rows R(q') alone keeps or falls back as
    the test on the whole gradient does (`_reference_accelerated_step`)."""

    @staticmethod
    def _assert_same(got, ref):
        for name in ("x", "p", "q", "grad"):
            assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name
        assert np.float64(got.f_x).tobytes() == np.float64(ref.f_x).tobytes()

    def test_the_step_keeps_or_falls_back_as_the_whole_test_does(self):
        seen = dict.fromkeys(("plain", "x' wins", "x'' wins", "flip", "accept", "reject"), 0)
        paths = set()
        for family, state, h in _split_states():
            obj = _split(family, **_OVERLAP_SIZES[family]).objective
            rows = obj._rows

            def covers(method, x, p):
                covered = method(x, p)
                paths.add(("covered" if covered else "not covered",
                           bool(np.count_nonzero((x == 0.0) & (p != 0.0)))))
                return covered

            _wrap(obj, "covers", covers)
            got = solvers._accelerated_step(obj, state, h)
            whole = dataclasses.replace(obj, grad_g=rows.grad)  # no split: the whole test
            ref = _reference_accelerated_step(whole, state, h, seen)
            self._assert_same(got, ref)
        assert all(seen[name] for name in ("flip", "accept", "reject")), seen
        # R(q') covers supp(p) on most steps; a flip that zeroes q' where p
        # stays nonzero, off R(q'), makes the step read the whole gradient
        assert {("covered", False), ("not covered", True)} <= paths, paths

    def test_a_non_finite_row_off_the_support_makes_the_step_fall_back(self):
        # at the q' of steps that keep their move, one row of grad_g(q') off
        # R(q') is NaN or inf: the whole test reads r = NaN and falls back,
        # and so must the step that read only R(q')
        planted = 0
        for family, state, h in _split_states():
            tested = set()

            def padded(method, x):
                tested.add(x.tobytes())
                return method(x)

            obj = _wrap(_split(family, **_OVERLAP_SIZES[family]).objective, "padded", padded)
            kept = solvers._accelerated_step(obj, state, h)
            target = kept.x.tobytes()
            rest = obj._rows._point(kept.x).blocks.rows[1].size
            if kept.x is kept.q or target not in tested or target == kept.q.tobytes() or not rest:
                continue
            value = (np.nan, np.inf)[planted % 2]

            def part(method, point, i):
                # the rows on T, as the step computes them itself
                rows = method(point, i)
                if i == 1 and point.x.tobytes() == target:
                    rows = rows.copy()
                    rows[planted % rest] = value
                return rows

            fresh = _wrap(_split(family, **_OVERLAP_SIZES[family]).objective, "_part", part)
            got = solvers._accelerated_step(fresh, state, h)
            whole = _wrap(_split(family, **_OVERLAP_SIZES[family]).objective, "_part", part)
            with np.errstate(invalid="ignore"):  # r is NaN
                ref = _reference_accelerated_step(
                    dataclasses.replace(whole, grad_g=whole._rows.grad), state, h,
                    dict.fromkeys(("plain", "x' wins", "x'' wins", "flip", "accept", "reject"), 0))
            assert got.x is got.q
            self._assert_same(got, ref)
            planted += 1
        assert planted >= 8


@pytest.fixture
def overlap(monkeypatch, workers):
    """Gate alg2's helper process: ``overlap(True)`` lets every walk of this
    process start one, whatever its size or the host's CPU count, and
    ``overlap(False)`` lets none. It starts as ``overlap(True)``."""
    workers(2)

    def gate(on):
        monkeypatch.setattr(_fork, "_OVERLAP_MIN_SIZE", 1 if on else 10**12)

    gate(True)
    return gate


def _spy(monkeypatch):
    """The set of what alg2's steps reach from here on: "crossing", "flip",
    "cycle", per step ("helper" or "serial", "kept" or "fell back"), and per
    fallback of a lent step ("taken", True) where the step took the helper's
    result, ("taken", False) where it computed f and grad_g at q itself."""
    seen = set()
    step, cross = solvers._accelerated_step, solvers._crossing_phase
    directional, period = solvers._directional_from_grad, solvers._Cycle.period
    take = _helper.Helper.take

    def spied_step(obj, state, h, helper=None):
        new = step(obj, state, h, helper)
        seen.add(("serial" if helper is None else "helper",
                  "fell back" if new.x is new.q else "kept"))
        return new

    def spied_cross(obj, x, sub, h):
        out = cross(obj, x, sub, h)
        if out[1] is not None:
            seen.add("crossing")
        return out

    def spied_directional(grad, q, qp, gamma, prod=None):
        if prod is None:  # the step computes q' * q again only after a flip
            seen.add("flip")
        return directional(grad, q, qp, gamma, prod)

    def spied_period(self, key):
        found = period(self, key)
        if found:
            seen.add("cycle")
        return found

    def spied_take(self):
        lent = take(self)
        seen.add(("taken", lent is not None))
        return lent

    monkeypatch.setattr(solvers, "_accelerated_step", spied_step)
    monkeypatch.setattr(solvers, "_crossing_phase", spied_cross)
    monkeypatch.setattr(solvers, "_directional_from_grad", spied_directional)
    monkeypatch.setattr(solvers._Cycle, "period", spied_period)
    monkeypatch.setattr(_helper.Helper, "take", spied_take)
    return seen


@pytest.fixture
def deadline():
    """Fail a test that runs longer than ``deadline(seconds)`` instead of letting it hang."""
    def expired(signum, frame):
        raise TimeoutError("the test ran past its deadline")

    previous = signal.signal(signal.SIGALRM, expired)
    yield signal.alarm
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


class TestOverlap:
    """alg2's helper process (`solvers._walk`) changes no byte and outlives no walk."""

    def test_run_bytes_do_not_depend_on_the_helper(self, overlap, monkeypatch):
        seen = _spy(monkeypatch)
        reached = set()
        for family, sizes in _OVERLAP_SIZES.items():
            prob = _split(family, **sizes)
            cfg = SolverConfig(method="alg2", max_iter=3000)
            traces = []
            for on in (True, False):
                overlap(on)
                seen.clear()
                traces.append(run(prob.objective, prob.x0, cfg))
                assert "cycle" in seen
                reached |= seen
            assert traces[0].f_values.tobytes() == traces[1].f_values.tobytes()
            assert traces[0].x_final.tobytes() == traces[1].x_final.tobytes()
        assert {"crossing", "flip", "cycle", ("helper", "kept"), ("helper", "fell back")} <= reached
        _no_children_left()

    @pytest.mark.parametrize("family", ["quadratic"])
    def test_steps_that_all_lend_the_helper_keep_their_bytes(self, family, monkeypatch):
        # step by step, the state with the helper, gradient included, is the
        # state without it
        seen = _spy(monkeypatch)
        prob = _split(family, **_OVERLAP_SIZES[family])
        obj = _patient(prob.objective)
        h = 1.0 / obj.lipschitz_L
        lent = alone = SolverState.initial(obj, prob.x0)
        helper = _helper.Helper(obj)
        try:
            for _ in range(300):
                lent = solvers._accelerated_step(obj, lent, h, helper)
                alone = solvers._accelerated_step(obj, alone, h)
                assert lent.key() + lent.grad.tobytes() == alone.key() + alone.grad.tobytes()
                assert lent.f_x.hex() == alone.f_x.hex()
        finally:
            helper.close()
        assert {"crossing", "flip", ("helper", "kept"), ("helper", "fell back"),
                ("taken", True)} <= seen
        _no_children_left()

    @pytest.mark.parametrize("family", ["quadratic"])
    def test_reference_value_bits_do_not_depend_on_the_helper(self, family, overlap,
                                                              monkeypatch):
        seen = _spy(monkeypatch)
        prob = _split(family, **_OVERLAP_SIZES[family])
        _patient(prob.objective)
        refs = []
        for on in (True, False):
            overlap(on)
            refs.append(bench.reference_optimum(prob))
            # the walk is left before its budget, with the helper started
            _no_children_left()
        assert {("helper", "kept"), ("helper", "fell back")} & seen
        assert refs[0].value.hex() == refs[1].value.hex()
        assert refs[0].certified == refs[1].certified

    def test_the_callers_numpy_error_state_holds_on_the_helper(self, monkeypatch, capfd):
        # every row the split computes overflows; the helper is forked under
        # one error state, and the steps run under another. Where they ignore
        # overflow, the helper's results count; where they warn, the helper
        # gives none, and each step warns as it does without the helper
        prob = _split("quadratic", **_OVERLAP_SIZES["quadratic"])

        def overflowing(method, x):
            np.float64(1e308) * 10.0
            return method(x)

        obj = _patient(_wrap(_wrap(prob.objective, "tail", overflowing), "padded", overflowing))
        h = 1.0 / obj.lipschitz_L
        with np.errstate(over="ignore"):
            start = SolverState.initial(obj, prob.x0)
        seen = _spy(monkeypatch)
        for forked, stepping in (("warn", "ignore"), ("ignore", "warn")):
            with np.errstate(over=forked):
                helper = _helper.Helper(obj)
            seen.clear()
            outcomes = []
            try:
                for lent in (helper, None):
                    state = start
                    with warnings.catch_warnings(record=True) as caught, \
                            np.errstate(over=stepping):
                        warnings.simplefilter("always")
                        for _ in range(100):
                            state = solvers._accelerated_step(obj, state, h, lent)
                    outcomes.append((state.key() + state.grad.tobytes(), len(caught)))
            finally:
                helper.close()
            assert outcomes[0] == outcomes[1]
            assert ("helper", "fell back") in seen
            assert (("taken", True) in seen) == (stepping == "ignore")
            assert (outcomes[0][1] > 0) == (stepping == "warn")
        assert capfd.readouterr() == ("", "")
        _no_children_left()

    @staticmethod
    def _lent_steps(prob, monkeypatch):
        """(fell back, q bytes, q' bytes) of each step of an alg2 run on the
        quadratic ``prob`` that lent the helper and, without it, computes the
        rows of grad_g off R(q) at its q exactly if the step fell back: a kept
        step whose q is the pinned point x' of its crossing phase, which that
        phase evaluates, is left out."""
        steps, points = [], []
        step, directional = solvers._accelerated_step, solvers._directional_from_grad

        def recorded(obj, state, h, helper=None):
            new = step(obj, state, h, helper)
            if helper is not None:
                steps.append((new.x is new.q, new.q.tobytes(), points[-1]))
            return new

        def seen_at(grad, q, qp, gamma, prod=None):
            points.append(qp.tobytes())
            return directional(grad, q, qp, gamma, prod)

        cfg = SolverConfig(method="alg2", max_iter=300)
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "_accelerated_step", recorded)
            patch.setattr(solvers, "_directional_from_grad", seen_at)
            run(prob.objective, prob.x0, cfg)
        serial = set()

        def computed(method, x, *args):
            serial.add(x.tobytes())
            return method(x, *args)

        # without the helper, the step computes those rows with `tail`
        fresh = _split("quadratic", **_OVERLAP_SIZES["quadratic"])
        with monkeypatch.context() as patch:
            patch.setattr(_fork, "_OVERLAP_MIN_SIZE", 10**12)
            run(_wrap(fresh.objective, "tail", computed), fresh.x0, cfg)
        return [step for step in steps if (step[1] in serial) == step[0]]

    @pytest.mark.parametrize("fell_back", [True, False])
    @pytest.mark.parametrize("event", ["divide", "warn"])
    def test_a_warning_at_q_is_given_as_without_the_helper(self, event, fell_back, overlap,
                                                           monkeypatch, capfd):
        # the rows off R(q) divide by zero, under an error state that warns on
        # division, or call warnings.warn, at the q of every lent step that
        # then fell back, or kept q': the serial step warns at such fallbacks,
        # and never computes them at the q of a kept step; the helper, in time
        # to answer, must not
        prob = _split("quadratic", **_OVERLAP_SIZES["quadratic"])
        targets = {q for back, q, _ in self._lent_steps(prob, monkeypatch) if back == fell_back}
        assert targets

        def tail(method, x):
            if x.tobytes() in targets:
                if event == "divide":
                    np.float64(1.0) / 0.0
                else:
                    warnings.warn("grad_g warns at this point", RuntimeWarning)
            return method(x)

        outcomes = []
        for on in (True, False):
            overlap(on)
            obj = _patient(_wrap(_split("quadratic", **_OVERLAP_SIZES["quadratic"]).objective, "tail", tail))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with np.errstate(divide="warn"):
                    trace = run(obj, prob.x0, SolverConfig(method="alg2", max_iter=300))
            outcomes.append((trace.f_values.tobytes(), [str(w.message) for w in caught]))
            _no_children_left()
        assert outcomes[0] == outcomes[1]
        assert bool(outcomes[0][1]) == fell_back
        assert capfd.readouterr() == ("", "")

    def test_no_process_outlives_a_run_that_fails(self, overlap, monkeypatch):
        # the rows of grad_g off R(x') are NaN at the pinned point x' of the
        # last crossing step, after the helper has answered lent steps: the
        # completed point x'' is not finite, and the step fails there, as
        # without the helper (a NaN row at a q the helper computes makes f(q)
        # NaN too, and the run ends with inf instead of an error)
        prob = _split("quadratic", **_OVERLAP_SIZES["quadratic"])
        pinned, cross = [], solvers._crossing_phase

        def crossing(obj, x, sub, h):
            out = cross(obj, x, sub, h)
            if out[1] is not None:
                pinned.append(np.where(out[1], 0.0, x).tobytes())
            return out

        with monkeypatch.context() as patch:
            patch.setattr(solvers, "_crossing_phase", crossing)
            run(prob.objective, prob.x0, SolverConfig(method="alg2", max_iter=300))
        target = pinned[-1]

        def tail(method, x):
            out = method(x)
            return np.full_like(out, np.nan) if x.tobytes() == target else out

        seen = _spy(monkeypatch)
        errors = []
        for on in (True, False):
            overlap(on)
            obj = _split("quadratic", **_OVERLAP_SIZES["quadratic"]).objective
            obj = _patient(_wrap(obj, "tail", tail))
            with pytest.raises(SolverError, match="^alg2 failed at iteration .* point x''$") as failed:
                run(obj, prob.x0, SolverConfig(method="alg2", max_iter=300))
            errors.append(str(failed.value))
            _no_children_left()
        assert errors[0] == errors[1]
        assert ("taken", True) in seen

    @pytest.mark.parametrize("at, fell_back", [("q", True), ("q", False), ("q'", True)])
    def test_an_oracle_error_is_raised_as_without_the_helper(self, at, fell_back, overlap,
                                                             monkeypatch):
        # the split fails on the rows off R(q) at the q (in the helper), or on
        # any rows at the q' (in this process, for the momentum test), of the
        # first step that lent the helper and then fell back, or kept q'
        prob = _split("quadratic", **_OVERLAP_SIZES["quadratic"])
        steps = self._lent_steps(prob, monkeypatch)
        _, q, q_prime = next(step for step in steps if step[0] == fell_back)
        target = q if at == "q" else q_prime
        outcomes = []
        for on in (True, False):
            overlap(on)

            def refuse(method, x):
                if x.tobytes() == target:
                    raise ArithmeticError("grad_g refuses this point")
                return method(x)

            obj = _wrap(_split("quadratic", **_OVERLAP_SIZES["quadratic"]).objective, "tail", refuse)
            obj = _patient(obj if at == "q" else _wrap(obj, "padded", refuse))
            try:
                trace = run(obj, prob.x0, SolverConfig(method="alg2", max_iter=300))
                outcomes.append((trace.f_values.tobytes(), trace.x_final.tobytes()))
            except ArithmeticError as exc:
                outcomes.append((type(exc), str(exc)))
            _no_children_left()
        # the step that kept q' never evaluates at q, with the helper or without
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0][0] is ArithmeticError) == (at == "q'" or fell_back)

    @pytest.mark.parametrize("how", [signal.SIGSTOP, signal.SIGKILL], ids=["stopped", "killed"])
    def test_a_helper_that_never_answers_leaves_the_serial_bytes(self, how, overlap, monkeypatch,
                                                                 deadline):
        # a stopped helper reads no request: each lent step waits no longer
        # than it has taken, and once the request pipe is full, not at all; a
        # killed one breaks the pipe, and no step waits
        seen = _spy(monkeypatch)
        started = _helper.Helper.__init__

        def stopped(self, obj):
            started(self, obj)
            os.kill(self._pid, how)

        prob = _split("quadratic", **_OVERLAP_SIZES["quadratic"])
        obj = prob.objective
        h = 1.0 / obj.lipschitz_L
        deadline(60)
        monkeypatch.setattr(_helper.Helper, "__init__", stopped)
        cfg = SolverConfig(method="alg2", max_iter=3000)
        traces = []
        for on in (True, False):
            overlap(on)
            traces.append(run(obj, prob.x0, cfg))
            _no_children_left()
        assert traces[0].f_values.tobytes() == traces[1].f_values.tobytes()
        assert traces[0].x_final.tobytes() == traces[1].x_final.tobytes()
        assert ("helper", "fell back") in seen and ("taken", True) not in seen
        # more requests than the pipe holds
        lent = alone = SolverState.initial(obj, prob.x0)
        helper = _helper.Helper(obj)
        try:
            for _ in range(4000):
                lent = solvers._accelerated_step(obj, lent, h, helper)
            for _ in range(4000):
                alone = solvers._accelerated_step(obj, alone, h)
        finally:
            helper.close()
        assert lent.key() + lent.grad.tobytes() == alone.key() + alone.grad.tobytes()
        _no_children_left()

    def test_a_helper_that_blocked_wakes_for_the_next_request(self):
        # after polling for `_SPIN_S` the helper blocks on its pipe; a request
        # wakes it, and `take` waits as long again as it has been posted
        obj = _split("quadratic", **_OVERLAP_SIZES["quadratic"]).objective
        helper = _helper.Helper(obj)
        try:
            for x in (Rng(seed).gaussians(obj.dim) for seed in range(3)):
                x[::2] = 0.0  # half nonzero: the helper's rows are those off R(x)
                time.sleep(5 * _helper._SPIN_S)
                helper.post(x)
                time.sleep(0.05)
                rows = helper.take()
                assert 0 < rows.size < obj.dim
                assert rows.tobytes() == obj._rows.tail(x).tobytes()
                dense = -np.abs(x) - 1.0  # no zero: every row is the helper's
                helper.post(dense)
                time.sleep(0.05)
                rows = helper.take()
                assert rows.size == obj.dim
                assert rows.tobytes() == obj._rows.tail(dense).tobytes()
        finally:
            helper.close()
        _no_children_left()

    def test_a_result_for_an_older_request_is_dropped(self):
        # a kept step leaves its request's result unread; the next step takes
        # only its own, or none
        obj = _split("quadratic", **_OVERLAP_SIZES["quadratic"]).objective
        old, new = (Rng(seed).gaussians(obj.dim) for seed in (7, 8))
        old[1::2] = 0.0
        new[::2] = 0.0
        helper = _helper.Helper(obj)
        try:
            helper.post(old)
            time.sleep(0.05)  # the helper has answered it
            helper.post(new)
            lent = helper.take()
        finally:
            helper.close()
        if lent is not None:
            assert lent.tobytes() == obj._rows.tail(new).tobytes()
        _no_children_left()

    def test_no_process_outlives_an_interrupted_run(self, overlap):
        home, calls = os.getpid(), {"n": 0}

        def padded(method, x):
            if os.getpid() == home:
                calls["n"] += 1
                if calls["n"] == 20:
                    raise KeyboardInterrupt
            return method(x)

        prob = _split("quadratic", **_OVERLAP_SIZES["quadratic"])
        obj = _wrap(prob.objective, "padded", padded)
        with pytest.raises(KeyboardInterrupt):
            run(obj, prob.x0, SolverConfig(method="alg2", max_iter=300))
        assert calls["n"] == 20
        _no_children_left()

    def test_an_interrupt_sent_to_the_helper_leaves_it_serving(self, overlap, capfd):
        # Ctrl-C signals the whole process group: the walk's process handles
        # it, and the helper, which prints nothing, keeps serving until closed
        obj = _split("quadratic", **_OVERLAP_SIZES["quadratic"]).objective
        x = Rng(9).gaussians(obj.dim)
        x[::3] = 0.0
        helper = _fork.helper_for(obj)
        try:
            for _ in range(2):  # while the helper starts, then while it waits
                os.kill(helper._pid, signal.SIGINT)
                time.sleep(0.05)
            helper.post(x)
            time.sleep(0.05)
            lent = helper.take()
        finally:
            helper.close()
        assert lent is not None and lent.tobytes() == obj._rows.tail(x).tobytes()
        assert capfd.readouterr() == ("", "")
        _no_children_left()

    def test_a_helper_ends_at_the_end_of_its_pipe(self, capfd, deadline):
        # as when the walk's process is killed: nothing is left running or printed
        obj = _split("quadratic", **_OVERLAP_SIZES["quadratic"]).objective
        deadline(60)
        helper = _helper.Helper(obj)
        os.close(helper._requests)
        os.close(helper._results)
        _, status = os.waitpid(helper._pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert capfd.readouterr() == ("", "")
        _no_children_left()

    def test_forked_workers_start_no_helper(self, overlap, monkeypatch):
        def refuse(*args):
            raise AssertionError(f"a helper process started from process {os.getpid()}")

        monkeypatch.setattr(_helper, "Helper", refuse)
        monkeypatch.setattr(problems, "_BLOCK_MIN_SIZE", 1)
        cfg = ExperimentConfig("quadratic", trials=2, solvers=("alg2",), max_iter=50, n=30)
        run_experiment(cfg)
        # one trial runs in this process, which starts one
        with pytest.raises(AssertionError, match="^a helper process started from process"):
            run_experiment(dataclasses.replace(cfg, trials=1))

    @pytest.mark.parametrize("family", ["lasso", "logistic", "logsumexp"])
    def test_a_family_with_m_x_is_lent_no_helper(self, family, overlap, monkeypatch):
        # their steps compute every row of grad_g themselves: with 2 CPUs and
        # the gate open, an alg2 run forks no process
        def refuse():
            raise AssertionError("a process was forked")

        prob = _split(family, **_OVERLAP_SIZES[family])
        monkeypatch.setattr(os, "fork", refuse)
        run(prob.objective, prob.x0, SolverConfig(method="alg2", max_iter=300))

    def test_one_cpu_forks_neither_a_worker_nor_a_helper(self, overlap, workers, monkeypatch):
        def refuse():
            raise AssertionError("a process was forked")

        monkeypatch.setattr(problems, "_BLOCK_MIN_SIZE", 1)
        cfg = ExperimentConfig("quadratic", trials=2, solvers=("alg2",), max_iter=50, n=30)
        expected = run_experiment(cfg)
        monkeypatch.setattr(os, "fork", refuse)
        workers(1)
        got = run_experiment(cfg)
        assert [t.traces["alg2"].f_values.tobytes() for t in got.raw] == \
            [t.traces["alg2"].f_values.tobytes() for t in expected.raw]

    def test_a_custom_objective_runs_on_the_calling_thread_alone(self, overlap, monkeypatch):
        # a one-slot memo that keeps the point and its product in two
        # variables is the user's own; the walk lends the helper to built-in
        # matrix families only, so such oracles run in this process and
        # thread, one call at a time, at the points the method reads
        prob = _split("quadratic", **_OVERLAP_SIZES["quadratic"])
        b = prob.data["offset"]
        rows = _rowsplit.QuadraticSplit(prob.data["matrix"], b)
        threads, last_x, last_y = [], None, None

        def product(x):
            nonlocal last_x, last_y
            threads.append(threading.get_ident())
            if last_x is None or last_x.tobytes() != x.tobytes():
                last_x = x.copy()
                last_y = rows.mx(x)
            return last_y

        custom = CompositeObjective(
            eval_g=lambda x: 0.5 * float(x @ product(x)) + float(b @ x),
            grad_g=lambda x: product(x) + b, gamma=prob.objective.gamma,
            lipschitz_L=prob.objective.lipschitz_L, dim=30,
        )
        cfg = SolverConfig(method="alg2", max_iter=1000)
        seen = _spy(monkeypatch)
        builtin = run(prob.objective, prob.x0, cfg)
        assert ("helper", "fell back") in seen
        seen.clear()
        started = []
        monkeypatch.setattr(_helper, "Helper", lambda obj: started.append(obj))
        for obj in (custom, dataclasses.replace(prob.objective, eval_g=custom.eval_g)):
            trace = run(obj, prob.x0, cfg)
            assert trace.f_values.tobytes() == builtin.f_values.tobytes()
            assert trace.x_final.tobytes() == builtin.x_final.tobytes()
        assert {lent for lent, _ in seen - {"crossing", "flip", "cycle"}} == {"serial"}
        assert started == []
        assert set(threads) == {threading.get_ident()}
        _no_children_left()

    @pytest.mark.parametrize("pinned", [False, True], ids=["blas-threaded", "blas-pinned"])
    def test_a_helper_is_lent_only_where_blas_is_pinned(self, pinned, cli):
        # a program that imports numpy before l1subgrad keeps its BLAS thread
        # settings; where they are not one thread, the BLAS threads would
        # compete with the helper for the CPUs, so the walk runs serially
        if pinned and _fork.usable_cpus() < 2:
            pytest.skip("a helper needs 2 or more CPUs")
        script = """if True:
            import numpy
            import l1subgrad._helper as _helper
            from l1subgrad.numerics import Rng
            from l1subgrad.problems import make_quadratic
            from l1subgrad.solvers import SolverConfig, run

            started = []

            def recorder(obj):
                started.append(obj)
                raise OSError("recorded")  # the walk goes on without a helper

            _helper.Helper = recorder
            prob = make_quadratic(700, Rng(0))  # at the gate, 490 000 elements
            run(prob.objective, prob.x0, SolverConfig(method="alg2", max_iter=5))
            print(len(started))
        """
        blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        proc = cli(program=("-c", script), env=dict.fromkeys(blas, "1" if pinned else None))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ("1\n" if pinned else "0\n")


class TestUsableCpus:
    @pytest.fixture
    def cgroup(self, tmp_path, monkeypatch):
        """Write a fake /proc/self/cgroup and cgroup tree under ``tmp_path``:
        ``cgroup(line, {relative path: text})``. The process's affinity mask
        holds 4 CPUs."""
        monkeypatch.setattr(_fork, "_ROOT", tmp_path)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})

        def write(line, files):
            for name, text in {"proc/self/cgroup": line + "\n", **files}.items():
                (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
                (tmp_path / name).write_text(text)

        return write

    @pytest.mark.parametrize("cpu_max, count", [
        ("200000 100000", 2), ("150000 100000", 2), ("50000 100000", 1),
        ("max 100000", 4), ("garbage", 4), ("500000 100000", 4),
    ])
    def test_a_v2_quota_caps_the_affinity_mask(self, cgroup, cpu_max, count):
        cgroup("0::/box", {"sys/fs/cgroup/box/cpu.max": cpu_max + "\n"})
        assert _fork.usable_cpus() == count

    @pytest.mark.parametrize("quota, count", [("200000", 2), ("150000", 2), ("-1", 4)])
    def test_a_v1_quota_caps_the_affinity_mask(self, cgroup, quota, count):
        base = "sys/fs/cgroup/cpu,cpuacct/box/"
        cgroup("5:memory:/box\n4:cpu,cpuacct:/box", {
            base + "cpu.cfs_quota_us": quota + "\n", base + "cpu.cfs_period_us": "100000\n",
        })
        assert _fork.usable_cpus() == count

    def test_a_container_s_own_cgroup_at_the_mount_root_is_read(self, cgroup):
        cgroup("0::/host/path/of/the/container", {"sys/fs/cgroup/cpu.max": "100000 100000"})
        assert _fork.usable_cpus() == 1

    @pytest.mark.parametrize("leaf, parent, count", [
        (None, "100000 100000", 1), ("max 100000", "150000 100000", 2),
        ("300000 100000", "100000 100000", 1), ("100000 100000", "300000 100000", 1),
        ("garbage", "200000 100000", 2),
    ], ids=["parent only", "unlimited leaf", "parent less", "leaf less", "unparsable leaf"])
    def test_the_least_quota_above_the_cgroup_caps_the_mask(self, cgroup, leaf, parent, count):
        files = {"sys/fs/cgroup/slice/cpu.max": parent + "\n", "sys/fs/cgroup/cpu.max": "max\n"}
        if leaf is not None:
            files["sys/fs/cgroup/slice/box/cpu.max"] = leaf + "\n"
        cgroup("0::/slice/box", files)
        assert _fork.usable_cpus() == count

    def test_a_v1_quota_above_the_cgroup_caps_the_mask(self, cgroup):
        leaf, parent = "sys/fs/cgroup/cpu/slice/box/", "sys/fs/cgroup/cpu/slice/"
        cgroup("4:cpu:/slice/box", {
            leaf + "cpu.cfs_quota_us": "-1\n", leaf + "cpu.cfs_period_us": "100000\n",
            parent + "cpu.cfs_quota_us": "150000\n", parent + "cpu.cfs_period_us": "100000\n",
        })
        assert _fork.usable_cpus() == 2

    @pytest.mark.parametrize("line, files", [
        ("0::/box", {}),
        ("4:cpu:/box", {"sys/fs/cgroup/cpu/box/cpu.cfs_quota_us": "100000"}),
        ("not a cgroup line", {}),
    ], ids=["no cpu.max", "no period", "unparsable"])
    def test_a_missing_or_unreadable_quota_is_no_cap(self, cgroup, line, files):
        cgroup(line, files)
        assert _fork.usable_cpus() == 4

    def test_no_proc_file_is_no_cap(self, cgroup):
        assert _fork.usable_cpus() == 4
