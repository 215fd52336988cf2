import math
import os
import pickle
import signal
import time
import tracemalloc
from dataclasses import astuple, dataclass, replace

import numpy as np
import pytest

import l1subgrad._fork as _fork
import l1subgrad.bench as bench
import l1subgrad.solvers as solvers
from l1subgrad.bench import (
    EXPERIMENTS,
    ExperimentConfig,
    ExperimentError,
    ReferenceOptimum,
    build_problem,
    reference_optimum,
    run_experiment,
    write_experiment_csv,
    write_trace_csv,
)
from l1subgrad.numerics import Rng
from l1subgrad.objective import CompositeObjective, _min_norm_from_grad
from l1subgrad.problems import ProblemInstance, make_lasso, make_quadratic
from l1subgrad.solvers import (
    SolverConfig,
    SolverError,
    SolverState,
    _accelerated_step,
    _Cycle,
    run,
)


@dataclass(frozen=True)
class _LabelledReference(ReferenceOptimum):
    """A reference that names the problem it was computed for."""

    label: str = ""


# the sizes and weights a config fills for each family; the others stay None
_DEFAULT_SIZES = {
    "quadratic": {"n": 1000},
    "lasso": {"m": 500, "n": 1000},
    "logistic": {"m": 500, "n": 100},
    "logsumexp": {"k": 500, "n": 200, "r": 5.0},
    "toy2d": {"gamma": 1.0},
    "toy2d-perturbed": {},
}


class TestReferenceOptimum:
    def test_analytic_value_passes_through(self):
        ref = reference_optimum(build_problem("toy2d", seed=0))
        assert ref == ReferenceOptimum(value=-0.5, certified=True)

    def test_strongly_convex_certifies(self):
        ref = reference_optimum(make_quadratic(50, Rng(1)))
        assert ref.certified

    def test_unpenalized_quadratic_matches_dense_solve(self):
        prob = make_quadratic(8, Rng(2), gamma=0.0)
        m, b = prob.data["matrix"], prob.data["offset"]
        expected = -0.5 * float(b @ np.linalg.solve(m, b))
        ref = reference_optimum(prob)
        assert ref.certified
        assert ref.value == pytest.approx(expected, abs=1e-9 * (1.0 + abs(expected)))

    def test_tiny_budget_reports_uncertified(self, monkeypatch):
        monkeypatch.setattr(bench, "REFERENCE_BUDGET", 3)
        ref = reference_optimum(make_lasso(20, 40, Rng(3)))
        assert not ref.certified

    def test_toy2d_without_analytic_value_reaches_minus_half(self):
        ref = reference_optimum(replace(build_problem("toy2d", seed=0), f_ref=None))
        assert ref.certified
        assert ref.value == pytest.approx(-0.5, abs=1e-12)

    @staticmethod
    def _count_steps(monkeypatch):
        calls = []
        real_step = solvers._accelerated_step

        def counted(*args):
            calls.append(None)
            return real_step(*args)

        monkeypatch.setattr(solvers, "_accelerated_step", counted)
        return calls

    def test_quadratic_certifies_within_a_few_hundred_alg2_steps(self, monkeypatch):
        calls = self._count_steps(monkeypatch)
        ref = reference_optimum(build_problem("quadratic", 2, n=200))
        assert ref.certified
        assert len(calls) <= 200

    def test_exact_cycle_stops_the_loop(self, monkeypatch):
        # no norm passes a zero tolerance, so only the cycle ends the loop
        # before its budget of 50000 steps
        monkeypatch.setattr(bench, "REFERENCE_TOL", 0.0)
        calls = self._count_steps(monkeypatch)
        ref = reference_optimum(make_lasso(20, 40, Rng(3)))
        assert len(calls) < 1000
        assert not ref.certified

    def test_grad_calls_match_a_plain_alg2_loop(self, monkeypatch):
        def counting(prob):
            calls = []
            grad_g = prob.objective.grad_g

            def counted(x):
                calls.append(None)
                return grad_g(x)

            obj = replace(prob.objective, grad_g=counted)
            return replace(prob, objective=obj), calls

        prob, ref_calls = counting(make_lasso(20, 40, Rng(4)))
        steps = self._count_steps(monkeypatch)
        assert reference_optimum(prob).certified
        prob, loop_calls = counting(make_lasso(20, 40, Rng(4)))
        obj = prob.objective
        state = SolverState.initial(obj, prob.x0)
        for _ in steps:
            state = _accelerated_step(obj, state, 1.0 / obj.lipschitz_L)
        # the reference reads the gradient each state carries, so it calls
        # grad_g as often as this loop does
        assert len(loop_calls) <= len(ref_calls) <= len(loop_calls) + 1


def _stepwise_reference(problem: ProblemInstance) -> tuple[ReferenceOptimum, int]:
    """The reference rule written out as its own loop: a `_Cycle` whose empty
    first key equals no state, so the start state is compared too; at each
    state the tolerance, the budget and the cycle are checked, then alg2
    steps. Returns the reference and the steps taken."""
    obj = problem.objective
    h = 1.0 / obj.lipschitz_L
    state = SolverState.initial(obj, problem.x0)
    best_f = state.f_x
    cycle = _Cycle(b"")
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(bench.REFERENCE_BUDGET + 1):
            sub_norm = float(np.linalg.norm(_min_norm_from_grad(state.grad, state.x, obj.gamma)))
            if (sub_norm < bench.REFERENCE_TOL or step == bench.REFERENCE_BUDGET
                    or cycle.period(state.key())):
                break
            state = _accelerated_step(obj, state, h)
            best_f = min(best_f, state.f_x)
    return ReferenceOptimum(value=best_f, certified=sub_norm < bench.REFERENCE_TOL), step


def _nan_at_start() -> ProblemInstance:
    # g(x) = |x|^2 / 2, whose value reads nan at the start point only
    def eval_g(x):
        return math.nan if x[0] == 3.0 else 0.5 * float(x @ x)

    obj = CompositeObjective(eval_g=eval_g, grad_g=lambda x: x.copy(), gamma=0.5,
                             lipschitz_L=1.0, dim=2, mu=1.0)
    return ProblemInstance(objective=obj, x0=np.array([3.0, -2.0]), label="nan-start")


class TestReferenceKeepsItsRule:
    """`reference_optimum` gives the value bits, the flag and the step count
    of the stepwise rule at each of its stops. The references that the
    byte comparisons of CLI output build all stop at the tolerance, so only
    this test reaches the cycle and the budget."""

    @pytest.mark.parametrize("case, patch, expected_stop", [
        ("quadratic", {}, "tolerance"),
        ("lasso", {"REFERENCE_TOL": 0.0}, "cycle"),
        ("lasso", {"REFERENCE_BUDGET": 3}, "budget"),
        ("fixed-point", {"REFERENCE_TOL": 0.0}, "cycle"),
        ("nan-start", {}, "tolerance"),
    ], ids=["quadratic-tolerance", "lasso-cycle", "lasso-budget", "fixed-point", "nan-start"])
    def test_same_value_flag_and_steps(self, case, patch, expected_stop, monkeypatch):
        for name, value in patch.items():
            monkeypatch.setattr(bench, name, value)
        problem = {
            "quadratic": lambda: make_quadratic(30, Rng(0)),
            "lasso": lambda: make_lasso(20, 40, Rng(3)),
            # 0 minimizes f when |grad_g(0)| <= gamma, so alg2 stays at its start
            "fixed-point": lambda: replace(make_quadratic(10, Rng(5), gamma=1e3), x0=np.zeros(10)),
            "nan-start": _nan_at_start,
        }[case]()
        expected, expected_steps = _stepwise_reference(problem)
        calls = TestReferenceOptimum._count_steps(monkeypatch)
        got = reference_optimum(problem)
        assert np.float64(got.value).tobytes() == np.float64(expected.value).tobytes()
        assert got.certified == expected.certified
        assert len(calls) == expected_steps
        stop = ("budget" if expected_steps == bench.REFERENCE_BUDGET
                else "tolerance" if expected.certified else "cycle")
        assert stop == expected_stop
        if case == "fixed-point":
            assert expected_steps == 1
        if case == "nan-start":
            assert math.isnan(expected.value)


class TestBuildProblem:
    def test_dimension_overrides(self):
        assert build_problem("quadratic", 0, n=30).objective.dim == 30
        assert build_problem("lasso", 0, m=12, n=18).objective.dim == 18
        assert build_problem("logistic", 0, m=40, n=9).objective.dim == 9
        assert build_problem("logsumexp", 0, k=25, n=11).objective.dim == 11

    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            build_problem("ridge", 0)

    def test_gamma_override_reaches_objective(self):
        assert build_problem("quadratic", 0, n=10, gamma=0.5).objective.gamma == 0.5


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="nope", trials=1)
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="toy2d", trials=0)

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_family_defaults(self, experiment):
        cfg = ExperimentConfig(experiment=experiment, trials=1)
        sizes = {name: getattr(cfg, name) for name in ("n", "m", "k", "r", "gamma")}
        assert sizes == {**dict.fromkeys(sizes), **_DEFAULT_SIZES[experiment]}
        if experiment.startswith("toy2d"):
            run_defaults = (("alg1", "ista", "classic"), 1.0, 1.0, 500)
        else:
            run_defaults = (("alg1", "alg2", "ista", "fista", "classic"), 10.0, 0.25, 2000)
        assert (cfg.solvers, cfg.classic_scale, cfg.classic_exponent, cfg.max_iter) == run_defaults
        # every solver runs with the family's schedule and max_iter
        solver_cfgs = ExperimentConfig(experiment=experiment, trials=1).solver_configs()
        assert [
            (sc.method, sc.step_h, sc.classic_step_scale, sc.classic_step_exponent, sc.max_iter)
            for sc in solver_cfgs
        ] == [(name, "auto", *run_defaults[1:]) for name in run_defaults[0]]
        # build_problem's own defaults and the config's sizes give the same instance
        implicit, explicit = build_problem(experiment, 3), build_problem(experiment, 3, **sizes)
        assert implicit.x0.tobytes() == explicit.x0.tobytes()
        f_implicit = implicit.objective.value(implicit.x0)
        assert f_implicit.hex() == explicit.objective.value(explicit.x0).hex()

    def test_explicit_values_survive_resolution(self):
        cfg = ExperimentConfig(
            experiment="toy2d", trials=2, solvers=("ista",), max_iter=7, classic_scale=3.0
        )
        assert cfg.solvers == ("ista",) and cfg.max_iter == 7 and cfg.classic_scale == 3.0
        # a resolved config makes the same config again
        assert replace(cfg) == cfg


class TestRunExperiment:
    def test_zero_iteration_rows(self, tmp_path):
        out = tmp_path / "z.csv"
        cfg = ExperimentConfig(
            experiment="toy2d", trials=1, max_iter=0, solvers=("alg1", "ista"), out=str(out)
        )
        curve = run_experiment(cfg)
        f0 = build_problem("toy2d", 0).objective.value(build_problem("toy2d", 0).x0)
        for name in ("alg1", "ista"):
            assert curve.mean_gaps[name].shape == (1,)
            assert curve.mean_gaps[name][0] == pytest.approx(f0 - (-0.5), abs=1e-15)
        agg = out.read_text().splitlines()
        assert agg[0] == "experiment,solver,iter,mean_gap,trials"
        assert len(agg) == 1 + 2  # one row per solver per iteration

    def test_outputs_byte_identical_across_reruns(self, tmp_path):
        paths = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.csv"
            cfg = ExperimentConfig(
                experiment="toy2d-perturbed", trials=5, base_seed=7, max_iter=30, out=str(out),
            )
            run_experiment(cfg)
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert (
            paths[0].with_suffix(".raw.csv").read_bytes()
            == paths[1].with_suffix(".raw.csv").read_bytes()
        )

    def test_metadata_sidecar_records_config(self, tmp_path):
        out = tmp_path / "m.csv"
        cfg = ExperimentConfig(
            experiment="toy2d", trials=2, max_iter=3, solvers=("alg1",), out=str(out)
        )
        run_experiment(cfg)
        meta = out.with_suffix(".meta.txt").read_text()
        assert "seed_policy=base_seed+trial_index" in meta
        assert "experiment=toy2d" in meta
        assert "trials=2" in meta
        assert "library_version=" in meta
        assert "\nr=None\n" in meta and "\ngamma=1.0\n" in meta  # the values the run used

    def test_mean_curves_non_increasing_at_auto_step(self):
        cfg = ExperimentConfig(
            experiment="quadratic", trials=3, n=20, max_iter=150,
            solvers=("alg1", "alg2", "ista"),
        )
        curve = run_experiment(cfg)
        for name in ("alg1", "alg2", "ista"):
            g = curve.mean_gaps[name]
            assert np.all(np.diff(g) <= 1e-9 * (1.0 + np.abs(g[:-1])))

    def test_certified_gaps_never_meaningfully_negative(self):
        cfg = ExperimentConfig(
            experiment="quadratic", trials=3, n=15, max_iter=200
        )
        curve = run_experiment(cfg)
        for res in curve.raw:
            assert res.ref.certified
            for trace in res.traces.values():
                assert np.min(trace.f_values - res.ref.value) >= -1e-9

    _DIP = ExperimentConfig("toy2d", trials=1, max_iter=5, solvers=("alg1",))

    @staticmethod
    def _reference_one_above(monkeypatch, certified):
        real_reference = bench.reference_optimum
        monkeypatch.setattr(bench, "reference_optimum", lambda problem: ReferenceOptimum(
            real_reference(problem).value + 1.0, certified=certified))

    def test_certified_reference_above_the_trace_fails_the_experiment(self, monkeypatch):
        self._reference_one_above(monkeypatch, certified=True)
        prob = build_problem("toy2d", 0)
        trace = run(prob.objective, prob.x0, self._DIP.solver_configs()[0])
        min_gap = np.min(trace.f_values - (prob.f_ref + 1.0))
        with pytest.raises(ExperimentError) as info:
            run_experiment(self._DIP)
        assert str(info.value) == (
            f"certified reference above trace values for 'toy2d' "
            f"(solver alg1, trial 0, min gap {min_gap:.3e})"
        )

    def test_uncertified_reference_above_the_trace_is_no_error(self, monkeypatch):
        # an uncertified reference bounds nothing, so a dip below it is kept
        self._reference_one_above(monkeypatch, certified=False)
        assert not run_experiment(self._DIP).raw[0].ref.certified

    def test_raw_csv_schema(self, tmp_path):
        out = tmp_path / "s.csv"
        cfg = ExperimentConfig(
            experiment="toy2d", trials=2, max_iter=4, solvers=("alg1", "classic"), out=str(out)
        )
        run_experiment(cfg)
        lines = out.with_suffix(".raw.csv").read_text().splitlines()
        assert lines[0] == "experiment,solver,trial,iter,f_value,gap,certified"
        assert len(lines) == 1 + 2 * 2 * 5  # solvers x trials x records
        first = lines[1].split(",")
        assert first[0] == "toy2d" and first[1] == "alg1" and first[2] == "0" and first[3] == "0"
        assert first[6] == "true"

    def test_every_reference_goes_through_reference_optimum(self, workers, monkeypatch):
        # each trial's reference names the problem the spy saw, wherever it ran
        real_reference = bench.reference_optimum
        monkeypatch.setattr(bench, "reference_optimum", lambda problem: _LabelledReference(
            *astuple(real_reference(problem)), label=problem.label))
        for count in (1, 2):
            workers(count)
            seen = []
            for experiment in ("toy2d", "toy2d-perturbed"):
                curve = run_experiment(ExperimentConfig(
                    experiment=experiment, trials=2, max_iter=2, solvers=("alg1",)))
                seen += [res.ref.label for res in curve.raw]
            assert seen == ["toy2d", "toy2d", "toy2d-perturbed", "toy2d-perturbed"], count

    def test_infinite_step_is_rejected(self):
        with pytest.raises(ValueError, match="finite positive"):
            run_experiment(ExperimentConfig("toy2d", 1, max_iter=3, step=float("inf")))

    @staticmethod
    def _failing_trials(monkeypatch, failing, log):
        """Route `bench.run` through a fake that raises on the toy2d-perturbed
        trials in ``failing``, known by their start points, and appends each
        trial it is called for to the file ``log``, from whichever process."""
        trial_of = {build_problem("toy2d-perturbed", t).x0.tobytes(): t for t in range(40)}
        real_run = bench.run

        def flaky(obj, x0, cfg):
            t = trial_of[x0.tobytes()]
            with open(log, "a") as f:
                f.write(f"{t}\n")
            if t in failing:
                raise SolverError("alg1 failed at iteration 2: synthetic failure")
            return real_run(obj, x0, cfg)

        monkeypatch.setattr(bench, "run", flaky)

    _FLAKY = ExperimentConfig(experiment="toy2d-perturbed", trials=40, max_iter=3,
                              solvers=("alg1",))

    def test_one_failing_trial_fails_the_experiment(self, workers, monkeypatch, caplog,
                                                    tmp_path):
        """A failing trial fails the run, which logs nothing, at 1 and 2
        workers; the worker that ran it (with one worker, the whole run) stops
        there, and every lower trial ran."""
        for count in (1, 2):
            workers(count)
            log = tmp_path / f"trials-{count}.txt"
            self._failing_trials(monkeypatch, {5}, log)
            with caplog.at_level("WARNING"), pytest.raises(
                SolverError, match="^trial 5: alg1 failed at iteration 2: synthetic failure$"
            ):
                run_experiment(self._FLAKY)
            assert not caplog.records
            ran = [int(t) for t in log.read_text().split()]
            assert [t for t in ran if t % count == 5 % count] == list(range(5 % count, 6, count))
            assert set(range(5)) <= set(ran)

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_the_lowest_failing_trial_is_reported(self, count, workers, monkeypatch, tmp_path):
        workers(count)
        self._failing_trials(monkeypatch, {5, 9}, tmp_path / "trials.txt")
        with pytest.raises(SolverError, match="^trial 5: "):
            run_experiment(self._FLAKY)


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkMap:
    """`_fork.fork_map` returns and raises as the loop it replaces, and leaves no process."""

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_results_in_item_order(self, count, workers):
        workers(count)
        assert _fork.fork_map(lambda i: i * i, range(7)) == [i * i for i in range(7)]
        _no_children_left()

    def test_the_test_process_forks_with_one_thread(self):
        # conftest imports l1subgrad before numpy, so OpenBLAS starts no thread
        # pool, not even for a product it would split (a fork stops the pool)
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("threads are counted in /proc/self/task")
        a = np.ones((300, 300))
        a @ a
        assert len(os.listdir("/proc/self/task")) == 1

    def test_items_are_dealt_round_robin(self, workers):
        workers(3)
        pids = [pid for _, pid in _fork.fork_map(lambda i: (i, os.getpid()), range(7))]
        assert os.getpid() not in pids
        assert [pids.index(pid) for pid in pids] == [0, 1, 2, 0, 1, 2, 0]

    def test_one_worker_or_one_item_forks_nothing(self, workers):
        workers(1)
        assert _fork.fork_map(lambda i: os.getpid(), range(3)) == [os.getpid()] * 3
        workers(4)
        assert _fork.fork_map(lambda i: os.getpid(), [0]) == [os.getpid()]

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_a_raising_item_raises_its_own_exception(self, count, workers):
        workers(count)

        def fail_at_three(i):
            if i == 3:
                raise ValueError(f"item {i} fails")
            return i

        with pytest.raises(ValueError, match="^item 3 fails$"):
            _fork.fork_map(fail_at_three, range(8))
        _no_children_left()

    def test_workers_still_busy_are_killed_when_an_item_raises(self, workers):
        workers(2)

        def slow_or_failing(i):
            if i == 0:
                raise ValueError("item 0 fails")
            time.sleep(60)

        start = time.monotonic()
        with pytest.raises(ValueError, match="^item 0 fails$"):
            _fork.fork_map(slow_or_failing, range(4))
        assert time.monotonic() - start < 30
        _no_children_left()

    def test_a_worker_killed_by_a_signal_is_an_experiment_error(self, workers):
        workers(2)

        def killed_at_three(i):
            if i == 3:
                os.kill(os.getpid(), signal.SIGKILL)
            return i

        with pytest.raises(
            ExperimentError, match=r"^the worker for item 3 ended without its result \(signal 9\)$"
        ):
            _fork.fork_map(killed_at_three, range(6))
        _no_children_left()

    def test_an_exception_that_cannot_be_pickled_is_an_experiment_error(self, workers):
        workers(2)

        def unpicklable(i):
            exc = SolverError(f"item {i} fails")
            exc.hook = lambda: None  # a lambda has no pickle
            raise exc

        with pytest.raises(ExperimentError, match=(
            r"^the worker for item 0 ended without its result \(exit status 1\)$"
        )):
            _fork.fork_map(unpicklable, range(4))
        _no_children_left()

    @pytest.mark.parametrize("error", [SolverError, ExperimentError, ValueError, MemoryError])
    def test_errors_the_cli_reports_come_back_with_their_text(self, error, workers):
        workers(2)

        def failing(i):
            if i == 2:
                raise error(f"item {i} fails")
            return i

        with pytest.raises(error) as info:
            _fork.fork_map(failing, range(4))
        assert type(info.value) is error and str(info.value) == "item 2 fails"
        _no_children_left()

    def test_an_interrupt_while_reading_kills_every_worker(self, workers, monkeypatch):
        # Ctrl-C reaches the parent while it waits for the second result
        workers(3)
        load, reads = pickle.load, []

        def interrupted(file):
            reads.append(file)
            if len(reads) == 2:
                raise KeyboardInterrupt
            return load(file)

        monkeypatch.setattr(pickle, "load", interrupted)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            _fork.fork_map(lambda i: time.sleep(60 * (i > 0)), range(6))
        assert time.monotonic() - start < 30
        _no_children_left()


class TestTraceCsv:
    def test_trace_csv_format(self, tmp_path):
        prob = build_problem("toy2d", 0)
        trace = run(prob.objective, prob.x0, SolverConfig(method="alg1", max_iter=3))
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace, "toy2d", trial=0, ref=ReferenceOptimum(prob.f_ref, True))
        lines = path.read_text().splitlines()
        assert lines[0] == "experiment,solver,trial,iter,f_value,gap,certified"
        assert len(lines) == 5
        assert lines[1].startswith("toy2d,alg1,0,0,")

    def test_trace_csv_blank_gap_without_reference(self, tmp_path):
        prob = build_problem("lasso", 0, m=6, n=8)
        trace = run(prob.objective, prob.x0, SolverConfig(method="ista", max_iter=2))
        path = tmp_path / "t.csv"
        write_trace_csv(path, trace, "lasso", trial=0, ref=None)
        row = path.read_text().splitlines()[1].split(",")
        assert row[5] == "" and row[6] == "false"

    def test_trace_csv_gap_and_flag_come_from_one_reference(self, tmp_path):
        prob = build_problem("toy2d", 0)
        trace = run(prob.objective, prob.x0, SolverConfig(method="ista", max_iter=2))
        path = tmp_path / "t.csv"
        write_trace_csv(path, trace, "toy2d", trial=0, ref=ReferenceOptimum(-0.25, False))
        for row, f in zip(path.read_text().splitlines()[1:], trace.f_values.tolist()):
            assert row.split(",")[5:] == [repr(f + 0.25), "false"]

    def test_float_text_is_repr_of_each_value(self):
        nan_payload = np.array([0x7FF8000000000123], dtype=np.int64).view(np.float64)[0]
        values = [0.0, -0.0, 1.5, 1.5, -0.0, np.nan, nan_payload, np.inf, -np.inf, 5e-324,
                  0.0, -5e-324, 0.1, 0.1 + 2e-17, np.inf, 1.5]
        # repeated tails; some follow a value equal to them, but not bit for bit
        tails = [[0.0, -0.0, -0.0], [-0.0, 0.0, 0.0], [np.nan, nan_payload, nan_payload],
                 [1.5, 1.5, 1.5], [5e-324], [-np.inf, np.inf, np.inf, np.inf]]
        for case in [values, values[:-1], *tails, *(values + tail for tail in tails)]:
            case = np.array(case)
            assert list(bench._fmt_each(case)) == list(map(repr, case.tolist()))

    def test_float_text_of_other_arrays_is_repr_of_each_value(self):
        # a hand-built trace may hold an empty or a non-float64 array
        for case in [np.array([]), np.array([0.5, 0.1, 0.1], dtype=np.float32),
                     np.array([2, 2, 3]), np.array([[0.5, 0.5]])]:
            assert list(bench._fmt_each(case)) == list(map(repr, case.tolist()))

    def test_parked_trace_rows_are_repr_of_each_value(self, tmp_path):
        prob = build_problem("toy2d", 0)
        trace = run(prob.objective, prob.x0, SolverConfig(method="alg1", max_iter=500))
        # the run parks, so most rows repeat the last value
        assert np.unique(trace.f_values).size < 100
        path = tmp_path / "parked.csv"
        write_trace_csv(path, trace, "toy2d", trial=3, ref=ReferenceOptimum(prob.f_ref, True))
        gaps = (trace.f_values - prob.f_ref).tolist()
        rows = [
            f"toy2d,alg1,3,{i},{f!r},{g!r},true"
            for i, (f, g) in enumerate(zip(trace.f_values.tolist(), gaps))
        ]
        header = "experiment,solver,trial,iter,f_value,gap,certified"
        assert path.read_text() == "\n".join([header, *rows]) + "\n"

    def test_lines_stream_in_pieces_with_the_joined_bytes(self, tmp_path):
        n = 2 * bench._LINES_PER_WRITE + 1
        lines = [f"row {i}" for i in range(n)]
        path = tmp_path / "a" / "lines.txt"
        bench._write_lines(path, (line for line in lines))
        assert path.read_text() == "\n".join(lines) + "\n"

    def test_experiment_csv_memory_does_not_grow_with_trials(self, tmp_path):
        peaks = []
        for trials in (1, 8):
            cfg = ExperimentConfig("toy2d", trials=trials, out=str(tmp_path / f"t{trials}.csv"))
            curve = run_experiment(replace(cfg, out=None))
            tracemalloc.start()
            try:
                write_experiment_csv(cfg, curve)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert len((tmp_path / "t8.raw.csv").read_text().splitlines()) == 1 + 8 * 3 * 501
        assert peaks[1] <= 1.5 * peaks[0]
