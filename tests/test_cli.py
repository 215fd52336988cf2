import json
import os
from pathlib import Path

import numpy as np
import pytest

import l1subgrad._fork as _fork
import l1subgrad.bench as bench
import l1subgrad.cli as cli_module
from l1subgrad.bench import ReferenceOptimum, build_problem
from l1subgrad.cli import main
from l1subgrad.solvers import SolverConfig, run


def _stdout_fields(text):
    fields = {}
    for line in text.splitlines():
        for token in line.split():
            if "=" in token:
                key, value = token.split("=", 1)
                fields[key] = value
    return fields


class TestSolve:
    def test_toy2d_converges(self, tmp_path, cli):
        out = tmp_path / "trace.csv"
        proc = cli(
            "solve", "--problem", "toy2d", "--solver", "alg1",
            "--iters", "200", "--seed", "1", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        fields = _stdout_fields(proc.stdout)
        assert abs(float(fields["final_gap"])) < 1e-8
        assert float(fields["final_subgrad_norm"]) < 1e-8
        lines = out.read_text().splitlines()
        assert lines[0] == "experiment,solver,trial,iter,f_value,gap,certified"
        assert len(lines) == 202

    def test_invalid_dimension_is_usage_error(self, cli):
        proc = cli("solve", "--problem", "quadratic", "--solver", "alg1", "--n", "0")
        assert proc.returncode == 2
        assert "n must be >= 1" in proc.stderr

    def test_unknown_flag_is_usage_error(self, tmp_path, cli):
        for flag in (("--frobnicate", "3"), ("--dump-instance", "F")):
            proc = cli("solve", "--problem", "toy2d", "--solver", "alg1", *flag)
            assert proc.returncode == 2
        config = tmp_path / "run.cfg"
        config.write_text("iters=3\n")
        proc = cli("solve", "--problem", "toy2d", "--solver", "alg1", "--config", str(config))
        assert proc.returncode == 2
        assert "unrecognized arguments: --config" in proc.stderr

    def test_missing_required_flags(self, cli):
        assert cli("solve", "--problem", "toy2d").returncode == 2

    def test_repeat_invocation_is_byte_identical(self, tmp_path, cli):
        args = (
            "solve", "--problem", "quadratic", "--n", "15", "--solver", "alg2",
            "--iters", "50", "--seed", "3",
        )
        a = cli(*args, "--out", str(tmp_path / "a.csv"))
        b = cli(*args, "--out", str(tmp_path / "b.csv"))
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores")
    def test_bytes_do_not_depend_on_blas_threads(self, tmp_path, cli):
        # n=300 is large enough for a threaded BLAS to split the products
        args = ("solve", "--problem", "quadratic", "--solver", "ista", "--n", "300",
                "--iters", "1", "--seed", "0")
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.csv"
            env = {var: threads for var in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
            proc = cli(*args, "--out", str(out), env=env)
            assert proc.returncode == 0, proc.stderr
            outputs.append((proc.stdout, out.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_explicit_step_accepted(self, cli):
        proc = cli(
            "solve", "--problem", "toy2d", "--solver", "ista", "--iters", "5", "--step", "0.1"
        )
        assert proc.returncode == 0

    @pytest.mark.parametrize("solver", ["ista", "fista"])
    def test_divergence_is_a_numerical_failure(self, solver, cli):
        # step 0.05 is about 5/L on this instance
        problem = build_problem("quadratic", 0, n=50)
        trace = run(problem.objective, problem.x0,
                    SolverConfig(method=solver, max_iter=500, step_h=0.05))
        first_bad = int(np.flatnonzero(~np.isfinite(trace.f_values))[0])
        proc = cli(
            "solve", "--problem", "quadratic", "--n", "50", "--solver", solver, "--step", "0.05"
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (
            f"error: {solver} diverged: first non-finite value at iteration {first_bad}\n"
        )

    def test_bad_step_rejected(self, cli):
        proc = cli(
            "solve", "--problem", "toy2d", "--solver", "ista", "--iters", "5", "--step", "-1"
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "flag, value", [("--gamma", "nan"), ("--gamma", "inf"), ("--step", "inf"), ("--step", "nan")]
    )
    def test_non_finite_input_is_usage_error(self, flag, value, cli):
        proc = cli(
            "solve", "--problem", "quadratic", "--n", "5", "--solver", "alg1", "--iters", "3",
            flag, value,
        )
        assert proc.returncode == 2
        assert "must be finite" in proc.stderr

    def test_out_creates_missing_directories(self, tmp_path, capsys):
        out = tmp_path / "x" / "y" / "t.csv"
        assert main([
            "solve", "--problem", "toy2d", "--solver", "alg1", "--iters", "3", "--out", str(out),
        ]) == 0
        capsys.readouterr()
        assert len(out.read_text().splitlines()) == 5

    # step 0.05 makes ista diverge on this instance, after the --out check
    _DIVERGING = ("solve", "--problem", "quadratic", "--n", "50", "--solver", "ista",
                  "--step", "0.05")

    def test_failed_run_leaves_no_directories(self, tmp_path, capsys):
        assert main([*self._DIVERGING, "--out", str(tmp_path / "t2" / "x" / "y" / "t.csv")]) == 1
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == []

    def test_parent_step_in_out_leaves_nothing_behind(self, tmp_path, capsys):
        out = tmp_path / "q" / "r" / ".." / "d.csv"
        assert main([*self._DIVERGING, "--out", str(out)]) == 1
        assert list(tmp_path.iterdir()) == []
        # a run that writes creates the resolved path's directory alone
        assert main([
            "solve", "--problem", "toy2d", "--solver", "alg1", "--iters", "3", "--out", str(out),
        ]) == 0
        capsys.readouterr()
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
            "q", "q/d.csv"
        ]

    def test_unwritable_out_is_usage_error(self, tmp_path, cli):
        proc = cli(
            "solve", "--problem", "toy2d", "--solver", "alg1", "--iters", "3", "--out", str(tmp_path)
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    def test_unwritable_out_is_rejected_before_the_problem_is_built(
        self, tmp_path, monkeypatch, capsys
    ):
        import l1subgrad.cli as cli_module

        calls = []
        monkeypatch.setattr(cli_module, "build_problem", lambda *a, **kw: calls.append(a))
        assert main([
            "solve", "--problem", "quadratic", "--solver", "alg2", "--n", "1000",
            "--iters", "3000", "--out", str(tmp_path),
        ]) == 2
        out, err = capsys.readouterr()
        assert calls == []
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


class TestBench:
    @pytest.mark.parametrize("solver", ["alg1", "classic"])
    def test_single_trial_matches_solve(self, solver, tmp_path, capsys):
        solve_out = tmp_path / "solve.csv"
        assert main([
            "solve", "--problem", "toy2d", "--solver", solver,
            "--iters", "20", "--seed", "0", "--out", str(solve_out),
        ]) == 0
        bench_out = tmp_path / "bench.csv"
        assert main([
            "bench", "--experiment", "toy2d", "--trials", "1", "--iters", "20",
            "--seed", "0", "--solvers", f"{solver},ista", "--out", str(bench_out),
        ]) == 0
        capsys.readouterr()
        solve_lines = solve_out.read_text().splitlines()
        bench_lines = bench_out.with_suffix(".raw.csv").read_text().splitlines()
        assert solve_lines[0] == bench_lines[0]
        assert solve_lines[1:] == [line for line in bench_lines if line.split(",")[1] == solver]
        # both apply toy2d's classic schedule: scale 1, exponent 1
        prob = build_problem("toy2d", 0)
        expected = run(prob.objective, prob.x0, SolverConfig(
            method=solver, max_iter=20, classic_step_scale=1.0, classic_step_exponent=1.0,
        ))
        assert [line.split(",")[4] for line in solve_lines[1:]] == [
            repr(f) for f in expected.f_values.tolist()
        ]

    def test_deterministic_aggregate(self, tmp_path, cli):
        args = (
            "bench", "--experiment", "toy2d-perturbed", "--trials", "5", "--iters", "25",
            "--seed", "7",
        )
        a = cli(*args, "--out", str(tmp_path / "a.csv"))
        b = cli(*args, "--out", str(tmp_path / "b.csv"))
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_summary_lists_final_mean_gaps(self, capsys):
        assert main([
            "bench", "--experiment", "toy2d", "--trials", "1", "--iters", "10",
            "--solvers", "alg1,classic",
        ]) == 0
        out = capsys.readouterr().out
        assert "solver final_mean_gap" in out
        assert any(line.startswith("alg1 ") for line in out.splitlines())
        assert any(line.startswith("classic ") for line in out.splitlines())

    def test_unknown_solver_rejected(self, cli):
        proc = cli("bench", "--experiment", "toy2d", "--trials", "1", "--solvers", "sgd")
        assert proc.returncode == 2

    def test_empty_solver_list_rejected(self, capsys):
        assert main([
            "bench", "--experiment", "toy2d", "--trials", "2", "--iters", "5", "--solvers", ",",
        ]) == 2
        assert "solvers must name at least one" in capsys.readouterr().err

    def test_unwritable_out_is_rejected_before_any_trial(self, tmp_path, monkeypatch, capsys):
        import l1subgrad.bench as bench

        calls = []
        monkeypatch.setattr(bench, "_run_trial", lambda *args: calls.append(args))
        assert main([
            "bench", "--experiment", "toy2d-perturbed", "--trials", "20", "--iters", "500",
            "--out", str(tmp_path),
        ]) == 2
        out, err = capsys.readouterr()
        assert calls == []
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    def test_failed_out_check_leaves_no_file(self, tmp_path, capsys):
        (tmp_path / "x.raw.csv").mkdir()
        assert main([
            "bench", "--experiment", "toy2d", "--trials", "1", "--iters", "5",
            "--out", str(tmp_path / "x.csv"),
        ]) == 2
        capsys.readouterr()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.raw.csv"]

    def test_failing_trial_exits_one_with_one_error_line(self, tmp_path, cli):
        # trial 5's solver raises, known by its start point, in whichever
        # worker runs it; in a fresh interpreter, so that a logged warning
        # would reach stderr as it does for a user
        program = ("-c", """if True:
            import sys
            import l1subgrad.bench as bench
            from l1subgrad.cli import main
            from l1subgrad.solvers import SolverError
            real_run = bench.run
            failing = bench.build_problem("toy2d-perturbed", 5).x0.tobytes()

            def flaky(obj, x0, cfg):
                if x0.tobytes() == failing:
                    raise SolverError("alg1 failed at iteration 2: synthetic failure")
                return real_run(obj, x0, cfg)

            bench.run = flaky
            sys.exit(main(sys.argv[1:]))
        """)
        proc = cli("bench", "--experiment", "toy2d-perturbed", "--trials", "40", "--iters", "3",
                   "--solvers", "alg1", "--out", str(tmp_path / "b.csv"), program=program)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: trial 5: alg1 failed at iteration 2: synthetic failure\n"
        assert list(tmp_path.iterdir()) == []

    def test_worker_killed_by_a_signal_exits_one_with_one_error_line(self, tmp_path, cli):
        program = ("-c", """if True:
            import os, signal, sys
            import l1subgrad._fork as _fork
            import l1subgrad.bench as bench
            from l1subgrad.cli import main
            real_run = bench.run
            failing = bench.build_problem("toy2d-perturbed", 5).x0.tobytes()

            def killed(obj, x0, cfg):
                if x0.tobytes() == failing:
                    os.kill(os.getpid(), signal.SIGKILL)
                return real_run(obj, x0, cfg)

            bench.run = killed
            _fork.usable_cpus = lambda: 2  # never this process, on a host with one CPU
            code = main(sys.argv[1:])
            try:
                os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                sys.exit(code)
            sys.exit(f"a worker was left behind, exit code {code}")
        """)
        proc = cli("bench", "--experiment", "toy2d-perturbed", "--trials", "8", "--iters", "3",
                   "--out", str(tmp_path / "b.csv"), program=program)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: the worker for item 5 ended without its result (signal 9)\n"
        assert list(tmp_path.iterdir()) == []

    def test_a_worker_that_cannot_be_forked_leaves_the_run_to_this_process(self, cli):
        # the second fork fails as where the process limit is reached: the
        # first worker is killed and reaped, and the trials run here
        program = ("-c", """if True:
            import errno, os, sys
            import l1subgrad._fork as _fork
            from l1subgrad.cli import main
            fork, forks = os.fork, []

            def failing():
                forks.append(None)
                if len(forks) == 2:
                    raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
                return fork()

            os.fork = failing
            _fork.usable_cpus = lambda: 2  # never this process, on a host with one CPU
            code = main(sys.argv[1:])
            try:
                os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                sys.exit(code if len(forks) == 2 else f"{len(forks)} forks")
            sys.exit(f"a worker was left behind, exit code {code}")
        """)
        argv = ("bench", "--experiment", "toy2d-perturbed", "--trials", "4", "--iters", "20")
        failed, forked = cli(*argv, program=program), cli(*argv)
        assert (failed.returncode, failed.stderr) == (0, "")
        assert failed.stdout == forked.stdout and forked.returncode == 0

    def test_alg2_bytes_do_not_depend_on_the_helper_process(self, cli, tmp_path):
        # n = 1000 lends alg2's steps a helper process where the process may
        # use 2 CPUs; pinned to one, as by `taskset -c 0`, it runs without one.
        # Either way the run starts no thread and leaves no child process.
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("the helper process needs a process that may use 2 CPUs")
        assert _fork._OVERLAP_MIN_SIZE <= 1000 * 1000
        program = ("-c", """if True:
            import os, sys, threading
            if sys.argv[1] == "pinned":
                os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            from l1subgrad.cli import main
            code = main(sys.argv[2:])
            try:
                os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                sys.exit(code if threading.active_count() == 1 else "a thread was left")
            sys.exit(f"a child process was left behind, exit code {code}")
            """)
        argv = ("solve", "--problem", "quadratic", "--solver", "alg2", "--n", "1000", "--iters",
                "300", "--out")
        pinned = cli("pinned", *argv, str(tmp_path / "pinned.csv"), program=program)
        free = cli("free", *argv, str(tmp_path / "free.csv"), program=program)
        assert (pinned.returncode, pinned.stdout, pinned.stderr) == (0, free.stdout, "")
        assert (free.returncode, free.stderr) == (0, "")
        assert (tmp_path / "pinned.csv").read_bytes() == (tmp_path / "free.csv").read_bytes()

    def test_bytes_do_not_depend_on_the_worker_count(self, workers, tmp_path, monkeypatch,
                                                     capsys):
        vectors = [
            ("bench", "--experiment", "toy2d-perturbed", "--trials", "20", "--iters", "100",
             "--out", "out.csv"),
            ("bench", "--experiment", "lasso", "--m", "20", "--n", "40", "--trials", "5",
             "--iters", "100", "--out", "out.csv"),
        ]
        outputs = {}
        for count in (1, 2, 3):
            workers(count)
            for v, argv in enumerate(vectors):
                run_dir = tmp_path / f"{count}-{v}"
                run_dir.mkdir()
                monkeypatch.chdir(run_dir)
                assert main(list(argv)) == 0
                files = {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())}
                outputs.setdefault(v, []).append((capsys.readouterr(), files))
        for runs in outputs.values():
            assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_uncertified_reference_shows_only_in_the_rows(self, tmp_path, cli):
        # in a fresh interpreter, so that a logged warning would reach stderr
        program = ("-c", """if True:
            import sys
            import l1subgrad.bench as bench
            from l1subgrad.cli import main
            bench.REFERENCE_BUDGET = 3
            sys.exit(main(sys.argv[1:]))
        """)
        proc = cli("bench", "--experiment", "lasso", "--trials", "2", "--m", "20", "--n", "40",
                   "--iters", "5", "--solvers", "alg1", "--out", str(tmp_path / "b.csv"),
                   program=program)
        assert proc.returncode == 0
        assert proc.stderr == ""
        rows = (tmp_path / "b.raw.csv").read_text().splitlines()[1:]
        assert len(rows) == 2 * 6 and all(row.endswith(",false") for row in rows)


_SOLVE_CLASSIC = ("solve", "--problem", "toy2d", "--solver", "classic", "--iters", "5")
_BENCH_TOY = ("bench", "--experiment", "toy2d", "--trials", "1", "--iters", "5")
_SOLVE_LOGSUMEXP = ("solve", "--problem", "logsumexp", "--solver", "alg1", "--iters", "3",
                    "--n", "4", "--k", "5")


@pytest.mark.parametrize("args, message", [
    (_SOLVE_CLASSIC + ("--classic-scale", "-1"), "must be finite and > 0"),
    (_SOLVE_CLASSIC + ("--classic-scale", "nan"), "must be finite and > 0"),
    (_SOLVE_CLASSIC + ("--classic-scale", "inf"), "must be finite and > 0"),
    (_SOLVE_CLASSIC + ("--classic-exponent", "nan"), "must be finite and >= 0"),
    (_SOLVE_CLASSIC + ("--classic-exponent", "-1"), "must be finite and >= 0"),
    (_BENCH_TOY + ("--classic-scale", "0"), "must be finite and > 0"),
    (_BENCH_TOY + ("--classic-exponent", "inf"), "must be finite and >= 0"),
    (_BENCH_TOY + ("--solvers", "alg1,alg1"), "must not repeat a name"),
    (_SOLVE_LOGSUMEXP + ("--r", "nan"), "smoothing r must be finite and > 0"),
    (_SOLVE_LOGSUMEXP + ("--r", "inf"), "smoothing r must be finite and > 0"),
    (("bench", "--experiment", "toy2d-perturbed", "--trials", "2", "--iters", "20",
      "--gamma", "5"), "toy2d-perturbed does not read --gamma"),
    (("solve", "--problem", "quadratic", "--solver", "alg1", "--iters", "3", "--m", "9"),
     "quadratic does not read --m"),
    (_SOLVE_CLASSIC + ("--n", "50"), "toy2d does not read --n"),
    (("solve", "--problem", "quadratic", "--solver", "alg1", "--iters", "3", "--n", "5",
      "--r", "7"), "quadratic does not read --r"),
    (_BENCH_TOY + ("--r", "7"), "toy2d does not read --r"),
    (("solve", "--problem", "quadratic", "--solver", "alg1", "--iters", "3", "--n", "5",
      "--r", "5"), "quadratic does not read --r"),
    (_BENCH_TOY + ("--r", "5"), "toy2d does not read --r"),
    (("solve", "--problem", "toy2d", "--solver", "alg1", "--iters", "3", "--out", ""),
     "out must name a file, got ''"),
    (_BENCH_TOY + ("--out", ""), "out must name a file, got ''"),
    (_BENCH_TOY + ("--out", "."), "out must name a file, got '.'"),
], ids=[
    "solve-scale-negative", "solve-scale-nan", "solve-scale-inf", "solve-exponent-nan",
    "solve-exponent-negative", "bench-scale-zero", "bench-exponent-inf", "bench-solvers-repeated",
    "solve-r-nan", "solve-r-inf", "bench-perturbed-gamma", "solve-quadratic-m", "solve-toy2d-n",
    "solve-quadratic-r", "bench-toy2d-r", "solve-quadratic-r-default", "bench-toy2d-r-default",
    "solve-out-empty", "bench-out-empty", "bench-out-dot",
])
def test_bad_schedule_or_budget_is_usage_error(args, message, capsys):
    assert main(list(args)) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


@pytest.mark.parametrize("command", [
    ("solve", "--problem", "toy2d", "--solver", "alg1", "--iters", "3"), _BENCH_TOY,
], ids=["solve", "bench"])
@pytest.mark.parametrize("out", ["newdir/", "d/.", ".."])
def test_out_naming_a_directory_is_usage_error(command, out, tmp_path, monkeypatch, capsys):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main([*command, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: out must name a file, got {out!r}\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["work"]


@pytest.mark.parametrize("args, flag, chosen", [
    (_SOLVE_CLASSIC + ("--step", "7"), "--step", "classic"),
    (("solve", "--problem", "toy2d", "--solver", "alg1", "--iters", "5", "--classic-scale", "3"),
     "--classic-scale", "alg1"),
    (("solve", "--problem", "quadratic", "--n", "5", "--solver", "fista", "--iters", "5",
      "--classic-exponent", "2"), "--classic-exponent", "fista"),
    (_BENCH_TOY + ("--solvers", "alg1", "--classic-scale", "3"), "--classic-scale", "alg1"),
    (_BENCH_TOY + ("--solvers", "ista,alg1", "--classic-exponent", "3"),
     "--classic-exponent", "ista,alg1"),
    (_BENCH_TOY + ("--solvers", "classic", "--step", "0.1"), "--step", "classic"),
], ids=[
    "solve-classic-step", "solve-alg1-scale", "solve-fista-exponent",
    "bench-alg1-scale", "bench-ista-alg1-exponent", "bench-classic-step",
])
def test_step_flag_no_selected_solver_reads_is_usage_error(args, flag, chosen, capsys):
    assert main(list(args)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: no selected solver ({chosen}) reads {flag}\n"


@pytest.mark.parametrize("args", [
    _SOLVE_CLASSIC + ("--classic-scale", "2", "--classic-exponent", "0.5"),
    ("solve", "--problem", "toy2d", "--solver", "fista", "--iters", "5", "--step", "0.1"),
    _BENCH_TOY + ("--solvers", "alg1,classic", "--step", "0.1", "--classic-scale", "2"),
    # toy2d's default solvers (alg1, ista, classic) read all three
    _BENCH_TOY + ("--step", "0.1", "--classic-scale", "2", "--classic-exponent", "0.5"),
    # auto is the default step, so giving it changes nothing
    _SOLVE_CLASSIC + ("--step", "auto"),
], ids=["solve-classic-schedule", "solve-fista-step", "bench-mixed", "bench-default-solvers",
        "solve-classic-step-auto"])
def test_step_flag_read_by_a_selected_solver_is_accepted(args, capsys):
    assert main(list(args)) == 0
    assert capsys.readouterr().err == ""


# |x0|_1 times this weight overflows, so f(x0) is inf while x0 is finite
_HUGE_GAMMA = ("--n", "3", "--gamma", "1e308", "--iters", "5")


@pytest.mark.parametrize("command", [
    ("solve", "--problem", "quadratic", "--solver", "alg1", *_HUGE_GAMMA),
    ("bench", "--experiment", "quadratic", "--trials", "1", *_HUGE_GAMMA),
], ids=["solve", "bench"])
def test_start_where_f_is_not_finite_is_usage_error(command, tmp_path, cli):
    proc = cli(*command, "--out", str(tmp_path / "o.csv"))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: f(x0) must be finite, got inf\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, printed", [
    # both entries are 1e200: the norm sqrt(2)*1e200 is finite though its square is not
    (("solve", "--problem", "toy2d", "--solver", "alg1", "--gamma", "1e200", "--iters", "0"),
     "\nfinal_subgrad_norm=1.414213562373095e+200\n"),
    (("bench", "--experiment", "quadratic", "--n", "3", "--gamma", "1e200", "--trials", "1",
      "--iters", "5"), ""),
], ids=["solve", "bench"])
def test_overflowing_subgradient_norm_warns_nothing(command, printed, cli):
    # solve prints its final norm scaled; the reference's norm overflows to inf, silently
    proc = cli(*command)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert printed in proc.stdout


@pytest.mark.parametrize("command, module", [
    (("solve", "--problem", "toy2d", "--solver", "alg1", "--iters", "5"), cli_module),
    (_BENCH_TOY, bench),
], ids=["solve", "bench"])
def test_trace_too_large_to_allocate_is_one_error_line(command, module, tmp_path, monkeypatch,
                                                       capsys):
    # never allocated for real: on a host that overcommits, the allocation can succeed
    def unallocatable(obj, x0, cfg):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(module, "run", unallocatable)
    assert main([*command, "--out", str(tmp_path / "o.csv")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: Unable to allocate 7.28 TiB for an array\n"
    assert list(tmp_path.iterdir()) == []


def test_certified_reference_above_the_trace_exits_one(tmp_path, monkeypatch, capsys):
    real_reference = bench.reference_optimum
    monkeypatch.setattr(bench, "reference_optimum", lambda problem: ReferenceOptimum(
        real_reference(problem).value + 1.0, certified=True))
    assert main([*_BENCH_TOY, "--solvers", "alg1", "--out", str(tmp_path / "b.csv")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: certified reference above trace values for ")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


class TestVerify:
    def test_single_suite_passes(self, capsys):
        assert main(["verify", "--suite", "anti-oscillation"]) == 0
        out = capsys.readouterr().out
        assert "PASS anti-oscillation/crossing" in out
        assert "2/2 properties passed" in out

    def test_unknown_suite_is_usage_error(self, cli):
        assert cli("verify", "--suite", "nonsense").returncode == 2

    def test_failure_exits_one(self, capsys, monkeypatch):
        import l1subgrad.verify as verify

        monkeypatch.setitem(
            verify.SUITES, "anti-oscillation",
            lambda seed=0: [verify.PropertyResult("anti-oscillation", False, -1.0, "forced")],
        )
        assert main(["verify", "--suite", "anti-oscillation"]) == 1
        assert "FAIL" in capsys.readouterr().out


_TRACED = str(Path(__file__).resolve().parents[1] / "perfbench" / "traced.py")


@pytest.mark.parametrize("args", [
    ("solve", "--problem", "toy2d", "--solver", "alg1", "--iters", "5"),
    ("bench", "--experiment", "toy2d", "--trials", "1", "--iters", "5", "--out", "{dir}/b.csv"),
    ("verify", "--suite", "anti-oscillation"),
], ids=["solve", "bench", "verify"])
def test_benchmark_tracer_still_installs(args, tmp_path, cli):
    """perfbench/traced.py replaces names in cli, bench and verify; a rename must fail here."""
    layers = tmp_path / "layers.json"
    traced = cli(*(a.format(dir=tmp_path / "traced") for a in args),
                     program=(_TRACED, "--layers", str(layers), "--"))
    plain = cli(*(a.format(dir=tmp_path / "plain") for a in args))
    assert traced.returncode == plain.returncode == 0, traced.stderr
    assert traced.stderr == ""
    assert traced.stdout == plain.stdout
    assert isinstance(json.loads(layers.read_text())["metrics"], dict)


def test_solve_and_bench_leave_verify_unloaded(cli):
    """Only `verify` runs the suites, so only it compiles and holds `l1subgrad.verify`."""
    script = """if True:
        import contextlib, io, sys
        from l1subgrad.cli import main
        for argv in (["solve", "--problem", "toy2d", "--solver", "alg1", "--iters", "5"],
                     ["bench", "--experiment", "toy2d", "--trials", "1", "--iters", "5"],
                     ["verify", "--suite", "anti-oscillation"]):
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            print(argv[0], code, "l1subgrad.verify" in sys.modules)
    """
    proc = cli(program=("-c", script))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "solve 0 False\nbench 0 False\nverify 0 True\n"


def test_cli_import_leaves_logging_unloaded(cli):
    """No command writes through `logging`, so importing the CLI does not load it."""
    proc = cli(program=("-c", "import sys, l1subgrad.cli; print('logging' in sys.modules)"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
