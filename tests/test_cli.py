import subprocess
import sys

import numpy as np
import pytest

from l1subgrad.bench import build_problem
from l1subgrad.cli import main
from l1subgrad.solvers import SolverConfig, run


def _invoke(*args):
    """Subprocess invocation, for end-to-end and byte-determinism checks."""
    return subprocess.run(
        [sys.executable, "-m", "l1subgrad", *args], capture_output=True, text=True
    )


def _stdout_fields(text):
    fields = {}
    for line in text.splitlines():
        for token in line.split():
            if "=" in token:
                key, value = token.split("=", 1)
                fields[key] = value
    return fields


class TestSolve:
    def test_toy2d_converges(self, tmp_path):
        out = tmp_path / "trace.csv"
        proc = _invoke(
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

    def test_invalid_dimension_is_usage_error(self):
        proc = _invoke("solve", "--problem", "quadratic", "--solver", "alg1", "--n", "0")
        assert proc.returncode == 2
        assert "n must be >= 1" in proc.stderr

    def test_unknown_flag_is_usage_error(self):
        proc = _invoke("solve", "--problem", "toy2d", "--solver", "alg1", "--frobnicate", "3")
        assert proc.returncode == 2

    def test_missing_required_flags(self):
        assert _invoke("solve", "--problem", "toy2d").returncode == 2

    def test_repeat_invocation_is_byte_identical(self, tmp_path):
        args = (
            "solve", "--problem", "quadratic", "--n", "15", "--solver", "alg2",
            "--iters", "50", "--seed", "3",
        )
        a = _invoke(*args, "--out", str(tmp_path / "a.csv"))
        b = _invoke(*args, "--out", str(tmp_path / "b.csv"))
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_explicit_step_accepted(self):
        proc = _invoke(
            "solve", "--problem", "toy2d", "--solver", "ista", "--iters", "5", "--step", "0.1"
        )
        assert proc.returncode == 0

    @pytest.mark.parametrize("solver", ["ista", "fista"])
    def test_divergence_is_a_numerical_failure(self, solver):
        # step 0.05 is about 5/L on this instance
        problem = build_problem("quadratic", 0, n=50)
        trace = run(problem.objective, problem.x0,
                    SolverConfig(method=solver, max_iter=500, step_h=0.05))
        first_bad = int(np.flatnonzero(~np.isfinite(trace.f_values))[0])
        proc = _invoke(
            "solve", "--problem", "quadratic", "--n", "50", "--solver", solver, "--step", "0.05"
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (
            f"error: {solver} diverged: first non-finite value at iteration {first_bad}\n"
        )

    def test_bad_step_rejected(self):
        proc = _invoke(
            "solve", "--problem", "toy2d", "--solver", "ista", "--iters", "5", "--step", "-1"
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "flag, value", [("--gamma", "nan"), ("--gamma", "inf"), ("--step", "inf"), ("--step", "nan")]
    )
    def test_non_finite_input_is_usage_error(self, flag, value):
        proc = _invoke(
            "solve", "--problem", "quadratic", "--n", "5", "--solver", "alg1", "--iters", "3",
            flag, value,
        )
        assert proc.returncode == 2
        assert "must be finite" in proc.stderr

    def test_dump_instance_flag(self, tmp_path, capsys):
        dump = tmp_path / "inst.txt"
        assert main([
            "solve", "--problem", "lasso", "--m", "5", "--n", "6", "--solver", "ista",
            "--iters", "2", "--dump-instance", str(dump),
        ]) == 0
        capsys.readouterr()
        text = dump.read_text()
        assert text.startswith("label=lasso\ndim=6\n")
        assert "[design rows=5 cols=6]" in text


class TestBench:
    def test_single_trial_matches_solve(self, tmp_path, capsys):
        solve_out = tmp_path / "solve.csv"
        assert main([
            "solve", "--problem", "toy2d", "--solver", "alg1",
            "--iters", "20", "--seed", "0", "--out", str(solve_out),
        ]) == 0
        bench_out = tmp_path / "bench.csv"
        assert main([
            "bench", "--experiment", "toy2d", "--trials", "1", "--iters", "20",
            "--seed", "0", "--solvers", "alg1,ista", "--out", str(bench_out),
        ]) == 0
        capsys.readouterr()
        solve_rows = [
            line.split(",") for line in solve_out.read_text().splitlines()[1:]
        ]
        bench_rows = [
            line.split(",")
            for line in bench_out.with_suffix(".raw.csv").read_text().splitlines()[1:]
            if line.split(",")[1] == "alg1"
        ]
        assert [r[4] for r in solve_rows] == [r[4] for r in bench_rows]
        assert [r[5] for r in solve_rows] == [r[5] for r in bench_rows]

    def test_deterministic_aggregate(self, tmp_path):
        args = (
            "bench", "--experiment", "toy2d-perturbed", "--trials", "5", "--iters", "25",
            "--seed", "7", "--reference-budget", "2000",
        )
        a = _invoke(*args, "--out", str(tmp_path / "a.csv"))
        b = _invoke(*args, "--out", str(tmp_path / "b.csv"))
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

    def test_unknown_solver_rejected(self):
        proc = _invoke("bench", "--experiment", "toy2d", "--trials", "1", "--solvers", "sgd")
        assert proc.returncode == 2


class TestVerify:
    def test_single_suite_passes(self, capsys):
        assert main(["verify", "--suite", "anti-oscillation"]) == 0
        out = capsys.readouterr().out
        assert "PASS anti-oscillation/crossing" in out
        assert "2/2 properties passed" in out

    def test_unknown_suite_is_usage_error(self):
        assert _invoke("verify", "--suite", "nonsense").returncode == 2

    def test_failure_exits_one(self, capsys, monkeypatch):
        import l1subgrad.cli as cli
        from l1subgrad.verify import PropertyResult

        monkeypatch.setitem(
            cli.SUITES, "anti-oscillation",
            lambda seed=0: [PropertyResult("anti-oscillation", False, -1.0, "forced")],
        )
        assert main(["verify", "--suite", "anti-oscillation"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestConfigFile:
    def test_flags_read_from_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# toy solve\nproblem=toy2d\nsolver=alg1\niters=10\nseed=2\n")
        assert main(["solve", "--config", str(cfg)]) == 0
        fields = _stdout_fields(capsys.readouterr().out)
        assert fields["problem"] == "toy2d" and fields["iters"] == "10"

    def test_explicit_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem=toy2d\nsolver=alg1\niters=10\n")
        assert main(["solve", "--config", str(cfg), "--iters", "4"]) == 0
        assert _stdout_fields(capsys.readouterr().out)["iters"] == "4"

    def test_missing_config_file_is_usage_error(self):
        assert main(["solve", "--config", "/nonexistent/x.cfg"]) == 2

    def test_malformed_config_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("problem toy2d\n")
        assert main(["solve", "--config", str(cfg)]) == 2
