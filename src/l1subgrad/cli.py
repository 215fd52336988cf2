"""Command-line interface with three subcommands: solve, bench, verify.

Exit codes: 0 success, 1 numerical or property failure, 2 usage error.
All stdout and file output is a pure function of the flag vector, so any
invocation can be repeated byte-for-byte.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .bench import (
    EXPERIMENTS,
    ExperimentConfig,
    ExperimentError,
    _FAMILY_DEFAULTS,
    _L1_DEFAULTS,
    REFERENCE_BUDGET,
    build_problem,
    run_experiment,
    write_trace_csv,
)
from .problems import dump_instance
from .solvers import METHODS, SolverConfig, SolverError, run
from .verify import SUITES, run_suites


def _step_value(text: str):
    if text == "auto":
        return "auto"
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'auto' or a number, got {text!r}")
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"step must be finite and > 0, got {value}")
    return value


def _add_problem_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--n", type=int, default=None, help="primary dimension (family default)")
    sub.add_argument("--m", type=int, default=None, help="row count for lasso/logistic (family default)")
    sub.add_argument("--k", type=int, default=None, help="row count for logsumexp (family default)")
    sub.add_argument("--r", type=float, default=5.0, help="logsumexp smoothing (default 5)")
    sub.add_argument("--gamma", type=float, default=None, help="override the l1 weight (family default)")
    sub.add_argument("--seed", type=int, default=0, help="base seed (default 0)")


def _add_step_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--step", type=_step_value, default="auto",
                     help="constant step size, or 'auto' for 1/L (default auto)")
    sub.add_argument("--classic-scale", type=float, default=None,
                     help="classic schedule scale (default 10; 1 for toy2d experiments)")
    sub.add_argument("--classic-exponent", type=float, default=None,
                     help="classic schedule exponent (default 0.25; 1 for toy2d experiments)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l1subgrad",
        description="Constant-step subgradient solvers for l1-composite objectives, "
        "with proximal baselines and reproducible benchmarks.",
    )
    parser.add_argument("--config", default=None, help=argparse.SUPPRESS)
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="run one solver on one problem instance")
    solve.add_argument("--problem", required=True, choices=EXPERIMENTS)
    solve.add_argument("--solver", required=True, choices=METHODS)
    solve.add_argument("--iters", type=int, default=500, help="iteration count (default 500)")
    _add_problem_flags(solve)
    _add_step_flags(solve)
    solve.add_argument("--out", default=None, help="write the per-iteration CSV here (default: none)")
    solve.add_argument("--dump-instance", default=None,
                       help="write the generated problem as a plain-text dump (default: none)")
    solve.add_argument("--config", default=None, help="key=value file of flag defaults")

    bench = subs.add_parser("bench", help="run a multi-trial experiment and average gap curves")
    bench.add_argument("--experiment", required=True, choices=EXPERIMENTS)
    bench.add_argument("--trials", type=int, default=100, help="number of trials (default 100)")
    bench.add_argument("--iters", type=int, default=None,
                       help="iterations per solve (default 2000; 500 for toy2d experiments)")
    bench.add_argument("--solvers", default=None,
                       help="comma list of solvers (default: family set)")
    _add_problem_flags(bench)
    _add_step_flags(bench)
    bench.add_argument("--reference", choices=("auto", "analytic", "longrun"), default="auto",
                       help="per-trial optimum policy (default auto)")
    bench.add_argument("--reference-budget", type=int, default=REFERENCE_BUDGET,
                       help="iteration budget of the long-run reference "
                       f"(default {REFERENCE_BUDGET})")
    bench.add_argument("--out", default=None,
                       help="aggregated CSV path; raw rows and metadata are written alongside")
    bench.add_argument("--jobs", type=int, default=1, help="trial worker threads (default 1)")
    bench.add_argument("--config", default=None, help="key=value file of flag defaults")

    verify = subs.add_parser("verify", help="run the executable property suites")
    verify.add_argument("--suite", default="all", choices=sorted(SUITES) + ["all"],
                        help="which suite to run (default all)")
    verify.add_argument("--seed", type=int, default=0, help="seed offset (default 0)")
    verify.add_argument("--config", default=None, help="key=value file of flag defaults")
    return parser


def _expand_config(argv: list[str]) -> list[str]:
    """Turn `--config file` into synthetic flags prepended after the subcommand.

    The file holds one `key=value` per line (# comments allowed); explicit
    command-line flags win because argparse keeps the last occurrence.
    """
    out = list(argv)
    path = None
    for i, tok in enumerate(out):
        if tok == "--config" and i + 1 < len(out):
            path = out[i + 1]
            del out[i : i + 2]
            break
        if tok.startswith("--config="):
            path = tok.split("=", 1)[1]
            del out[i]
            break
    if path is None:
        return out
    extra: list[str] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (expected key=value): {line!r}")
        key, value = line.split("=", 1)
        extra.extend([f"--{key.strip().replace('_', '-')}", value.strip()])
    # insert right after the subcommand token so explicit flags override
    for i, tok in enumerate(out):
        if not tok.startswith("-"):
            return out[: i + 1] + extra + out[i + 1 :]
    return out + extra


def _fmt(v: float) -> str:
    return repr(float(v))


def _cmd_solve(args) -> int:
    problem = build_problem(
        args.problem, args.seed, n=args.n, m=args.m, k=args.k, r=args.r, gamma=args.gamma
    )
    if args.dump_instance:
        dump_instance(problem, args.dump_instance)
    family = _FAMILY_DEFAULTS.get(args.problem, _L1_DEFAULTS)
    cfg = SolverConfig(
        method=args.solver,
        max_iter=args.iters,
        step_h=args.step,
        classic_step_scale=args.classic_scale if args.classic_scale is not None else family[1],
        classic_step_exponent=(
            args.classic_exponent if args.classic_exponent is not None else family[2]
        ),
    )
    trace = run(
        problem.objective, problem.x0, cfg,
        f_ref=problem.f_ref, problem=args.problem, seed=args.seed,
    )
    bad = np.flatnonzero(~np.isfinite(trace.f_values))
    if bad.size:
        raise SolverError(
            f"{args.solver} diverged: first non-finite value at iteration {int(bad[0])}"
        )
    if args.out:
        write_trace_csv(args.out, trace, args.problem, trial=0, certified=problem.f_ref is not None)
    final_f = float(trace.f_values[-1])
    print(f"problem={args.problem} solver={args.solver} iters={args.iters} seed={args.seed}")
    print(f"final_f={_fmt(final_f)}")
    sub_norm = float(np.linalg.norm(problem.objective.min_norm_subgradient(trace.x_final)))
    print(f"final_subgrad_norm={_fmt(sub_norm)}")
    gaps = trace.gaps()
    if gaps is not None:
        print(f"final_gap={_fmt(float(gaps[-1]))}")
    return 0


def _cmd_bench(args) -> int:
    solvers = None
    if args.solvers is not None:
        solvers = tuple(s.strip() for s in args.solvers.split(",") if s.strip())
        for s in solvers:
            if s not in METHODS:
                raise ValueError(f"unknown solver {s!r}, expected one of {METHODS}")
    cfg = ExperimentConfig(
        experiment=args.experiment,
        trials=args.trials,
        base_seed=args.seed,
        solvers=solvers,
        max_iter=args.iters,
        step=args.step,
        classic_scale=args.classic_scale,
        classic_exponent=args.classic_exponent,
        n=args.n,
        m=args.m,
        k=args.k,
        r=args.r,
        gamma=args.gamma,
        reference=args.reference,
        reference_budget=args.reference_budget,
        out=args.out,
        jobs=args.jobs,
    )
    curve = run_experiment(cfg)
    print(f"experiment={curve.experiment} trials={curve.trials} iters={len(next(iter(curve.mean_gaps.values()))) - 1}")
    print("solver final_mean_gap")
    for name in sorted(curve.mean_gaps):
        print(f"{name} {_fmt(curve.final_mean_gap(name))}")
    return 0


def _cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    results = run_suites(names, seed=args.seed)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name} margin={res.margin:.6e} ({res.detail})")
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} properties passed")
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _expand_config(argv)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_verify(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, ExperimentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
