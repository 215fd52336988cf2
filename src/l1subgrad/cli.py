"""Command-line interface with three subcommands: solve, bench, verify.

`solve` and `bench` map their flags to one `ExperimentConfig` (`_config`):
`solve` is a one-trial, one-solver experiment whose problem and solver come
from that config, as each trial's do in `bench`.

Exit codes: 0 success, 1 numerical, allocation or property failure, 2 usage error.
All stdout and file output is a pure function of the flag vector, so any
invocation can be repeated byte-for-byte.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .bench import (
    EXPERIMENTS,
    ExperimentConfig,
    ExperimentError,
    ReferenceOptimum,
    _check_writable,
    _fmt,
    build_problem,
    run_experiment,
    write_trace_csv,
)
from .solvers import METHODS, SolverError, run


def _step_value(text: str):
    if text == "auto":
        return "auto"
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'auto' or a number, got {text!r}")


def _add_problem_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--n", type=int, default=None, help="primary dimension (family default)")
    sub.add_argument("--m", type=int, default=None, help="row count for lasso/logistic (family default)")
    sub.add_argument("--k", type=int, default=None, help="row count for logsumexp (family default)")
    sub.add_argument("--r", type=float, default=None, help="logsumexp smoothing (default 5)")
    sub.add_argument("--gamma", type=float, default=None, help="override the l1 weight (family default)")
    sub.add_argument("--seed", type=int, default=0, help="base seed (default 0)")


def _add_step_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--step", type=_step_value, default="auto",
                     help="constant step size, or 'auto' for 1/L (default auto)")
    sub.add_argument("--classic-scale", type=float, default=None,
                     help="classic schedule scale (default 10; 1 for toy2d experiments)")
    sub.add_argument("--classic-exponent", type=float, default=None,
                     help="classic schedule exponent (default 0.25; 1 for toy2d experiments)")


def _config(args, **command) -> ExperimentConfig:
    """The `ExperimentConfig` of the flags `solve` and `bench` share and the
    ``command``'s own fields.

    A step flag given away from its default that no selected solver reads is
    rejected: classic reads only --classic-scale and --classic-exponent, the
    other solvers only --step.
    """
    cfg = ExperimentConfig(
        base_seed=args.seed, step=args.step, classic_scale=args.classic_scale,
        classic_exponent=args.classic_exponent, n=args.n, m=args.m, k=args.k, r=args.r,
        gamma=args.gamma, out=args.out, **command,
    )
    solvers = cfg.solvers
    for flag, read in (("step", set(solvers) != {"classic"}),
                       ("classic_scale", "classic" in solvers),
                       ("classic_exponent", "classic" in solvers)):
        if getattr(args, flag) not in (None, "auto") and not read:
            raise ValueError(f"no selected solver ({','.join(solvers)}) reads "
                             f"--{flag.replace('_', '-')}")
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l1subgrad",
        description="Constant-step subgradient solvers for l1-composite objectives, "
        "with proximal baselines and reproducible benchmarks.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="run one solver on one problem instance")
    solve.add_argument("--problem", required=True, choices=EXPERIMENTS)
    solve.add_argument("--solver", required=True, choices=METHODS)
    solve.add_argument("--iters", type=int, default=500, help="iteration count (default 500)")
    _add_problem_flags(solve)
    _add_step_flags(solve)
    solve.add_argument("--out", default=None, help="write the per-iteration CSV here (default: none)")

    bench = subs.add_parser("bench", help="run a multi-trial experiment and average gap curves")
    bench.add_argument("--experiment", required=True, choices=EXPERIMENTS)
    bench.add_argument("--trials", type=int, default=100, help="number of trials (default 100)")
    bench.add_argument("--iters", type=int, default=None,
                       help="iterations per solve (default 2000; 500 for toy2d experiments)")
    bench.add_argument("--solvers", default=None,
                       help="comma list of solvers (default: family set)")
    _add_problem_flags(bench)
    _add_step_flags(bench)
    bench.add_argument("--out", default=None,
                       help="aggregated CSV path; raw rows and metadata are written alongside")

    # `main` loads the suites before building the parser, only for `verify`
    suites = sys.modules.get(f"{__package__}.verify")
    verify = subs.add_parser("verify", help="run the executable property suites")
    verify.add_argument("--suite", default="all",
                        choices=None if suites is None else sorted(suites.SUITES) + ["all"],
                        help="which suite to run (default all)")
    verify.add_argument("--seed", type=int, default=0, help="seed offset (default 0)")
    return parser


def _cmd_solve(args) -> int:
    cfg = _config(
        args, experiment=args.problem, trials=1, solvers=(args.solver,), max_iter=args.iters
    )
    (solver_cfg,) = cfg.solver_configs()
    if cfg.out is not None:
        _check_writable([cfg.out])
    problem = build_problem(
        cfg.experiment, cfg.base_seed, n=cfg.n, m=cfg.m, k=cfg.k, r=cfg.r, gamma=cfg.gamma
    )
    trace = run(problem.objective, problem.x0, solver_cfg)
    ref = None if problem.f_ref is None else ReferenceOptimum(problem.f_ref, certified=True)
    bad = np.flatnonzero(~np.isfinite(trace.f_values))
    if bad.size:
        raise SolverError(
            f"{args.solver} diverged: first non-finite value at iteration {int(bad[0])}"
        )
    if cfg.out is not None:
        write_trace_csv(cfg.out, trace, cfg.experiment, trial=0, ref=ref)
    final_f = float(trace.f_values[-1])
    print(f"problem={args.problem} solver={args.solver} iters={args.iters} seed={args.seed}")
    print(f"final_f={_fmt(final_f)}")
    with np.errstate(over="ignore", invalid="ignore"):
        sub = problem.objective.min_norm_subgradient(trace.x_final)
        sub_norm = float(np.linalg.norm(sub))
        # a finite norm whose square overflows: scale by the largest entry first
        if sub_norm == np.inf and np.all(np.isfinite(sub)):
            scale = np.max(np.abs(sub))
            sub_norm = float(scale * np.linalg.norm(sub / scale))
    print(f"final_subgrad_norm={_fmt(sub_norm)}")
    if ref is not None:
        print(f"final_gap={_fmt(final_f - ref.value)}")
    return 0


def _cmd_bench(args) -> int:
    solvers = None
    if args.solvers is not None:
        solvers = tuple(s.strip() for s in args.solvers.split(",") if s.strip())
    cfg = _config(
        args, experiment=args.experiment, trials=args.trials, solvers=solvers, max_iter=args.iters
    )
    curve = run_experiment(cfg)
    print(f"experiment={cfg.experiment} trials={cfg.trials} iters={cfg.max_iter}")
    print("solver final_mean_gap")
    for name in sorted(curve.mean_gaps):
        print(f"{name} {_fmt(curve.final_mean_gap(name))}")
    return 0


def _cmd_verify(args) -> int:
    from .verify import SUITES

    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    results = [res for name in names for res in SUITES[name](seed=args.seed)]
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name} margin={res.margin:.6e} ({res.detail})")
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} properties passed")
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Only `verify` runs the suites, so only it compiles and holds them. It
    # loads them before the parser: compiled on top of the parser's heap,
    # they would raise the process's peak memory.
    if argv and argv[0] == "verify":
        from . import verify  # noqa: F401
    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_verify(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, ExperimentError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
