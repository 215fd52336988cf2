"""Experiment orchestration: reference optima, multi-trial gap curves, CSV output.

An experiment regenerates its problem once per trial (seed = base_seed +
trial index), runs every configured solver from the trial's common start
point, and averages the gap curves pointwise across trials. The trials are
independent, so they run in forked worker processes, one per CPU
(`_fork.fork_map`), and are merged in trial order. Only this module
knows of references: `run` records f, each `TrialResult` carries its trial's
`ReferenceOptimum`, and a gap is f minus its value. All file output is
deterministic: row order is fixed and floats are written with shortest
round-trip repr.
"""

from __future__ import annotations

import os
from contextlib import closing
from dataclasses import dataclass, fields
from functools import partial
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np

from ._fork import fork_map
from ._version import __version__
from .numerics import Rng
from .objective import _min_norm_from_grad
from .problems import (
    ProblemInstance,
    make_2d,
    make_lasso,
    make_logistic,
    make_logsumexp,
    make_quadratic,
    perturb_2d,
)
from .solvers import (
    METHODS,
    IterationTrace,
    SolverConfig,
    SolverError,
    _walk,
    run,
)

_L1_RUN = dict(solvers=METHODS, classic_scale=SolverConfig.classic_step_scale,
               classic_exponent=SolverConfig.classic_step_exponent, max_iter=2000)
_TOY_RUN = dict(solvers=("alg1", "ista", "classic"), classic_scale=1.0, classic_exponent=1.0,
                max_iter=500)
# One row per family: its generator, called as make(rng=..., **sizes); the size
# and weight fields it reads, each with its default (None where the generator
# derives the value); and its default solvers, classic schedule and max_iter.
# Giving a family a size or weight field its row does not name is an error.
_FAMILIES = {
    "quadratic": (make_quadratic, {"n": 1000, "gamma": None}, _L1_RUN),
    "lasso": (make_lasso, {"m": 500, "n": 1000, "gamma": None}, _L1_RUN),
    "logistic": (make_logistic, {"m": 500, "n": 100, "gamma": None}, _L1_RUN),
    "logsumexp": (make_logsumexp, {"k": 500, "n": 200, "r": 5.0, "gamma": None}, _L1_RUN),
    "toy2d": (lambda rng, gamma: make_2d(gamma=gamma), {"gamma": 1.0}, _TOY_RUN),
    "toy2d-perturbed": (perturb_2d, {}, _TOY_RUN),
}
EXPERIMENTS = tuple(_FAMILIES)

# Reference optimum (`reference_optimum`): the budget of alg2 steps, and the
# certificate tolerance on the minimal-norm subgradient norm at the iterate.
REFERENCE_BUDGET = 50_000
REFERENCE_TOL = 1e-10


class ExperimentError(RuntimeError):
    """The experiment as a whole cannot produce a usable result."""


@dataclass(frozen=True)
class ReferenceOptimum:
    value: float
    certified: bool


def build_problem(
    experiment: str,
    seed: int,
    n: int | None = None,
    m: int | None = None,
    k: int | None = None,
    r: float | None = None,
    gamma: float | None = None,
) -> ProblemInstance:
    """Instantiate one experiment problem from its seed and size overrides.

    Each size or weight the family reads comes from its argument, or from the
    family's default when the argument is None; the family ignores the others.
    """
    if experiment not in _FAMILIES:
        raise ValueError(f"unknown experiment {experiment!r}, expected one of {EXPERIMENTS}")
    make, sizes, _ = _FAMILIES[experiment]
    given = {"n": n, "m": m, "k": k, "r": r, "gamma": gamma}
    return make(rng=Rng(seed), **{
        name: default if given[name] is None else given[name] for name, default in sizes.items()
    })


def reference_optimum(problem: ProblemInstance) -> ReferenceOptimum:
    """Best available optimum value for a problem, with a quality certificate.

    Uses the exact value when the instance carries one. Otherwise walks alg2
    at h = 1/L from ``x0`` (`solvers._walk`, as `run` does), keeping the
    least f seen from f(x0) on, until the minimal-norm subgradient s at the
    iterate (from the state's gradient) has a norm below ``REFERENCE_TOL``,
    the walk closes a cycle (every point of the cycle has been seen by then,
    so the least f kept does not depend on the point it closes on), or
    ``REFERENCE_BUDGET`` steps pass. Reaching the tolerance certifies the
    value: for g strongly convex with constant mu, the gap is at most
    |s|^2 / (2 mu) (the PL inequality), whatever method found the point.
    """
    if problem.f_ref is not None:
        return ReferenceOptimum(value=problem.f_ref, certified=True)
    obj = problem.objective
    walk = _walk(obj, problem.x0, 1.0 / obj.lipschitz_L, SolverConfig("alg2", REFERENCE_BUDGET))
    # closed here, not when collected: the walk may hold a helper process
    with closing(walk):
        state, best_f, period = next(walk)
        # a norm that overflows is inf, which does not certify
        with np.errstate(over="ignore", invalid="ignore"):
            for step in range(REFERENCE_BUDGET + 1):
                sub = _min_norm_from_grad(state.grad, state.x, obj.gamma)
                sub_norm = float(np.linalg.norm(sub))
                if sub_norm < REFERENCE_TOL or step == REFERENCE_BUDGET or period:
                    break
                state, f, period = next(walk)
                best_f = min(best_f, f)
    return ReferenceOptimum(value=best_f, certified=sub_norm < REFERENCE_TOL)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment byte-for-byte, resolved
    when made: after the checks, each field left None that the family reads
    takes the family's default (`_FAMILIES`); the others stay None."""

    experiment: str
    trials: int
    base_seed: int = 0
    solvers: tuple[str, ...] | None = None
    max_iter: int | None = None
    step: float | str = "auto"
    classic_scale: float | None = None
    classic_exponent: float | None = None
    n: int | None = None
    m: int | None = None
    k: int | None = None
    r: float | None = None
    gamma: float | None = None
    out: str | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}, expected one of {EXPERIMENTS}"
            )
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        _, sizes, run_defaults = _FAMILIES[self.experiment]
        for name in ("n", "m", "k", "r", "gamma"):
            if getattr(self, name) is not None and name not in sizes:
                raise ValueError(f"{self.experiment} does not read --{name}")
        if self.solvers is not None:
            if not self.solvers:
                raise ValueError(f"solvers must name at least one of {METHODS}")
            for s in self.solvers:
                if s not in METHODS:
                    raise ValueError(f"unknown solver {s!r}, expected one of {METHODS}")
            if len(set(self.solvers)) < len(self.solvers):
                raise ValueError(f"solvers must not repeat a name, got {','.join(self.solvers)}")
        if self.out is not None and os.path.basename(self.out) in ("", ".", ".."):
            raise ValueError(f"out must name a file, got {self.out!r}")
        for name, default in {**sizes, **run_defaults}.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, default)

    def solver_configs(self) -> tuple[SolverConfig, ...]:
        """One `SolverConfig` per solver, with the step, classic schedule and max_iter."""
        return tuple(
            SolverConfig(method=name, max_iter=self.max_iter, step_h=self.step,
                         classic_step_scale=self.classic_scale,
                         classic_step_exponent=self.classic_exponent)
            for name in self.solvers
        )


@dataclass
class TrialResult:
    trial: int
    ref: ReferenceOptimum
    traces: dict[str, IterationTrace]


@dataclass
class GapCurve:
    """Pointwise mean gap per solver over the trials, and each trial's result.

    The experiment and trial count are those of the `ExperimentConfig` run:
    every trial completes, or the run fails.
    """

    mean_gaps: dict[str, np.ndarray]
    raw: list[TrialResult]

    def final_mean_gap(self, solver: str) -> float:
        return float(self.mean_gaps[solver][-1])


def _run_trial(cfg: ExperimentConfig, solver_cfgs: tuple[SolverConfig, ...], t: int) -> TrialResult:
    """Trial ``t``: its problem, reference and one trace per solver; a
    `SolverError` is raised again with the trial named."""
    try:
        problem = build_problem(
            cfg.experiment, cfg.base_seed + t, n=cfg.n, m=cfg.m, k=cfg.k, r=cfg.r, gamma=cfg.gamma
        )
        ref = reference_optimum(problem)
        traces = {}
        for sc in solver_cfgs:
            trace = run(problem.objective, problem.x0, sc)
            # min(f) - ref is min(f - ref) bit for bit: rounding x - ref is monotone in x
            min_gap = np.min(trace.f_values) - ref.value
            if ref.certified and min_gap < -1e-9:
                raise ExperimentError(
                    f"certified reference above trace values for {cfg.experiment!r} "
                    f"(solver {sc.method}, trial {t}, min gap {min_gap:.3e})"
                )
            traces[sc.method] = trace
    except SolverError as exc:
        raise SolverError(f"trial {t}: {exc}") from exc
    return TrialResult(trial=t, ref=ref, traces=traces)


def run_experiment(cfg: ExperimentConfig) -> GapCurve:
    """Run all trials of ``cfg``, each solver as in
    `ExperimentConfig.solver_configs`, average the gap curves, and write CSV
    output if requested.

    The trials are independent, so they run in forked workers
    (`_fork.fork_map`), and their results are merged in trial order. A
    solver error in any trial fails the experiment: the lowest failing
    trial's is raised again as a `SolverError` that names the trial.
    """
    solver_cfgs = cfg.solver_configs()
    if cfg.out is not None:
        _check_writable(_experiment_paths(cfg.out))
    results = fork_map(partial(_run_trial, cfg, solver_cfgs), range(cfg.trials))
    mean_gaps = {
        name: np.mean([res.traces[name].f_values - res.ref.value for res in results], axis=0)
        for name in cfg.solvers
    }
    curve = GapCurve(mean_gaps=mean_gaps, raw=results)
    if cfg.out is not None:
        write_experiment_csv(cfg, curve)
    return curve


def _fmt(v) -> str:
    return repr(float(v))


def _fmt_each(values: np.ndarray):
    """`_fmt` of every entry of a 1-D array.

    A run that parks repeats its last value to the end of its trace, so on a
    non-empty float64 array that repeated tail is formatted once. The tail is
    found on the bits, so -0.0 and 0.0, and nan payloads, keep their own
    text; ``tolist`` gives Python floats, whose repr is that text.
    """
    if values.dtype != np.float64 or values.ndim != 1 or values.size == 0:
        return map(repr, values.tolist())
    bits = values.view(np.int64).tolist()
    head = len(bits)
    while head > 1 and bits[head - 2] == bits[-1]:
        head -= 1
    text = list(map(repr, values[:head].tolist()))
    return chain(text, repeat(text[-1], len(bits) - head))


_TRACE_HEADER = "experiment,solver,trial,iter,f_value,gap,certified"


def _trace_rows(experiment: str, trace: IterationTrace, trial: int, ref: ReferenceOptimum | None):
    """One CSV row per recorded iteration; ``ref`` gives gap and flag (blank, false if None)."""
    gap_text = repeat("") if ref is None else _fmt_each(trace.f_values - ref.value)
    flag = "true" if ref is not None and ref.certified else "false"
    prefix = f"{experiment},{trace.method},{trial}"
    for i, (f_v, gap) in enumerate(zip(_fmt_each(trace.f_values), gap_text)):
        yield f"{prefix},{i},{f_v},{gap},{flag}"


# lines joined per write in `_write_lines`: bounds the text held at once. The
# toy2d-perturbed bench (20 trials, 60 traces) peaks about 0.25 MB lower in RSS
# at 256 than at 1024 (Python 3.11, numpy 2.4, 2-core Xeon).
_LINES_PER_WRITE = 256


def _write_lines(path, lines):
    """Write ``lines`` to ``path``, each ending in a newline, creating its directory.

    The directories are those of the resolved path. The file is opened once
    and the lines are written as they are iterated, ``_LINES_PER_WRITE`` at a
    time, so an iterator of lines is never held whole. A failure partway leaves a partial file, as ``write_text`` does.
    """
    path = Path(path).resolve()
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = iter(lines)
    with path.open("w") as f:
        while piece := list(islice(lines, _LINES_PER_WRITE)):
            f.write("\n".join(piece) + "\n")


def _experiment_paths(out) -> tuple[Path, Path, Path]:
    """The aggregated CSV, raw-row CSV and metadata sidecar that an experiment writes."""
    out = Path(out)
    return out, out.with_suffix(".raw.csv"), out.with_suffix(".meta.txt")


def _check_writable(paths):
    """Raise the OSError a later write to ``paths`` would meet, leaving nothing new.

    Each path is opened for appending, after its missing directories are
    created as `_write_lines` does. The file, if this opening created it, and
    the directories are removed again, deepest first. The directories are
    those of the resolved path: for ``q/r/../d.csv`` they are ``q`` alone.
    """
    for path in map(Path, paths):
        path = path.resolve()
        made = [d for d in path.parents if not d.exists()]
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            existed = path.exists()
            path.open("a").close()
            if not existed:
                path.unlink()
        finally:
            for d in made:
                if d.is_dir():
                    d.rmdir()


def write_trace_csv(
    path, trace: IterationTrace, experiment: str, trial: int, ref: ReferenceOptimum | None
):
    """Per-iteration rows: experiment,solver,trial,iter,f_value,gap,certified."""
    _write_lines(path, chain([_TRACE_HEADER], _trace_rows(experiment, trace, trial, ref)))


def write_experiment_csv(cfg: ExperimentConfig, curve: GapCurve):
    """Write aggregated CSV to cfg.out, plus raw rows and a key=value sidecar."""
    agg_path, raw_path, meta_path = _experiment_paths(cfg.out)
    names = sorted(curve.mean_gaps)
    _write_lines(agg_path, chain(["experiment,solver,iter,mean_gap,trials"], (
        f"{cfg.experiment},{name},{i},{g},{cfg.trials}"
        for name in names for i, g in enumerate(_fmt_each(curve.mean_gaps[name]))
    )))
    _write_lines(raw_path, chain([_TRACE_HEADER], chain.from_iterable(
        _trace_rows(cfg.experiment, res.traces[name], res.trial, res.ref)
        for name in names for res in curve.raw
    )))

    meta = [f"library_version={__version__}", "seed_policy=base_seed+trial_index"]
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        meta.append(f"{f.name}={value}")
    meta.append(f"completed_trials={cfg.trials}")
    _write_lines(meta_path, meta)
