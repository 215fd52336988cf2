"""Run one l1subgrad CLI invocation in this process, with per-layer tracing.

    python3 perfbench/traced.py --layers layers.json -- bench --experiment lasso ... --out out.csv

The flag vector is passed to ``l1subgrad.cli.main`` unchanged. Before it runs,
module attributes are replaced by timing wrappers around public names:
``build_problem``, ``reference_optimum``, ``run``, ``write_experiment_csv``
and ``write_trace_csv`` where ``cli`` and ``bench`` call them, the
``verify.SUITES`` entries that ``run_suites`` calls, and ``random_orthogonal``,
the problem generators, ``reference_optimum`` and the step functions where
``problems`` and ``verify`` call them. Every problem built gets an objective
whose ``eval_g`` and ``grad_g`` are counted (through ``dataclasses.replace``);
an oracle call is charged to the innermost open span. The CLI's stdout, files
and exit code are its own; per-layer totals go to the ``--layers`` JSON file.
Nothing under ``src/`` changes.

Matrix-vector products and bytes per iteration are computed from the oracle
call counts and ``PRODUCTS_PER_CALL``, not measured.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import l1subgrad.bench as bench
import l1subgrad.cli as cli
import l1subgrad.problems as problems
import l1subgrad.verify as verify
from l1subgrad.solvers import METHODS

# matrix-vector products with the problem's matrix per (eval_g, grad_g) call,
# read off the generators in problems.py
PRODUCTS_PER_CALL = {
    "quadratic": (1, 1),
    "lasso": (1, 2),
    "logistic": (1, 2),
    "logsumexp": (1, 2),
    "toy2d": (1, 1),
    "toy2d-perturbed": (1, 1),
}
ORACLE_FIELDS = {"eval_g", "grad_g"}


class Tracer:
    """Span durations and oracle counts, kept in memory until the run ends."""

    def __init__(self):
        self.stack: list[str] = []
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.iters = defaultdict(int)
        self.top_level_s = 0.0
        # per owning span: [eval calls, grad calls, oracle seconds, products, bytes]
        self.oracle = defaultdict(lambda: [0, 0, 0.0, 0, 0])
        self.references = [0, 0]  # [calls, certified]

    @contextmanager
    def span(self, name: str):
        self.stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.stack.pop()
            self.seconds[name] += elapsed
            self.calls[name] += 1
            if not self.stack:
                self.top_level_s += elapsed

    def wrap(self, name: str, fn, iteration: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                if iteration:
                    self.iters[name] += 1
                return fn(*args, **kwargs)

        return traced

    def counted(self, problem):
        """The same problem with an objective whose oracle calls are counted."""
        obj = problem.objective
        uncounted = [f.name for f in dataclasses.fields(obj)
                     if callable(getattr(obj, f.name)) and f.name not in ORACLE_FIELDS]
        if uncounted:
            raise RuntimeError(f"oracle entry points the trace does not count: {uncounted}")
        evals, grads = PRODUCTS_PER_CALL[problem.label]
        matrix_bytes = max(
            (v.nbytes for v in (problem.data or {}).values()
             if isinstance(v, np.ndarray) and v.ndim == 2),
            default=0,
        )

        def oracle(fn, slot, products):
            def call(x):
                start = time.perf_counter()
                try:
                    return fn(x)
                finally:
                    entry = self.oracle[self.stack[-1] if self.stack else ""]
                    entry[slot] += 1
                    entry[2] += time.perf_counter() - start
                    entry[3] += products
                    entry[4] += products * matrix_bytes

            return call

        counted = dataclasses.replace(
            obj, eval_g=oracle(obj.eval_g, 0, evals), grad_g=oracle(obj.grad_g, 1, grads)
        )
        return dataclasses.replace(problem, objective=counted)

    def builder(self, fn):
        timed = self.wrap("problems.build", fn)
        return functools.wraps(fn)(lambda *a, **k: self.counted(timed(*a, **k)))

    def reference(self, fn):
        timed = self.wrap("bench.reference", fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ref = timed(*args, **kwargs)
            self.references[0] += 1
            self.references[1] += bool(ref.certified)
            return ref

        return traced

    def solver_run(self, fn):
        @functools.wraps(fn)
        def traced(obj, x0, cfg, *args, **kwargs):
            span = f"solvers.{cfg.method}"
            with self.span(span):
                trace = fn(obj, x0, cfg, *args, **kwargs)
            self.iters[span] += iterations(trace)
            return trace

        return traced

    def metrics(self) -> dict:
        totals = [sum(e[i] for e in self.oracle.values()) for i in range(3)]
        refs, certified = self.references
        out = {
            "bench.reference_s": self.seconds["bench.reference"],
            "bench.reference_grad_calls": self.oracle["bench.reference"][1],
            "bench.reference_certified_frac": certified / refs if refs else 0.0,
            "numerics.random_orthogonal_s": self.seconds["numerics.random_orthogonal"],
            "problems.build_s": self.seconds["problems.build"],
            "problems.build_calls": self.calls["problems.build"],
            "objective.eval_calls": totals[0],
            "objective.grad_calls": totals[1],
            "objective.oracle_s": totals[2],
            "bench.csv_s": self.seconds["bench.csv"],
        }
        for method in METHODS:
            span = f"solvers.{method}"
            iters = self.iters[span]
            evals, grads, oracle_s, products, nbytes = self.oracle[span]
            run_s = self.seconds[span]
            per = (lambda v: v / iters) if iters else (lambda v: 0.0)
            out[f"objective.{method}.evals_per_iter"] = per(evals)
            out[f"objective.{method}.grads_per_iter"] = per(grads)
            out[f"objective.{method}.matvecs_per_iter"] = per(products)
            out[f"objective.{method}.bytes_per_iter_computed"] = per(nbytes)
            out[f"{span}.run_s"] = run_s
            out[f"{span}.us_per_iter"] = per(run_s * 1e6)
            out[f"{span}.dispatch_us_per_iter"] = per((run_s - oracle_s) * 1e6)
        for suite in verify.SUITES:
            out[f"verify.{suite}_s"] = self.seconds[f"verify.{suite}"]
        return out


def iterations(trace) -> int:
    """Steps ``run`` took: all of them, or up to the first non-finite value."""
    bad = np.flatnonzero(~np.isfinite(trace.f_values))
    return int(bad[0]) if bad.size else len(trace.f_values) - 1


def install(tracer: Tracer):
    """Replace the public names the CLI reaches with traced wrappers."""
    for module in (cli, bench):
        module.build_problem = tracer.builder(module.build_problem)
        module.run = tracer.solver_run(module.run)
    bench.write_experiment_csv = tracer.wrap("bench.csv", bench.write_experiment_csv)
    cli.write_trace_csv = tracer.wrap("bench.csv", cli.write_trace_csv)
    for module in (bench, verify):
        module.reference_optimum = tracer.reference(module.reference_optimum)
    for module in (problems, verify):
        module.random_orthogonal = tracer.wrap(
            "numerics.random_orthogonal", module.random_orthogonal
        )
    for name in ("make_quadratic", "make_lasso", "make_logistic", "make_logsumexp",
                 "make_2d", "perturb_2d"):
        setattr(verify, name, tracer.builder(getattr(verify, name)))
    verify.subgradient_step = tracer.wrap("solvers.alg1", verify.subgradient_step, True)
    verify.accelerated_step = tracer.wrap("solvers.alg2", verify.accelerated_step, True)
    verify.classic_subgradient_step = tracer.wrap(
        "solvers.classic", verify.classic_subgradient_step, True
    )
    for name, suite in verify.SUITES.items():
        verify.SUITES[name] = tracer.wrap(f"verify.{name}", suite)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--layers", required=True, help="write per-layer totals here (JSON)")
    parser.add_argument("cli", nargs=argparse.REMAINDER, help="-- then the CLI flag vector")
    opts = parser.parse_args()
    tracer = Tracer()
    install(tracer)
    code = cli.main(opts.cli[1:] if opts.cli[:1] == ["--"] else opts.cli)
    Path(opts.layers).write_text(json.dumps(
        {"metrics": tracer.metrics(), "top_level_s": tracer.top_level_s}
    ))
    return code


if __name__ == "__main__":
    sys.exit(main())
