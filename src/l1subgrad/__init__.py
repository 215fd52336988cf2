"""Constant-step subgradient optimization for l1-composite convex objectives.

The library minimizes f(x) = g(x) + gamma * |x|_1 for smooth convex g. Its
centerpiece is a subgradient method that keeps a constant step usable by
picking the minimal-norm subgradient and handling sign crossings explicitly,
plus an accelerated variant driven by conservative momentum with adaptive
restarts. ISTA, restarted FISTA and the classical decaying-step subgradient
method are included as baselines, together with seeded problem generators and
a benchmark harness that reproduces gap curves as CSV.

Importing the package before numpy pins BLAS and OpenMP to one thread (see
the README's reproducibility section): a threaded matrix product sums in
another order, so output bytes would depend on the core count.
"""

import os
import sys

if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    del _var

from ._version import __version__
from .bench import (
    EXPERIMENTS,
    ExperimentConfig,
    ExperimentError,
    GapCurve,
    ReferenceOptimum,
    build_problem,
    reference_optimum,
    run_experiment,
)
from .numerics import Rng, random_orthogonal
from .objective import CompositeObjective, soft_threshold
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
    FistaState,
    IterationTrace,
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

__all__ = [
    "__version__",
    "EXPERIMENTS",
    "METHODS",
    "CompositeObjective",
    "ExperimentConfig",
    "ExperimentError",
    "FistaState",
    "GapCurve",
    "IterationTrace",
    "ProblemInstance",
    "ReferenceOptimum",
    "Rng",
    "SolverConfig",
    "SolverError",
    "SolverState",
    "accelerated_step",
    "build_problem",
    "classic_subgradient_step",
    "fista_restart_step",
    "ista_step",
    "make_2d",
    "make_lasso",
    "make_logistic",
    "make_logsumexp",
    "make_quadratic",
    "perturb_2d",
    "random_orthogonal",
    "reference_optimum",
    "run",
    "run_experiment",
    "soft_threshold",
    "subgradient_step",
]
