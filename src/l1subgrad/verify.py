"""Executable property suites: the convergence guarantees as pass/fail checks.

Each suite builds seeded instances, measures the relevant inequality with an
explicit tolerance, and reports the worst margin observed (margin >= 0 means
the property held everywhere). The CLI `verify` subcommand calls the suites
in `SUITES`, sorted by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ._fork import fork_map
from .bench import reference_optimum
from .numerics import Rng, random_orthogonal
from .objective import CompositeObjective
from .problems import (
    make_2d,
    make_lasso,
    make_logistic,
    make_logsumexp,
    make_quadratic,
    perturb_2d,
)
from .solvers import (
    SolverState,
    _Cycle,
    accelerated_step,
    classic_subgradient_step,
    subgradient_step,
)


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    margin: float
    detail: str


# ---------------------------------------------------------------------------
# independent minimal-norm-subgradient oracles (numeric search, no closed form)


def subgradient_by_grid(obj: CompositeObjective, x, step: float = 1e-3) -> np.ndarray:
    """Search the subdifferential parametrization on a uniform grid.

    Valid subgradients are grad_g(x) + gamma*nu with nu_i = sign(x_i) on the
    support and nu_i in [-1, 1] elsewhere; the squared norm decouples per
    coordinate, so each free coordinate is minimized over its own grid.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = obj.smooth_grad(x)
    out = grad + obj.gamma * np.sign(x)
    grid = np.arange(-1.0, 1.0 + step / 2.0, step)
    for i in np.flatnonzero(x == 0.0):
        cand = grad[i] + obj.gamma * grid
        out[i] = cand[int(np.argmin(cand * cand))]
    return out


def subgradient_by_ternary(obj: CompositeObjective, x, width: float = 1e-12) -> np.ndarray:
    """Refine each free coordinate by ternary search over nu in [-1, 1]."""
    x = np.asarray(x, dtype=np.float64)
    grad = obj.smooth_grad(x)
    out = grad + obj.gamma * np.sign(x)
    for i in np.flatnonzero(x == 0.0):

        def phi(nu, _g=grad[i]):
            val = _g + obj.gamma * nu
            return val * val

        lo, hi = -1.0, 1.0
        while hi - lo > width:
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if phi(m1) < phi(m2):
                hi = m2
            else:
                lo = m1
        out[i] = grad[i] + obj.gamma * 0.5 * (lo + hi)
    return out


def _random_small_quadratic(rng: Rng, n: int) -> CompositeObjective:
    eigs = rng.uniforms(n, 0.5, 5.0)
    q = random_orthogonal(n, rng)
    m = (q * eigs) @ q.T
    m = 0.5 * (m + m.T)
    b = rng.gaussians(n, 0.0, 2.0)
    gamma = rng.uniform(0.25, 1.5)
    return CompositeObjective(
        eval_g=lambda x, _m=m, _b=b: 0.5 * float(x @ (_m @ x)) + float(_b @ x),
        grad_g=lambda x, _m=m, _b=b: _m @ x + _b,
        gamma=gamma,
        lipschitz_L=float(np.max(eigs)),
        dim=n,
        mu=float(np.min(eigs)),
    )


def suite_subgrad_oracle(seed: int = 0, points: int = 200) -> list[PropertyResult]:
    """Closed-form minimal-norm subgradient vs grid and ternary searches."""
    rng = Rng(seed + 101)
    worst_grid = np.inf
    worst_ternary = np.inf
    for j in range(points):
        n = 1 + j % 3
        obj = _random_small_quadratic(rng, n)
        x = rng.gaussians(n)
        zero = rng.uniforms(n) < 0.4
        x = np.where(zero, 0.0, x)
        impl = obj.min_norm_subgradient(x)
        d_grid = float(np.linalg.norm(impl - subgradient_by_grid(obj, x)))
        d_tern = float(np.linalg.norm(impl - subgradient_by_ternary(obj, x)))
        worst_grid = min(worst_grid, 2e-3 - d_grid)
        worst_ternary = min(worst_ternary, 1e-8 - d_tern)
    return [
        PropertyResult(
            "subgrad-oracle/grid",
            worst_grid >= 0.0,
            worst_grid,
            f"{points} points, tolerance 2e-3 in norm",
        ),
        PropertyResult(
            "subgrad-oracle/ternary",
            worst_ternary >= 0.0,
            worst_ternary,
            f"{points} points, tolerance 1e-8 in norm",
        ),
    ]


def _least(margins) -> float:
    """The least of the instances' margins, folded from +inf in instance
    order as each instance folds its own, so a nan margin is skipped as it is
    within an instance, and the result is that of one loop over them all."""
    return min([np.inf, *margins])


def _pl_margin(seed: int, samples_per: int, i: int) -> float | None:
    """Instance i of `suite_pl`: its least slack over its samples, or None when
    its reference does not certify."""
    rng = Rng(seed + 201 + i)
    prob = make_quadratic(30, rng, eig_range=(1.0, 10.0), pin_extremes=True)
    obj = prob.objective
    ref = reference_optimum(prob)
    if not ref.certified:
        return None
    worst = np.inf
    for _ in range(samples_per):
        x = rng.gaussians(obj.dim, 0.0, 3.0)
        lhs = obj.value(x) - ref.value
        rhs = float(np.linalg.norm(obj.min_norm_subgradient(x)) ** 2) / (2.0 * obj.mu)
        worst = min(worst, rhs + 1e-9 - lhs)
    return worst


def suite_pl(seed: int = 0, instances: int = 5, samples_per: int = 200) -> list[PropertyResult]:
    """Gap bounded by |min-norm subgradient|^2 / (2 mu) on strongly convex instances.

    The instances are independent, so they run in forked workers
    (`_fork.fork_map`); the worst margin is the min over instances.
    """
    margins = fork_map(partial(_pl_margin, seed, samples_per), range(instances))
    if None in margins:
        return [PropertyResult("pl", False, -np.inf, "reference failed to certify")]
    worst = _least(margins)
    total = instances * samples_per
    return [
        PropertyResult("pl", worst >= 0.0, worst, f"{total} samples, absolute slack 1e-9")
    ]


def _quadratic_gaps(prob, iterates: list[np.ndarray], x_star: np.ndarray) -> np.ndarray:
    """Gaps f(x_k) - f(x_star) without catastrophic cancellation.

    Once an iterate shares the exact sign pattern of the limit point, the gap
    equals d'Md/2 + (M x* + b + gamma*sign(x*))'d with d = x_k - x*, a sum of
    terms that vanish with d, so it stays accurate far below the float64
    resolution of f itself. Sign-mismatched (early) iterates fall back to the
    direct difference, whose noise is negligible at those magnitudes.
    """
    obj = prob.objective
    m = prob.data["matrix"]
    b = prob.data["offset"]
    s = np.sign(x_star)
    residual = m @ x_star + b + obj.gamma * s
    f_star = obj.value(x_star)
    gaps = np.empty(len(iterates))
    for j, x in enumerate(iterates):
        if np.array_equal(np.sign(x), s):
            d = x - x_star
            gaps[j] = 0.5 * float(d @ (m @ d)) + float(residual @ d)
        else:
            gaps[j] = obj.value(x) - f_star
    return gaps


def _rate_gaps(prob, iters: int, cap: int = 20_000) -> np.ndarray:
    """Gaps f(x_k) - f(x*), k = 0 .. iters, of the crossing subgradient method
    at h = 1/L from ``prob.x0``, x* being the trajectory's own limit point.

    In float64 the map is deterministic on a finite set, so the iterates
    reach an exact fixed point or a cycle of some period P. One walk from
    ``prob.x0`` feeds `solvers._Cycle`, which closes the cycle on its
    least-bytes point by step T + 2P for a tail of T steps; the walk stops
    there, or after ``iters + cap`` steps. Only the first ``iters + 1``
    iterates are held. x* is the first least-valued point of the P steps
    walked from the closing point: cycles at the rounding floor often hold
    several points of exactly equal f, and starting from the least-bytes
    point makes the choice among them a function of the cycle alone. If no
    cycle closes, x* is the last point reached.

    Each later iterate repeats the one P steps before it, and a gap is a
    function of the iterate alone, so each held iterate's gap is measured
    once and, when the cycle closed within ``iters``, the last P gaps repeat
    to ``iters``, as `solvers.run` fills ``f_values``.
    """
    obj = prob.objective
    h = 1.0 / obj.lipschitz_L
    x = prob.x0.copy()
    iterates = [x]
    cycle = _Cycle(x.tobytes())
    for k in range(iters + cap):
        x = subgradient_step(obj, x, h)
        if k < iters:
            iterates.append(x)
        period = cycle.period(x.tobytes())
        if period:
            break
    else:
        period = 1
    walk = [x]
    for _ in range(period - 1):
        walk.append(subgradient_step(obj, walk[-1], h))
    values = [obj.value(p) for p in walk]
    gaps = _quadratic_gaps(prob, iterates, walk[values.index(min(values))])
    return np.concatenate([gaps, np.resize(gaps[-period:], iters + 1 - len(gaps))])


def _rate_margin(seed: int, n: int, iters: int, i: int) -> float:
    """Instance i of `suite_rate`: the least slack of its gaps under the bound."""
    prob = make_quadratic(n, Rng(seed + 301 + i), eig_range=(1.0, 10.0), pin_extremes=True)
    obj = prob.objective
    kappa = 1.0 / (1.0 + obj.mu / obj.lipschitz_L)
    gaps = _rate_gaps(prob, iters)
    bound = gaps[0] * kappa ** np.arange(iters + 1) * (1.0 + 1e-9)
    return float(np.min(bound - gaps))


def suite_rate(
    seed: int = 0, instances: int = 20, n: int = 50, iters: int = 500
) -> list[PropertyResult]:
    """Linear decay of the gap at rate (1 + mu/L)^-1 for the crossing subgradient method.

    The optimum is the trajectory's own floating-point limit and late gaps are
    measured by the shifted quadratic form: beyond a few hundred iterations
    the bound drops below the float64 resolution of f, where only a
    cancellation-free measurement remains meaningful. Each instance walks its
    trajectory once (`_rate_gaps`): the walk stops once its iterate closes a
    cycle, x* is taken from that cycle, and each distinct iterate's gap is
    measured once. The instances are independent, so they run in forked
    workers (`_fork.fork_map`); the worst margin is the min over instances.
    """
    worst = _least(fork_map(partial(_rate_margin, seed, n, iters), range(instances)))
    return [
        PropertyResult(
            "rate",
            worst >= 0.0,
            worst,
            f"{instances} quadratics n={n}, mu=1, L=10, k <= {iters}, relative slack 1e-9",
        )
    ]


def _dominance_instance(seed: int, i: int, count: int):
    """Instance i of `suite_dominance`'s ``count``: four family blocks of
    ``count // 4`` (quadratic, lasso, logistic, logsumexp), then the families
    in turn."""
    per = max(1, count // 4)
    rng = Rng(seed + 401 + i)
    family = i // per if i // per < 4 else i % 4
    if family == 0:
        return make_quadratic(60, rng)
    if family == 1:
        return make_lasso(80, 100, rng)
    if family == 2:
        return make_logistic(150, 40, rng)
    return make_logsumexp(120, 50, rng)


def _dominance_margin(seed: int, count: int, iters: int, i: int) -> float:
    """Instance i of `suite_dominance`: its least slack over its iterations."""
    prob = _dominance_instance(seed, i, count)
    obj = prob.objective
    h = 1.0 / obj.lipschitz_L
    state = SolverState.initial(obj, prob.x0)
    cycle = _Cycle(state.key())
    worst = np.inf
    for _ in range(iters):
        state = accelerated_step(obj, state, h)
        f_q = state.f_x if state.x is state.q else obj.value(state.q)
        slack = 1e-12 * (1.0 + abs(f_q))
        worst = min(worst, f_q + slack - state.f_x)
        if cycle.period(state.key()):
            break
    return worst


def suite_dominance(seed: int = 0, instances: int = 100, iters: int = 300) -> list[PropertyResult]:
    """Each accelerated iteration must match or beat its own plain-subgradient candidate.

    An instance stops once the state its next step reads closes a cycle
    (`solvers._Cycle` on `SolverState.key`, by step T + 2P for a cycle of
    period P entered after T steps): every later step repeats one already
    checked, so its margin is one already seen, and all ``instances * iters``
    iterations count as checked.
    When the step kept ``x = q`` (``state.x is state.q``), f(q) is the
    ``state.f_x`` the step computed, the same `_value` of the same array, so
    it is read from there rather than computed again. The instances are
    independent, so they run in forked workers (`_fork.fork_map`); the worst
    margin is the min over instances.
    """
    worst = _least(
        fork_map(partial(_dominance_margin, seed, instances, iters), range(instances))
    )
    return [
        PropertyResult(
            "dominance",
            worst >= 0.0,
            worst,
            f"{instances} instances x {iters} iterations ({instances * iters} checks), "
            "slack 1e-12*(1+|f|)",
        )
    ]


def _oscillation_objective() -> CompositeObjective:
    return CompositeObjective(
        eval_g=lambda x: 0.005 * float(x[0] * x[0]),
        grad_g=lambda x: 0.01 * x,
        gamma=1.0,
        lipschitz_L=0.01,
        dim=1,
        mu=0.01,
    )


def suite_anti_oscillation() -> list[PropertyResult]:
    """Crossing control parks the 1-D iterate exactly at 0; the naive constant-step
    subgradient method keeps oscillating at a distance."""
    obj = _oscillation_objective()
    h = 1.0 / obj.lipschitz_L
    x = np.array([0.37])
    hit: int | None = None
    stayed = True
    for k in range(1, 21):
        x = subgradient_step(obj, x, h)
        if x[0] == 0.0 and hit is None:
            hit = k
        elif hit is not None and x[0] != 0.0:
            stayed = False
    ok_alg1 = hit is not None and hit <= 5 and stayed
    res1 = PropertyResult(
        "anti-oscillation/crossing",
        ok_alg1,
        float(5 - (hit if hit is not None else 999)),
        f"exact zero reached at iteration {hit}, stayed: {stayed}",
    )

    x = np.array([0.37])
    closest = np.inf
    # exponent 0 makes the step independent of k, so once x closes a cycle
    # every later |x_k| is one already seen
    cycle = _Cycle(x.tobytes())
    for k in range(1, 10_001):
        x = classic_subgradient_step(obj, x, k, scale=h, exponent=0.0)
        closest = min(closest, abs(float(x[0])))
        if cycle.period(x.tobytes()):
            break
    res2 = PropertyResult(
        "anti-oscillation/classic",
        closest > h / 4.0,
        float(closest - h / 4.0),
        f"min |x_k| = {closest:.6g} over 10^4 iterations vs h/4 = {h / 4.0}",
    )
    return [res1, res2]


def _central_fd(obj: CompositeObjective, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    g = np.empty(obj.dim)
    for i in range(obj.dim):
        e = np.zeros(obj.dim)
        e[i] = eps
        g[i] = (obj.smooth_value(x + e) - obj.smooth_value(x - e)) / (2.0 * eps)
    return g


def suite_gradcheck(seed: int = 0, points: int = 10) -> list[PropertyResult]:
    """Analytic gradients of every problem family vs central finite differences."""
    rng = Rng(seed + 501)
    builders = {
        "quadratic": lambda: make_quadratic(40, rng),
        "lasso": lambda: make_lasso(60, 80, rng),
        "logistic": lambda: make_logistic(100, 30, rng),
        "logsumexp": lambda: make_logsumexp(80, 40, rng),
        "toy2d": lambda: make_2d(),
        "toy2d-perturbed": lambda: perturb_2d(rng),
    }
    results = []
    for name, build in builders.items():
        prob = build()
        obj = prob.objective
        worst = np.inf
        for _ in range(points):
            x = rng.gaussians(obj.dim, 0.0, 2.0)
            grad = obj.smooth_grad(x)
            fd = _central_fd(obj, x)
            rel = float(np.linalg.norm(fd - grad) / max(1.0, np.linalg.norm(grad)))
            worst = min(worst, 1e-5 - rel)
        results.append(
            PropertyResult(
                f"gradcheck/{name}",
                worst >= 0.0,
                worst,
                f"{points} points, central differences eps=1e-6, relative tolerance 1e-5",
            )
        )
    return results


SUITES = {
    "subgrad-oracle": suite_subgrad_oracle,
    "pl": suite_pl,
    "rate": suite_rate,
    "dominance": suite_dominance,
    "anti-oscillation": lambda seed=0: suite_anti_oscillation(),
    "gradcheck": suite_gradcheck,
}

