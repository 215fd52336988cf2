"""The five iterative methods compared by the benchmark, plus the trace driver.

Solver ids (used by the CLI and in CSV output):

* ``alg1``    constant-step minimal-norm subgradient method with crossing control
* ``alg2``    its accelerated variant (conservative momentum + adaptive restart)
* ``ista``    forward-backward soft-thresholding with constant step
* ``fista``   FISTA with gradient-scheme adaptive restart
* ``classic`` textbook subgradient method with a decaying step schedule
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import as_vector
from .objective import (
    CompositeObjective,
    _directional_from_grad,
    _min_norm_from_grad,
    soft_threshold,
)

METHODS = ("alg1", "alg2", "ista", "fista", "classic")


class SolverError(RuntimeError):
    """A solver step produced an unusable state (non-finite intermediate, ...)."""


def _check_step(h: float):
    if not h > 0:
        raise ValueError(f"step size must be > 0, got {h}")


def _require_finite(v: np.ndarray, what: str):
    if not np.all(np.isfinite(v)):
        raise SolverError(f"non-finite values in {what}")


def _crossing_phase(obj, x, sub, h):
    """Forward step with sign-crossing control shared by alg1 and alg2.

    Moves to ``x - h*sub``; if any component strictly changes sign, the
    components whose product with the old iterate is <= 0 are pinned to zero
    first (point x'), the move for those components is re-derived from the
    minimal-norm subgradient at x', and the cheaper of x' and the completed
    point x'' is taken (x'' on ties).

    Returns (x_next, crossing_mask, prime_selected, f_next) where
    crossing_mask is None and f_next unknown (None) in the plain branch.
    """
    x_temp = x - h * sub
    _require_finite(x_temp, "the forward point x - h*d")
    prod = x_temp * x
    if np.all(prod >= 0.0):
        return x_temp, None, False, None
    mask = prod <= 0.0
    x_prime = np.where(mask, 0.0, x)
    sub_prime = obj.min_norm_subgradient(x_prime)
    v = np.where(mask, -h * sub_prime, -h * sub)
    x_second = x_prime + v
    _require_finite(x_second, "the completed point x''")
    f_prime = obj.value(x_prime)
    f_second = obj.value(x_second)
    if f_prime < f_second:
        return x_prime, mask, True, f_prime
    return x_second, mask, False, f_second


def _subgradient_step(obj: CompositeObjective, x, h: float):
    """`subgradient_step` plus f at the new point when the step computed it (else None)."""
    _check_step(h)
    x = as_vector(x, dim=obj.dim)
    sub = obj.min_norm_subgradient(x)
    x_next, _, _, f_next = _crossing_phase(obj, x, sub, h)
    return x_next, f_next


def subgradient_step(obj: CompositeObjective, x, h: float) -> np.ndarray:
    """One iteration of the constant-step minimal-norm subgradient method.

    Evaluates grad_g once when no component strictly changes sign, twice
    otherwise (the re-evaluation at the pinned point x').
    """
    return _subgradient_step(obj, x, h)[0]


@dataclass
class SolverState:
    """Iterate, momentum and bookkeeping carried across accelerated steps.

    ``q`` is the candidate the plain subgradient phase produced during the
    most recent step (the point the momentum phase must not fall behind);
    ``grad_cache`` holds grad_g at ``x`` when the previous step already
    evaluated it there.
    """

    x: np.ndarray
    p: np.ndarray
    k: int
    f_x: float
    q: np.ndarray | None = None
    grad_cache: np.ndarray | None = None

    @classmethod
    def initial(cls, obj: CompositeObjective, x0) -> "SolverState":
        x0 = as_vector(x0, dim=obj.dim)
        return cls(x=x0.copy(), p=np.zeros(obj.dim), k=0, f_x=obj.value(x0))


def accelerated_step(obj: CompositeObjective, state: SolverState, h: float) -> SolverState:
    """One iteration of the accelerated conservative subgradient method.

    Subgradient phase: identical to `subgradient_step`, except that momentum
    components are reset to zero wherever the iterate hits, crosses or sits on
    zero (and entirely when the pinned point x' wins the comparison).

    Momentum phase: tentatively moves q' = q + sqrt(h)*p, zeroing any
    component that would strictly flip sign against q (and re-deriving p from
    the actual displacement). The move is kept only if the one-sided
    subgradient at q' does not ascend along p; otherwise q' falls back to q.
    Either way p absorbs the displacement of the subgradient phase, so the
    scheme is conservative: momentum is only ever reset, never damped.
    """
    _check_step(h)
    x = state.x
    p = state.p
    if state.grad_cache is not None:
        sub = _min_norm_from_grad(state.grad_cache, x, obj.gamma)
    else:
        sub = obj.min_norm_subgradient(x)

    q, mask, prime_selected, f_q = _crossing_phase(obj, x, sub, h)
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
    if np.any(flip):
        q_prime = np.where(flip, 0.0, q_prime)
        p = (q_prime - q) / sqrt_h

    grad_qp = obj.smooth_grad(q_prime)
    r = float(_directional_from_grad(grad_qp, q, q_prime, obj.gamma) @ p)
    if r <= 0.0:
        p = p + (q - q_old) / sqrt_h
        x_new = q_prime
        grad_cache = grad_qp
        f_new = obj.value(x_new)
    else:
        x_new = q
        p = (q - q_old) / sqrt_h
        grad_cache = None
        f_new = f_q if f_q is not None else obj.value(x_new)

    return SolverState(x=x_new, p=p, k=state.k + 1, f_x=f_new, q=q, grad_cache=grad_cache)


def ista_step(obj: CompositeObjective, x, h: float) -> np.ndarray:
    """Forward gradient step followed by soft-thresholding at gamma*h."""
    _check_step(h)
    x = as_vector(x, dim=obj.dim)
    return soft_threshold(x - h * obj.smooth_grad(x), obj.gamma * h)


@dataclass
class FistaState:
    x: np.ndarray
    y: np.ndarray
    t: float

    @classmethod
    def initial(cls, x0) -> "FistaState":
        x0 = np.asarray(x0, dtype=np.float64)
        return cls(x=x0.copy(), y=x0.copy(), t=1.0)


def fista_restart_step(obj: CompositeObjective, state: FistaState, h: float) -> FistaState:
    """One FISTA step with the gradient-scheme adaptive restart.

    Momentum is reset (t back to 1, extrapolation point back to the new
    iterate) whenever <y - x_new, x_new - x_old> > 0, i.e. when the implicit
    composite gradient at y points against the direction just travelled.
    """
    _check_step(h)
    x_new = soft_threshold(state.y - h * obj.smooth_grad(state.y), obj.gamma * h)
    t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * state.t**2))
    y_new = x_new + ((state.t - 1.0) / t_new) * (x_new - state.x)
    if float((state.y - x_new) @ (x_new - state.x)) > 0.0:
        t_new = 1.0
        y_new = x_new.copy()
    return FistaState(x=x_new, y=y_new, t=t_new)


def classic_subgradient_step(
    obj: CompositeObjective, x, k: int, scale: float, exponent: float
) -> np.ndarray:
    """Textbook subgradient update x - h_k * d with h_k = scale * k**(-exponent).

    Uses the minimal-norm subgradient as the direction and applies no
    crossing control; this is the naive baseline.
    """
    if k < 1:
        raise ValueError(f"iteration index must be >= 1, got {k}")
    x = as_vector(x, dim=obj.dim)
    h_k = scale * float(k) ** (-exponent)
    return x - h_k * obj.min_norm_subgradient(x)


@dataclass(frozen=True)
class SolverConfig:
    """Which method to run and with what step policy."""

    method: str
    max_iter: int
    step_h: float | str = "auto"
    classic_step_scale: float = 10.0
    classic_step_exponent: float = 0.25

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be >= 0, got {self.max_iter}")
        if self.step_h != "auto":
            if not isinstance(self.step_h, (int, float)) or not self.step_h > 0:
                raise ValueError(f"step_h must be 'auto' or a positive number, got {self.step_h!r}")

    def resolve_step(self, obj: CompositeObjective) -> float:
        if self.step_h == "auto":
            return 1.0 / obj.lipschitz_L
        return float(self.step_h)


@dataclass
class IterationTrace:
    """Objective values of one run, k = 0 .. max_iter, plus metadata.

    ``h`` records the constant step actually used (for ``classic``, the k=1
    step, i.e. the schedule scale). ``f_values`` entries are finite except
    that a diverging run is recorded as +inf from the first bad iterate on.
    """

    method: str
    h: float
    f_values: np.ndarray
    f_ref: float | None = None
    problem: str = ""
    seed: int | None = None
    x_final: np.ndarray | None = None

    def gaps(self) -> np.ndarray | None:
        if self.f_ref is None:
            return None
        return self.f_values - self.f_ref

    def __len__(self) -> int:
        return len(self.f_values)


def run(
    obj: CompositeObjective,
    x0,
    cfg: SolverConfig,
    f_ref: float | None = None,
    problem: str = "",
    seed: int | None = None,
) -> IterationTrace:
    """Drive ``cfg.method`` for ``cfg.max_iter`` steps, recording f each iteration.

    Step errors are re-raised with the iteration index attached. If an iterate
    or objective value stops being finite (possible for ``classic``, whose
    large early steps may overflow on steep problems), the remaining trace is
    filled with +inf and iteration stops; methods with crossing control raise
    instead.
    """
    x0 = as_vector(x0, dim=obj.dim)
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    method = cfg.method
    h = cfg.resolve_step(obj)
    f_values = np.empty(cfg.max_iter + 1)
    acc_state = SolverState.initial(obj, x0) if method == "alg2" else None
    f_values[0] = acc_state.f_x if acc_state is not None else obj.value(x0)

    x = x0.copy()
    fista_state = FistaState.initial(x0) if method == "fista" else None

    # divergence of the unguarded methods is detected through inf propagation,
    # so the overflow it causes is expected, not an error condition
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, cfg.max_iter + 1):
            try:
                if method == "alg1":
                    x, f_k = _subgradient_step(obj, x, h)
                    if f_k is None:
                        f_k = obj.value(x)
                elif method == "alg2":
                    acc_state = accelerated_step(obj, acc_state, h)
                    x = acc_state.x
                    f_k = acc_state.f_x
                elif method == "ista":
                    x = ista_step(obj, x, h)
                    f_k = obj.value(x)
                elif method == "fista":
                    fista_state = fista_restart_step(obj, fista_state, h)
                    x = fista_state.x
                    f_k = obj.value(x)
                else:
                    x = classic_subgradient_step(
                        obj, x, k, cfg.classic_step_scale, cfg.classic_step_exponent
                    )
                    f_k = obj.value(x) if np.all(np.isfinite(x)) else np.inf
            except SolverError as exc:
                raise SolverError(f"{method} failed at iteration {k}: {exc}") from exc
            if not np.isfinite(f_k):
                f_values[k:] = np.inf
                break
            f_values[k] = f_k

    trace_h = cfg.classic_step_scale if method == "classic" else h
    return IterationTrace(
        method=method,
        h=trace_h,
        f_values=f_values,
        f_ref=f_ref,
        problem=problem,
        seed=seed,
        x_final=x,
    )
