"""The five iterative methods compared by the benchmark, plus the trace driver.

Solver ids (used by the CLI and in CSV output):

* ``alg1``    constant-step minimal-norm subgradient method with crossing control
* ``alg2``    its accelerated variant (conservative momentum + adaptive restart)
* ``ista``    forward-backward soft-thresholding with constant step
* ``fista``   FISTA with gradient-scheme adaptive restart
* ``classic`` textbook subgradient method with a decaying step schedule

Validation happens once, at the boundary. `run` checks the start point and
the resolved step before its loop; each public step function checks its step
and iterate on every call. Both then call the same private kernel per method
(``_crossing_phase`` after the minimal-norm subgradient for alg1,
``_accelerated_step``, ``_ista_step``, ``_fista_step``, ``_classic_step``),
which trusts its arrays: 1-D float64 of the objective's length. Inside the
kernels the objective is reached through its raw ``_value``/``_grad``/``_sub``
methods, which skip the coercion; only the result of the user's ``grad_g`` is
still checked.

One generator, `_walk`, steps a method from its start state and finds where
its states close a cycle; `run` and `bench.reference_optimum` both read it.
The `verify` suites keep their own loops on the public steps, each with its
own `_Cycle`, the one detector used everywhere.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass
from itertools import count, islice

import numpy as np

from . import _fork
from .numerics import as_vector
from .objective import (
    CompositeObjective,
    _directional_from_grad,
    _min_norm_from_grad,
    _shrink,
)

METHODS = ("alg1", "alg2", "ista", "fista", "classic")


class SolverError(RuntimeError):
    """A solver step produced an unusable state (non-finite intermediate, ...)."""


def _check_step(h: float):
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"step size must be finite and > 0, got {h}")


def _check_schedule(scale: float, exponent: float):
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"classic_step_scale must be finite and > 0, got {scale}")
    # exponent 0 gives a constant step, as in verify's anti-oscillation suite
    if not (math.isfinite(exponent) and exponent >= 0):
        raise ValueError(f"classic_step_exponent must be finite and >= 0, got {exponent}")


class _Cycle:
    """Nivasch's stack cycle detection on the states of a deterministic map.

    Build it from the start state's bytes, then feed `period` the bytes of
    each later state in order (``x.tobytes()``, or the state's ``key()``),
    so -0.0 differs from 0.0. It returns 0 until a state repeats an earlier
    one, then the least period P of the repeat: every later state, and
    everything computed from it, repeats with period P.

    Each state is compared first with the previous one (P = 1). Then a stack
    of ``(key, step)`` pairs, increasing from the bottom in plain byte order,
    drops every entry whose key is greater than the new one; if the top then
    equals the new key, the steps between them are P, else the new pair is
    pushed. A cycle's least key, once pushed, stays until it comes round
    again, and every other key of the cycle is dropped by it before it can
    repeat, so the detector closes on the second visit of the cycle's least
    key: by step T + 2P for a tail of T steps (Nivasch, IPL 90, 2004). The
    order is that of the bytes, the same in every process. The stack holds
    about the log of the steps taken in keys: at most 48 in ``verify --suite
    all``, and 22-49 (at most 0.65 MB) in runs of 2000-3000 alg1 or alg2
    steps on n = 1000 quadratics. With ``period_one_only=True`` only the
    P = 1 test runs.
    """

    def __init__(self, key: bytes, period_one_only: bool = False):
        self._prev = key
        self._stack = None if period_one_only else [(key, 0)]
        self._step = 0

    def period(self, key: bytes) -> int:
        self._step += 1
        if key == self._prev:
            return 1
        self._prev = key
        stack = self._stack
        if stack is not None:
            while stack and stack[-1][0] > key:
                stack.pop()
            if stack and stack[-1][0] == key:
                return self._step - stack[-1][1]
            stack.append((key, self._step))
        return 0


def _require_finite(v: np.ndarray, what: str):
    # count_nonzero has the truth value of .all() without its Python wrapper
    if np.count_nonzero(np.isfinite(v)) != v.size:
        raise SolverError(f"non-finite values in {what}")


def _crossing_phase(obj, x, sub, h):
    """Forward step with sign-crossing control shared by alg1 and alg2.

    Moves to ``x - h*sub``; if any component strictly changes sign, the
    components whose product with the old iterate is <= 0 are pinned to zero
    first (point x'), the move for those components is re-derived from the
    minimal-norm subgradient at x', and the cheaper of x' and the completed
    point x'' is taken (x'' on ties).

    Returns (x_next, crossing_mask, prime_selected, f_next) where
    crossing_mask is None and f_next unknown (None) in the plain branch. The
    sign test counts the components with ``x_temp * x >= 0``, so a NaN
    product takes the crossing branch, as a negative one does.
    """
    x_temp = x - h * sub
    _require_finite(x_temp, "the forward point x - h*d")
    prod = x_temp * x
    if np.count_nonzero(prod >= 0.0) == prod.size:
        return x_temp, None, False, None
    mask = prod <= 0.0
    x_prime = np.where(mask, 0.0, x)
    sub_prime = obj._sub(x_prime)
    v = np.where(mask, -h * sub_prime, -h * sub)
    x_second = x_prime + v
    _require_finite(x_second, "the completed point x''")
    f_prime = obj._value(x_prime)
    f_second = obj._value(x_second)
    if f_prime < f_second:
        return x_prime, mask, True, f_prime
    return x_second, mask, False, f_second


def subgradient_step(obj: CompositeObjective, x, h: float) -> np.ndarray:
    """One iteration of the constant-step minimal-norm subgradient method.

    Evaluates grad_g once when no component strictly changes sign, twice
    otherwise (the re-evaluation at the pinned point x').
    """
    _check_step(h)
    x = as_vector(x, dim=obj.dim)
    return _crossing_phase(obj, x, obj._sub(x), h)[0]


@dataclass
class SolverState:
    """Iterate, momentum and bookkeeping carried across accelerated steps.

    ``grad`` is grad_g at ``x``, as ``obj._grad`` computes it; ``q`` is the
    candidate the plain subgradient phase produced during the most recent
    step (the point the momentum phase must not fall behind).
    """

    x: np.ndarray
    p: np.ndarray
    f_x: float
    grad: np.ndarray
    q: np.ndarray | None = None

    @classmethod
    def initial(cls, obj: CompositeObjective, x0) -> "SolverState":
        x0 = as_vector(x0, dim=obj.dim)
        return cls(x=x0.copy(), p=np.zeros(obj.dim), f_x=obj._value(x0), grad=obj._grad(x0))

    def key(self) -> bytes:
        """The `_Cycle` key: the bytes of ``x`` and ``p``. ``grad`` is a
        deterministic function of ``x``, and ``f_x`` and ``q`` are not read
        by the next step."""
        return self.x.tobytes() + self.p.tobytes()


def _accelerated_step(
    obj: CompositeObjective, state: SolverState, h: float, helper=None
) -> SolverState:
    """`accelerated_step` without the checks.

    Where the objective splits grad_g's rows (``obj._rows``) and p is zero
    off the rows R(q') that cover the support of q', the momentum test r
    reads grad_g(q') on R(q') alone, zero elsewhere. The terms off R(q')
    are then zero as in the whole test, so r and every decision keep their
    bits; the other rows are computed only where the move is kept, and a
    non-finite entry there makes the step fall back, as its NaN in r would.

    The fallback to q (r > 0) needs f(q) and grad_g(q). A ``helper`` (a
    `_helper.Helper`, lent only with the quadratic's split) is posted q as
    soon as the crossing phase has made it, before this step computes q'
    and the test. It computes the split's `tail` at q, the rows of
    grad_g(q) off R(q), all of them where q is more than half nonzero. On a
    fallback the step computes the rows on R(q), from the blocks it has
    just read for the test, then takes the helper's rows if they come
    within as long again as the step has taken since posting, and
    otherwise, as without a helper, computes them itself; then f(q) on the
    assembled product. The helper returns only what this step would
    compute, and no error: those are raised here, where the step computes
    the rows. Where the move is kept the helper's work is dropped unread,
    as the step without it never evaluates at q. The bytes are the same
    either way.
    """
    x = state.x
    p = state.p
    sub = _min_norm_from_grad(state.grad, x, obj.gamma)

    q, mask, prime_selected, f_q = _crossing_phase(obj, x, sub, h)
    if helper is not None:
        helper.post(q)
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
    # the sign test reads this product again when nothing flipped; after a
    # flip q' has changed, so the test computes its own
    prod = q_prime * q
    flip = prod < 0.0
    if np.count_nonzero(flip):
        q_prime = np.where(flip, 0.0, q_prime)
        p = (q_prime - q) / sqrt_h
        prod = None

    rows = obj._rows
    if rows is not None and rows.covers(q_prime, p):
        r = float(_directional_from_grad(rows.padded(q_prime), q, q_prime, obj.gamma, prod) @ p)
        if r <= 0.0:
            grad_qp = rows.grad(q_prime)
            if np.count_nonzero(np.isfinite(grad_qp)) != grad_qp.size:
                r = math.nan
    else:
        grad_qp = obj._grad(q_prime)
        r = float(_directional_from_grad(grad_qp, q, q_prime, obj.gamma, prod) @ p)
    if r <= 0.0:
        p = p + (q - q_old) / sqrt_h
        x_new = q_prime
        grad = grad_qp
        f_new = obj._value(x_new)
    else:
        x_new = q
        p = (q - q_old) / sqrt_h
        if rows is None:
            f_new = obj._value(q) if f_q is None else f_q
            grad = obj._grad(q)
        else:
            # the rows first: the quadratic's f(q) then reads their product
            grad = rows.grad(q) if helper is None else rows.grad(q, helper.take)
            f_new = obj._value(q) if f_q is None else f_q

    return SolverState(x=x_new, p=p, f_x=f_new, grad=grad, q=q)


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
    state = SolverState(
        x=as_vector(state.x, dim=obj.dim),
        p=as_vector(state.p, dim=obj.dim),
        f_x=state.f_x,
        grad=as_vector(state.grad, dim=obj.dim),
        q=state.q,
    )
    return _accelerated_step(obj, state, h)


def _ista_step(obj: CompositeObjective, x: np.ndarray, h: float) -> np.ndarray:
    return _shrink(x - h * obj._grad(x), obj.gamma * h)


def ista_step(obj: CompositeObjective, x, h: float) -> np.ndarray:
    """Forward gradient step followed by soft-thresholding at gamma*h."""
    _check_step(h)
    return _ista_step(obj, as_vector(x, dim=obj.dim), h)


@dataclass
class FistaState:
    x: np.ndarray
    y: np.ndarray
    t: float

    @classmethod
    def initial(cls, x0) -> "FistaState":
        x0 = np.asarray(x0, dtype=np.float64)
        return cls(x=x0.copy(), y=x0.copy(), t=1.0)

    def key(self) -> bytes:
        """The `_Cycle` key: the bytes of ``x`` and ``y``. ``t`` is left out:
        it only scales ``x_new - x`` at a fixed point."""
        return self.x.tobytes() + self.y.tobytes()


def _fista_step(obj: CompositeObjective, state: FistaState, h: float) -> FistaState:
    x_new = _ista_step(obj, state.y, h)
    t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * state.t**2))
    y_new = x_new + ((state.t - 1.0) / t_new) * (x_new - state.x)
    if float((state.y - x_new) @ (x_new - state.x)) > 0.0:
        t_new = 1.0
        y_new = x_new.copy()
    return FistaState(x=x_new, y=y_new, t=t_new)


def fista_restart_step(obj: CompositeObjective, state: FistaState, h: float) -> FistaState:
    """One FISTA step with the gradient-scheme adaptive restart.

    Momentum is reset (t back to 1, extrapolation point back to the new
    iterate) whenever <y - x_new, x_new - x_old> > 0, i.e. when the implicit
    composite gradient at y points against the direction just travelled.
    """
    _check_step(h)
    state = FistaState(
        x=as_vector(state.x, dim=obj.dim), y=as_vector(state.y, dim=obj.dim), t=state.t
    )
    return _fista_step(obj, state, h)


def _classic_step(
    obj: CompositeObjective, x: np.ndarray, k: int, scale: float, exponent: float
) -> np.ndarray:
    h_k = scale * float(k) ** (-exponent)
    return x - h_k * obj._sub(x)


def classic_subgradient_step(
    obj: CompositeObjective, x, k: int, scale: float, exponent: float
) -> np.ndarray:
    """Textbook subgradient update x - h_k * d with h_k = scale * k**(-exponent).

    Uses the minimal-norm subgradient as the direction and applies no
    crossing control; this is the naive baseline.
    """
    if k < 1:
        raise ValueError(f"iteration index must be >= 1, got {k}")
    _check_schedule(scale, exponent)
    return _classic_step(obj, as_vector(x, dim=obj.dim), k, scale, exponent)


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
            if not (
                isinstance(self.step_h, (int, float))
                and math.isfinite(self.step_h)
                and self.step_h > 0
            ):
                raise ValueError(
                    f"step_h must be finite positive or 'auto', got {self.step_h!r}"
                )
        _check_schedule(self.classic_step_scale, self.classic_step_exponent)

    def resolve_step(self, obj: CompositeObjective) -> float:
        if self.step_h == "auto":
            return 1.0 / obj.lipschitz_L
        return float(self.step_h)


@dataclass
class IterationTrace:
    """Objective values of one run, k = 0 .. max_iter, and its last iterate.

    ``f_values`` entries are finite except that a diverging run is recorded
    as +inf from the first bad iterate on. Gaps to a reference are `bench`'s.
    """

    method: str
    f_values: np.ndarray
    x_final: np.ndarray


def _walk(obj: CompositeObjective, x0: np.ndarray, h: float, cfg: SolverConfig):
    """Yield ``(state, f, period)`` for the start state at ``x0``, then after
    each step of ``cfg.method`` at step size ``h``, for as long as it is asked.

    ``state`` is what the next step reads: the iterate for alg1, ista and
    classic, a `SolverState` for alg2, a `FistaState` for fista. ``f`` is f
    at its iterate, or +inf where classic's iterate is not finite.
    ``period`` is the period P of the cycle the state closes, else 0.

    The steps are deterministic functions of the state they read (the
    objective's ``eval_g`` and ``grad_g`` are deterministic functions of x,
    so the gradient alg2's state carries is one too), and float64 states
    form a finite set, so a converged walk ends at a fixed point or in a
    cycle. `_Cycle` compares the states' bytes (``x``; ``x`` and ``p`` for
    alg2; ``x`` and ``y`` for fista) and closes a cycle of period P entered
    after T steps by step T + 2P: there the state after step k repeats the
    state after step k - P, so every later step repeats one already taken.
    fista closes only at P = 1: its ``t`` grows between restarts and changes
    the step, so an ``(x, y)`` repeat of period 2 or more need not be a
    cycle, while at P = 1 ``t`` only scales ``x_new - x``, then exactly
    zero. classic never closes, since its step depends on k. The walk goes
    on stepping after a cycle closes.

    An alg2 walk on a large quadratic may own one helper process
    (`_fork.helper_for`), forked at its first step and lent to each step
    (`_accelerated_step`), which is killed and reaped when the walk is
    closed: close the walk rather than drop it. The bytes are those of the
    walk without it.
    """
    method = cfg.method
    key = np.ndarray.tobytes
    if method == "alg2":
        state = SolverState.initial(obj, x0)
        f, key = state.f_x, SolverState.key
    elif method == "fista":
        state, f, key = FistaState.initial(x0), obj._value(x0), FistaState.key
    else:
        state, f = x0.copy(), obj._value(x0)
    cycle = None if method == "classic" else _Cycle(key(state), period_one_only=method == "fista")
    period = 0
    helper = None
    try:
        for k in count(1):
            yield state, f, period
            if method == "alg2":
                if k == 1:
                    helper = _fork.helper_for(obj)
                state = _accelerated_step(obj, state, h, helper)
                f = state.f_x
            elif method == "alg1":
                state, _, _, f = _crossing_phase(obj, state, obj._sub(state), h)
                if f is None:
                    f = obj._value(state)
            elif method == "ista":
                state = _ista_step(obj, state, h)
                f = obj._value(state)
            elif method == "fista":
                state = _fista_step(obj, state, h)
                f = obj._value(state.x)
            else:
                state = _classic_step(
                    obj, state, k, cfg.classic_step_scale, cfg.classic_step_exponent
                )
                f = (obj._value(state) if np.count_nonzero(np.isfinite(state)) == state.size
                     else math.inf)
            if cycle is not None:
                period = cycle.period(key(state))
    finally:
        if helper is not None:
            helper.close()


def run(obj: CompositeObjective, x0, cfg: SolverConfig) -> IterationTrace:
    """Drive ``cfg.method`` for ``cfg.max_iter`` steps, recording f each iteration.

    x0 and f(x0) must be finite (`ValueError` otherwise). Step errors are
    re-raised with the iteration index attached. If an iterate or objective
    value stops being finite (possible for ``classic``, whose large early
    steps may overflow on steep problems), the remaining trace is filled with
    +inf and iteration stops; methods with crossing control raise instead.

    Iteration also stops once the walk (`_walk`) closes a cycle of period P
    at step k: ``f_values[k+1:]`` is filled by repeating the last P values,
    and ``x_final`` is the state ``(max_iter - k) % P`` steps further on the
    same walk. The returned bytes are those of stepping to ``max_iter``.
    """
    x0 = as_vector(x0, dim=obj.dim)
    if not np.isfinite(x0).all():
        raise ValueError("x0 must be finite")
    method = cfg.method
    h = cfg.resolve_step(obj)
    _check_step(h)
    f_values = np.empty(cfg.max_iter + 1)
    with closing(_walk(obj, x0, h, cfg)) as walk:
        state, f_values[0], _ = next(walk)
        if not math.isfinite(f_values[0]):
            raise ValueError(f"f(x0) must be finite, got {f_values[0]}")

        # divergence of the unguarded methods is detected through inf
        # propagation, so the overflow it causes is expected, not an error
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, cfg.max_iter + 1):
                try:
                    state, f_k, period = next(walk)
                except SolverError as exc:
                    raise SolverError(f"{method} failed at iteration {k}: {exc}") from exc
                f_values[k] = f_k
                if not math.isfinite(f_k):
                    f_values[k:] = np.inf
                    break
                if period:
                    rest = f_values[k + 1:]
                    rest[:] = np.resize(f_values[k + 1 - period:k + 1], rest.size)
                    for state, _, _ in islice(walk, rest.size % period):
                        pass
                    break

    x_final = state if isinstance(state, np.ndarray) else state.x
    return IterationTrace(method=method, f_values=f_values, x_final=x_final)
