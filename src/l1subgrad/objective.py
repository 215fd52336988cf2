"""Composite objectives f(x) = g(x) + gamma * |x|_1 and their subdifferential operators.

The solvers never look inside g; they only use the interface defined here:
value, smooth gradient, the minimal-norm subgradient, and (for the momentum
restart test) a one-sided subgradient consistent with a sign-constrained
region around a pair of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import as_vector


def soft_threshold(z, tau: float) -> np.ndarray:
    """Componentwise sign(z) * max(|z| - tau, 0), the prox of tau * |.|_1."""
    return _shrink(np.asarray(z, dtype=np.float64), tau)


def _shrink(z: np.ndarray, tau: float) -> np.ndarray:
    # `soft_threshold` of a float64 array, without the coercion
    return np.sign(z) * np.maximum(np.abs(z) - tau, 0.0)


def _min_norm_from_grad(grad: np.ndarray, x: np.ndarray, gamma: float) -> np.ndarray:
    # On the support the l1 term is differentiable (grad + gamma*sign(x)); on
    # zero components the least-|.| choice over [-gamma, gamma] is the
    # soft-threshold of the smooth partial derivative. Without zero components
    # the support's form holds everywhere, so the threshold is skipped
    # (count_nonzero costs a third of x.all() on short vectors).
    on_support = grad + gamma * np.sign(x)
    if np.count_nonzero(x) == x.size:
        return on_support
    return np.where(x != 0.0, on_support, _shrink(grad, gamma))


def _directional_from_grad(
    grad: np.ndarray, q: np.ndarray, qp: np.ndarray, gamma: float,
    prod: np.ndarray | None = None,
) -> np.ndarray:
    # Subgradient of f at q' consistent with the sign region of (q, q'), from
    # grad = grad_g(q'): grad_i + gamma where either point is positive,
    # grad_i - gamma where either is negative, plain grad_i where both are
    # exactly zero. The momentum phase guarantees q_i * q'_i >= 0, so a
    # violation indicates a solver bug. Given that, q_i + q'_i carries the
    # sign of whichever point is nonzero (np.sign of either zero is +0.0).
    # A caller that has just computed q' * q passes it as ``prod``; the
    # product is the same either way round.
    crossed = (q * qp if prod is None else prod) < 0.0
    if np.count_nonzero(crossed):
        bad = int(np.argmax(crossed))
        raise ValueError(
            f"sign-inconsistent pair at component {bad}: q={q[bad]}, q'={qp[bad]}"
        )
    return grad + gamma * np.sign(q + qp)


@dataclass(frozen=True)
class CompositeObjective:
    """f(x) = eval_g(x) + gamma * |x|_1 with metadata used by the solvers.

    eval_g / grad_g evaluate the smooth convex term and its (analytic)
    gradient. Both must be deterministic functions of x: the same bytes in
    give the same result, as for every built-in family. `run` relies on this
    when it stops at an exact fixed point of a method's step. lipschitz_L is
    a Lipschitz constant of grad_g, and mu an optional strong-convexity
    constant of g when one is known.

    A large built-in matrix family (`problems`) also carries its gradient's
    row split (``_rows``, a `_rowsplit.RowSplit`). alg2's momentum test then
    reads grad_g(q') on the rows that cover the support of q' alone, and on
    the quadratic a helper process forked from the walk's (`solvers._walk`)
    computes grad_g's other rows at the point q that the step may fall back
    to, also on steps that then keep their move. An objective made here, or
    with `dataclasses.replace`, has no split and is never lent that process:
    its oracles run in the calling thread alone, one call at a time, at the
    points the method reads.
    """

    # the split of grad_g's rows; only the large built-in matrix families
    # set it, and alg2 lends its helper to the quadratic's alone (its oracles
    # may run in a forked copy of the process)
    _rows = None

    eval_g: Callable[[np.ndarray], float]
    grad_g: Callable[[np.ndarray], np.ndarray]
    gamma: float
    lipschitz_L: float
    dim: int
    mu: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        if not (math.isfinite(self.lipschitz_L) and self.lipschitz_L > 0):
            raise ValueError(f"lipschitz_L must be finite and > 0, got {self.lipschitz_L}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        # 0 < mu <= L also rejects nan and inf now that L is finite
        if self.mu is not None and not 0 < self.mu <= self.lipschitz_L:
            raise ValueError(f"mu must satisfy 0 < mu <= L, got mu={self.mu}, L={self.lipschitz_L}")

    def value(self, x) -> float:
        """f(x) = g(x) + gamma * |x|_1."""
        return self._value(as_vector(x, dim=self.dim))

    def smooth_value(self, x) -> float:
        return float(self.eval_g(as_vector(x, dim=self.dim)))

    def smooth_grad(self, x) -> np.ndarray:
        return self._grad(as_vector(x, dim=self.dim))

    def min_norm_subgradient(self, x) -> np.ndarray:
        """The least-Euclidean-norm element of the subdifferential of f at x.

        The l1 subdifferential decouples across components, so the minimizer
        is found per coordinate: grad_g(x)_i + gamma * sign(x_i) where x_i is
        nonzero, and the soft-threshold of grad_g(x)_i by gamma where x_i is
        exactly zero. Evaluates grad_g once.
        """
        return self._sub(as_vector(x, dim=self.dim))

    # The raw forms below take x as a 1-D float64 array of length dim, already
    # checked by the caller; the solvers' kernels call them on every iteration.

    def _value(self, x: np.ndarray) -> float:
        # np.add.reduce is the reduction np.sum runs, without its Python wrapper
        return float(self.eval_g(x)) + self.gamma * float(np.add.reduce(np.abs(x)))

    def _grad(self, x: np.ndarray) -> np.ndarray:
        # grad_g is the caller's function, so its result is still checked
        g = self.grad_g(x)
        if type(g) is np.ndarray and g.dtype == np.float64 and g.shape == (self.dim,):
            return g
        return as_vector(g, dim=self.dim)

    def _sub(self, x: np.ndarray) -> np.ndarray:
        return _min_norm_from_grad(self._grad(x), x, self.gamma)
