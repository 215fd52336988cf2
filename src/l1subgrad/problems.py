"""Seeded generators for the benchmark problem families.

Each generator consumes a `numerics.Rng` in a documented draw order, so an
instance is reproducible from (family, dimensions, seed) alone. All gradients
are analytic and every instance carries a Lipschitz constant that bounds the
gradient's variation from above (planted where the spectrum is built in, from
the exact LAPACK spectral norm otherwise).

The matrix families (quadratic, lasso, logistic, logsumexp) compute the
product of their matrix with x once per point, and ``eval_g`` and ``grad_g``
share it. The solvers often ask for g and its gradient at the same point in
turn (f(x) after a step, the subgradient at x in the next), and the product
dominates either call. Below `_BLOCK_MIN_SIZE` elements a family reads it
through `_shared_product`, which remembers the last point and its product.

From `_BLOCK_MIN_SIZE` on, a family computes its products in `_rowsplit`. Where
x has at most half its components nonzero, as the l1 methods' iterates do once
their sign pattern settles, the products read only the columns of x's support,
and the gradient comes in two row blocks: the rows R(x) that cover x's support
and every other row, which together give ``grad_g(x)`` bit for bit. alg2's
momentum test reads only the first. The family records its split on the
objective (``CompositeObjective._rows``); only the quadratic's is lent alg2's
helper process, which computes the second block and keeps its own copy of the
memos. The 2-D example has no product to share and keeps plain closures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .numerics import Rng, logsumexp, random_orthogonal, softmax
from .objective import CompositeObjective

# The least element count of a matrix whose products skip the columns where
# x is zero and whose family computes its gradient in row blocks
# (`_rowsplit`), from measured crossovers (README): below it the support
# test and gathers cost more than they save.
_BLOCK_MIN_SIZE = 150_000


def _shared_product(mat: np.ndarray):
    """x -> mat @ x, computed once for repeated calls at the same point.

    A one-slot memo holding the last point's shape and bytes with its
    product, as one tuple, so that a reader never sees a point paired with
    another point's product. The bytes are a copy: mutating the caller's
    array in place cannot make a stale hit. Comparing bytes is exact (it
    tells -0.0 from 0.0) and costs about a microsecond at n = 1000, against
    hundreds for the product. The families' matrices below
    `_BLOCK_MIN_SIZE` use it; larger ones keep their points in `_rowsplit`.
    """
    last = (None, None)

    def product(x):
        nonlocal last
        x = np.asarray(x, dtype=np.float64)
        key = (x.shape, x.tobytes())
        last_key, last_y = last
        if key == last_key:
            return last_y
        y = mat @ x
        last = (key, y)
        return y

    return product


def _transposed(mat: np.ndarray, phi):
    """(mx, grad_g, split) of a family whose g reads M x and whose gradient
    is ``mat.T @ phi(mat @ x)``.

    Below `_BLOCK_MIN_SIZE` the split is None and mx is `_shared_product`'s
    memo; from it on, all three come from `_rowsplit.TransposedSplit`, whose
    row blocks give grad_g for every method, as the quadratic's do.
    """
    if mat.size < _BLOCK_MIN_SIZE:
        mx = _shared_product(mat)
        return mx, lambda x, _m=mat: _m.T @ phi(mx(x)), None
    from ._rowsplit import TransposedSplit

    rows = TransposedSplit(mat, phi)
    return rows.mx, rows.grad, rows


def _record(obj: CompositeObjective, rows):
    # what alg2's momentum test reads, and its helper's gate: only a split
    # with a `tail`, the quadratic's, is lent one (`_fork.helper_for`)
    object.__setattr__(obj, "_rows", rows)


@dataclass(frozen=True)
class ProblemInstance:
    """A composite objective plus its canonical start and optional certificates.

    ``data`` exposes the raw generative arrays (design matrices, offsets, ...)
    for measurement code that needs more than the black-box objective
    interface.
    """

    objective: CompositeObjective
    x0: np.ndarray
    label: str
    f_ref: float | None = None
    data: dict | None = None


def make_quadratic(
    n: int,
    rng: Rng,
    eig_range: tuple[float, float] = (0.02, 100.0),
    pin_extremes: bool = False,
    gamma: float | None = None,
) -> ProblemInstance:
    """Strongly convex quadratic g(x) = x'Mx/2 + b'x with a planted spectrum.

    Draw order: n eigenvalues uniform in eig_range (the first two are
    overwritten by the interval endpoints when pin_extremes is set, so that
    mu and L are exact), the orthogonal basis (n*n gaussians), b (n gaussians,
    std 4), x0 (n gaussians, std 2). Default gamma is 0.25 * max|b_i|.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if pin_extremes and n < 2:
        raise ValueError("pin_extremes needs n >= 2")
    lo, hi = eig_range
    if not 0 < lo <= hi:
        raise ValueError(f"invalid eigenvalue range {eig_range}")
    eigs = rng.uniforms(n, lo, hi)
    if pin_extremes:
        eigs[0] = lo
        eigs[1] = hi
    q = random_orthogonal(n, rng)
    m = (q * eigs) @ q.T
    m = 0.5 * (m + m.T)
    b = rng.gaussians(n, 0.0, 4.0)
    x0 = rng.gaussians(n, 0.0, 2.0)
    if gamma is None:
        gamma = 0.25 * float(np.max(np.abs(b)))

    if m.size < _BLOCK_MIN_SIZE:
        rows, mx = None, _shared_product(m)

        def grad_g(x, _b=b):
            return mx(x) + _b
    else:
        from ._rowsplit import QuadraticSplit

        rows = QuadraticSplit(m, b)
        mx, grad_g = rows.mx, rows.grad

    def eval_g(x, _b=b):
        return 0.5 * float(x @ mx(x)) + float(_b @ x)

    mu = float(np.min(eigs))
    lip = float(np.max(eigs))
    obj = CompositeObjective(
        eval_g=eval_g, grad_g=grad_g, gamma=gamma, lipschitz_L=lip, dim=n, mu=mu
    )
    _record(obj, rows)
    return ProblemInstance(
        objective=obj,
        x0=x0,
        label="quadratic",
        data={"matrix": m, "offset": b, "eigenvalues": eigs},
    )


def make_lasso(
    m: int, n: int, rng: Rng, noise_std: float = 0.1, gamma: float | None = None
) -> ProblemInstance:
    """Sparse regression g(x) = |Ax - b|^2 / 2 with planted singular values.

    Draw order: min(m, n) singular values uniform in [1, 10], left orthogonal
    factor (m*m gaussians), right orthogonal factor (n*n gaussians), support
    uniforms for the sparse target y (kept with probability 0.3), y values
    uniform in [0, 1], noise w (m gaussians, std noise_std), x0 (n gaussians,
    std 2). b = A y + w; default gamma is 1.
    """
    if m < 1 or n < 1:
        raise ValueError(f"dimensions must be >= 1, got m={m}, n={n}")
    r = min(m, n)
    sigma = rng.uniforms(r, 1.0, 10.0)
    u = random_orthogonal(m, rng)
    v = random_orthogonal(n, rng)
    a = (u[:, :r] * sigma) @ v[:, :r].T
    support = rng.uniforms(n) < 0.3
    values = rng.uniforms(n)
    y = np.where(support, values, 0.0)
    w = rng.gaussians(m, 0.0, noise_std)
    b = a @ y + w
    x0 = rng.gaussians(n, 0.0, 2.0)
    if gamma is None:
        gamma = 1.0

    ax, grad_g, rows = _transposed(a, lambda t, _b=b: t - _b)

    def eval_g(x, _b=b):
        res = ax(x) - _b
        return 0.5 * float(res @ res)

    lip = float(np.max(sigma)) ** 2
    mu = float(np.min(sigma)) ** 2 if m >= n else None
    obj = CompositeObjective(
        eval_g=eval_g, grad_g=grad_g, gamma=gamma, lipschitz_L=lip, dim=n, mu=mu
    )
    _record(obj, rows)
    return ProblemInstance(
        objective=obj,
        x0=x0,
        label="lasso",
        data={"design": a, "rhs": b, "target": y, "singular_values": sigma},
    )


def _sigmoid(t: np.ndarray) -> np.ndarray:
    # exp(-|t|) never overflows; it is exp(-t) where t >= 0 and exp(t) elsewhere
    e = np.exp(-np.abs(t))
    d = 1.0 + e
    return np.where(t >= 0, 1.0 / d, e / d)


def make_logistic(m: int, n: int, rng: Rng, gamma: float | None = None) -> ProblemInstance:
    """Sparse logistic regression with Bernoulli labels from a hidden sparse signal.

    Draw order: support uniforms for the hidden signal (nonzero with
    probability 0.2), signal values (n standard gaussians), the design matrix
    (m*n standard gaussians, row-major), label uniforms (label 1 where the
    uniform falls below the logistic probability of the corresponding row
    score), x0 (n gaussians, std 2). Default gamma is 0.25 * |grad_g(0)|_inf;
    L is sigma_max(M)^2 / 4.
    """
    if m < 1 or n < 1:
        raise ValueError(f"dimensions must be >= 1, got m={m}, n={n}")
    support = rng.uniforms(n) < 0.2
    values = rng.gaussians(n)
    x_real = np.where(support, values, 0.0)
    mat = rng.gaussian_matrix(m, n)
    probs = _sigmoid(mat @ x_real)
    labels = (rng.uniforms(m) < probs).astype(np.float64)
    x0 = rng.gaussians(n, 0.0, 2.0)

    mx, grad_g, rows = _transposed(mat, lambda t, _b=labels: _sigmoid(t) - _b)

    def eval_g(x, _nb=1.0 - labels):
        # np.add.reduce is the reduction np.sum runs, without its Python wrapper
        t = mx(x)
        return float(np.add.reduce(_nb * t + np.logaddexp(0.0, -t)))

    if gamma is None:
        gamma = 0.25 * float(np.max(np.abs(grad_g(np.zeros(n)))))
    lip = 0.25 * float(np.linalg.norm(mat, 2)) ** 2
    obj = CompositeObjective(eval_g=eval_g, grad_g=grad_g, gamma=gamma, lipschitz_L=lip, dim=n)
    _record(obj, rows)
    return ProblemInstance(
        objective=obj,
        x0=x0,
        label="logistic",
        data={"design": mat, "labels": labels, "signal": x_real},
    )


def make_logsumexp(
    k: int, n: int, rng: Rng, r: float = 5.0, gamma: float | None = None
) -> ProblemInstance:
    """Smoothed max g(x) = r * log(sum_i exp((<M_i, x> - b_i) / r)).

    Draw order: the matrix (k*n standard gaussians, row-major), offsets b
    (k standard gaussians), x0 (n standard gaussians). Evaluation is
    max-shifted so row scores of any magnitude are safe. Default gamma is 1;
    L is sigma_max(M)^2 / r.
    """
    if k < 1 or n < 1:
        raise ValueError(f"dimensions must be >= 1, got k={k}, n={n}")
    if not (math.isfinite(r) and r > 0):
        raise ValueError(f"smoothing r must be finite and > 0, got {r}")
    mat = rng.gaussian_matrix(k, n)
    b = rng.gaussians(k)
    x0 = rng.gaussians(n)
    if gamma is None:
        gamma = 1.0

    mx, grad_g, rows = _transposed(mat, lambda t, _b=b, _r=r: softmax((t - _b) / _r))

    def eval_g(x, _b=b, _r=r):
        return _r * logsumexp((mx(x) - _b) / _r)

    lip = float(np.linalg.norm(mat, 2)) ** 2 / r
    obj = CompositeObjective(eval_g=eval_g, grad_g=grad_g, gamma=gamma, lipschitz_L=lip, dim=n)
    _record(obj, rows)
    return ProblemInstance(
        objective=obj,
        x0=x0,
        label="logsumexp",
        data={"design": mat, "offset": b, "smoothing": r},
    )


def _2d_optimum(c: float, gamma: float) -> float:
    """f* of the 2-D example, exactly. f is strongly convex, so its minimizer
    is among the points that, for a sign pattern s with support S, solve
    H_SS x_S = r_S, r = -(b + gamma*s), with sign(x_S) = s_S (H and b are g's
    Hessian and offset); f there is -r'x / 2. Each system is 2x2 or 1x1,
    solved by Cramer's rule in Python floats.
    """
    best = 0.0  # f(0), the value of the zero pattern's point
    for s1, s2 in product((-1, 0, 1), repeat=2):
        r1, r2 = 2.0 - gamma * s1, c - 1.0 - gamma * s2
        if s1 and s2:
            det = 1.5 - c * c
            x1, x2 = (1.5 * r1 - c * r2) / det, (r2 - c * r1) / det
        else:
            x1, x2 = (r1 if s1 else 0.0), (r2 / 1.5 if s2 else 0.0)
        if (x1 > 0) - (x1 < 0) == s1 and (x2 > 0) - (x2 < 0) == s2:
            best = min(best, -0.5 * (r1 * x1 + r2 * x2))
    return best


def make_2d(
    c: float = 0.85, gamma: float = 1.0, x0: tuple[float, float] = (0.95, 0.5)
) -> ProblemInstance:
    """The 2-D quadratic whose minimizer sits on the x2 = 0 axis.

    g(x) = (x1^2 + 2c*x1*x2 + 1.5*x2^2)/2 - 2*x1 + (1-c)*x2, convex for
    c^2 < 1.5. For gamma = 1 the minimizer is exactly (1, 0) with value -0.5
    (the zero vector is a boundary point of the subdifferential there, which
    is what makes the axis decision hard for thresholding methods). Every
    (c, gamma) carries its exact optimum value as ``f_ref`` (`_2d_optimum`).
    """
    if c * c >= 1.5:
        raise ValueError(f"need c^2 < 1.5 for a convex quadratic, got c={c}")

    # The oracles read x as two Python floats: their arithmetic is the IEEE
    # arithmetic of numpy's float64 scalars, bit for bit, at a fraction of the
    # cost. Only ``**`` differs, raising OverflowError where numpy returns inf,
    # so an overflowing square is computed again on numpy scalars.
    def g(x1, x2, _c=c):
        return 0.5 * (x1 ** 2 + 2.0 * _c * x1 * x2 + 1.5 * x2 ** 2) - 2.0 * x1 + (1.0 - _c) * x2

    def eval_g(x):
        try:
            return g(*x.tolist())
        except OverflowError:
            return g(x[0], x[1])

    def grad_g(x, _c=c):
        x1, x2 = x.tolist()
        return np.array([x1 + _c * x2 - 2.0, _c * x1 + 1.5 * x2 + (1.0 - _c)])

    # eigenvalues of [[1, c], [c, 1.5]]
    half_gap = math.sqrt(0.0625 + c * c)
    mu = 1.25 - half_gap
    lip = 1.25 + half_gap
    obj = CompositeObjective(
        eval_g=eval_g, grad_g=grad_g, gamma=gamma, lipschitz_L=lip, dim=2, mu=mu
    )
    return ProblemInstance(
        objective=obj,
        x0=np.asarray(x0, dtype=np.float64),
        label="toy2d",
        f_ref=_2d_optimum(c, gamma),
        data={
            "hessian": np.array([[1.0, c], [c, 1.5]]),
            "offset": np.array([-2.0, 1.0 - c]),
            "c": c,
        },
    )


def perturb_2d(rng: Rng) -> ProblemInstance:
    """Gaussian perturbation of the 2-D example around its defaults.

    Draw order: c ~ N(0.85, 0.1) (redrawn while c^2 >= 1.5), gamma ~ N(1, 0.1)
    (redrawn while gamma <= 0), then the two start coordinates
    N(0.95, 0.05) and N(0.5, 0.05). The instance carries the exact optimum
    value of its (c, gamma), as `make_2d` does.
    """
    c = rng.gaussian(0.85, 0.1)
    while c * c >= 1.5:
        c = rng.gaussian(0.85, 0.1)
    gamma = rng.gaussian(1.0, 0.1)
    while gamma <= 0.0:
        gamma = rng.gaussian(1.0, 0.1)
    x0 = (rng.gaussian(0.95, 0.05), rng.gaussian(0.5, 0.05))
    return replace(make_2d(c=c, gamma=gamma, x0=x0), label="toy2d-perturbed")
