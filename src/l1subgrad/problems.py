"""Seeded generators for the benchmark problem families.

Each generator consumes a `numerics.Rng` in a documented draw order, so an
instance is reproducible from (family, dimensions, seed) alone. All gradients
are analytic and every instance carries a Lipschitz constant that bounds the
gradient's variation from above (planted where the spectrum is built in, from
the exact LAPACK spectral norm otherwise).

The matrix families (quadratic, lasso, logistic, logsumexp) compute the
product of their matrix with x once per point: ``eval_g`` and ``grad_g`` read
it through `_shared_product`, which remembers the last point and its product.
The solvers often ask for g and its gradient at the same point in turn (f(x)
after a step, the subgradient at x in the next), and the product dominates
either call. The 2-D example has no product to share and keeps plain closures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numerics import Rng, logsumexp, random_orthogonal, softmax
from .objective import CompositeObjective


def _shared_product(mat: np.ndarray):
    """x -> mat @ x, computed once for repeated calls at the same point.

    A one-slot memo holding the last point's shape and bytes with its
    product, as one tuple, so that a reader never sees a point paired with
    another point's product. The bytes are a copy: mutating the caller's
    array in place cannot make a stale hit. Comparing bytes is exact (it
    tells -0.0 from 0.0) and costs about a microsecond at n = 1000, against
    hundreds for the product.
    """
    memo = (None, None)

    def product(x):
        nonlocal memo
        x = np.asarray(x, dtype=np.float64)
        key = (x.shape, x.tobytes())
        last_key, last_y = memo
        if key == last_key:
            return last_y
        y = mat @ x
        memo = (key, y)
        return y

    return product


@dataclass(frozen=True)
class ProblemInstance:
    """A composite objective plus its canonical start and optional certificates.

    ``data`` exposes the raw generative arrays (design matrices, offsets, ...)
    for instance dumping and for measurement code that needs more than the
    black-box objective interface.
    """

    objective: CompositeObjective
    x0: np.ndarray
    label: str
    f_ref: float | None = None
    mu_known: float | None = None
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

    mx = _shared_product(m)

    def eval_g(x, _b=b):
        return 0.5 * float(x @ mx(x)) + float(_b @ x)

    def grad_g(x, _b=b):
        return mx(x) + _b

    mu = float(np.min(eigs))
    lip = float(np.max(eigs))
    obj = CompositeObjective(
        eval_g=eval_g, grad_g=grad_g, gamma=gamma, lipschitz_L=lip, dim=n, mu=mu
    )
    return ProblemInstance(
        objective=obj,
        x0=x0,
        label="quadratic",
        mu_known=mu,
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

    ax = _shared_product(a)

    def eval_g(x, _b=b):
        res = ax(x) - _b
        return 0.5 * float(res @ res)

    def grad_g(x, _a=a, _b=b):
        return _a.T @ (ax(x) - _b)

    lip = float(np.max(sigma)) ** 2
    mu = float(np.min(sigma)) ** 2 if m >= n else None
    obj = CompositeObjective(
        eval_g=eval_g, grad_g=grad_g, gamma=gamma, lipschitz_L=lip, dim=n, mu=mu
    )
    return ProblemInstance(
        objective=obj,
        x0=x0,
        label="lasso",
        mu_known=mu,
        data={"design": a, "rhs": b, "target": y, "singular_values": sigma},
    )


def _sigmoid(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


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

    mx = _shared_product(mat)

    def eval_g(x, _b=labels):
        t = mx(x)
        return float(np.sum((1.0 - _b) * t + np.logaddexp(0.0, -t)))

    def grad_g(x, _m=mat, _b=labels):
        return _m.T @ (_sigmoid(mx(x)) - _b)

    if gamma is None:
        gamma = 0.25 * float(np.max(np.abs(grad_g(np.zeros(n)))))
    lip = 0.25 * float(np.linalg.norm(mat, 2)) ** 2
    obj = CompositeObjective(eval_g=eval_g, grad_g=grad_g, gamma=gamma, lipschitz_L=lip, dim=n)
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
    if r <= 0:
        raise ValueError(f"smoothing r must be > 0, got {r}")
    mat = rng.gaussian_matrix(k, n)
    b = rng.gaussians(k)
    x0 = rng.gaussians(n)
    if gamma is None:
        gamma = 1.0

    mx = _shared_product(mat)

    def eval_g(x, _b=b, _r=r):
        return _r * logsumexp((mx(x) - _b) / _r)

    def grad_g(x, _m=mat, _b=b, _r=r):
        return _m.T @ softmax((mx(x) - _b) / _r)

    lip = float(np.linalg.norm(mat, 2)) ** 2 / r
    obj = CompositeObjective(eval_g=eval_g, grad_g=grad_g, gamma=gamma, lipschitz_L=lip, dim=n)
    return ProblemInstance(
        objective=obj,
        x0=x0,
        label="logsumexp",
        data={"design": mat, "offset": b, "smoothing": r},
    )


def make_2d(
    c: float = 0.85, gamma: float = 1.0, x0: tuple[float, float] = (0.95, 0.5)
) -> ProblemInstance:
    """The 2-D quadratic whose minimizer sits on the x2 = 0 axis.

    g(x) = (x1^2 + 2c*x1*x2 + 1.5*x2^2)/2 - 2*x1 + (1-c)*x2, convex for
    c^2 < 1.5. For gamma = 1 the minimizer is exactly (1, 0) with value -0.5
    (the zero vector is a boundary point of the subdifferential there, which
    is what makes the axis decision hard for thresholding methods).
    """
    if c * c >= 1.5:
        raise ValueError(f"need c^2 < 1.5 for a convex quadratic, got c={c}")

    def eval_g(x, _c=c):
        return 0.5 * (x[0] ** 2 + 2.0 * _c * x[0] * x[1] + 1.5 * x[1] ** 2) - 2.0 * x[0] + (
            1.0 - _c
        ) * x[1]

    def grad_g(x, _c=c):
        return np.array(
            [x[0] + _c * x[1] - 2.0, _c * x[0] + 1.5 * x[1] + (1.0 - _c)]
        )

    # eigenvalues of [[1, c], [c, 1.5]]
    half_gap = math.sqrt(0.0625 + c * c)
    mu = 1.25 - half_gap
    lip = 1.25 + half_gap
    f_ref = -0.5 if gamma == 1.0 else None
    obj = CompositeObjective(
        eval_g=eval_g, grad_g=grad_g, gamma=gamma, lipschitz_L=lip, dim=2, mu=mu
    )
    return ProblemInstance(
        objective=obj,
        x0=np.asarray(x0, dtype=np.float64),
        label="toy2d",
        f_ref=f_ref,
        mu_known=mu,
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
    N(0.95, 0.05) and N(0.5, 0.05). No analytic optimum is attached.
    """
    c = rng.gaussian(0.85, 0.1)
    while c * c >= 1.5:
        c = rng.gaussian(0.85, 0.1)
    gamma = rng.gaussian(1.0, 0.1)
    while gamma <= 0.0:
        gamma = rng.gaussian(1.0, 0.1)
    x0 = (rng.gaussian(0.95, 0.05), rng.gaussian(0.5, 0.05))
    base = make_2d(c=c, gamma=gamma, x0=x0)
    return ProblemInstance(
        objective=base.objective,
        x0=base.x0,
        label="toy2d-perturbed",
        f_ref=None,
        mu_known=base.mu_known,
        data=base.data,
    )


def dump_instance(instance: ProblemInstance, path) -> None:
    """Write a plain-text dump: key=value header, then row-major array blocks.

    Scalars are written with shortest round-trip repr; each array block starts
    with ``[name rows=r cols=c]`` followed by r lines of c space-separated
    values. Vectors dump as a single row. Intended for diffing instances
    across implementations, not as a load format (instances are regenerated
    from seeds).
    """
    obj = instance.objective
    lines = [
        f"label={instance.label}",
        f"dim={obj.dim}",
        f"gamma={obj.gamma!r}",
        f"lipschitz_L={obj.lipschitz_L!r}",
        f"mu={'' if obj.mu is None else repr(obj.mu)}",
        f"f_ref={'' if instance.f_ref is None else repr(instance.f_ref)}",
    ]

    def block(name: str, arr: np.ndarray):
        arr = np.atleast_2d(np.asarray(arr, dtype=np.float64))
        lines.append(f"[{name} rows={arr.shape[0]} cols={arr.shape[1]}]")
        for row in arr:
            lines.append(" ".join(repr(float(v)) for v in row))

    block("x0", instance.x0)
    for name in sorted(instance.data or {}):
        value = instance.data[name]
        if np.isscalar(value):
            lines.insert(6, f"{name}={float(value)!r}")
        else:
            block(name, value)
    Path(path).write_text("\n".join(lines) + "\n")
