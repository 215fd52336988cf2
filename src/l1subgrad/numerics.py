"""Deterministic randomness, seeded orthogonal factors and stable log-sum-exp.

The random stream is fully specified here (splitmix64 + Box-Muller with a fixed
draw order) instead of delegating to ``numpy.random``, so that problem
instances and benchmark traces can be regenerated bit-for-bit from a 64-bit
seed on one platform and numpy/BLAS build. Dense factorizations go to LAPACK
through numpy.
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class Rng:
    """Counter-based splitmix64 generator.

    The k-th raw output of the stream (k = 1, 2, ...) is
    ``mix(seed + k * 0x9E3779B97F4A7C15 mod 2**64)`` with the standard
    splitmix64 finalizer, so bulk draws vectorize and the stream depends only
    on the seed and on how many values have been consumed.

    Draw-order contract (what higher layers may rely on):

    * ``uniform``  consumes 1 raw value:  ``u = (raw >> 11) * 2**-53`` in [0, 1).
    * ``gaussian`` consumes 2 raw values: ``u1 = ((raw0 >> 11) + 1) * 2**-53``
      in (0, 1], ``u2 = (raw1 >> 11) * 2**-53``, and returns the Box-Muller
      cosine branch ``sqrt(-2 ln u1) * cos(2 pi u2)`` (the sine mate is
      discarded; no values are cached between calls).

    Vector draws consume values in index order; matrices fill row-major.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._count = 0

    def _raw(self, count: int) -> np.ndarray:
        idx = np.arange(self._count + 1, self._count + count + 1, dtype=np.uint64)
        self._count += count
        z = (np.uint64(self.seed) + idx * np.uint64(_GOLDEN)) & np.uint64(_MASK64)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

    def uniforms(self, count: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        if not lo <= hi:
            raise ValueError(f"uniform bounds must satisfy lo <= hi, got ({lo}, {hi})")
        u = (self._raw(count) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return lo + (hi - lo) * u

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return float(self.uniforms(1, lo, hi)[0])

    def gaussians(self, count: int, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        if std < 0:
            raise ValueError(f"gaussian std must be >= 0, got {std}")
        raw = self._raw(2 * count)
        u1 = ((raw[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
        u2 = (raw[1::2] >> np.uint64(11)).astype(np.float64) * 2.0**-53
        z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
        return mean + std * z

    def gaussian(self, mean: float = 0.0, std: float = 1.0) -> float:
        return float(self.gaussians(1, mean, std)[0])

    def gaussian_matrix(self, rows: int, cols: int) -> np.ndarray:
        return self.gaussians(rows * cols).reshape(rows, cols)


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce to a 1-D float64 array, optionally enforcing its length."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.shape[0]}")
    return v


def random_orthogonal(n: int, rng: Rng) -> np.ndarray:
    """Haar-distributed n x n orthogonal matrix from a seeded Gaussian QR.

    The factor is normalized so that diag(R) >= 0, which makes it unique for
    the (almost surely full-rank) Gaussian draw.
    """
    if n < 1:
        raise ValueError(f"random_orthogonal needs n >= 1, got {n}")
    q, r = np.linalg.qr(rng.gaussian_matrix(n, n))
    return q * np.where(np.diag(r) < 0.0, -1.0, 1.0)


def logsumexp(z) -> float:
    """Max-shifted log(sum(exp(z))), safe for entries of any magnitude."""
    z = as_vector(z)
    zmax = float(np.max(z))
    return zmax + float(np.log(np.sum(np.exp(z - zmax))))


def softmax(z) -> np.ndarray:
    z = as_vector(z)
    e = np.exp(z - np.max(z))
    return e / np.sum(e)
