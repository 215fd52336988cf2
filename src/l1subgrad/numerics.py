"""Deterministic randomness, seeded orthogonal factors and stable log-sum-exp.

The random stream is fully specified here (splitmix64 + Box-Muller with a fixed
draw order) instead of delegating to ``numpy.random``, so that problem
instances and benchmark traces can be regenerated bit-for-bit from a 64-bit
seed on one platform and numpy/BLAS build. Bulk draws are generated in
fixed-size chunks, so their scratch memory does not grow with the count; the
stream contract is unchanged. Dense factorizations go to LAPACK through numpy.
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# values generated per piece of a bulk draw: bounds its scratch arrays
_CHUNK = 2**15


class Rng:
    """Counter-based splitmix64 generator.

    The k-th raw output of the stream (k = 1, 2, ...) is
    ``mix(seed + k * 0x9E3779B97F4A7C15 mod 2**64)`` with the standard
    splitmix64 finalizer, so the stream depends only on the seed and on how
    many values have been consumed. Bulk draws are generated in fixed-size
    chunks; the stream contract is unchanged.

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
        z = np.arange(self._count + 1, self._count + count + 1, dtype=np.uint64)
        self._count += count
        z *= np.uint64(_GOLDEN)
        z += np.uint64(self.seed)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return z

    def _fill(self, count: int, raws_per_value: int, finish) -> np.ndarray:
        """``count`` values, each from ``raws_per_value`` raw values, made
        ``_CHUNK`` at a time: ``finish(raw >> 11, out)`` writes one piece."""
        if count < 0:
            raise ValueError(f"draw count must be >= 0, got {count}")
        out = np.empty(count)
        for start in range(0, count, _CHUNK):
            piece = out[start:start + _CHUNK]
            raw = self._raw(raws_per_value * piece.size)
            raw >>= np.uint64(11)
            finish(raw, piece)
        return out

    def uniforms(self, count: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        if not lo <= hi:
            raise ValueError(f"uniform bounds must satisfy lo <= hi, got ({lo}, {hi})")

        def finish(raw, u):
            u[:] = raw  # exact: below 2**53
            u *= 2.0**-53
            u *= hi - lo
            u += lo

        return self._fill(count, 1, finish)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return float(self.uniforms(1, lo, hi)[0])

    def gaussians(self, count: int, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        if std < 0:
            raise ValueError(f"gaussian std must be >= 0, got {std}")

        def finish(raw, z):
            u2 = raw[1::2].astype(np.float64)
            z[:] = raw[0::2]
            z += 1.0
            z *= 2.0**-53
            np.log(z, out=z)
            z *= -2.0
            np.sqrt(z, out=z)
            u2 *= 2.0**-53
            u2 *= 2.0 * np.pi
            np.cos(u2, out=u2)
            z *= u2
            z *= std
            z += mean

        return self._fill(count, 2, finish)

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
