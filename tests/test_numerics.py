import tracemalloc

import numpy as np
import pytest

from l1subgrad.numerics import (
    _CHUNK,
    Rng,
    logsumexp,
    random_orthogonal,
    softmax,
)


class TestRng:
    def test_same_seed_same_stream(self):
        a, b = Rng(1234), Rng(1234)
        assert np.array_equal(a.uniforms(100), b.uniforms(100))
        assert np.array_equal(a.gaussians(100), b.gaussians(100))

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).uniforms(10), Rng(2).uniforms(10))

    def test_uniform_bounds(self):
        u = Rng(7).uniforms(10_000, -2.0, 3.0)
        assert np.all(u >= -2.0) and np.all(u < 3.0)

    def test_uniform_degenerate(self):
        assert Rng(0).uniform(5.0, 5.0) == 5.0

    def test_gaussian_degenerate_std(self):
        assert Rng(0).gaussian(1.5, 0.0) == 1.5

    def test_gaussian_moments(self):
        z = Rng(99).gaussians(100_000, 0.0, 2.0)
        assert abs(np.mean(z)) <= 0.05 * 2.0
        assert abs(np.std(z) - 2.0) <= 0.05 * 2.0

    def test_gaussian_consumes_two_raws_each(self):
        a = Rng(9)
        a.gaussians(3)
        b = Rng(9)
        b._raw(6)
        assert a.uniform() == b.uniform()

    def test_invalid_parameters(self):
        rng = Rng(0)
        with pytest.raises(ValueError):
            rng.gaussian(0.0, -1.0)
        with pytest.raises(ValueError):
            rng.uniform(2.0, 1.0)

    def test_matrix_fills_row_major(self):
        a = Rng(21).gaussian_matrix(3, 4)
        b = Rng(21).gaussians(12).reshape(3, 4)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("draw", ["uniforms", "gaussians"])
    def test_negative_count_rejected_before_the_stream_moves(self, draw):
        rng = Rng(3)
        rng.uniforms(2)
        with pytest.raises(ValueError, match="draw count"):
            getattr(rng, draw)(-3)
        assert rng._count == 2
        ref = Rng(3)
        ref.uniforms(2)
        assert rng.gaussian() == ref.gaussian()

    def test_all_draws_finite(self):
        rng = Rng(5)
        assert np.all(np.isfinite(rng.uniforms(50_000)))
        assert np.all(np.isfinite(rng.gaussians(50_000)))


def _bulk_raw(seed, start, count):
    """Raw values start+1 .. start+count of the stream, built in one piece."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = (np.uint64(seed) + idx * np.uint64(0x9E3779B97F4A7C15)) & np.uint64(2**64 - 1)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _bulk_uniforms(seed, start, count, lo, hi):
    u = (_bulk_raw(seed, start, count) >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return lo + (hi - lo) * u


def _bulk_gaussians(seed, start, count, mean, std):
    raw = _bulk_raw(seed, start, 2 * count)
    u1 = ((raw[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u2 = (raw[1::2] >> np.uint64(11)).astype(np.float64) * 2.0**-53
    z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return mean + std * z


class TestChunkedDraws:
    """Draws made in chunks give the bytes of the one-piece formula above."""

    @pytest.mark.parametrize("count", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
    def test_same_bytes_across_chunk_boundaries(self, count):
        for seed, (lo, hi), (mean, std) in [
            (0, (0.0, 1.0), (0.0, 1.0)),
            (2**64 - 5, (-2.0, 3.0), (1.5, 0.0)),
            (987654321, (4.0, 4.0), (-3.25, 2.0)),
        ]:
            rng = Rng(seed)
            first = rng.uniforms(7)  # an odd offset into the stream
            assert first.tobytes() == _bulk_uniforms(seed, 0, 7, 0.0, 1.0).tobytes()
            g = rng.gaussians(count, mean, std)
            assert g.tobytes() == _bulk_gaussians(seed, 7, count, mean, std).tobytes()
            assert rng._count == 7 + 2 * count
            u = rng.uniforms(count, lo, hi)
            assert u.tobytes() == _bulk_uniforms(seed, 7 + 2 * count, count, lo, hi).tobytes()
            assert rng._count == 7 + 3 * count

    @pytest.mark.parametrize("draw", ["uniforms", "gaussians"])
    def test_scratch_memory_does_not_grow_with_the_count(self, draw):
        count = 10**6
        tracemalloc.start()
        try:
            getattr(Rng(0), draw)(count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * count + 4 * 2**20


class TestRandomOrthogonal:
    def test_one_dimensional_is_sign(self):
        q = random_orthogonal(1, Rng(5))
        assert q.shape == (1, 1) and abs(abs(q[0, 0]) - 1.0) < 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 20, 50, 200])
    def test_orthonormality(self, n):
        q = random_orthogonal(n, Rng(1000 + n))
        assert np.max(np.abs(q.T @ q - np.eye(n))) < 1e-10

    def test_factors_its_gaussian_draw(self):
        # Q is the QR factor of the seeded gaussian matrix: R = Q'G is upper
        # triangular and Q R reconstructs G
        q = random_orthogonal(8, Rng(42))
        g = Rng(42).gaussian_matrix(8, 8)
        r = q.T @ g
        assert np.allclose(np.tril(r, -1), 0.0, atol=1e-12)
        assert np.allclose(q @ r, g, atol=1e-12)

    def test_sign_convention_nonnegative_r_diagonal(self):
        for seed in range(20):
            q = random_orthogonal(6, Rng(seed))
            g = Rng(seed).gaussian_matrix(6, 6)
            assert np.all(np.diag(q.T @ g) > 0.0)

    def test_determinism(self):
        assert np.array_equal(random_orthogonal(7, Rng(3)), random_orthogonal(7, Rng(3)))

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            random_orthogonal(0, Rng(0))


class TestSpectralNorm:
    """``np.linalg.norm(m, 2)``, the sigma_max that sets L for logistic and logsumexp."""

    def test_identity(self):
        assert np.linalg.norm(np.eye(4), 2) == 1.0

    def test_diagonal(self):
        assert abs(np.linalg.norm(np.diag([3.0, 1.0]), 2) - 3.0) < 1e-15

    def test_against_dense_svd(self):
        m = Rng(77).gaussian_matrix(20, 10)
        assert np.linalg.norm(m, 2) == np.linalg.svd(m, compute_uv=False)[0]

    def test_planted_spectrum(self):
        rng = Rng(88)
        sigma = rng.uniforms(12, 0.5, 9.0)
        u = random_orthogonal(15, rng)
        v = random_orthogonal(12, rng)
        m = (u[:, :12] * sigma) @ v.T
        assert abs(np.linalg.norm(m, 2) - np.max(sigma)) < 1e-12 * np.max(sigma)

    def test_start_vector_in_null_space(self):
        # the all-ones vector lies in the null space of this matrix
        m = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert abs(np.linalg.norm(m, 2) - 2.0) < 1e-15


class TestStableExp:
    def test_logsumexp_matches_naive_at_small_scale(self):
        z = np.array([0.1, -0.3, 0.7])
        assert abs(logsumexp(z) - np.log(np.sum(np.exp(z)))) < 1e-14

    def test_logsumexp_no_overflow(self):
        assert np.isfinite(logsumexp(np.array([1000.0, 999.0])))
        assert abs(logsumexp(np.array([1000.0, 999.0])) - (1000.0 + np.log1p(np.exp(-1.0)))) < 1e-12

    def test_softmax_normalized(self):
        for scale in (1.0, 100.0, 1e4):
            s = softmax(Rng(4).gaussians(50) * scale)
            assert abs(np.sum(s) - 1.0) < 1e-12
            assert np.all(s >= 0.0)

    def test_logsumexp_single_entry(self):
        assert logsumexp(np.array([-3.25])) == -3.25
