import math
import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

import l1subgrad._rowsplit as _rowsplit
import l1subgrad.problems as problems
from l1subgrad.numerics import Rng, logsumexp, softmax
from l1subgrad.problems import (
    _sigmoid,
    make_2d,
    make_lasso,
    make_logistic,
    make_logsumexp,
    make_quadratic,
    perturb_2d,
)

FAMILIES = {
    "quadratic": lambda rng: make_quadratic(25, rng),
    "lasso": lambda rng: make_lasso(30, 40, rng),
    "logistic": lambda rng: make_logistic(60, 20, rng),
    "logsumexp": lambda rng: make_logsumexp(50, 25, rng),
    "toy2d-perturbed": lambda rng: perturb_2d(rng),
}


def _probe_points(dim, seed, count=5):
    return [Rng(seed + i).gaussians(dim, 0.0, 2.0) for i in range(count)]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_generators_deterministic(family):
    a = FAMILIES[family](Rng(77))
    b = FAMILIES[family](Rng(77))
    assert np.array_equal(a.x0, b.x0)
    assert a.objective.gamma == b.objective.gamma
    assert a.objective.lipschitz_L == b.objective.lipschitz_L
    for x in _probe_points(a.objective.dim, 5):
        assert a.objective.value(x) == b.objective.value(x)
        assert np.array_equal(a.objective.smooth_grad(x), b.objective.smooth_grad(x))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_lipschitz_constant_bounds_gradient_variation(family):
    prob = FAMILIES[family](Rng(13))
    obj = prob.objective
    rng = Rng(99)
    for _ in range(100):
        u = rng.gaussians(obj.dim, 0.0, 2.0)
        v = rng.gaussians(obj.dim, 0.0, 2.0)
        lhs = np.linalg.norm(obj.smooth_grad(u) - obj.smooth_grad(v))
        assert lhs <= obj.lipschitz_L * np.linalg.norm(u - v) * (1.0 + 1e-9)


@pytest.mark.parametrize("seed", range(8))
def test_lipschitz_constant_is_an_upper_bound(seed):
    # the auto step 1/L must not exceed the inverse of the true constant, so
    # the comparison with the dense SVD is exact, with no slack
    logistic = make_logistic(150, 40, Rng(seed))
    s = np.linalg.svd(logistic.data["design"], compute_uv=False)[0]
    assert logistic.objective.lipschitz_L >= 0.25 * s**2
    logsumexp = make_logsumexp(120, 50, Rng(seed), r=5.0)
    s = np.linalg.svd(logsumexp.data["design"], compute_uv=False)[0]
    assert logsumexp.objective.lipschitz_L >= s**2 / 5.0


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_gradient_matches_finite_differences(family):
    from l1subgrad.verify import _central_fd

    prob = FAMILIES[family](Rng(29))
    obj = prob.objective
    rng = Rng(31)
    for _ in range(10):
        x = rng.gaussians(obj.dim, 0.0, 2.0)
        grad = obj.smooth_grad(x)
        fd = _central_fd(obj, x)
        assert np.linalg.norm(fd - grad) < 1e-5 * max(1.0, np.linalg.norm(grad))


def _direct_quadratic(d, x):
    m, b = d["matrix"], d["offset"]
    return 0.5 * float(x @ (m @ x)) + float(b @ x), m @ x + b


def _direct_lasso(d, x):
    a, b = d["design"], d["rhs"]
    res = a @ x - b
    return 0.5 * float(res @ res), a.T @ (a @ x - b)


def _direct_logistic(d, x):
    m, b = d["design"], d["labels"]
    t = m @ x
    return float(np.sum((1.0 - b) * t + np.logaddexp(0.0, -t))), m.T @ (_sigmoid(m @ x) - b)


def _direct_logsumexp(d, x):
    m, b, r = d["design"], d["offset"], d["smoothing"]
    return r * logsumexp((m @ x - b) / r), m.T @ softmax((m @ x - b) / r)


# g and grad g of each matrix family, recomputed from ``problem.data`` with
# one product per formula and no memo
DIRECT = {
    "quadratic": _direct_quadratic,
    "lasso": _direct_lasso,
    "logistic": _direct_logistic,
    "logsumexp": _direct_logsumexp,
}


class TestSharedProduct:
    def test_matrix_families_record_their_matrix_size(self, monkeypatch):
        # the row split, whose matrix's element count gates alg2's helper
        # process, which only these families' oracles are lent; with the
        # size constant lowered, so that each family records one
        monkeypatch.setattr(problems, "_BLOCK_MIN_SIZE", 1)
        rows = {name: FAMILIES[name](Rng(47)).objective._rows for name in FAMILIES}
        assert rows.pop("toy2d-perturbed") is None
        assert {name: split._mat.size for name, split in rows.items()} == {
            "quadratic": 25 * 25, "lasso": 30 * 40, "logistic": 60 * 20, "logsumexp": 50 * 25}
        assert replace(FAMILIES["quadratic"](Rng(47)).objective, gamma=2.0)._rows is None

    @pytest.mark.parametrize("family", sorted(DIRECT))
    def test_oracle_matches_direct_formula_bitwise(self, family):
        prob = FAMILIES[family](Rng(41))
        obj = prob.objective
        x, y = _probe_points(obj.dim, 43, count=2)

        def check(point, order):
            value, grad = DIRECT[family](prob.data, point)
            for name in order:
                if name == "eval":
                    assert obj.eval_g(point) == value
                else:
                    assert np.array_equal(obj.grad_g(point), grad)

        check(x, ("eval", "grad"))  # grad at the point eval just saw
        check(x, ("grad", "eval"))
        check(y, ("grad", "eval"))  # a call at another point in between
        check(x, ("eval",))
        check(y, ("grad",))
        check(x, ("grad",))

    @pytest.mark.parametrize("family", sorted(DIRECT))
    def test_in_place_mutation_never_hits_a_stale_product(self, family):
        prob = FAMILIES[family](Rng(47))
        obj = prob.objective
        x = prob.x0.copy()
        obj.eval_g(x)
        obj.grad_g(x)
        x[0] += 1.0
        value, grad = DIRECT[family](prob.data, x)
        assert np.array_equal(obj.grad_g(x), grad)
        assert obj.eval_g(x) == value

    @pytest.mark.parametrize("block_min_size", [1, problems._BLOCK_MIN_SIZE],
                             ids=["lowered size constant", "size constant"])
    def test_block_path_takes_points_with_at_most_half_nonzero(self, monkeypatch,
                                                                 block_min_size):
        # below the size constant every point takes the full product; above
        # it, a point with at most half its components nonzero multiplies
        # the two row blocks of M[:, S], and any other point M itself
        shapes = []

        class RecordedMatrix(np.ndarray):
            def __matmul__(self, x):
                shapes.append(self.shape)
                return self.view(np.ndarray) @ x

        monkeypatch.setattr(problems, "_BLOCK_MIN_SIZE", block_min_size)
        monkeypatch.setattr(_rowsplit, "QuadraticSplit", _recorded(_rowsplit.QuadraticSplit,
                                                                   RecordedMatrix))
        monkeypatch.setattr(problems, "_shared_product", _recorded(problems._shared_product,
                                                                   RecordedMatrix))
        prob = make_quadratic(40, Rng(73))
        mat, offset = prob.data["matrix"], prob.data["offset"]
        assert (prob.objective._rows is None) == (block_min_size > 1)
        for nonzero in (0, 12, 20, 21, 40):
            x = Rng(79).gaussians(40, 0.0, 2.0)
            x[nonzero:] = 0.0
            support = np.flatnonzero(x)
            block = nonzero <= 20 and block_min_size == 1
            want = mat.take(support, axis=1) @ x.take(support) if block else mat @ x
            assert prob.objective.grad_g(x).tobytes() == (want + offset).tobytes()
            if block:
                rows = _rowsplit.row_split(support, 40)
                assert sorted(shapes) == sorted((r.size, nonzero) for r in rows if r.size)
            else:
                assert shapes == [(40, 40)]
            shapes.clear()

    @pytest.mark.parametrize("family", sorted(DIRECT))
    def test_block_cache_changes_no_bits(self, family, monkeypatch):
        # eval_g and grad_g read the same bits at a point whether the block
        # cache is cold, warm on the point's support (-x has its support and
        # other bytes, also where x is all zero) or warm on another support.
        # The supports are scattered, so that a block product and the full
        # one round differently and a path chosen by the cache would show.
        monkeypatch.setattr(problems, "_BLOCK_MIN_SIZE", 1)
        n = FAMILIES[family](Rng(53)).objective.dim
        scatter = np.argsort(Rng(83).uniforms(n))
        for nonzero in (0, n // 2, n // 2 + 1):
            x, elsewhere = _probe_points(n, 59, count=2)
            x[scatter[nonzero:]] = 0.0
            elsewhere[scatter[:n - max(min(nonzero, n // 2), 1)]] = 0.0
            seen = set()
            for warm in (None, -x, elsewhere):
                for eval_first in (True, False):
                    obj = FAMILIES[family](Rng(53)).objective
                    if warm is not None:
                        obj.grad_g(warm)
                    if eval_first:
                        value, grad = obj.eval_g(x), obj.grad_g(x)
                    else:
                        grad, value = obj.grad_g(x), obj.eval_g(x)
                    seen.add((np.float64(value).tobytes(), grad.tobytes()))
            assert len(seen) == 1, (nonzero, len(seen))

    def test_alg2_makes_at_most_two_products_per_iteration(self, monkeypatch):
        # counted in rows computed, a product with the whole matrix being 50,
        # so that a point's two row blocks add up to one product however few
        # columns they keep: the blocks gathered from the matrix (`take`) are
        # counted matrices too, so the products of every path are counted
        from l1subgrad.solvers import SolverConfig, run

        computed = {"full": 0, "block": 0}

        class CountedMatrix(np.ndarray):
            def __matmul__(self, x):
                computed["full" if self.shape == (50, 50) else "block"] += self.shape[0]
                return self.view(np.ndarray) @ x

        monkeypatch.setattr(_rowsplit, "QuadraticSplit", _recorded(_rowsplit.QuadraticSplit,
                                                                   CountedMatrix))
        monkeypatch.setattr(problems, "_shared_product", _recorded(problems._shared_product,
                                                                   CountedMatrix))
        iters = 200
        for block_min_size in (10**12, 1):  # the full path alone, then both paths
            monkeypatch.setattr(problems, "_BLOCK_MIN_SIZE", block_min_size)
            computed.update(full=0, block=0)
            prob = make_quadratic(50, Rng(0))
            run(prob.objective, prob.x0, SolverConfig(method="alg2", max_iter=iters))
            assert 0 < computed["full"] + computed["block"] <= 2 * iters * 50
            assert (computed["block"] > 0) == (block_min_size == 1)

    def test_concurrent_callers_each_get_their_own_points_product(self):
        # each thread alternates between two points, so that the points the
        # threads ask for, hit and store interleave at every switch; with the
        # row split the points have two supports of one size, so the block
        # slot is replaced while other threads read it
        mat = Rng(61).gaussian_matrix(60, 60)
        offset = Rng(62).gaussians(60)
        for split in (False, True):
            def build():
                if split:
                    return _rowsplit.QuadraticSplit(mat, offset).grad
                return problems._shared_product(mat)

            product = build()
            points = _probe_points(60, 67, count=2)
            if split:
                points[0][::2] = 0.0
                points[1][1::2] = 0.0
            expected = [build()(x) for x in points]
            wrong = []

            def call(offset):
                try:
                    for i in range(2000):
                        j = (offset + i) % 2
                        if not np.array_equal(product(points[j]), expected[j]):
                            wrong.append(j)
                except Exception as exc:  # a torn read may also fail to multiply
                    wrong.append(exc)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=call, args=(t,)) for t in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            assert wrong == [], split


def _recorded(build, matrix_class):
    """``build`` with its matrix argument viewed as ``matrix_class``."""
    return lambda mat, *args: build(mat.view(matrix_class), *args)


# each matrix family with its gradient's row count n a multiple of 4 and not
# one, so that GEMV's last n mod 4 rows take its remainder path
SPLIT_FAMILIES = {
    "quadratic-120": lambda rng: make_quadratic(120, rng),
    "quadratic-118": lambda rng: make_quadratic(118, rng),
    "lasso-40": lambda rng: make_lasso(30, 40, rng),
    "lasso-39": lambda rng: make_lasso(30, 39, rng),
    "logistic-44": lambda rng: make_logistic(60, 44, rng),
    "logistic-37": lambda rng: make_logistic(60, 37, rng),
    "logsumexp-48": lambda rng: make_logsumexp(50, 48, rng),
    "logsumexp-41": lambda rng: make_logsumexp(50, 41, rng),
}


def _one_product(prob, x):
    """grad_g(x) as one product: ``M[:, S] @ x[S] + b`` (``M @ x + b`` where
    x is more than half nonzero) for the quadratic, ``M.T @ v(x)`` for the
    others, with v(x) as the split computes it."""
    obj = prob.objective
    if prob.label == "quadratic":
        m, b = prob.data["matrix"], prob.data["offset"]
        support = np.flatnonzero(x)
        if 2 * support.size > x.size:
            return m @ x + b
        return m.take(support, axis=1) @ x.take(support) + b
    return prob.data["design"].T @ obj._rows._v(obj._rows._point(x))


@pytest.mark.parametrize("family", sorted(SPLIT_FAMILIES))
class TestRowSplit:
    """The two row blocks of a family at or above the size constant give
    grad_g bit for bit."""

    @staticmethod
    def _points(n):
        # supports of 4 to 7 and of n/2 - 3 to n/2 components (each size mod
        # 4), scattered and holding the last row, an empty one and a dense point
        scatter = np.argsort(Rng(83).uniforms(n))
        scatter = np.concatenate(([n - 1], scatter[scatter != n - 1]))
        base = Rng(89).gaussians(n, 0.0, 2.0)
        for size in (4, 5, 6, 7, n // 2 - 3, n // 2 - 2, n // 2 - 1, n // 2, 0, n):
            x = np.zeros(n)
            x[scatter[:size]] = base[scatter[:size]]
            yield x

    def test_the_blocks_assemble_to_grad_g_bit_for_bit(self, family, monkeypatch):
        monkeypatch.setattr(problems, "_BLOCK_MIN_SIZE", 1)
        prob = SPLIT_FAMILIES[family](Rng(97))
        obj, rows = prob.objective, prob.objective._rows
        for x in self._points(obj.dim):
            want = _one_product(prob, x).tobytes()
            # the blocks' own rows on a fresh split, before `padded` fills the
            # point's memo
            assert SPLIT_FAMILIES[family](Rng(97)).objective._rows.grad(x).tobytes() == want
            support = np.flatnonzero(x)
            dense = 2 * support.size > x.size
            head, tail = (support[:0], np.arange(x.size)) if dense else \
                _rowsplit.row_split(support, x.size)
            assert dense or set(support) <= set(head)
            assembled = rows.padded(x)
            assert not np.count_nonzero(assembled[tail])
            # the rows on T from their own block: the quadratic's helper
            # computes them (`tail`); the other families' step, in `grad`
            if prob.label == "quadratic":
                assembled[tail] = rows.tail(x) + prob.data["offset"][tail]
            else:
                assembled[tail] = rows.grad(x)[tail]
            assert assembled.tobytes() == want, support.size
            assert obj.grad_g(x).tobytes() == want
            assert rows.grad(x).tobytes() == want

    def test_a_point_of_the_wrong_length_raises(self, family, monkeypatch):
        # as ``M @ x`` does below the size constant, where no split is made
        for block_min_size in (1, 10**12):
            monkeypatch.setattr(problems, "_BLOCK_MIN_SIZE", block_min_size)
            obj = SPLIT_FAMILIES[family](Rng(97)).objective
            rows = obj._rows
            calls = [obj.eval_g, obj.grad_g]
            if block_min_size == 1:
                calls += [getattr(rows, name) for name in ("grad", "padded", "tail", "mx")
                          if hasattr(rows, name)]
            for size in (3, obj.dim - 1, obj.dim + 1):
                x = Rng(89).gaussians(size, 0.0, 2.0)
                for call in calls:
                    with pytest.raises(ValueError):
                        call(x)

    def test_the_bits_do_not_depend_on_the_cache(self, family, monkeypatch):
        # the blocks' bits at a point are the same with the cache cold, warm
        # on the point's support (-x has its support and other bytes) and
        # warm on another support
        monkeypatch.setattr(problems, "_BLOCK_MIN_SIZE", 1)
        n = SPLIT_FAMILIES[family](Rng(97)).objective.dim
        points = list(self._points(n))
        for x in points:
            seen = set()
            for warm in (None, -x, points[0] if x is not points[0] else points[1]):
                rows = SPLIT_FAMILIES[family](Rng(97)).objective._rows
                if warm is not None:
                    rows.grad(warm)
                tail = rows.tail(x).tobytes() if hasattr(rows, "tail") else None
                seen.add((rows.padded(x).tobytes(), tail, rows.grad(x).tobytes(),
                          rows.mx(x).tobytes()))
            assert len(seen) == 1, np.count_nonzero(x)


class TestQuadratic:
    def test_planted_extremes(self):
        prob = make_quadratic(40, Rng(1), eig_range=(1.0, 10.0), pin_extremes=True)
        assert prob.objective.mu == 1.0
        assert prob.objective.lipschitz_L == 10.0
        eigs = prob.data["eigenvalues"]
        assert np.min(eigs) == 1.0 and np.max(eigs) == 10.0

    def test_default_range_and_ordering(self):
        prob = make_quadratic(60, Rng(2))
        eigs = prob.data["eigenvalues"]
        assert np.all(eigs >= 0.02) and np.all(eigs <= 100.0)
        assert prob.objective.mu == np.min(eigs)
        assert prob.objective.lipschitz_L == np.max(eigs)

    def test_planted_l_matches_power_iteration(self):
        prob = make_quadratic(40, Rng(3))
        est = np.linalg.svd(prob.data["matrix"], compute_uv=False)[0]
        assert abs(est - prob.objective.lipschitz_L) < 1e-12 * prob.objective.lipschitz_L

    def test_gamma_ties_to_offset(self):
        prob = make_quadratic(30, Rng(4))
        assert prob.objective.gamma == 0.25 * np.max(np.abs(prob.data["offset"]))

    def test_1d_stationarity_closed_form(self):
        prob = make_quadratic(1, Rng(5))
        lam = float(prob.data["eigenvalues"][0])
        b = float(prob.data["offset"][0])
        gamma = prob.objective.gamma
        x_star = np.array([-np.sign(b) * max(abs(b) - gamma, 0.0) / lam])
        assert np.linalg.norm(prob.objective.min_norm_subgradient(x_star)) < 1e-10

    def test_numeric_minimizer_has_tiny_subgradient(self):
        from l1subgrad.bench import reference_optimum

        prob = make_quadratic(50, Rng(6))
        ref = reference_optimum(prob)
        assert ref.certified

    def test_pin_needs_two_dims(self):
        with pytest.raises(ValueError):
            make_quadratic(1, Rng(0), pin_extremes=True)


class TestLasso:
    def test_consistent_system_reaches_zero(self):
        prob = make_lasso(20, 15, Rng(7), noise_std=0.0)
        assert prob.objective.smooth_value(prob.data["target"]) < 1e-20

    def test_planted_l_matches_power_iteration(self):
        prob = make_lasso(25, 35, Rng(8))
        est = np.linalg.svd(prob.data["design"], compute_uv=False)[0] ** 2
        assert abs(est - prob.objective.lipschitz_L) < 1e-12 * prob.objective.lipschitz_L

    def test_rank_deficient_has_no_mu(self):
        assert make_lasso(10, 20, Rng(9)).objective.mu is None

    def test_overdetermined_keeps_mu(self):
        prob = make_lasso(30, 10, Rng(10))
        assert prob.objective.mu == float(np.min(prob.data["singular_values"])) ** 2

    def test_default_gamma_is_one(self):
        assert make_lasso(10, 10, Rng(11)).objective.gamma == 1.0

    def test_sparse_target_support_rate(self):
        hits = total = 0
        for i in range(10):
            target = make_lasso(5, 200, Rng(120 + i)).data["target"]
            hits += int(np.sum(target != 0.0))
            total += target.size
        assert abs(hits / total - 0.3) < 0.04


class TestLogistic:
    def test_gradient_at_origin_closed_form(self):
        prob = make_logistic(40, 15, Rng(13))
        mat, labels = prob.data["design"], prob.data["labels"]
        expected = mat.T @ (0.5 - labels)
        assert np.allclose(prob.objective.smooth_grad(np.zeros(15)), expected, atol=1e-12)

    def test_labels_are_binary(self):
        labels = make_logistic(200, 10, Rng(14)).data["labels"]
        assert set(np.unique(labels)) <= {0.0, 1.0}

    def test_gamma_from_gradient_at_origin(self):
        prob = make_logistic(50, 12, Rng(15))
        grad0 = prob.objective.smooth_grad(np.zeros(12))
        assert prob.objective.gamma == pytest.approx(0.25 * np.max(np.abs(grad0)), rel=1e-12)

    def test_value_stable_at_extreme_scores(self):
        prob = make_logistic(30, 8, Rng(16))
        x = np.full(8, 300.0)
        with np.errstate(over="raise"):
            value = prob.objective.smooth_value(x)
        assert np.isfinite(value)

    def test_midpoint_convexity(self):
        prob = make_logistic(40, 10, Rng(17))
        obj = prob.objective
        rng = Rng(18)
        for _ in range(100):
            u = rng.gaussians(10, 0.0, 3.0)
            v = rng.gaussians(10, 0.0, 3.0)
            mid = obj.smooth_value(0.5 * (u + v))
            assert mid <= 0.5 * (obj.smooth_value(u) + obj.smooth_value(v)) + 1e-9

    def test_signal_sparsity_rate(self):
        prob = make_logistic(10, 3000, Rng(19))
        rate = np.mean(prob.data["signal"] != 0.0)
        assert abs(rate - 0.2) < 0.03

    def test_sigmoid_matches_two_mask_form_bitwise(self):
        def two_masks(t):
            out = np.empty_like(t)
            pos = t >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
            e = np.exp(t[~pos])
            out[~pos] = e / (1.0 + e)
            return out

        edges = [0.0, -0.0, 710.0, -710.0, 745.0, -745.0, 800.0, -800.0, 1e-300, -1e-300]
        t = np.concatenate([edges, Rng(20).gaussians(2000, 0.0, 30.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, want = _sigmoid(t), two_masks(t)
        assert got.tobytes() == want.tobytes()


class TestLogSumExp:
    def test_single_row_is_affine(self):
        prob = make_logsumexp(1, 6, Rng(20))
        mat, b = prob.data["design"], prob.data["offset"]
        x = Rng(21).gaussians(6)
        expected = float(mat[0] @ x - b[0])
        assert prob.objective.smooth_value(x) == pytest.approx(expected, abs=1e-12)

    def test_smooth_max_sandwich(self):
        prob = make_logsumexp(50, 20, Rng(22), r=5.0)
        obj = prob.objective
        mat, b = prob.data["design"], prob.data["offset"]
        rng = Rng(23)
        for _ in range(50):
            x = rng.gaussians(20, 0.0, 2.0)
            scores = mat @ x - b
            val = obj.smooth_value(x)
            assert np.max(scores) - 1e-12 <= val <= np.max(scores) + 5.0 * np.log(50) + 1e-12

    def test_lipschitz_scales_inversely_with_smoothing(self):
        a = make_logsumexp(30, 10, Rng(24), r=5.0).objective.lipschitz_L
        b = make_logsumexp(30, 10, Rng(24), r=10.0).objective.lipschitz_L
        assert a == pytest.approx(2.0 * b, rel=1e-9)

    def test_default_gamma_is_one_and_overridable(self):
        assert make_logsumexp(10, 5, Rng(25)).objective.gamma == 1.0
        assert make_logsumexp(10, 5, Rng(25), gamma=0.2).objective.gamma == 0.2

    def test_rejects_bad_smoothing(self):
        for r in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="smoothing r must be finite and > 0"):
                make_logsumexp(5, 5, Rng(0), r=r)


class TestToy2d:
    def test_default_reference_value(self):
        prob = make_2d()
        assert prob.f_ref == -0.5
        assert prob.objective.value([1.0, 0.0]) == -0.5

    def test_minimizer_certificate(self):
        obj = make_2d().objective
        assert np.array_equal(obj.min_norm_subgradient([1.0, 0.0]), [0.0, 0.0])

    def test_zero_sits_on_subdifferential_boundary(self):
        # at the minimizer the second partial of the smooth term is exactly 1,
        # so the l1 subdifferential interval there is [1-gamma, 1+gamma] = [0, 2]
        obj = make_2d().objective
        grad = obj.smooth_grad(np.array([1.0, 0.0]))
        assert grad[1] - obj.gamma == 0.0
        assert grad[1] + obj.gamma == 2.0

    def test_curvature_extremes_match_dense_eigensolve(self):
        prob = make_2d()
        eigs = np.linalg.eigvalsh(prob.data["hessian"])
        assert prob.objective.mu == pytest.approx(eigs[0], rel=1e-14)
        assert prob.objective.lipschitz_L == pytest.approx(eigs[1], rel=1e-14)

    def test_rejects_indefinite_hessian(self):
        with pytest.raises(ValueError):
            make_2d(c=1.3)

    @pytest.mark.parametrize("gamma", [0.3, 0.9, 1.2, 2.5])
    def test_exact_optimum_matches_the_iterative_reference(self, gamma):
        from l1subgrad.bench import reference_optimum

        prob = make_2d(gamma=gamma)
        ref = reference_optimum(replace(prob, f_ref=None))
        assert ref.certified
        assert prob.f_ref == pytest.approx(ref.value, rel=2e-15, abs=0.0)
        # x = 0 is optimal once gamma >= |grad g(0)|_inf = 2
        assert (prob.f_ref == 0.0) == (gamma == 2.5)

    def test_oracles_match_numpy_scalar_forms_bitwise(self):
        # the oracles compute on Python floats; these are the same formulas on
        # the numpy float64 scalars x[0] and x[1]
        def eval_np(x, c):
            return 0.5 * (x[0] ** 2 + 2.0 * c * x[0] * x[1] + 1.5 * x[1] ** 2) - 2.0 * x[0] + (
                1.0 - c
            ) * x[1]

        def grad_np(x, c):
            return np.array([x[0] + c * x[1] - 2.0, c * x[0] + 1.5 * x[1] + (1.0 - c)])

        rng = Rng(61)
        special = [0.0, -0.0, 1.0, -1e-300, 1e150, -1e154, 2e154, 1e200, -1e300, 1.7e308]
        points = [np.array([a, b]) for a in special for b in special]
        for _ in range(2000):
            points.append(rng.gaussians(2) * 10.0 ** rng.uniforms(2, -200.0, 200.0))
        probs = [make_2d()] + [perturb_2d(rng) for _ in range(9)]
        with np.errstate(over="ignore", invalid="ignore"):
            for j, x in enumerate(points):
                prob = probs[j % len(probs)]
                obj, c = prob.objective, prob.data["c"]
                got, want = np.float64(obj.eval_g(x)), np.float64(eval_np(x, c))
                assert got.tobytes() == want.tobytes(), (x, got, want)
                assert obj.grad_g(x).tobytes() == grad_np(x, c).tobytes(), x

    def test_perturbed_statistics_and_fields(self):
        cs, gammas = [], []
        for i in range(300):
            prob = perturb_2d(Rng(500 + i))
            assert math.isfinite(prob.f_ref)
            assert prob.label == "toy2d-perturbed"
            cs.append(prob.data["c"])
            gammas.append(prob.objective.gamma)
        assert abs(np.mean(cs) - 0.85) < 0.02
        assert abs(np.std(cs) - 0.1) < 0.02
        assert abs(np.mean(gammas) - 1.0) < 0.02
