import numpy as np
import pytest

import l1subgrad.problems as problems
from l1subgrad.numerics import Rng, logsumexp, softmax
from l1subgrad.problems import (
    _sigmoid,
    dump_instance,
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

    def test_alg2_makes_at_most_two_products_per_iteration(self, monkeypatch):
        from l1subgrad.solvers import SolverConfig, run

        computed = {"n": 0}

        class CountedMatrix:
            def __init__(self, mat):
                self.mat = mat

            def __matmul__(self, x):
                computed["n"] += 1
                return self.mat @ x

        shared = problems._shared_product
        monkeypatch.setattr(problems, "_shared_product", lambda mat: shared(CountedMatrix(mat)))
        prob = make_quadratic(50, Rng(0))
        iters = 200
        run(prob.objective, prob.x0, SolverConfig(method="alg2", max_iter=iters))
        assert 0 < computed["n"] <= 2.0 * iters


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
        ref = reference_optimum(prob, budget=20_000)
        assert ref.certified
        assert ref.subgrad_norm < 1e-6

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
        with pytest.raises(ValueError):
            make_logsumexp(5, 5, Rng(0), r=0.0)


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

    def test_non_unit_gamma_drops_reference(self):
        assert make_2d(gamma=1.2).f_ref is None

    def test_perturbed_statistics_and_fields(self):
        cs, gammas = [], []
        for i in range(300):
            prob = perturb_2d(Rng(500 + i))
            assert prob.f_ref is None
            assert prob.label == "toy2d-perturbed"
            cs.append(prob.data["c"])
            gammas.append(prob.objective.gamma)
        assert abs(np.mean(cs) - 0.85) < 0.02
        assert abs(np.std(cs) - 0.1) < 0.02
        assert abs(np.mean(gammas) - 1.0) < 0.02


class TestDumpInstance:
    def test_dump_round_trip_fields(self, tmp_path):
        prob = make_quadratic(4, Rng(33))
        path = tmp_path / "instance.txt"
        dump_instance(prob, path)
        text = path.read_text()
        assert text.startswith("label=quadratic\ndim=4\n")
        assert "[matrix rows=4 cols=4]" in text
        assert "[x0 rows=1 cols=4]" in text
        assert f"gamma={prob.objective.gamma!r}" in text

    def test_dump_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        dump_instance(make_lasso(5, 6, Rng(44)), a)
        dump_instance(make_lasso(5, 6, Rng(44)), b)
        assert a.read_bytes() == b.read_bytes()

    def test_dump_scalar_entries(self, tmp_path):
        path = tmp_path / "c.txt"
        dump_instance(make_2d(), path)
        assert "c=0.85" in path.read_text()
