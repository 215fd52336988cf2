import numpy as np
import pytest

from l1subgrad.numerics import Rng, random_orthogonal
from l1subgrad.objective import (
    CompositeObjective,
    _directional_from_grad,
    _min_norm_from_grad,
    soft_threshold,
)
from l1subgrad.problems import make_2d, make_quadratic


def _zero_smooth(dim: int, gamma: float = 1.0) -> CompositeObjective:
    return CompositeObjective(
        eval_g=lambda x: 0.0,
        grad_g=lambda x: np.zeros_like(x),
        gamma=gamma,
        lipschitz_L=1.0,
        dim=dim,
    )


def _random_quadratic(rng: Rng, n: int, gamma: float | None = None) -> CompositeObjective:
    eigs = rng.uniforms(n, 0.5, 6.0)
    q = random_orthogonal(n, rng)
    m = 0.5 * ((q * eigs) @ q.T + ((q * eigs) @ q.T).T)
    b = rng.gaussians(n, 0.0, 2.0)
    return CompositeObjective(
        eval_g=lambda x: 0.5 * float(x @ (m @ x)) + float(b @ x),
        grad_g=lambda x: m @ x + b,
        gamma=rng.uniform(0.3, 1.5) if gamma is None else gamma,
        lipschitz_L=float(np.max(eigs)),
        dim=n,
        mu=float(np.min(eigs)),
    )


class TestValue:
    def test_pure_l1(self):
        assert _zero_smooth(2).value([3.0, -4.0]) == 7.0

    def test_no_penalty(self):
        obj = _random_quadratic(Rng(1), 4, gamma=0.0)
        x = Rng(2).gaussians(4)
        assert obj.value(x) == obj.smooth_value(x)

    def test_2d_example_at_minimizer(self):
        obj = make_2d().objective
        assert obj.value([1.0, 0.0]) == -0.5

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            _zero_smooth(2).value([1.0, 2.0, 3.0])

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            _zero_smooth(2, gamma=-0.5)
        with pytest.raises(ValueError):
            CompositeObjective(lambda x: 0.0, lambda x: x, 1.0, 0.0, 2)
        with pytest.raises(ValueError):
            CompositeObjective(lambda x: 0.0, lambda x: x, 1.0, 1.0, 2, mu=2.0)
        with pytest.raises(ValueError):
            CompositeObjective(lambda x: 0.0, lambda x: x, 1.0, 1.0, 0)

    @pytest.mark.parametrize("field", ["gamma", "lipschitz_L", "mu"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_parameters_rejected(self, field, bad):
        params = {"gamma": 1.0, "lipschitz_L": 1.0, "mu": 0.5, field: bad}
        with pytest.raises(ValueError, match=field):
            CompositeObjective(lambda x: 0.0, lambda x: x, dim=2, **params)


class TestSoftThreshold:
    def test_componentwise(self):
        out = soft_threshold(np.array([2.0, -0.5, 0.3]), 1.0)
        assert np.array_equal(out, [1.0, 0.0, 0.0])

    def test_zero_threshold_is_identity(self):
        z = Rng(0).gaussians(5)
        assert np.array_equal(soft_threshold(z, 0.0), z)


class TestMinNormSubgradient:
    def test_flat_origin(self):
        obj = CompositeObjective(
            eval_g=lambda x: 0.5 * float(x @ x),
            grad_g=lambda x: np.asarray(x),
            gamma=1.0,
            lipschitz_L=1.0,
            dim=1,
            mu=1.0,
        )
        assert obj.min_norm_subgradient([0.0]) == 0.0

    def test_2d_example_at_minimizer(self):
        obj = make_2d().objective
        assert np.array_equal(obj.min_norm_subgradient([1.0, 0.0]), [0.0, 0.0])

    def test_2d_example_at_start(self):
        obj = make_2d().objective
        sub = obj.min_norm_subgradient([0.95, 0.5])
        assert np.allclose(sub, [0.375, 2.7075], atol=1e-12)

    def test_grad_evaluated_exactly_once(self):
        calls = []
        obj = CompositeObjective(
            eval_g=lambda x: 0.0,
            grad_g=lambda x: calls.append(1) or np.ones_like(x),
            gamma=0.5,
            lipschitz_L=1.0,
            dim=3,
        )
        obj.min_norm_subgradient([1.0, 0.0, -2.0])
        assert len(calls) == 1

    def test_subgradient_inequality(self):
        # membership in the subdifferential: f(z) >= f(x) + <sub, z - x>
        rng = Rng(17)
        for n in (2, 5):
            obj = _random_quadratic(rng, n)
            for _ in range(500):
                x = np.where(rng.uniforms(n) < 0.3, 0.0, rng.gaussians(n, 0.0, 2.0))
                z = rng.gaussians(n, 0.0, 2.0)
                sub = obj.min_norm_subgradient(x)
                fx = obj.value(x)
                assert obj.value(z) >= fx + float(sub @ (z - x)) - 1e-10 * (1.0 + abs(fx))

    def test_minimal_norm_among_valid_subgradients(self):
        rng = Rng(23)
        for n in (2, 4):
            obj = _random_quadratic(rng, n)
            for _ in range(500):
                x = np.where(rng.uniforms(n) < 0.4, 0.0, rng.gaussians(n))
                sub = obj.min_norm_subgradient(x)
                grad = obj.smooth_grad(x)
                nu = np.where(x != 0.0, np.sign(x), rng.uniforms(n, -1.0, 1.0))
                other = grad + obj.gamma * nu
                assert np.linalg.norm(sub) <= np.linalg.norm(other) + 1e-12

    def test_separability_across_components(self):
        # with a diagonal smooth term, rescaling x_j (sign kept) must leave
        # every other component of the subgradient bit-identical
        d = np.array([2.0, 0.5, 1.0])
        obj = CompositeObjective(
            eval_g=lambda x: 0.5 * float(x @ (d * x)),
            grad_g=lambda x: d * x,
            gamma=0.7,
            lipschitz_L=2.0,
            dim=3,
        )
        x = np.array([1.5, -2.0, 0.0])
        base = obj.min_norm_subgradient(x)
        for scale in (0.5, 3.0, 10.0):
            moved = x.copy()
            moved[1] *= scale
            out = obj.min_norm_subgradient(moved)
            assert out[0] == base[0] and out[2] == base[2]

    def test_matches_where_form_bitwise(self):
        # the form that selected between both branches on every call, as reference
        def where_form(grad, x, gamma):
            shrunk = np.sign(grad) * np.maximum(np.abs(grad) - gamma, 0.0)
            return np.where(x != 0.0, grad + gamma * np.sign(x), shrunk)

        rng = Rng(67)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -5e-324]
        cases = []
        for gamma in (0.0, 0.7):
            for _ in range(300):
                n = int(rng.uniform(1, 7))
                x = rng.gaussians(n)
                # a third of the vectors keep no zero component
                if rng.uniform() < 2 / 3:
                    zeros = np.where(rng.uniforms(n) < 0.5, 0.0, -0.0)
                    x = np.where(rng.uniforms(n) < 0.4, zeros, x)
                grad = rng.gaussians(n)
                # dead-zone gradients |g| <= gamma
                grad = np.where(rng.uniforms(n) < 0.3, rng.uniforms(n, -gamma, gamma), grad)
                cases.append((grad, x, gamma))
            for a in special:
                for b in special:
                    cases.append((np.array([a, b, 0.3]), np.array([b, a, -0.0]), gamma))
                    cases.append((np.array([a, b]), np.array([1.0, -2.0]), gamma))
                    cases.append((np.array([0.5, -0.5]), np.array([a, b]), gamma))
        hits = {True: 0, False: 0}
        with np.errstate(invalid="ignore"):
            for grad, x, gamma in cases:
                hits[bool(x.all())] += 1
                got = _min_norm_from_grad(grad, x, gamma)
                assert got.tobytes() == where_form(grad, x, gamma).tobytes(), (grad, x, gamma)
        assert min(hits.values()) > 100

    def test_optimality_certificate_zero_implies_minimum(self):
        prob = make_2d()
        obj = prob.objective
        x_star = np.array([1.0, 0.0])
        assert np.all(obj.min_norm_subgradient(x_star) == 0.0)
        rng = Rng(31)
        for _ in range(200):
            z = rng.gaussians(2, 0.0, 2.0)
            assert obj.value(z) >= obj.value(x_star)

    def test_optimality_certificate_nonzero_implies_descent(self):
        rng = Rng(37)
        obj = _random_quadratic(rng, 3)
        for _ in range(50):
            x = np.where(rng.uniforms(3) < 0.3, 0.0, rng.gaussians(3))
            sub = obj.min_norm_subgradient(x)
            if np.linalg.norm(sub) > 1e-8:
                t = 1e-6 / max(np.linalg.norm(sub), 1.0)
                assert obj.value(x - t * sub) < obj.value(x)

    def test_1d_closed_form_minimizer(self):
        # lam*x + b + gamma*sign(x) = 0 for |b| > gamma, else x = 0
        rng = Rng(41)
        for _ in range(100):
            lam = rng.uniform(0.5, 4.0)
            b = rng.gaussian(0.0, 2.0)
            gamma = rng.uniform(0.1, 1.5)
            obj = CompositeObjective(
                eval_g=lambda x, l=lam, c=b: 0.5 * l * float(x[0] ** 2) + c * float(x[0]),
                grad_g=lambda x, l=lam, c=b: l * x + c,
                gamma=gamma,
                lipschitz_L=lam,
                dim=1,
                mu=lam,
            )
            x_star = np.array([-np.sign(b) * max(abs(b) - gamma, 0.0) / lam])
            assert np.linalg.norm(obj.min_norm_subgradient(x_star)) < 1e-12


def _directional(obj: CompositeObjective, q, qp) -> np.ndarray:
    q, qp = np.asarray(q, dtype=np.float64), np.asarray(qp, dtype=np.float64)
    return _directional_from_grad(obj.smooth_grad(qp), q, qp, obj.gamma)


class TestDirectionalSubgradient:
    def test_both_zero_gives_plain_gradient(self):
        obj = _random_quadratic(Rng(3), 3)
        z = np.zeros(3)
        assert np.array_equal(_directional(obj, z, z), obj.smooth_grad(z))

    def test_positive_and_zero_components(self):
        obj = CompositeObjective(
            eval_g=lambda x: 0.5 * float(x @ x),
            grad_g=lambda x: np.asarray(x, dtype=np.float64),
            gamma=0.4,
            lipschitz_L=1.0,
            dim=2,
        )
        out = _directional(obj, [1.0, 0.0], [2.0, 0.0])
        assert np.array_equal(out, [2.4, 0.0])

    def test_negative_side_subtracts_weight(self):
        obj = CompositeObjective(
            eval_g=lambda x: float(np.sum(x)),
            grad_g=lambda x: np.ones_like(x),
            gamma=0.25,
            lipschitz_L=1.0,
            dim=1,
        )
        assert _directional(obj, [-1.0], [-0.5])[0] == 0.75

    def test_rejects_sign_inconsistent_pair(self):
        obj = _zero_smooth(2)
        with pytest.raises(ValueError):
            _directional(obj, [1.0, 0.0], [-1.0, 0.0])

    def test_is_valid_subgradient_at_q_prime(self):
        # on the region where signs agree, the one-sided subgradient supports f
        rng = Rng(53)
        obj = _random_quadratic(rng, 3)
        for _ in range(200):
            q = np.where(rng.uniforms(3) < 0.3, 0.0, rng.gaussians(3))
            qp = np.where(q == 0.0, 0.0, q * rng.uniforms(3, 0.1, 2.0))
            d = _directional(obj, q, qp)
            fqp = obj.value(qp)
            assert obj.value(q) >= fqp + float(d @ (q - qp)) - 1e-10 * (1.0 + abs(fqp))


    def test_matches_two_mask_form_bitwise(self):
        # the componentwise pos/neg form the sign of q + q' replaced, as reference
        def two_masks(grad, q, qp, gamma):
            pos = (q > 0.0) | (qp > 0.0)
            neg = (q < 0.0) | (qp < 0.0)
            return grad + gamma * (pos.astype(np.float64) - neg.astype(np.float64))

        rng = Rng(59)
        n = 4000
        signed = [0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 1e150, -1e150]
        q = np.concatenate([np.repeat(signed, len(signed)), rng.gaussians(n)])
        qp = np.concatenate([np.tile(signed, len(signed)), rng.gaussians(n)])
        # zero a third of each side at random and drop sign-crossing pairs
        q = np.where(rng.uniforms(q.size) < 0.3, -0.0, q)
        qp = np.where(rng.uniforms(qp.size) < 0.3, 0.0, qp)
        keep = q * qp >= 0.0
        q, qp = q[keep], qp[keep]
        grad = np.where(rng.uniforms(q.size) < 0.2, -0.0, rng.gaussians(q.size))
        for gamma in (0.0, 0.7):
            got = _directional_from_grad(grad, q, qp, gamma)
            assert got.tobytes() == two_masks(grad, q, qp, gamma).tobytes()


class TestPLInequality:
    def test_gap_bounded_by_subgradient_norm(self):
        from l1subgrad.bench import reference_optimum

        rng = Rng(61)
        prob = make_quadratic(20, rng, eig_range=(1.0, 8.0), pin_extremes=True)
        obj = prob.objective
        ref = reference_optimum(prob)
        assert ref.certified
        for _ in range(1000):
            x = rng.gaussians(20, 0.0, 3.0)
            lhs = obj.value(x) - ref.value
            rhs = float(np.linalg.norm(obj.min_norm_subgradient(x)) ** 2) / (2.0 * obj.mu)
            assert lhs <= rhs + 1e-9
