import numpy as np
import pytest

from gradlite.errors import ConfigError, DataError, SpdError
from gradlite.linalg import matvec_t
from gradlite.problems import (Dataset, LogisticProblem, MlpProblem,
                               QuadraticProblem, finite_difference_gradient,
                               make_gaussian_logistic, make_lowrank_logistic,
                               make_mlp, make_quadratic, synth_dataset)
from gradlite.rng import SplitMix64


class TestQuadratic:
    def test_identity_loss_and_gradient(self):
        prob = QuadraticProblem(np.eye(2), np.zeros(2), 0.0)
        theta = np.array([3.0, 4.0])
        assert prob.loss(theta) == 12.5
        assert np.allclose(prob.exact_gradient(theta), [3.0, 4.0])

    def test_optimum_is_flat_and_silent(self):
        prob = QuadraticProblem(np.diag([2.0, 5.0]), np.array([1.0, -1.0]), 0.0)
        assert np.allclose(prob.error_signal(prob.theta_star), 0.0, atol=1e-14)
        assert np.allclose(prob.exact_gradient(prob.theta_star), 0.0, atol=1e-14)

    def test_diagonal_factorization(self):
        prob = QuadraticProblem(np.diag([1.0, 4.0]), np.zeros(2), 0.0)
        theta = np.array([1.0, 1.0])
        j = prob.jacobian(theta)
        assert np.allclose(j, np.diag([1.0, 2.0]), atol=1e-12)
        delta = prob.error_signal(theta)
        assert np.allclose(delta, [1.0, 2.0], atol=1e-12)
        assert np.allclose(prob.exact_gradient(theta), [1.0, 4.0], atol=1e-12)
        assert np.allclose(matvec_t(j, delta), [1.0, 4.0], atol=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(SpdError):
            QuadraticProblem(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))

    def test_indefinite_rejected(self):
        with pytest.raises(SpdError):
            QuadraticProblem(np.diag([1.0, -0.1]), np.zeros(2))

    def test_noise_contract(self):
        # mean of many noisy draws approaches the noiseless signal
        sigma = 0.5
        noisy = make_quadratic(10, 10.0, sigma, seed=20)
        clean = make_quadratic(10, 10.0, 0.0, seed=20)
        theta = clean.default_theta0()
        base = clean.error_signal(theta)
        draws = 10**4
        acc = np.zeros(10)
        for _ in range(draws):
            acc += noisy.error_signal(theta)
        tol = 3.0 * sigma / np.sqrt(draws)
        assert np.abs(acc / draws - base).max() <= tol

    def test_batch_must_be_none(self):
        prob = make_quadratic(4, 2.0, 0.0, seed=1)
        with pytest.raises(ConfigError):
            prob.loss(prob.default_theta0(), batch=[0, 1])


class TestLogistic:
    def test_zero_weights_signal(self):
        data = synth_dataset(5, 30, 6, "gaussian-logistic")
        prob = LogisticProblem(data)
        delta = prob.error_signal(np.zeros(6))
        assert np.allclose(delta, 0.5 - data.y, atol=1e-12)

    def test_single_sample_hand_gradient(self):
        data = Dataset(np.array([[1.0, 0.0]]), np.array([1.0]))
        prob = LogisticProblem(data)
        assert np.allclose(prob.exact_gradient(np.zeros(2)), [-0.5, 0.0],
                           atol=1e-12)

    def test_bad_labels_rejected(self):
        with pytest.raises(DataError):
            LogisticProblem(Dataset(np.ones((2, 2)), np.array([0.0, 2.0])))

    def test_newton_reference_optimum(self):
        prob = make_gaussian_logistic(60, 5, seed=8, solve_optimum=True)
        assert prob.loss_star is not None
        assert prob.loss_star <= prob.loss(np.zeros(5))
        assert np.abs(prob.exact_gradient(prob.theta_hat)).max() <= 1e-8


class TestMlp:
    def test_zero_weights_zero_targets(self):
        data = Dataset(SplitMix64(3).normal_matrix(10, 4), np.zeros(10))
        prob = MlpProblem([4, 6, 1], data)
        theta = np.zeros(prob.d)
        assert prob.loss(theta) == 0.0
        assert np.allclose(prob.exact_gradient(theta), 0.0, atol=1e-15)

    def test_linear_net_matches_least_squares(self):
        stream = SplitMix64(14)
        x = stream.normal_matrix(20, 8)
        y = stream.normals(20)
        prob = MlpProblem([8, 1], Dataset(x, y))
        w = stream.normals(8)
        b = stream.normals(1)
        theta = np.concatenate([w, b])
        pred = x @ w + b[0]
        expect_w = x.T @ (pred - y) / 20.0
        expect_b = np.sum(pred - y) / 20.0
        got = prob.exact_gradient(theta)
        assert np.allclose(got[:8], expect_w, atol=1e-12)
        assert abs(got[8] - expect_b) <= 1e-12

    def test_block_dims_and_jacobian_shape(self):
        prob = make_mlp([6, 10, 1], 12, seed=31)
        assert prob.block_dims == (70, 11)
        assert prob.jacobian(prob.default_theta0(), block=0).shape == (12, 70)
        assert prob.jacobian(prob.default_theta0(), block=1).shape == (12, 11)

    def test_every_block_matches_finite_differences(self):
        prob = make_mlp([5, 7, 1], 9, seed=32)
        theta = prob.default_theta0()
        g = prob.exact_gradient(theta)
        fd = finite_difference_gradient(prob, theta, 1e-5)
        rel = np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-12)
        assert rel < 1e-4

    def test_output_width_must_be_one(self):
        data = Dataset(np.ones((4, 3)), np.zeros(4))
        with pytest.raises(ConfigError):
            MlpProblem([3, 5, 2], data)


class TestMlpEvaluationCache:
    """loss, error_signal and jacobian read one cached evaluation per theta."""

    @staticmethod
    def fresh():
        return make_mlp([6, 10, 8, 1], 12, seed=33)

    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 0, 1)])
    def test_warm_cache_matches_a_fresh_problem(self, order):
        warm = self.fresh()
        stream = SplitMix64(5)
        for _ in range(3):
            theta = warm.default_theta0() + 0.3 * stream.normals(warm.d)
            jacobians = {b: warm.jacobian(theta, block=b) for b in order}
            assert warm.loss(theta) == self.fresh().loss(theta)
            assert np.array_equal(warm.error_signal(theta), self.fresh().error_signal(theta))
            for b in order:
                assert np.array_equal(jacobians[b], self.fresh().jacobian(theta, block=b))
                assert warm.jacobian(theta, block=b) is jacobians[b]

    def test_in_place_change_of_theta_gives_new_values(self):
        prob = self.fresh()
        theta = prob.default_theta0()
        loss, jac = prob.loss(theta), prob.jacobian(theta, block=0)
        theta[3] += 0.25  # a weight of block 0, as finite differences do
        assert prob.loss(theta) == self.fresh().loss(theta) != loss
        assert np.array_equal(prob.error_signal(theta), self.fresh().error_signal(theta))
        new_jac = prob.jacobian(theta, block=0)
        assert np.array_equal(new_jac, self.fresh().jacobian(theta, block=0))
        assert not np.array_equal(new_jac, jac)

    def test_cache_does_not_read_the_callers_array_later(self):
        prob = self.fresh()
        theta = prob.default_theta0()
        before = theta.copy()
        prob.loss(theta)
        theta[-2] += 0.25  # an output weight; the cache still holds `before`
        for b in (2, 1, 0):
            assert np.array_equal(prob.jacobian(before, block=b),
                                  self.fresh().jacobian(before, block=b))

    def test_every_error_signal_call_draws_fresh_noise(self):
        prob = self.fresh()
        prob.noise_sigma = 0.5
        theta = prob.default_theta0()
        first, second = prob.error_signal(theta), prob.error_signal(theta)
        assert not np.array_equal(first, second)
        clean = self.fresh().error_signal(theta)
        assert not np.array_equal(first, clean)

    def test_cached_jacobian_is_read_only(self):
        prob = self.fresh()
        theta = prob.default_theta0()
        for b in range(prob.blocks):
            jac = prob.jacobian(theta, block=b)
            assert not jac.flags.writeable
            with pytest.raises(ValueError):
                jac[0, 0] = 1.0


class TestChainRuleContract:
    @pytest.mark.parametrize("factory", [
        lambda: make_quadratic(12, 10.0, 0.0, seed=41),
        lambda: make_gaussian_logistic(40, 12, seed=42),
        lambda: make_lowrank_logistic(48, 12, 1e3, seed=43, solve_optimum=False),
        lambda: make_mlp([6, 10, 1], 12, seed=44),
    ])
    def test_jacobian_times_signal_equals_gradient(self, factory):
        prob = factory()
        stream = SplitMix64(7)
        base = prob.default_theta0()
        slices = prob.block_slices()
        for _ in range(100):
            theta = base + 0.5 * stream.normals(prob.d)
            delta = prob.error_signal(theta)
            g = prob.exact_gradient(theta)
            parts = [matvec_t(prob.jacobian(theta, block=b), delta)
                     for b in range(prob.blocks)]
            err = np.linalg.norm(np.concatenate(parts) - g)
            assert err <= 1e-10 * (1.0 + np.linalg.norm(g))


class TestFiniteDifferences:
    def test_quadratic_is_exact_up_to_rounding(self):
        prob = QuadraticProblem(np.eye(2), np.zeros(2), 0.0)
        fd = finite_difference_gradient(prob, np.array([3.0, 4.0]), 1e-5)
        assert np.abs(fd - [3.0, 4.0]).max() <= 1e-8

    def test_constant_loss_gives_zero(self):
        class Flat:
            def loss(self, theta, batch=None):
                return 4.25
        fd = finite_difference_gradient(Flat(), np.ones(3), 1e-5)
        assert np.array_equal(fd, np.zeros(3))

    def test_logistic_agreement(self):
        prob = make_gaussian_logistic(40, 10, seed=51)
        theta = 0.3 * SplitMix64(52).normals(10)
        g = prob.exact_gradient(theta)
        fd = finite_difference_gradient(prob, theta, 1e-5)
        assert np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-12) < 1e-5

    def test_bad_step_size(self):
        with pytest.raises(ConfigError):
            finite_difference_gradient(make_quadratic(3, 2.0, 0.0, 1),
                                       np.zeros(3), 0.0)


class TestDatasets:
    def test_reproducible_from_seed(self):
        a = synth_dataset(9, 25, 6, "gaussian-logistic")
        b = synth_dataset(9, 25, 6, "gaussian-logistic")
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_logistic_labels_are_binary(self):
        data = synth_dataset(10, 200, 5, "gaussian-logistic")
        assert set(np.unique(data.y)) <= {0.0, 1.0}

    def test_lowrank_condition_number(self):
        data = synth_dataset(11, 60, 20, "low-rank-regression")
        s = np.linalg.svd(data.x, compute_uv=False)
        assert abs(s[0] / s[-1] - 1e3) <= 0.05 * 1e3

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            synth_dataset(0, 4, 2, "mystery")


def test_lowrank_logistic_benchmark_properties():
    prob = make_lowrank_logistic(96, 24, 1e3, seed=71)
    s = np.linalg.svd(prob.data.x, compute_uv=False)
    assert abs(s[0] / s[-1] - 1e3) <= 0.05 * 1e3
    assert set(np.unique(prob.data.y)) <= {0.0, 1.0}
    assert prob.loss_star is not None


@pytest.mark.parametrize("cond", [0.0, 0.5, -1.0, float("nan")])
def test_lowrank_logistic_rejects_condition_below_one(cond):
    with pytest.raises(ConfigError, match="bad low-rank logistic spec"):
        make_lowrank_logistic(16, 4, cond, seed=0)
