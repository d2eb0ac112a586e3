import ast
import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gradlite
from gradlite import problems
from gradlite.errors import ConfigError, DataError, DimError, SpdError
from gradlite.linalg import matvec_t, truncated_svd
from gradlite.problems import (NOISE_BLOCK, _NOISE_SALT, Dataset, LogisticProblem,
                               MlpProblem, Problem, QuadraticProblem, _expit,
                               finite_difference_gradient, make_gaussian_logistic,
                               make_lowrank_logistic, make_mlp, make_quadratic)
from gradlite.rng import SplitMix64, derive_seed


class TestQuadratic:
    def test_identity_loss_and_gradient(self):
        prob = QuadraticProblem(np.eye(2), 0.0)
        theta = np.array([3.0, 4.0])
        assert prob.loss(theta) == 12.5
        assert np.allclose(prob.exact_gradient(theta), [3.0, 4.0])

    def test_optimum_is_flat_and_silent(self):
        prob = QuadraticProblem(np.diag([2.0, 5.0]), 0.0)
        assert np.allclose(prob.error_signal(np.zeros(2)), 0.0, atol=1e-14)
        assert np.allclose(prob.exact_gradient(np.zeros(2)), 0.0, atol=1e-14)

    def test_diagonal_factorization(self):
        prob = QuadraticProblem(np.diag([1.0, 4.0]), 0.0)
        theta = np.array([1.0, 1.0])
        j = prob.jacobian(theta)
        assert np.allclose(j, np.diag([1.0, 2.0]), atol=1e-12)
        delta = prob.error_signal(theta)
        assert np.allclose(delta, [1.0, 2.0], atol=1e-12)
        assert np.allclose(prob.exact_gradient(theta), [1.0, 4.0], atol=1e-12)
        assert np.allclose(matvec_t(j, delta), [1.0, 4.0], atol=1e-12)

    def test_centred_signal_multiplies_theta_with_the_same_bits(self):
        prob = make_quadratic(6, 10.0, 0.0, seed=4)
        tiny = np.nextafter(0.0, 1.0)  # the smallest subnormal
        thetas = [np.array([0.0, -0.0, 0.0, -0.0, 1.0, -2.0]),
                  np.array([tiny, -tiny, 1e-310, -1e-310, 0.0, -0.0]),
                  np.array([np.inf, 1.0, -np.inf, 0.0, -0.0, 2.0]),
                  np.array([np.nan, 1.0, -0.0, 0.0, tiny, 3.0]),
                  prob.default_theta0()]
        with np.errstate(invalid="ignore", over="ignore"):
            for theta in thetas:
                want = prob.jacobian(theta) @ (theta - np.zeros(6))
                assert prob.error_signal(theta).tobytes() == want.tobytes()

    def test_dot_is_the_matmul_gemv_bit_for_bit(self):
        # error_signal computes sqrt(A).dot(theta) in place of `@`.
        stream = SplitMix64(28)
        sizes = [1, 2, 3, 7, 8, 16, 31, 50, 64, 65, 127, 200, 256, 257, 513]
        for d in sizes + [int(1 + stream.uniforms(1)[0] * 400) for _ in range(40)]:
            a = stream.normal_matrix(d, d)
            for theta in (stream.normals(d), stream.normals(d) * 1e-300,
                          stream.normals(d) * 1e150):
                assert a.dot(theta).tobytes() == (a @ theta).tobytes(), d

    def test_asymmetric_rejected(self):
        with pytest.raises(SpdError):
            QuadraticProblem(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_indefinite_rejected(self):
        with pytest.raises(SpdError):
            QuadraticProblem(np.diag([1.0, -0.1]))

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


class TestBlockNoise:
    """Noise is drawn NOISE_BLOCK vectors at a time, yet each draw equals
    one normals(m) call on the run's stream."""

    D, COND, SIGMA, SEED = 7, 10.0, 0.5, 31

    def signals(self, prob, count):
        theta = prob.default_theta0()
        return [prob.error_signal(theta) for _ in range(count)]

    def test_signals_equal_one_normals_call_per_draw(self):
        noisy = make_quadratic(self.D, self.COND, self.SIGMA, seed=self.SEED)
        clean = make_quadratic(self.D, self.COND, 0.0, seed=self.SEED)
        stream = SplitMix64(derive_seed(self.SEED, _NOISE_SALT))
        base = clean.error_signal(clean.default_theta0())
        # 2 * NOISE_BLOCK + 1 draws cross two block boundaries.
        for got in self.signals(noisy, 2 * NOISE_BLOCK + 1):
            assert np.array_equal(got, base + self.SIGMA * stream.normals(self.D))

    def test_reset_partway_through_a_block_discards_its_rest(self):
        used = make_quadratic(self.D, self.COND, self.SIGMA, seed=self.SEED)
        self.signals(used, 10)
        used.reset_noise(99)
        fresh = make_quadratic(self.D, self.COND, self.SIGMA, seed=self.SEED)
        fresh.reset_noise(99)
        for a, b in zip(self.signals(used, NOISE_BLOCK + 5),
                        self.signals(fresh, NOISE_BLOCK + 5)):
            assert np.array_equal(a, b)

    def test_a_replay_returns_the_kept_scaled_block_itself(self, drawn):
        # Kept blocks hold rows already scaled by sigma, so a second run
        # reads each one as it is: no draw, and no multiply.
        prob = make_quadratic(self.D, self.COND, self.SIGMA, seed=self.SEED)
        prob.reset_noise(99)
        self.signals(prob, NOISE_BLOCK + 5)
        kept = list(prob._noise_kept)
        assert len(kept) == 2 and not any(b.flags.writeable for b in kept)
        stream = SplitMix64(99)
        for b in kept:
            assert b.tobytes() == (self.SIGMA * stream.normal_rows(self.D, NOISE_BLOCK)).tobytes()
        drawn.clear()

        class NoMultiply(float):
            def __mul__(self, other):
                raise AssertionError("a replayed block was scaled again")
            __rmul__ = __mul__

        prob.noise_sigma = NoMultiply(self.SIGMA)  # the same level, as a spy
        prob.reset_noise(99)
        for b in (0, 1):
            assert prob._noise_block(b) is kept[b]
        self.signals(prob, NOISE_BLOCK + 5)
        assert drawn == []


class TestNoiseReplay:
    """A reset to the stream a problem holds replays its kept rows, and
    each draw still equals one normals(m) call on a fresh stream."""

    D, COND, SIGMA, SEED = 7, 10.0, 0.5, 31
    signals = TestBlockNoise.signals

    def expected(self, stream_seed, count):
        clean = make_quadratic(self.D, self.COND, 0.0, seed=self.SEED)
        base = clean.error_signal(clean.default_theta0())
        stream = SplitMix64(stream_seed)
        return [base + self.SIGMA * stream.normals(self.D) for _ in range(count)]

    def test_same_seed_replays_the_same_bits_without_drawing(self, drawn):
        prob = make_quadratic(self.D, self.COND, self.SIGMA, seed=self.SEED)
        prob.reset_noise(99)
        first = self.signals(prob, NOISE_BLOCK + 5)
        assert drawn == [NOISE_BLOCK, NOISE_BLOCK]
        for length in (3, NOISE_BLOCK + 5):  # partway through a block, then past it
            prob.reset_noise(99)
            again = self.signals(prob, length)
            assert drawn == [NOISE_BLOCK, NOISE_BLOCK]
            assert all(a.tobytes() == b.tobytes() for a, b in zip(first, again))
        for a, b in zip(first, self.expected(99, NOISE_BLOCK + 5)):
            assert a.tobytes() == b.tobytes()

    def test_another_seed_and_back_gives_the_same_bits(self):
        prob = make_quadratic(self.D, self.COND, self.SIGMA, seed=self.SEED)
        for seed in (99, 98, 99, 99, 98):
            prob.reset_noise(seed)
            got = self.signals(prob, NOISE_BLOCK + 5)
            for a, b in zip(got, self.expected(seed, NOISE_BLOCK + 5)):
                assert a.tobytes() == b.tobytes()

    def test_a_run_past_the_budget_keeps_only_the_budget(self, drawn, monkeypatch):
        # A budget of two whole blocks and a bit: the odd width D makes each
        # drawn block a strided view, which the problem keeps as a copy.
        budget = 2 * NOISE_BLOCK * self.D + self.D
        monkeypatch.setattr(problems, "NOISE_KEEP", budget)
        prob = make_quadratic(self.D, self.COND, self.SIGMA, seed=self.SEED)
        count = 5 * NOISE_BLOCK + 3
        want = self.expected(99, count)
        for rows_drawn in (6, 4):  # the replay draws all but the 2 kept blocks
            prob.reset_noise(99)
            drawn.clear()
            got = self.signals(prob, count)
            assert drawn == [NOISE_BLOCK] * rows_drawn
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
            assert sum(b.nbytes for b in prob._noise_kept) == 2 * NOISE_BLOCK * self.D * 8

    def test_default_budget_holds_on_wide_rows(self):
        # One block of 2**11-entry rows fills the 2**17-entry budget exactly.
        prob = Problem(2**11, (2**11,), seed=0)
        prob.noise_sigma = 1.0
        prob.reset_noise(5)
        for _ in range(2 * NOISE_BLOCK + 1):
            prob._add_noise(np.zeros(prob.m))
        assert NOISE_BLOCK * 2**11 == problems.NOISE_KEEP == 2**17
        assert sum(b.size for b in prob._noise_kept) == problems.NOISE_KEEP


FAMILIES = {
    "quadratic": lambda: make_quadratic(6, 10.0, 0.0, seed=3),
    "logistic": lambda: make_gaussian_logistic(20, 5, seed=3),
    "mlp": lambda: make_mlp([5, 7, 1], 9, seed=3),
}


def signal_formula(prob, theta):
    """Each family's noiseless error signal, written out."""
    if isinstance(prob, QuadraticProblem):
        return prob.jacobian(theta) @ theta
    if isinstance(prob, LogisticProblem):
        return _expit(prob.data.x @ theta) - prob.data.y
    return (prob._forward(theta)[1][-1][:, 0] - prob.data.y) / prob.data.n


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_noiseless_signal_is_the_formula_and_draws_nothing(family, drawn):
    prob = FAMILIES[family]()
    stream = SplitMix64(8)
    for scale in (0.0, 0.5, 2.0):
        theta = prob.default_theta0() + scale * stream.normals(prob.d)
        assert prob.error_signal(theta).tobytes() == signal_formula(prob, theta).tobytes()
    assert drawn == []


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("spell", [list, np.float32, np.int64],
                         ids=["list", "float32", "int64"])
def test_a_list_theta_reads_as_its_array(family, spell):
    # Each spelling gives the values of its float64 array, which is what the
    # evaluation cache keys on.
    prob, fresh = FAMILIES[family](), FAMILIES[family]()
    given = prob.default_theta0() + 0.25
    given = given.tolist() if spell is list else given.astype(spell)
    theta = np.asarray(given, dtype=np.float64)
    assert prob.loss(given) == fresh.loss(theta)
    assert prob.error_signal(given).tobytes() == fresh.error_signal(theta).tobytes()
    assert np.array_equal(prob.jacobian(given), fresh.jacobian(theta))
    assert prob.exact_gradient(given).tobytes() == fresh.exact_gradient(theta).tobytes()


def masked_expit(z):
    """The sigmoid as two masked branches, each exp taken of a value <= 0."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestLogistic:
    def test_expit_matches_masked_branches_bit_for_bit(self):
        stream = SplitMix64(17)
        zs = [np.array([0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 745.0, -745.0,
                        1e4, -1e4])]
        zs += [stream.normals(64) * 10.0 ** e for e in range(-3, 5)]
        for z in zs:
            assert _expit(z).tobytes() == masked_expit(z).tobytes()

    def test_zero_weights_signal(self):
        data = make_gaussian_logistic(30, 6, 5).data
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
        prob = make_gaussian_logistic(60, 5, seed=8)
        assert prob.loss_star is not None
        assert prob.loss_star <= prob.loss(np.zeros(5))
        assert np.abs(prob.exact_gradient(prob.theta_hat)).max() <= 1e-8

    def test_newton_gives_up_at_its_iteration_cap(self):
        prob = LogisticProblem(make_gaussian_logistic(60, 5, seed=8).data)
        assert prob.solve_optimum(max_iter=1) is False
        assert prob.loss_star is None


def softplus_loss(z):
    """The loss of a one-row problem with label 0 and score z: softplus(z)."""
    prob = LogisticProblem(Dataset(np.array([[1.0]]), np.array([0.0])))
    return prob.loss(np.array([z]))


def assert_near_logaddexp(z, ulps=4):
    want = np.logaddexp(0.0, z)
    got = softplus_loss(z)
    assert abs(got - want) <= ulps * np.spacing(want), (z.hex(), got.hex(), want.hex())


class TestSoftplusLoss:
    """The loss's vector softplus max(z, 0) + log1p(exp(-|z|)) against
    numpy's scalar logaddexp(0, z)."""

    @settings(max_examples=200)
    @given(st.one_of(st.floats(-800.0, 800.0),
                     st.floats(allow_nan=False, allow_infinity=False)))
    def test_within_four_ulps_of_logaddexp(self, z):
        assert_near_logaddexp(z)

    def test_within_four_ulps_on_a_grid_and_at_every_scale(self):
        stream = SplitMix64(33)
        zs = [np.linspace(-750.0, 750.0, 3001)]
        zs += [stream.normals(200) * scale for scale in (0.1, 1.0, 10.0, 100.0, 300.0)]
        for z in np.concatenate(zs):
            assert_near_logaddexp(float(z))

    def test_equal_to_logaddexp_where_it_is_exact(self):
        # At z >= 37, log1p(exp(-z)) is under half an ulp of z, and from
        # z <= -746 exp(z) is 0.0: both give z, and 0.0, exactly.
        zs = [0.0, -0.0, 37.0, 40.5, 1e3, 1e308, -746.0, -1e3, -1e308]
        for z in zs:
            assert softplus_loss(z) == np.logaddexp(0.0, z), z
        # The label term 0 * z is nan at +-inf, so there the loss is nan, as
        # logaddexp(0, z) - 0 * z is.  0 * inf warns; runs step under this
        # errstate too.
        with np.errstate(invalid="ignore"):
            for z in (np.inf, -np.inf, np.nan):
                want = np.logaddexp(0.0, z) - 0.0 * z
                assert np.array_equal(softplus_loss(z), want, equal_nan=True), z


# Criterion 6's instance.  Some seeds end Newton on a line search that no
# step length passes, at a point already optimal to float precision; which
# seeds do depends on the BLAS thread count.
_SOLVE_SEEDS = """
from gradlite.harness import build_problem
spec = {"name": "lowrank-logistic", "n": 512, "d": 128, "cond": 1000.0}
print([s for s in range(16) if build_problem(spec, s).loss_star is None])
"""


class TestLogisticScores:
    """The logistic evaluation is x @ theta and exp(-|x @ theta|)."""

    def test_one_exp_per_new_theta(self, monkeypatch):
        prob = make_gaussian_logistic(30, 5, seed=8)
        calls, exp = [], np.exp

        def counting(*args, **kwargs):
            calls.append(args[0])
            return exp(*args, **kwargs)
        monkeypatch.setattr(np, "exp", counting)
        theta = prob.default_theta0() + 0.5
        prob.loss(theta)
        prob.error_signal(theta)
        assert len(calls) == 1
        prob.loss(theta)
        prob.error_signal(theta)
        assert len(calls) == 1


class TestReferenceOptimumAtBenchmarkSize:
    def test_every_seed_is_solved(self, capsys):
        exec(_SOLVE_SEEDS, {})
        assert capsys.readouterr().out.strip() == "[]"

    def test_every_seed_is_solved_on_one_blas_thread(self):
        src = str(Path(gradlite.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", _SOLVE_SEEDS], env=env,
                             capture_output=True, text=True, check=True, timeout=300)
        assert out.stdout.strip() == "[]"


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
        jac = prob.jacobian(prob.default_theta0())
        assert [jac[:, sl].shape for sl in prob.block_slices()] == [(12, 70), (12, 11)]

    def test_every_block_matches_finite_differences(self):
        prob = make_mlp([5, 7, 1], 9, seed=32)
        theta = prob.default_theta0()
        g = prob.exact_gradient(theta)
        fd = finite_difference_gradient(prob, theta, 1e-5)
        rel = np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-12)
        assert rel < 1e-4

    def test_saturated_units_signed_zeros_reach_no_reader(self):
        # Large weights saturate tanh, so some sensitivities and products
        # are -0.0; the kernels and the factorization read J as its +0.0 copy.
        prob = make_mlp([8, 4, 4, 4, 1], 32, seed=34)
        theta = 30.0 * prob.default_theta0()
        y = SplitMix64(35).normals(32)
        whole = prob.jacobian(theta)
        jacobians = [whole[:, sl] for sl in prob.block_slices()]
        assert any((np.signbit(jac) & (jac == 0.0)).any() for jac in jacobians)
        for jac in jacobians:
            plain = jac + 0.0
            assert matvec_t(jac, y).tobytes() == matvec_t(plain, y).tobytes()
            for k in (1, min(jac.shape)):
                for got, want in zip(truncated_svd(jac, k), truncated_svd(plain, k)):
                    assert got.tobytes() == want.tobytes()

    def test_weight_columns_equal_the_broadcast_products_up_to_zero_signs(self):
        # The weight columns come from one einsum per block; each entry is
        # the single rounded product that np.multiply over a broadcast gives.
        # Only the sign of a zero product may differ, which + 0.0 removes.
        prob = make_mlp([8, 16, 16, 1], 32, seed=34)
        theta = 30.0 * prob.default_theta0()
        ws, acts = prob._forward(theta)
        n = prob.data.n
        d_sens = np.ones((n, 1))
        whole, slices = prob.jacobian(theta), prob.block_slices()
        signed_zeros = 0
        for l in range(len(ws) - 1, -1, -1):
            p, q = d_sens.shape[1], acts[l].shape[1]
            products = np.multiply(d_sens[:, :, None], acts[l][:, None, :]).reshape(n, p * q)
            signed_zeros += int((np.signbit(products) & (products == 0.0)).sum())
            want = np.concatenate([products, d_sens], axis=1)
            got = whole[:, slices[l]]
            assert got.shape == want.shape
            assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
            d_sens = (d_sens @ ws[l]) * (1.0 - acts[l] ** 2)
        assert signed_zeros > 0  # the saturated net does make -0.0 products

    def test_output_width_must_be_one(self):
        data = Dataset(np.ones((4, 3)), np.zeros(4))
        with pytest.raises(ConfigError):
            MlpProblem([3, 5, 2], data)


CACHED = {
    "logistic": lambda: make_gaussian_logistic(30, 5, seed=8),
    "mlp": lambda: make_mlp([6, 10, 8, 1], 12, seed=33),
}


def rebuilt(prob):
    """A problem on the same data whose cache has seen no theta: a maker's
    Newton solve leaves the logistic cache at the optimum."""
    if isinstance(prob, LogisticProblem):
        return LogisticProblem(prob.data)
    return MlpProblem(prob.layers, prob.data)


@pytest.mark.parametrize("family", sorted(CACHED))
class TestEvaluationCache:
    """loss, error_signal, probe and jacobian read one cached evaluation per
    theta, `Problem._at`."""

    def test_in_place_change_of_theta_gives_new_values(self, family):
        prob = CACHED[family]()
        theta = prob.default_theta0()
        loss, signal = prob.loss(theta), prob.error_signal(theta)
        prob.jacobian(theta)
        theta[3] += 0.25  # a weight of block 0, as finite differences do
        assert prob.loss(theta) == rebuilt(prob).loss(theta) != loss
        new_signal = prob.error_signal(theta)
        assert np.array_equal(new_signal, rebuilt(prob).error_signal(theta))
        assert not np.array_equal(new_signal, signal)
        assert np.array_equal(prob.jacobian(theta), rebuilt(prob).jacobian(theta))

    def test_warm_interleaved_cache_matches_a_fresh_problem(self, family):
        prob = CACHED[family]()
        stream = SplitMix64(4)
        a, b = (prob.default_theta0() + 0.3 * stream.normals(prob.d) for _ in "ab")
        delta = stream.normals(prob.m)
        changed = a.copy()
        calls = [("loss", a), ("error_signal", a), ("jacobian", b), ("error_signal", b),
                 ("loss", b), ("probe", a), ("loss", a), ("jacobian", a),
                 ("error_signal", a), ("probe", b), ("loss", changed)]

        def check(meth, theta):
            args = (theta, delta) if meth == "probe" else (theta,)
            want = getattr(rebuilt(prob), meth)(*args)
            got = getattr(prob, meth)(*args)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), meth

        for meth, theta in calls:
            check(meth, theta)
        changed[1] += 0.5
        for meth in ("error_signal", "jacobian", "probe", "loss"):
            check(meth, changed)

    def test_cache_does_not_read_the_callers_array_later(self, family):
        prob = CACHED[family]()
        theta = prob.default_theta0() + 0.25
        before = theta.copy()
        prob.loss(theta)
        theta[-2] += 0.25  # the cache still holds `before`
        delta = SplitMix64(6).normals(prob.m)
        assert np.array_equal(prob.jacobian(before), rebuilt(prob).jacobian(before))
        assert prob.probe(before, delta).tobytes() == rebuilt(prob).probe(before, delta).tobytes()
        assert prob.error_signal(before).tobytes() == rebuilt(prob).error_signal(before).tobytes()
        assert prob.loss(before) == rebuilt(prob).loss(before)

    def test_every_error_signal_call_draws_fresh_noise(self, family):
        prob = CACHED[family]()
        prob.noise_sigma = 0.5
        theta = prob.default_theta0()
        first, second = prob.error_signal(theta), prob.error_signal(theta)
        assert not np.array_equal(first, second)
        clean = rebuilt(prob).error_signal(theta)
        assert not np.array_equal(first, clean)


class TestMlpJacobianSlot:
    """The MLP's evaluation holds a slot for J, swept on the first request."""

    def test_j_is_swept_once_per_theta_and_read_only(self):
        prob = make_mlp([6, 10, 8, 1], 12, seed=33)
        theta = prob.default_theta0()
        prob.probe(theta, prob.error_signal(theta))
        assert prob.loss(theta) > 0.0 and prob._at(theta)[-1] is None
        whole = prob.jacobian(theta)
        assert prob.jacobian(theta) is whole and prob._at(theta)[-1] is whole
        for jac in (whole, *(whole[:, sl] for sl in prob.block_slices())):
            assert not jac.flags.writeable
            with pytest.raises(ValueError):
                jac[0, 0] = 1.0
        prob.loss(theta + 0.25)  # a new theta drops J with the rest
        assert prob._at(theta + 0.25)[-1] is None
        again = prob.jacobian(theta)
        assert again is not whole and np.array_equal(again, whole)


def test_only_problem_keys_the_evaluation_cache():
    # The cache rule (the key, the private copy, the evaluation on a miss)
    # lives in Problem._at alone; a family writes only its _evaluate.
    tree = ast.parse(Path(problems.__file__).read_text())
    found = [f"{getattr(top, 'name', 'module')}:{node.lineno}"
             for top in tree.body if getattr(top, "name", None) != "Problem"
             for node in ast.walk(top)
             if isinstance(node, ast.Attribute) and node.attr in ("_key", "tobytes")]
    assert found == []
    families = [cls for cls in vars(problems).values()
                if isinstance(cls, type) and issubclass(cls, Problem) and cls is not Problem]
    assert len(families) == 3 and callable(vars(Problem)["_at"])
    assert [cls.__name__ for cls in families if "_at" in vars(cls)] == []


class TestReadOnlyJacobians:
    """The same array means the same J, so no Jacobian changes in place."""

    @pytest.mark.parametrize("make", [
        lambda: make_quadratic(5, 10.0, 0.3, seed=1),
        lambda: make_gaussian_logistic(20, 4, seed=2),
        lambda: make_lowrank_logistic(24, 6, 100.0, seed=3),
    ], ids=["quadratic", "logistic", "lowrank-logistic"])
    def test_jacobian_is_not_writeable(self, make):
        prob = make()
        jac = prob.jacobian(prob.default_theta0())
        assert not jac.flags.writeable
        with pytest.raises(ValueError):
            jac[0, 0] = 1.0

    def test_dataset_features_are_a_private_copy(self):
        x = np.ones((3, 2))
        data = Dataset(x, np.zeros(3))
        x[0, 0] = 5.0
        assert data.x[0, 0] == 1.0


class TestChainRuleContract:
    @pytest.mark.parametrize("factory", [
        lambda: make_quadratic(12, 10.0, 0.0, seed=41),
        lambda: make_gaussian_logistic(40, 12, seed=42),
        lambda: make_lowrank_logistic(48, 12, 1e3, seed=43),
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
            jac = prob.jacobian(theta)
            parts = [matvec_t(jac[:, sl], delta) for sl in slices]
            err = np.linalg.norm(np.concatenate(parts) - g)
            assert err <= 1e-10 * (1.0 + np.linalg.norm(g))


class TestWholeJacobian:
    """jacobian(theta) is the whole J, and J[:, sl] over block_slices() its blocks."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @given(seed=st.integers(0, 2**32))
    def test_whole_probe_is_the_block_probes_end_to_end(self, family, seed):
        prob = whole_j_problem(family)
        stream = SplitMix64(seed)
        theta = prob.default_theta0() + stream.normals(prob.d)
        delta = stream.normals(prob.m)
        whole = prob.jacobian(theta)
        parts = [matvec_t(whole[:, sl], delta) for sl in prob.block_slices()]
        assert matvec_t(whole, delta).tobytes() == np.concatenate(parts).tobytes()

    @given(layers=st.lists(st.integers(1, 6), min_size=1, max_size=4),
           n=st.integers(1, 12), seed=st.integers(0, 2**32))
    def test_mlp_whole_j_is_its_read_only_blocks_side_by_side(self, layers, n, seed):
        # 1-4 blocks; a large theta saturates units, so J holds signed zeros.
        prob = make_mlp([*layers, 1], n, seed % 1000)
        stream = SplitMix64(seed)
        theta = 10.0 * stream.uniforms(1)[0] * stream.normals(prob.d)
        whole = prob.jacobian(theta)
        views = [whole[:, sl] for sl in prob.block_slices()]
        assert whole.shape == (prob.m, prob.d)
        assert [view.shape[1] for view in views] == list(prob.block_dims)
        assert not any(a.flags.writeable for a in (whole, *views))
        assert prob.jacobian(theta) is whole
        delta = stream.normals(prob.m)
        assert matvec_t(whole, delta).tobytes() == np.concatenate(
            [matvec_t(view, delta) for view in views]).tobytes()

    @given(layers=st.sampled_from([(3, 1), (6, 3, 5, 2, 1), (8, 16, 16, 1)]),
           n=st.integers(1, 64), scale=st.sampled_from([1.0, 1e3]),
           seed=st.integers(0, 2**32))
    def test_sweep_is_the_einsum_route_bit_for_bit(self, layers, n, scale, seed):
        # The sweep copies the output layer's inputs and 1.0 where the
        # einsum route multiplied them by its all-ones sensitivity, and
        # scales tanh' by the output weights where it took ones @ w.  Every
        # entry keeps its bits; only a zero's sign may differ, which + 0.0
        # removes and no reader of J keeps.  theta x 1e3 saturates units.
        prob = make_mlp(list(layers), n, seed % 1000)
        theta = scale * SplitMix64(seed).normals(prob.d)
        got, want = prob.jacobian(theta), einsum_route_jacobian(prob, theta)
        assert np.array_equal(got, want)
        assert (got + 0.0).tobytes() == (want + 0.0).tobytes()


PROBE_CONSTANT_J = {
    "quadratic": lambda: make_quadratic(12, 10.0, 0.3, seed=41),
    "logistic": lambda: make_gaussian_logistic(40, 12, seed=42),
    "lowrank-logistic": lambda: make_lowrank_logistic(48, 12, 1e3, seed=43),
}
PROBE_MLP_LAYERS = ((8, 1), (8, 16, 1), (8, 16, 16, 1), (6, 10, 10, 10, 1))


def probe_id(family):
    return family if isinstance(family, str) else "mlp-" + "-".join(map(str, family))


@functools.cache
def probe_problem(family):
    """One problem per family or MLP shape for every example, so the MLP's
    probe reads a cache that earlier examples left at other thetas."""
    if family in PROBE_CONSTANT_J:
        return PROBE_CONSTANT_J[family]()
    return make_mlp(family, 32, seed=44)


def probe_draws(prob, draw):
    """A theta offset from the problem's start and an arbitrary signal."""
    stream = SplitMix64(draw(st.integers(0, 2**32), label="seed"))
    spread = draw(st.sampled_from([0.0, 0.5, 3.0]), label="spread")
    theta = prob.default_theta0() + spread * stream.normals(prob.d)
    elements = st.floats(-1e3, 1e3, allow_subnormal=False)
    delta = np.array(draw(st.lists(elements, min_size=prob.m, max_size=prob.m),
                          label="delta"))
    return theta, delta


class TestProbe:
    """probe(theta, delta) is J^T delta of the materialized J."""

    @pytest.mark.parametrize("family", sorted(PROBE_CONSTANT_J))
    @given(data=st.data())
    def test_constant_jacobian_probe_is_the_walk_bit_for_bit(self, family, data):
        prob = probe_problem(family)
        theta, delta = probe_draws(prob, data.draw)
        want = matvec_t(prob.jacobian(theta), delta)
        assert prob.probe(theta, delta).tobytes() == want.tobytes()

    @pytest.mark.parametrize("layers", PROBE_MLP_LAYERS, ids=probe_id)
    @given(data=st.data())
    def test_mlp_reverse_pass_is_the_walk_to_rounding(self, layers, data):
        # The reverse pass sums in BLAS's order, not the walk's, so each
        # entry may differ by rounding of the summed magnitudes.
        prob = probe_problem(layers)
        theta, delta = probe_draws(prob, data.draw)
        got = prob.probe(theta, delta)
        jac = prob.jacobian(theta)
        bound = 1e-12 * matvec_t(np.abs(jac), np.abs(delta))
        assert np.all(np.abs(got - matvec_t(jac, delta)) <= bound)

    def test_mlp_probe_builds_no_jacobian(self, monkeypatch):
        prob = make_mlp([8, 16, 16, 1], 32, seed=44)
        theta = prob.default_theta0()
        want = matvec_t(prob.jacobian(theta), prob.error_signal(theta))
        fresh = make_mlp([8, 16, 16, 1], 32, seed=44)
        monkeypatch.setattr(MlpProblem, "jacobian", lambda self, theta: pytest.fail("J read"))
        got = fresh.probe(theta, fresh.error_signal(theta))
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    def test_mlp_exact_gradient_is_the_probe_of_its_signal_bit_for_bit(self):
        # One reverse pass serves both; only the forward pass differs, the
        # cached one against a fresh one, with the same bits.
        prob = make_mlp([6, 10, 10, 10, 1], 32, seed=44)
        theta = prob.default_theta0() + 0.5 * SplitMix64(3).normals(prob.d)
        got = prob.probe(theta, prob.error_signal(theta))
        assert got.tobytes() == prob.exact_gradient(theta).tobytes()

    @pytest.mark.parametrize("family", [*sorted(PROBE_CONSTANT_J), (8, 16, 1)], ids=probe_id)
    def test_a_signal_of_another_length_is_refused(self, family):
        prob = probe_problem(family)
        with pytest.raises(DimError):
            prob.probe(prob.default_theta0(), np.zeros(prob.m + 1))


def einsum_route_jacobian(prob, theta):
    """An MLP's J by the top-down sweep that starts from an all-ones output
    sensitivity and takes every block's weight columns by einsum."""
    ws, acts = prob._forward(theta)
    n = prob.data.n
    jac, slices = np.empty((n, prob.d)), prob.block_slices()
    d_sens = np.ones((n, 1))
    for l in range(len(ws) - 1, -1, -1):
        p, q = d_sens.shape[1], acts[l].shape[1]
        lo, hi = slices[l].start, slices[l].stop
        np.einsum("ip,iq->ipq", d_sens, acts[l], out=jac[:, lo:hi - p].reshape(n, p, q))
        jac[:, hi - p:hi] = d_sens
        if l > 0:
            d_sens = (d_sens @ ws[l]) * (1.0 - acts[l] ** 2)
    return jac


@functools.cache
def whole_j_problem(family):
    """One problem per family for every example: a logistic maker solves its
    optimum."""
    return FAMILIES[family]()


class TestFiniteDifferences:
    def test_quadratic_is_exact_up_to_rounding(self):
        prob = QuadraticProblem(np.eye(2), 0.0)
        fd = finite_difference_gradient(prob, np.array([3.0, 4.0]), 1e-5)
        assert np.abs(fd - [3.0, 4.0]).max() <= 1e-8

    def test_constant_loss_gives_zero(self):
        class Flat:
            def loss(self, theta):
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
        a = make_gaussian_logistic(25, 6, 9).data
        b = make_gaussian_logistic(25, 6, 9).data
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_logistic_labels_are_binary(self):
        data = make_gaussian_logistic(200, 5, 10).data
        assert set(np.unique(data.y)) <= {0.0, 1.0}

    def test_lowrank_condition_number(self):
        data = make_mlp([20, 1], 60, 11).data
        s = np.linalg.svd(data.x, compute_uv=False)
        assert abs(s[0] / s[-1] - 1e3) <= 0.05 * 1e3


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


def test_quadratic_refuses_cond_above_its_bound_before_drawing(monkeypatch):
    bound = problems.MAX_QUADRATIC_COND
    assert make_quadratic(4, bound, 0.0, seed=0).a.shape == (4, 4)

    def no_draw(*args, **kwargs):
        raise AssertionError("an array was drawn before the spec was checked")
    monkeypatch.setattr(problems, "SplitMix64", no_draw)
    with pytest.raises(ConfigError, match=r"^bad quadratic spec d=2048, cond=2e\+16 "
                                          r"above the bound 1e\+16$"):
        make_quadratic(2048, 2.0 * bound, 0.0, seed=0)


class TestNewtonWorkCap:
    """Both logistic makers refuse an n x d whose Newton step, n d^2 for the
    Hessian plus d^3 for its solve, is above MAX_NEWTON_WORK, before any
    array is drawn."""

    @pytest.mark.parametrize("n, d", [(1024, 1024), (2048, 512), (4096, 256)])
    def test_accepts_a_spec_at_or_under_the_cap(self, n, d):
        assert n * d * d + d**3 <= problems.MAX_NEWTON_WORK == 2**31
        problems._check_newton_work(n, d)  # the check alone; nothing is built

    @pytest.mark.parametrize("maker", [
        lambda n, d: make_gaussian_logistic(n, d, seed=0),
        lambda n, d: make_lowrank_logistic(n, d, 10.0, seed=0),
    ], ids=["gaussian", "lowrank"])
    @pytest.mark.parametrize("n, d", [(1025, 1024), (1024, 1025), (2048, 1024),
                                      (512, 2048)])
    def test_refuses_a_spec_above_the_cap_before_drawing(self, maker, n, d,
                                                         monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("an array was drawn before the spec was checked")
        monkeypatch.setattr(SplitMix64, "normal_matrix", no_draw)
        with pytest.raises(ConfigError, match=rf"^Newton solve of {n} x {d} exceeds "
                                              r"the desk-scale cap of 2147483648 for "
                                              r"n\*d\^2 \+ d\^3$"):
            maker(n, d)

