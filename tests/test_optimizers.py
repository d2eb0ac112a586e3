from dataclasses import replace

import numpy as np
import pytest

from gradlite import optimizers
from gradlite.errors import ConfigError, DivergedError, EmptyRunError
from gradlite.optimizers import (AdamConfig, GaloreConfig, GradLiteConfig,
                                 OptimizerState, SgdConfig, adam_step,
                                 averaged_iterate, galore_like_step,
                                 gradlite_step, init_gradlite_state,
                                 init_state, sgd_step)
from gradlite.problems import (QuadraticProblem, make_lowrank_logistic,
                               make_mlp, make_quadratic)
from gradlite.rng import derive_seed


def diag_problem():
    return QuadraticProblem(np.diag([1.0, 2.0]), np.zeros(2), 0.0)


class TestGradLiteStep:
    def test_full_rank_is_one_gradient_descent_step(self):
        prob = diag_problem()
        cfg = GradLiteConfig(eta=0.1, k=2, tau=10, ef_mode="off",
                             probe="exact", seed=0)
        st = init_gradlite_state(prob, [1.0, 1.0], cfg)
        st, tr = gradlite_step(st, prob, cfg)
        assert np.allclose(st.last_grad, [1.0, 2.0], atol=1e-12)
        assert np.allclose(st.theta, [0.9, 0.8], atol=1e-12)

    def test_rank_one_leaves_weak_direction_untouched(self):
        prob = diag_problem()
        cfg = GradLiteConfig(eta=0.1, k=1, tau=10, ef_mode="off",
                             probe="exact", seed=0)
        st = init_gradlite_state(prob, [1.0, 1.0], cfg)
        st, tr = gradlite_step(st, prob, cfg)
        assert np.allclose(tr.g_tilde, [0.0, 2.0], atol=1e-10)
        assert np.allclose(st.theta, [1.0, 0.8], atol=1e-10)

    def test_residual_applied_one_step_later(self):
        prob = diag_problem()
        cfg = GradLiteConfig(eta=0.1, k=1, tau=10, ef_mode="ef-standard",
                             probe="exact", seed=0)
        st = init_gradlite_state(prob, [1.0, 1.0], cfg)
        st, tr1 = gradlite_step(st, prob, cfg)
        assert np.allclose(tr1.big_delta, [1.0, 0.0], atol=1e-10)
        st, tr2 = gradlite_step(st, prob, cfg)
        assert abs(st.theta[0] - 0.9) <= 1e-10
        assert abs(st.theta[1] - 0.64) <= 1e-10

    def test_trace_shapes_and_probe_flag(self):
        prob = make_quadratic(6, 10.0, 0.0, seed=3)
        cfg = GradLiteConfig(eta=0.05, k=2, ef_mode="ef-standard",
                             probe="exact", seed=1)
        st = init_gradlite_state(prob, None, cfg)
        st, tr = gradlite_step(st, prob, cfg)
        assert tr.g_tilde.shape == (6,)
        assert st.last_grad is not None

        cfg2 = GradLiteConfig(eta=0.05, k=2, ef_mode="off", probe="none", seed=1)
        st2 = init_gradlite_state(prob, None, cfg2)
        st2, tr2 = gradlite_step(st2, prob, cfg2)
        assert st2.last_grad is None
        assert np.array_equal(tr2.big_delta, np.zeros(6))

    def test_rank_above_block_cap_rejected(self):
        prob = make_quadratic(4, 5.0, 0.0, seed=1)
        cfg = GradLiteConfig(eta=0.1, k=5, seed=0)
        with pytest.raises(ConfigError):
            init_gradlite_state(prob, None, cfg)

    def test_each_block_refreshes_once_tau_steps_have_passed(self):
        prob = make_mlp([4, 5, 5, 1], 12, seed=7)
        cfg = GradLiteConfig(eta=0.01, k=2, tau=3, seed=0)
        st = init_gradlite_state(prob, None, cfg)
        assert [f.birth_step for f in st.factors] == [0, 0, 0]
        for t in range(10):
            before = list(st.factors)
            st, _ = gradlite_step(st, prob, cfg)
            assert [f.birth_step for f in st.factors] == [3 * (t // 3)] * 3
            refreshed = t > 0 and t % 3 == 0
            assert all((a is b) != refreshed for a, b in zip(st.factors, before))

    def test_divergence_raises_with_step_index(self):
        prob = make_quadratic(4, 5.0, 0.0, seed=2)
        cfg = GradLiteConfig(eta=1e9, k=4, tau=1, ef_mode="paper",
                             probe="exact", seed=0)
        st = init_gradlite_state(prob, None, cfg)
        with pytest.raises(DivergedError) as err:
            for _ in range(200):
                st, _ = gradlite_step(st, prob, cfg)
        assert err.value.step >= 0


class CopyingJacobian:
    """A problem whose jacobian hands out a fresh copy at every call."""

    def __init__(self, problem):
        self._problem = problem

    def __getattr__(self, name):
        return getattr(self._problem, name)

    def jacobian(self, theta, block: int = 0):
        return self._problem.jacobian(theta, block=block).copy()


CONSTANT_J = {
    "quadratic": lambda: make_quadratic(6, 10.0, 0.3, seed=4),
    "lowrank-logistic": lambda: make_lowrank_logistic(24, 6, 100.0, seed=5),
}


class TestRefreshReuse:
    """A due refresh keeps the factor when the Jacobian is the same array."""

    TAU = 4
    STEPS = 3 * TAU + 1

    @pytest.fixture
    def factorized(self, monkeypatch):
        """The Jacobians the step factorizes, one entry per factorize call."""
        calls, original = [], optimizers.factorize

        def counting(j, *args):
            calls.append(j)
            return original(j, *args)
        monkeypatch.setattr(optimizers, "factorize", counting)
        return calls

    def run(self, problem, basis_mode):
        cfg = GradLiteConfig(eta=0.01, k=2, tau=self.TAU, basis_mode=basis_mode,
                             seed=9)
        st = init_gradlite_state(problem, None, cfg)
        factors = [st.factors[0]]
        for _ in range(self.STEPS):
            st, _ = gradlite_step(st, problem, cfg)
            factors.append(st.factors[0])
        return st, factors

    @pytest.mark.parametrize("name", sorted(CONSTANT_J))
    def test_constant_jacobian_is_factorized_once(self, name, factorized):
        problem = CONSTANT_J[name]()
        _, factors = self.run(problem, "svd")
        assert len(factorized) == problem.blocks == 1
        assert all(f.u is factors[0].u and f.v is factors[0].v for f in factors)
        # factors[t + 1] is the factor step t used
        assert [f.birth_step for f in factors[1:]] == \
            [self.TAU * (t // self.TAU) for t in range(self.STEPS)]

    def assert_reuse_is_bit_exact(self, name, basis_mode, factorized):
        kept, _ = self.run(CONSTANT_J[name](), basis_mode)
        assert len(factorized) == 1
        rebuilt, _ = self.run(CopyingJacobian(CONSTANT_J[name]()), basis_mode)
        assert len(factorized) - 1 == 1 + 3  # the copies force every refresh
        assert np.array_equal(kept.theta, rebuilt.theta)
        assert np.array_equal(kept.theta_sum, rebuilt.theta_sum)
        assert np.array_equal(kept.accumulators[0], rebuilt.accumulators[0])

    @pytest.mark.parametrize("name", sorted(CONSTANT_J))
    def test_random_projection_reuse_is_bit_exact(self, name, factorized):
        self.assert_reuse_is_bit_exact(name, "random-projection", factorized)

    @pytest.mark.parametrize("name", sorted(CONSTANT_J))
    def test_svd_reuse_is_bit_exact(self, name, factorized):
        # An svd factor depends on J alone, so a refresh from an equal copy
        # rebuilds the same factor and keeping it changes no result.
        self.assert_reuse_is_bit_exact(name, "svd", factorized)

    def test_an_equal_copy_still_refreshes(self, factorized):
        # The rule asks for the same array, not for equal contents.
        _, factors = self.run(CopyingJacobian(CONSTANT_J["quadratic"]()), "svd")
        assert len(factorized) == 1 + 3
        assert factors[-1].u is not factors[0].u
        assert factors[-1].birth_step == 3 * self.TAU


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(eta=0.0, k=1), dict(eta=-1.0, k=1), dict(eta=0.1, k=0),
        dict(eta=0.1, k=1, tau=0), dict(eta=0.1, k=1, ef_mode="bogus"),
        dict(eta=0.1, k=1, probe="guess"), dict(eta=0.1, k=1, basis_mode="qr"),
    ])
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            GradLiteConfig(**kwargs)


class TestSgd:
    def test_one_step_solve_on_identity(self):
        prob = QuadraticProblem(np.eye(2), np.zeros(2), 0.0)
        st = init_state(prob, theta0=[3.0, 4.0])
        st, _ = sgd_step(st, prob, SgdConfig(eta=1.0))
        assert np.array_equal(st.theta, [0.0, 0.0])

    def test_zero_learning_rate_is_identity(self):
        # SgdConfig rejects eta 0; a step from the optimum, where the
        # gradient is zero, must likewise leave theta as it is.
        prob = QuadraticProblem(np.diag([1.0, 2.0]), np.ones(2), 0.0)
        st = init_state(prob, theta0=[1.0, 1.0])
        st, _ = sgd_step(st, prob, SgdConfig(eta=0.1))
        assert np.array_equal(st.theta, [1.0, 1.0])

    def test_matches_full_rank_no_feedback_pipeline(self):
        # same seed, same noise stream: trajectories agree to 1e-10 per step
        from gradlite.harness import build_problem, _NOISE_SALT
        spec = {"name": "quadratic", "d": 12, "cond": 30.0, "sigma": 0.4}
        pa = build_problem(spec, seed=5)
        pb = build_problem(spec, seed=5)
        pa.reset_noise(derive_seed(5, _NOISE_SALT))
        pb.reset_noise(derive_seed(5, _NOISE_SALT))
        cfg = GradLiteConfig(eta=0.05, k=12, tau=10, ef_mode="off",
                             probe="exact", seed=9)
        sa = init_gradlite_state(pa, None, cfg)
        sb = init_state(pb, theta0=sa.theta.copy())
        for _ in range(100):
            sa, _ = gradlite_step(sa, pa, cfg)
            sb, _ = sgd_step(sb, pb, SgdConfig(eta=0.05))
            dev = np.linalg.norm(sa.theta - sb.theta)
            assert dev <= 1e-10 * (1.0 + np.linalg.norm(sb.theta))


class TestAdam:
    def test_first_step_moves_by_roughly_eta(self):
        prob = diag_problem()
        cfg = AdamConfig(eta=0.01)
        st = init_state(prob, [1.0, 1.0], cfg)
        st, _ = adam_step(st, prob, cfg)
        move = np.abs(np.array([1.0, 1.0]) - st.theta)
        # bias correction at t=1 gives update ~ eta * sign(g)
        assert np.all(move > 0.0099) and np.all(move <= 0.01)

    def test_zero_gradient_keeps_theta(self):
        prob = QuadraticProblem(np.eye(3), np.ones(3), 0.0)
        cfg = AdamConfig(eta=0.1)
        st = init_state(prob, np.ones(3), cfg)
        for _ in range(5):
            st, _ = adam_step(st, prob, cfg)
        assert np.array_equal(st.theta, np.ones(3))

    def test_matches_clean_room_reference(self):
        prob = diag_problem()
        eta, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        cfg = AdamConfig(eta=eta, beta1=b1, beta2=b2, eps=eps)
        st = init_state(prob, [1.0, -2.0], cfg)
        for _ in range(200):
            st, _ = adam_step(st, prob, cfg)
        # independent loop written directly from the moment recursions
        theta = np.array([1.0, -2.0])
        m = np.zeros(2)
        v = np.zeros(2)
        a = np.diag([1.0, 2.0])
        for t in range(1, 201):
            g = a @ theta
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta = theta - eta * (m / (1 - b1 ** t)) \
                / (np.sqrt(v / (1 - b2 ** t)) + eps)
        assert abs(prob.loss(st.theta) - 0.5 * theta @ (a @ theta)) <= 1e-10

    def test_bad_hyperparams(self):
        with pytest.raises(ConfigError, match="beta1 must be in"):
            AdamConfig(eta=0.1, beta1=1.0)
        with pytest.raises(ConfigError, match="eps must be > 0"):
            AdamConfig(eta=0.1, eps=0.0)


class TestGaloreLike:
    def test_full_rank_equals_sgd(self):
        prob = make_quadratic(5, 10.0, 0.0, seed=4)
        sa = init_state(prob)
        sb = init_state(prob)
        for _ in range(50):
            sa, _ = galore_like_step(sa, prob, GaloreConfig(eta=0.1, k=5, tau=10))
            sb, _ = sgd_step(sb, prob, SgdConfig(eta=0.1))
        assert np.array_equal(sa.theta, sb.theta)

    def test_fresh_window_retains_current_gradient(self):
        # at the first step the window holds only g0, so the projection keeps it
        prob = diag_problem()
        sa = init_state(prob, theta0=[1.0, 1.0])
        sb = init_state(prob, theta0=[1.0, 1.0])
        sa, _ = galore_like_step(sa, prob, GaloreConfig(eta=0.1, k=1, tau=10))
        sb, _ = sgd_step(sb, prob, SgdConfig(eta=0.1))
        assert np.allclose(sa.theta, sb.theta, atol=1e-14)

    def test_matches_projected_dynamics_oracle(self):
        a = np.diag([100.0, 1.0])
        prob = QuadraticProblem(a, np.zeros(2), 0.0)
        eta, k, tau, steps = 0.005, 1, 10, 200
        st = init_state(prob, theta0=[1.0, 1.0])
        for _ in range(steps):
            st, _ = galore_like_step(st, prob, GaloreConfig(eta=eta, k=k, tau=tau))
        theta = np.array([1.0, 1.0])
        window, basis = [], None
        for t in range(steps):
            g = a @ theta
            window.append(g.copy())
            if len(window) > tau:
                window.pop(0)
            if t % tau == 0:
                u, _, _ = np.linalg.svd(np.column_stack(window),
                                        full_matrices=False)
                basis = u[:, :min(k, u.shape[1])]
            theta = theta - eta * (basis @ (basis.T @ g))
        assert np.allclose(st.theta, theta, atol=1e-12)
        # the weak direction keeps most of its suboptimality
        sgd_theta2 = (1.0 - eta) ** steps
        assert st.theta[1] > sgd_theta2 + 0.05


class TestAveragedIterate:
    def test_constant_trajectory(self):
        # Steps from the optimum, where the gradient is zero, keep theta.
        prob = QuadraticProblem(np.diag([1.0, 2.0]), np.array([2.0, -1.0]), 0.0)
        st = init_state(prob, theta0=[2.0, -1.0])
        for _ in range(7):
            st, _ = sgd_step(st, prob, SgdConfig(eta=0.1))
        assert np.allclose(averaged_iterate(st), [2.0, -1.0], atol=1e-15)

    def test_alternating_sequence(self):
        st = OptimizerState(theta=np.array([2.0, 2.0]), step=6,
                            theta_sum=np.array([6.0, 6.0]))
        assert np.array_equal(averaged_iterate(st), [1.0, 1.0])

    def test_matches_post_hoc_mean_of_trajectory(self):
        prob = make_quadratic(8, 20.0, 0.1, seed=6)
        st = init_state(prob)
        seen = []
        for _ in range(100):
            st, _ = sgd_step(st, prob, SgdConfig(eta=0.05))
            seen.append(st.theta.copy())
        assert np.abs(averaged_iterate(st) - np.mean(seen, axis=0)).max() <= 1e-12

    def test_empty_run_rejected(self):
        st = init_state(diag_problem(), theta0=[0.0, 0.0])
        with pytest.raises(EmptyRunError):
            averaged_iterate(st)


class TestDivergenceGuard:
    def test_magnitude_cap_triggers(self):
        prob = QuadraticProblem(np.eye(2), np.zeros(2), 0.0)
        st = init_state(prob, theta0=[1.0, 1.0])
        cfg = SgdConfig(eta=3.0)  # theta <- -2 theta: |theta| doubles per step
        with pytest.raises(DivergedError):
            for _ in range(100):
                st, _ = sgd_step(st, prob, cfg)

    @pytest.mark.parametrize("value", [
        np.nan, np.inf, -np.inf, np.nextafter(1e12, np.inf), -np.nextafter(1e12, np.inf),
    ], ids=["nan", "inf", "-inf", "above-cap", "below-minus-cap"])
    def test_check_theta_rejects(self, value):
        with pytest.raises(DivergedError) as err:
            optimizers._check_theta(np.array([0.0, value, 1.0]), 4)
        assert (err.value.step, err.value.what) == (4, "theta")

    @pytest.mark.parametrize("value", [1e12, -1e12])
    def test_check_theta_accepts_the_cap_itself(self, value):
        assert optimizers.DIVERGENCE_CAP == 1e12
        optimizers._check_theta(np.array([0.0, value, 1.0]), 4)

    @pytest.mark.parametrize("what", ["delta", "g_tilde", "g_hat"])
    def test_gradlite_step_names_the_non_finite_vector(self, what, monkeypatch):
        prob = make_quadratic(4, 5.0, 0.0, seed=2)
        cfg = GradLiteConfig(eta=0.1, k=2, tau=10, seed=0)
        st = init_gradlite_state(prob, None, cfg)
        if what == "delta":
            monkeypatch.setattr(prob, "error_signal",
                                lambda theta: np.full(prob.m, np.nan))
        elif what == "g_tilde":
            v = st.factors[0].v.copy()
            v[0, 0] = np.nan
            st.factors[0] = replace(st.factors[0], v=v)
        else:
            st.accumulators[0] = np.full(prob.d, np.nan)
        with pytest.raises(DivergedError) as err:
            gradlite_step(st, prob, cfg)
        assert (err.value.step, err.value.what) == (0, what)


class TestDescentSanity:
    def test_loss_nonincreasing_after_warmup_on_deterministic_quadratic(self):
        prob = make_quadratic(8, 20.0, 0.0, seed=11)  # smoothness 1
        tau = 5
        cfg = GradLiteConfig(eta=0.5, k=2, tau=tau, ef_mode="ef-standard",
                             probe="exact", seed=1)
        st = init_gradlite_state(prob, None, cfg)
        losses = [prob.loss(st.theta)]
        for _ in range(200):
            st, _ = gradlite_step(st, prob, cfg)
            losses.append(prob.loss(st.theta))
        for t in range(tau, 200):
            assert losses[t + 1] <= losses[t] + 1e-12


class TestFullRankReducesToPlainDescent:
    @pytest.mark.parametrize("mode", ["paper", "ef-standard"])
    def test_both_feedback_modes_inert_at_full_rank(self, mode):
        prob_a = make_quadratic(6, 8.0, 0.0, seed=13)
        prob_b = make_quadratic(6, 8.0, 0.0, seed=13)
        cfg = GradLiteConfig(eta=0.1, k=6, tau=10, ef_mode=mode,
                             probe="exact", seed=2)
        sa = init_gradlite_state(prob_a, None, cfg)
        sb = init_state(prob_b, theta0=sa.theta.copy())
        for _ in range(100):
            sa, _ = gradlite_step(sa, prob_a, cfg)
            sb, _ = sgd_step(sb, prob_b, SgdConfig(eta=0.1))
            assert np.linalg.norm(sa.theta - sb.theta) \
                <= 1e-10 * (1.0 + np.linalg.norm(sb.theta))
