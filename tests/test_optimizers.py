import numpy as np
import pytest

from gradlite.errors import ConfigError, DivergedError, EmptyRunError
from gradlite.optimizers import (GradLiteConfig, OptimizerState, adam_step,
                                 averaged_iterate, galore_like_step,
                                 gradlite_step, init_gradlite_state,
                                 init_state, sgd_step)
from gradlite.problems import QuadraticProblem, make_mlp, make_quadratic
from gradlite.rng import derive_seed


def diag_problem():
    return QuadraticProblem(np.diag([1.0, 2.0]), np.zeros(2), 0.0)


class TestGradLiteStep:
    def test_full_rank_is_one_gradient_descent_step(self):
        prob = diag_problem()
        cfg = GradLiteConfig(eta=0.1, k=2, tau=10, ef_mode="off",
                             probe="exact", seed=0)
        st = init_gradlite_state(prob, None, cfg, theta0=[1.0, 1.0])
        st, tr = gradlite_step(st, prob, None, cfg)
        assert np.allclose(tr.g_exact, [1.0, 2.0], atol=1e-12)
        assert np.allclose(st.theta, [0.9, 0.8], atol=1e-12)

    def test_rank_one_leaves_weak_direction_untouched(self):
        prob = diag_problem()
        cfg = GradLiteConfig(eta=0.1, k=1, tau=10, ef_mode="off",
                             probe="exact", seed=0)
        st = init_gradlite_state(prob, None, cfg, theta0=[1.0, 1.0])
        st, tr = gradlite_step(st, prob, None, cfg)
        assert np.allclose(tr.g_tilde, [0.0, 2.0], atol=1e-10)
        assert np.allclose(st.theta, [1.0, 0.8], atol=1e-10)

    def test_residual_applied_one_step_later(self):
        prob = diag_problem()
        cfg = GradLiteConfig(eta=0.1, k=1, tau=10, ef_mode="ef-standard",
                             probe="exact", seed=0)
        st = init_gradlite_state(prob, None, cfg, theta0=[1.0, 1.0])
        st, tr1 = gradlite_step(st, prob, None, cfg)
        assert np.allclose(tr1.big_delta, [1.0, 0.0], atol=1e-10)
        st, tr2 = gradlite_step(st, prob, None, cfg)
        assert abs(st.theta[0] - 0.9) <= 1e-10
        assert abs(st.theta[1] - 0.64) <= 1e-10

    def test_trace_shapes_and_probe_flag(self):
        prob = make_quadratic(6, 10.0, 0.0, seed=3)
        cfg = GradLiteConfig(eta=0.05, k=2, ef_mode="ef-standard",
                             probe="exact", seed=1)
        st = init_gradlite_state(prob, None, cfg)
        st, tr = gradlite_step(st, prob, None, cfg)
        assert tr.g_tilde.shape == (6,)
        assert tr.g_exact is not None

        cfg2 = GradLiteConfig(eta=0.05, k=2, ef_mode="off", probe="none", seed=1)
        st2 = init_gradlite_state(prob, None, cfg2)
        st2, tr2 = gradlite_step(st2, prob, None, cfg2)
        assert tr2.g_exact is None
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
            st, _ = gradlite_step(st, prob, None, cfg)
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
                st, _ = gradlite_step(st, prob, None, cfg)
        assert err.value.step >= 0


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
        st = sgd_step(st, prob, None, 1.0)
        assert np.array_equal(st.theta, [0.0, 0.0])

    def test_zero_learning_rate_is_identity(self):
        prob = diag_problem()
        st = init_state(prob, theta0=[1.0, 1.0])
        st = sgd_step(st, prob, None, 0.0)
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
            sa, _ = gradlite_step(sa, pa, None, cfg)
            sb = sgd_step(sb, pb, None, 0.05)
            dev = np.linalg.norm(sa.theta - sb.theta)
            assert dev <= 1e-10 * (1.0 + np.linalg.norm(sb.theta))


class TestAdam:
    def test_first_step_moves_by_roughly_eta(self):
        prob = diag_problem()
        st = init_state(prob, theta0=[1.0, 1.0])
        st = adam_step(st, prob, None, eta=0.01)
        move = np.abs(np.array([1.0, 1.0]) - st.theta)
        # bias correction at t=1 gives update ~ eta * sign(g)
        assert np.all(move > 0.0099) and np.all(move <= 0.01)

    def test_zero_gradient_keeps_theta(self):
        prob = QuadraticProblem(np.eye(3), np.ones(3), 0.0)
        st = init_state(prob, theta0=np.ones(3))
        for _ in range(5):
            st = adam_step(st, prob, None, eta=0.1)
        assert np.array_equal(st.theta, np.ones(3))

    def test_matches_clean_room_reference(self):
        prob = diag_problem()
        eta, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        st = init_state(prob, theta0=[1.0, -2.0])
        for _ in range(200):
            st = adam_step(st, prob, None, eta, b1, b2, eps)
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
        prob = diag_problem()
        st = init_state(prob, theta0=[1.0, 1.0])
        with pytest.raises(ConfigError):
            adam_step(st, prob, None, 0.1, beta1=1.0)
        with pytest.raises(ConfigError):
            adam_step(st, prob, None, 0.1, eps=0.0)


class TestGaloreLike:
    def test_full_rank_equals_sgd(self):
        prob = make_quadratic(5, 10.0, 0.0, seed=4)
        sa = init_state(prob)
        sb = init_state(prob)
        for _ in range(50):
            sa = galore_like_step(sa, prob, None, 0.1, k=5, tau=10)
            sb = sgd_step(sb, prob, None, 0.1)
        assert np.array_equal(sa.theta, sb.theta)

    def test_fresh_window_retains_current_gradient(self):
        # at the first step the window holds only g0, so the projection keeps it
        prob = diag_problem()
        sa = init_state(prob, theta0=[1.0, 1.0])
        sb = init_state(prob, theta0=[1.0, 1.0])
        sa = galore_like_step(sa, prob, None, 0.1, k=1, tau=10)
        sb = sgd_step(sb, prob, None, 0.1)
        assert np.allclose(sa.theta, sb.theta, atol=1e-14)

    def test_matches_projected_dynamics_oracle(self):
        a = np.diag([100.0, 1.0])
        prob = QuadraticProblem(a, np.zeros(2), 0.0)
        eta, k, tau, steps = 0.005, 1, 10, 200
        st = init_state(prob, theta0=[1.0, 1.0])
        for _ in range(steps):
            st = galore_like_step(st, prob, None, eta, k, tau)
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
        prob = diag_problem()
        st = init_state(prob, theta0=[2.0, -1.0])
        for _ in range(7):
            st = sgd_step(st, prob, None, 0.0)
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
            st = sgd_step(st, prob, None, 0.05)
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
        with pytest.raises(DivergedError):
            for _ in range(100):
                st = sgd_step(st, prob, None, -10.0)  # ascent blows up


class TestDescentSanity:
    def test_loss_nonincreasing_after_warmup_on_deterministic_quadratic(self):
        prob = make_quadratic(8, 20.0, 0.0, seed=11)  # smoothness 1
        tau = 5
        cfg = GradLiteConfig(eta=0.5, k=2, tau=tau, ef_mode="ef-standard",
                             probe="exact", seed=1)
        st = init_gradlite_state(prob, None, cfg)
        losses = [prob.loss(st.theta)]
        for _ in range(200):
            st, _ = gradlite_step(st, prob, None, cfg)
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
            sa, _ = gradlite_step(sa, prob_a, None, cfg)
            sb = sgd_step(sb, prob_b, None, 0.1)
            assert np.linalg.norm(sa.theta - sb.theta) \
                <= 1e-10 * (1.0 + np.linalg.norm(sb.theta))
