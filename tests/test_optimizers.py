import warnings
from dataclasses import dataclass, fields, replace
from typing import ClassVar

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gradlite import linalg, optimizers
from gradlite.errors import ConfigError, DivergedError, EmptyRunError
from gradlite.feedback import EF_MODES
from gradlite.harness import (_NOISE_SALT, OPTIMIZERS, _drive, build_problem,
                              validate_optimizer)
from gradlite.optimizers import (AdamConfig, AdamState, GaloreConfig,
                                 GradLiteConfig, GradLiteState, OptimizerState,
                                 SgdConfig, StepTrace, averaged_iterate, exact_step,
                                 gradlite_step, init_gradlite_state, init_state)
from gradlite.problems import (QuadraticProblem, make_lowrank_logistic,
                               make_mlp, make_quadratic)
from gradlite.rng import derive_seed


def diag_problem():
    return QuadraticProblem(np.diag([1.0, 2.0]), 0.0)


class TestGradLiteStep:
    def test_full_rank_is_one_gradient_descent_step(self):
        prob = diag_problem()
        cfg = GradLiteConfig(eta=0.1, k=2, tau=10, seed=0)
        st = init_gradlite_state(prob, [1.0, 1.0], cfg)
        st, tr = gradlite_step(st, prob, cfg)
        assert np.allclose(tr.g, [1.0, 2.0], atol=1e-12)
        assert np.allclose(st.theta, [0.9, 0.8], atol=1e-12)

    def test_rank_one_leaves_weak_direction_untouched(self):
        prob = diag_problem()
        cfg = GradLiteConfig(eta=0.1, k=1, tau=10, ef_mode="off", seed=0)
        st = init_gradlite_state(prob, [1.0, 1.0], cfg)
        st, tr = gradlite_step(st, prob, cfg)
        assert np.allclose(tr.g_tilde, [0.0, 2.0], atol=1e-10)
        assert np.allclose(st.theta, [1.0, 0.8], atol=1e-10)

    def test_residual_applied_one_step_later(self):
        prob = diag_problem()
        cfg = GradLiteConfig(eta=0.1, k=1, tau=10, ef_mode="ef-standard", seed=0)
        st = init_gradlite_state(prob, [1.0, 1.0], cfg)
        st, tr1 = gradlite_step(st, prob, cfg)
        assert np.allclose(tr1.big_delta, [1.0, 0.0], atol=1e-10)
        st, tr2 = gradlite_step(st, prob, cfg)
        assert abs(st.theta[0] - 0.9) <= 1e-10
        assert abs(st.theta[1] - 0.64) <= 1e-10

    def test_trace_shapes_and_probe_flag(self):
        prob = make_quadratic(6, 10.0, 0.0, seed=3)
        cfg = GradLiteConfig(eta=0.05, k=2, ef_mode="ef-standard", seed=1)
        st = init_gradlite_state(prob, None, cfg)
        st, tr = gradlite_step(st, prob, cfg)
        assert tr.g_tilde.shape == (6,)
        assert tr.g is not None

        cfg2 = GradLiteConfig(eta=0.05, k=2, ef_mode="off", seed=1)
        st2 = init_gradlite_state(prob, None, cfg2)
        st2, tr2 = gradlite_step(st2, prob, cfg2)
        assert tr2.g is None and st2.r is None
        assert tr2.big_delta is None and tr2.g_hat is tr2.g_tilde

    def test_rank_above_block_cap_rejected(self):
        prob = make_quadratic(4, 5.0, 0.0, seed=1)
        cfg = GradLiteConfig(eta=0.1, k=5, seed=0)
        with pytest.raises(ConfigError):
            init_gradlite_state(prob, None, cfg)

    def test_each_block_refreshes_once_tau_steps_have_passed(self, factorized):
        # An MLP's Jacobian is a new array at every theta, so at steps tau,
        # 2 tau, ... and at no other step one factorize call on the whole J
        # refreshes every block, packed into one factor.
        prob = make_mlp([4, 5, 5, 1], 12, seed=7)
        cfg = GradLiteConfig(eta=0.01, k=2, tau=3, seed=0)
        st = init_gradlite_state(prob, None, cfg)
        assert len(factorized) == 1 and factorized[0] is prob.jacobian(st.theta)
        for t in range(10):
            before, calls = st.factor, len(factorized)
            theta = st.theta
            st, _ = gradlite_step(st, prob, cfg)
            refreshed = t in (3, 6, 9)
            assert len(factorized) - calls == (1 if refreshed else 0)
            assert (st.factor is before) != refreshed
            if refreshed:
                assert factorized[calls] is prob.jacobian(theta)
                assert st.factor.source() is factorized[calls]
                assert st.factor.u.shape == (prob.m, 3 * cfg.k)
                assert st.factor.v.shape == (prob.d, 3 * cfg.k)

    def test_no_feedback_reads_each_jacobian_only_to_refresh(self, monkeypatch):
        # No update reads the probe with feedback off, so the whole J is
        # read at init and at steps tau, 2 tau, ... only, no block's J alone,
        # and no accumulator is kept.
        prob = make_mlp([4, 5, 5, 1], 12, seed=7)
        reads, jacobian = [], prob.jacobian

        def counting(theta, block=None):
            reads.append(block)
            return jacobian(theta, block=block)
        monkeypatch.setattr(prob, "jacobian", counting)
        cfg = GradLiteConfig(eta=0.01, k=2, tau=3, ef_mode="off", seed=0)
        st = init_gradlite_state(prob, None, cfg)
        assert reads == [None] and st.r is None
        for t in range(10):
            before = len(reads)
            st, _ = gradlite_step(st, prob, cfg)
            assert reads[before:] == ([None] if t in (3, 6, 9) else [])
        assert st.r is None

    def test_divergence_raises_with_step_index(self):
        prob = make_quadratic(4, 5.0, 0.0, seed=2)
        cfg = GradLiteConfig(eta=1e9, k=4, tau=1, ef_mode="paper", seed=0)
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

    def jacobian(self, theta, block: int | None = None):
        return self._problem.jacobian(theta, block=block).copy()


CONSTANT_J = {
    "quadratic": lambda: make_quadratic(6, 10.0, 0.3, seed=4),
    "lowrank-logistic": lambda: make_lowrank_logistic(24, 6, 100.0, seed=5),
}


@pytest.fixture
def factorized(monkeypatch):
    """The Jacobians the optimizer factorizes, one entry per factorize call."""
    calls, original = [], optimizers.factorize

    def counting(j, *args):
        calls.append(j)
        return original(j, *args)
    monkeypatch.setattr(optimizers, "factorize", counting)
    return calls


class TestRefreshReuse:
    """A due refresh keeps the factor when the Jacobian is the same array."""

    TAU = 4
    STEPS = 3 * TAU + 1

    def run(self, problem, basis_mode):
        cfg = GradLiteConfig(eta=0.01, k=2, tau=self.TAU, basis_mode=basis_mode,
                             seed=9)
        st = init_gradlite_state(problem, None, cfg)
        factors = [st.factor]
        for _ in range(self.STEPS):
            st, _ = gradlite_step(st, problem, cfg)
            factors.append(st.factor)
        return st, factors

    @pytest.mark.parametrize("name", sorted(CONSTANT_J))
    def test_constant_jacobian_is_factorized_once(self, name, factorized):
        problem = CONSTANT_J[name]()
        _, factors = self.run(problem, "svd")
        assert len(factorized) == problem.blocks == 1
        assert all(f is factors[0] for f in factors)

    def assert_reuse_is_bit_exact(self, name, basis_mode, factorized):
        kept, _ = self.run(CONSTANT_J[name](), basis_mode)
        assert len(factorized) == 1
        rebuilt, _ = self.run(CopyingJacobian(CONSTANT_J[name]()), basis_mode)
        assert len(factorized) - 1 == 1 + 3  # the copies force every refresh
        assert np.array_equal(kept.theta, rebuilt.theta)
        assert np.array_equal(kept.theta_sum, rebuilt.theta_sum)
        assert np.array_equal(kept.r, rebuilt.r)

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
        # factors[t + 1] is the factor step t used
        assert [t for t in range(self.STEPS) if factors[t + 1] is not factors[t]] \
            == [self.TAU, 2 * self.TAU, 3 * self.TAU]


class TestStep0FactorReuse:
    """An init reuses a step-0 factor of the very Jacobian array, and no other."""

    @staticmethod
    def init(problem, k=2, basis_mode="svd", seed=9):
        cfg = GradLiteConfig(eta=0.01, k=k, basis_mode=basis_mode, seed=seed)
        return init_gradlite_state(problem, None, cfg).factor

    @pytest.mark.parametrize("mode", ["svd", "random-projection"])
    def test_one_problem_factorizes_once_per_rank(self, mode, factorized):
        problem = CONSTANT_J["quadratic"]()
        first = self.init(problem, 2, mode)
        again = self.init(problem, 2, mode)
        assert again is first
        self.init(problem, 3, mode)
        self.init(problem, 3, mode)
        assert len(factorized) == 2

    def test_svd_reuse_ignores_the_seed(self, factorized):
        problem = CONSTANT_J["quadratic"]()
        assert self.init(problem, seed=1).u is self.init(problem, seed=2).u
        assert len(factorized) == 1

    def test_random_projection_with_another_seed_is_factorized_anew(self, factorized):
        problem = CONSTANT_J["quadratic"]()
        first = self.init(problem, basis_mode="random-projection", seed=1)
        other = self.init(problem, basis_mode="random-projection", seed=2)
        assert len(factorized) == 2
        assert not np.array_equal(other.u, first.u)
        assert self.init(problem, basis_mode="random-projection", seed=1).u is first.u
        assert len(factorized) == 2

    def test_a_copied_jacobian_is_factorized_at_every_init(self, factorized):
        problem = CopyingJacobian(CONSTANT_J["quadratic"]())
        for _ in range(3):
            self.init(problem)
        assert len(factorized) == 3

    def test_an_equal_jacobian_of_another_problem_is_factorized_anew(self, factorized):
        first, second = CONSTANT_J["quadratic"](), CONSTANT_J["quadratic"]()
        theta = first.default_theta0()
        assert np.array_equal(first.jacobian(theta), second.jacobian(theta))
        assert self.init(second).u is not self.init(first).u
        assert len(factorized) == 2


@pytest.fixture
def decomposed(monkeypatch):
    """The Gram matrices truncated_svd decomposes, one entry per eigh."""
    calls, original = [], linalg.eigh_lo

    def counting(gram, *args, **kwargs):
        calls.append(gram)
        return original(gram, *args, **kwargs)
    monkeypatch.setattr(linalg, "eigh_lo", counting)
    return calls


class TestOneDecompositionPerJacobian:
    """Factors of one read-only J at any ranks share one Gram eigh per
    block, bit for bit."""

    @staticmethod
    def factor(problem, j, k):
        return optimizers._factor(problem, j, GradLiteConfig(k=k))

    @pytest.mark.parametrize("name", ["quadratic", "lowrank-logistic", "mlp"])
    def test_every_rank_matches_a_writable_copy(self, name, decomposed):
        problem = {**CONSTANT_J, "mlp": lambda: make_mlp([3, 5, 1], 8, seed=6)}[name]()
        j = problem.jacobian(problem.default_theta0())
        ranks = list(range(1, min(problem.m, *problem.block_dims) + 1))
        np.random.default_rng(problem.blocks).shuffle(ranks)
        kept = {k: self.factor(problem, j, k) for k in ranks}
        assert len(decomposed) == problem.blocks  # one eigh per block
        copy = np.array(j)  # writable: never served a kept decomposition
        for k in ranks:
            fresh = self.factor(problem, copy, k)
            assert fresh.gram_vecs is not kept[k].gram_vecs
            for got, want in ((kept[k].u, fresh.u), (kept[k].v, fresh.v)):
                assert (got.shape, got.strides, got.tobytes()) \
                    == (want.shape, want.strides, want.tobytes())
        assert len(decomposed) == problem.blocks * (1 + len(ranks))

    def test_each_new_mlp_jacobian_is_decomposed_afresh(self, decomposed):
        # tau 4 over 10 steps: step-0 factors, then refreshes at steps 4 and 8.
        cfg = GradLiteConfig(eta=0.05, k=2, tau=4)
        states = []
        for clear_before_refresh in (False, True):
            problem = make_mlp([3, 5, 4, 1], 8, seed=6)
            st = init_gradlite_state(problem, None, cfg)
            for t in range(10):
                if clear_before_refresh and t > 0 and t % cfg.tau == 0:
                    optimizers._FACTORS.pop(problem, None)
                st, _ = gradlite_step(st, problem, cfg)
            states.append(st)
        assert len(decomposed) == 2 * 3 * 3  # two runs, 3 blocks, 3 factorizations
        kept, cleared = states
        for got, want in ((kept.theta, cleared.theta), (kept.theta_sum, cleared.theta_sum),
                          (kept.r, cleared.r), (kept.factor.u, cleared.factor.u),
                          (kept.factor.v, cleared.factor.v)):
            assert got.tobytes() == want.tobytes()


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(eta=0.0, k=1), dict(eta=-1.0, k=1), dict(eta=0.1, k=0),
        dict(eta=0.1, k=1, tau=0), dict(eta=0.1, k=1, ef_mode="bogus"),
        dict(eta=0.1, k=1, basis_mode="qr"),
    ])
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            GradLiteConfig(**kwargs)


class TestSgd:
    def test_one_step_solve_on_identity(self):
        prob = QuadraticProblem(np.eye(2), 0.0)
        st = init_state(prob, theta0=[3.0, 4.0])
        st, _ = exact_step(st, prob, SgdConfig(eta=1.0))
        assert np.array_equal(st.theta, [0.0, 0.0])

    def test_zero_learning_rate_is_identity(self):
        # SgdConfig rejects eta 0; a step from the optimum, where the
        # gradient is zero, must likewise leave theta as it is.
        prob = QuadraticProblem(np.diag([1.0, 2.0]), 0.0)
        st = init_state(prob, theta0=[0.0, 0.0])
        st, _ = exact_step(st, prob, SgdConfig(eta=0.1))
        assert np.array_equal(st.theta, [0.0, 0.0])

    def test_matches_full_rank_no_feedback_pipeline(self):
        # same seed, same noise stream: trajectories agree to 1e-10 per step
        from gradlite.harness import build_problem, _NOISE_SALT
        spec = {"name": "quadratic", "d": 12, "cond": 30.0, "sigma": 0.4}
        pa = build_problem(spec, seed=5)
        pb = build_problem(spec, seed=5)
        pa.reset_noise(derive_seed(5, _NOISE_SALT))
        pb.reset_noise(derive_seed(5, _NOISE_SALT))
        cfg = GradLiteConfig(eta=0.05, k=12, tau=10, ef_mode="off", seed=9)
        sa = init_gradlite_state(pa, None, cfg)
        sb = init_state(pb, theta0=sa.theta.copy())
        for _ in range(100):
            sa, _ = gradlite_step(sa, pa, cfg)
            sb, _ = exact_step(sb, pb, SgdConfig(eta=0.05))
            dev = np.linalg.norm(sa.theta - sb.theta)
            assert dev <= 1e-10 * (1.0 + np.linalg.norm(sb.theta))


class TestAdam:
    def test_first_step_moves_by_roughly_eta(self):
        prob = diag_problem()
        cfg = AdamConfig(eta=0.01)
        st = init_state(prob, [1.0, 1.0], cfg)
        st, _ = exact_step(st, prob, cfg)
        move = np.abs(np.array([1.0, 1.0]) - st.theta)
        # bias correction at t=1 gives update ~ eta * sign(g)
        assert np.all(move > 0.0099) and np.all(move <= 0.01)

    def test_zero_gradient_keeps_theta(self):
        prob = QuadraticProblem(np.eye(3), 0.0)
        cfg = AdamConfig(eta=0.1)
        st = init_state(prob, np.zeros(3), cfg)
        for _ in range(5):
            st, _ = exact_step(st, prob, cfg)
        assert np.array_equal(st.theta, np.zeros(3))

    def test_matches_clean_room_reference(self):
        prob = diag_problem()
        eta, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        cfg = AdamConfig(eta=eta, beta1=b1, beta2=b2, eps=eps)
        st = init_state(prob, [1.0, -2.0], cfg)
        for _ in range(200):
            st, _ = exact_step(st, prob, cfg)
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
        cfg = GaloreConfig(eta=0.1, k=5, tau=10)
        sa = init_state(prob, None, cfg)
        sb = init_state(prob)
        for _ in range(50):
            sa, _ = exact_step(sa, prob, cfg)
            sb, _ = exact_step(sb, prob, SgdConfig(eta=0.1))
        assert np.array_equal(sa.theta, sb.theta)

    def test_fresh_window_retains_current_gradient(self):
        # at the first step the window holds only g0, so the projection keeps it
        prob = diag_problem()
        cfg = GaloreConfig(eta=0.1, k=1, tau=10)
        sa = init_state(prob, [1.0, 1.0], cfg)
        sb = init_state(prob, theta0=[1.0, 1.0])
        sa, _ = exact_step(sa, prob, cfg)
        sb, _ = exact_step(sb, prob, SgdConfig(eta=0.1))
        assert np.allclose(sa.theta, sb.theta, atol=1e-14)

    def test_matches_projected_dynamics_oracle(self):
        a = np.diag([100.0, 1.0])
        prob = QuadraticProblem(a, 0.0)
        eta, k, tau, steps = 0.005, 1, 10, 200
        cfg = GaloreConfig(eta=eta, k=k, tau=tau)
        st = init_state(prob, [1.0, 1.0], cfg)
        for _ in range(steps):
            st, _ = exact_step(st, prob, cfg)
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
        prob = QuadraticProblem(np.diag([1.0, 2.0]), 0.0)
        st = init_state(prob, theta0=[0.0, 0.0])
        for _ in range(7):
            st, _ = exact_step(st, prob, SgdConfig(eta=0.1))
        assert np.allclose(averaged_iterate(st), [0.0, 0.0], atol=1e-15)

    def test_alternating_sequence(self):
        st = OptimizerState(theta=np.array([2.0, 2.0]), step=6,
                            theta_sum=np.array([6.0, 6.0]))
        assert np.array_equal(averaged_iterate(st), [1.0, 1.0])

    def test_matches_post_hoc_mean_of_trajectory(self):
        prob = make_quadratic(8, 20.0, 0.1, seed=6)
        st = init_state(prob)
        seen = []
        for _ in range(100):
            st, _ = exact_step(st, prob, SgdConfig(eta=0.05))
            seen.append(st.theta.copy())
        assert np.abs(averaged_iterate(st) - np.mean(seen, axis=0)).max() <= 1e-12

    @pytest.mark.parametrize("opt", ["sgd", "gradlite"])
    def test_an_iterate_taken_is_unchanged_by_the_next_step(self, opt):
        # A step adds to theta_sum in place; neither the averaged iterate nor
        # the theta taken at step t may see step t + 1.
        prob = make_quadratic(8, 20.0, 0.1, seed=6)
        if opt == "sgd":
            cfg = SgdConfig(eta=0.05)
            st, step = init_state(prob, None, cfg), exact_step
        else:
            cfg = GradLiteConfig(eta=0.05, k=2)
            st, step = init_gradlite_state(prob, None, cfg), gradlite_step
        for _ in range(3):
            st, _ = step(st, prob, cfg)
        avg, theta = averaged_iterate(st), st.theta
        kept = avg.tobytes(), theta.tobytes()
        st, _ = step(st, prob, cfg)
        assert (avg.tobytes(), theta.tobytes()) == kept
        assert averaged_iterate(st).tobytes() != kept[0]

    def test_empty_run_rejected(self):
        st = init_state(diag_problem(), theta0=[0.0, 0.0])
        with pytest.raises(EmptyRunError):
            averaged_iterate(st)


_CAP = optimizers.DIVERGENCE_CAP
_TINY = np.nextafter(0.0, 1.0)  # the smallest subnormal
_EDGES = [np.nan, np.inf, 0.0, _TINY, 2.2250738585072014e-308, 1.0, _CAP,
          np.nextafter(_CAP, np.inf), np.nextafter(_CAP, 0.0), _CAP * (1 + 1e-9),
          _CAP * (1 - 1e-9), _CAP / 2, np.nextafter(_CAP / 2, np.inf),
          np.nextafter(_CAP / 2, 0.0), 1e154, 1e155, 1e308, np.finfo(np.float64).max]
_magnitudes = st.one_of(
    st.sampled_from(_EDGES),
    st.floats(0.0, 2.2250738585072014e-308),  # subnormals
    st.floats(1e154, 1e308),  # squares that overflow
    st.floats(0.4 * _CAP, 1.2 * _CAP),
    st.floats(0.0, 10.0))
_entries = st.tuples(_magnitudes, st.booleans()).map(lambda e: -e[0] if e[1] else e[0])
_thetas = st.lists(_entries, min_size=1, max_size=64).map(np.array)


class TestDivergenceGuard:
    def test_magnitude_cap_triggers(self):
        prob = QuadraticProblem(np.eye(2), 0.0)
        st = init_state(prob, theta0=[1.0, 1.0])
        cfg = SgdConfig(eta=3.0)  # theta <- -2 theta: |theta| doubles per step
        with pytest.raises(DivergedError):
            for _ in range(100):
                st, _ = exact_step(st, prob, cfg)

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

    @given(_thetas)
    def test_check_theta_is_the_max_abs_test_and_never_warns(self, theta):
        exact_ok = bool(np.maximum.reduce(np.absolute(theta)) <= _CAP)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                optimizers._check_theta(theta, 7)
                raised = False
            except DivergedError as err:
                assert (err.step, err.what) == (7, "theta")
                raised = True
        assert raised == (not exact_ok), theta
        assert caught == []

    @pytest.mark.parametrize("what", ["delta", "g_tilde", "g_hat"])
    def test_gradlite_step_names_the_non_finite_vector(self, what, monkeypatch):
        prob = make_quadratic(4, 5.0, 0.0, seed=2)
        cfg = GradLiteConfig(eta=0.1, k=2, tau=10, seed=0)
        st = init_gradlite_state(prob, None, cfg)
        if what == "delta":
            monkeypatch.setattr(prob, "error_signal",
                                lambda theta: np.full(prob.m, np.nan))
        elif what == "g_tilde":
            v = st.factor.v.copy()
            v[0, 0] = np.nan
            st.factor = replace(st.factor, v=v)
        else:
            st.r = np.full(prob.d, np.nan)
        with pytest.raises(DivergedError) as err:
            gradlite_step(st, prob, cfg)
        assert (err.value.step, err.value.what) == (0, what)


class TestDescentSanity:
    def test_loss_nonincreasing_after_warmup_on_deterministic_quadratic(self):
        prob = make_quadratic(8, 20.0, 0.0, seed=11)  # smoothness 1
        tau = 5
        cfg = GradLiteConfig(eta=0.5, k=2, tau=tau, ef_mode="ef-standard", seed=1)
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
        cfg = GradLiteConfig(eta=0.1, k=6, tau=10, ef_mode=mode, seed=2)
        sa = init_gradlite_state(prob_a, None, cfg)
        sb = init_state(prob_b, theta0=sa.theta.copy())
        for _ in range(100):
            sa, _ = gradlite_step(sa, prob_a, cfg)
            sb, _ = exact_step(sb, prob_b, SgdConfig(eta=0.1))
            assert np.linalg.norm(sa.theta - sb.theta) \
                <= 1e-10 * (1.0 + np.linalg.norm(sb.theta))


class TestStatePerOptimizer:
    """Each optimizer's state holds what every run holds plus its own fields."""

    SHARED = {"theta", "step", "theta_sum"}

    @pytest.mark.parametrize("name, own", [
        ("sgd", set()), ("adam", {"m", "v"}), ("galore", {"window", "basis"}),
        ("gradlite", {"factor", "r"}),
    ])
    def test_fields_are_the_shared_ones_plus_the_optimizers_own(self, name, own):
        problem = make_mlp([6, 12, 1], 8, seed=5)
        _, cfg = validate_optimizer({"name": name})
        state = getattr(optimizers, cfg.init)(problem, None, cfg)
        assert {f.name for f in fields(state)} == self.SHARED | own
        state, _ = getattr(optimizers, cfg.step)(state, problem, cfg)
        assert {f.name for f in fields(state)} == self.SHARED | own
        assert all(getattr(state, f) is not None for f in self.SHARED | own)


# Every optimizer's defaults, at a rank and refresh period that fit the MLP's
# smallest block and refresh twice in the run, plus GradLite under each rule.
_SMALL = {"eta": 0.01, "k": 2, "tau": 3}
_CONFIGS = {**{name: cls(**{key: v for key, v in _SMALL.items() if key in cls.defaults()})
               for name, cls in OPTIMIZERS.items()},
            **{f"gradlite-{mode}": GradLiteConfig(ef_mode=mode, **_SMALL)
               for mode in EF_MODES}}


class TestStepTraceContract:
    """Every step reports through one StepTrace, whatever the optimizer."""

    @pytest.mark.parametrize("spec", [
        {"name": "quadratic", "d": 6, "cond": 10.0, "sigma": 0.3},
        {"name": "mlp", "layers": (4, 5, 5, 1), "n": 8},
    ], ids=["quadratic", "mlp"])
    @pytest.mark.parametrize("cfg", _CONFIGS.values(), ids=_CONFIGS.keys())
    def test_trace_carries_what_the_step_read(self, cfg, spec):
        problem = build_problem(spec, seed=1)
        exact, rule = cfg.step == "exact_step", getattr(cfg, "ef_mode", "off") != "off"
        thetas = [problem.default_theta0()]  # _drive starts from it
        kept = []  # (trace, a copy of its r)

        def record(state, trace):
            assert isinstance(trace, StepTrace)
            if type(state).update is OptimizerState.update:  # SGD's rule
                assert np.array_equal(state.theta, thetas[-1] - cfg.eta * trace.g_hat)
            if exact:
                assert trace.g_tilde is None and trace.g is trace.g_hat
            elif rule:
                assert np.array_equal(trace.g, trace.g_tilde + trace.big_delta)
            else:
                assert trace.g is None
            if rule:
                assert np.array_equal(trace.r, state.r)
            else:
                assert trace.r is None
            thetas.append(state.theta)
            kept.append((trace, None if trace.r is None else trace.r.copy()))

        _drive(problem, cfg, 7, seed=1, record=record)
        assert len(kept) == 7
        # A later step leaves an earlier step's accumulators as they were.
        assert all(r is None or np.array_equal(trace.r, r) for trace, r in kept)


# The update rule is an axis of the state classes: GradLite's estimator under
# Adam's rule is one config and one state composed from existing ones.
@dataclass
class AdamGradLiteState(GradLiteState, AdamState):
    pass


@dataclass(frozen=True)
class AdamGradLiteConfig(GradLiteConfig, AdamConfig):
    state: ClassVar[type] = AdamGradLiteState


class TestUpdateRuleIsAnAxis:
    @pytest.mark.parametrize("spec, tau", [
        ({"name": "quadratic", "d": 12, "cond": 30.0, "sigma": 0.4}, 10),
        # the mlp jacobian moves with theta, so the factor must be current
        ({"name": "mlp", "layers": (6, 12, 1), "n": 8}, 1),
    ], ids=["noisy-quadratic", "mlp"])
    def test_full_rank_gradlite_under_adam_tracks_exact_adam(self, spec, tau):
        pa = build_problem(spec, seed=7)
        pb = build_problem(spec, seed=7)
        pa.reset_noise(derive_seed(7, _NOISE_SALT))
        pb.reset_noise(derive_seed(7, _NOISE_SALT))
        k = min(pa.m, min(pa.block_dims))
        cfg = AdamGradLiteConfig(eta=0.01, k=k, tau=tau, ef_mode="off", seed=3)
        adam = AdamConfig(eta=0.01)
        sa = init_gradlite_state(pa, None, cfg)
        sb = init_state(pb, sa.theta.copy(), adam)
        assert type(sa) is AdamGradLiteState
        for _ in range(300):
            sa, _ = gradlite_step(sa, pa, cfg)
            sb, _ = exact_step(sb, pb, adam)
            dev = np.linalg.norm(sa.theta - sb.theta) / (1.0 + np.linalg.norm(sb.theta))
            assert dev <= 1e-10


# Each injection corrupts one quantity of the step at BAD_STEP; the labels
# are those of a step that checks delta, g~, g^ and theta in that order.
BAD_STEP = 3


def _bad_delta(value):
    def inject(prob, st, monkeypatch):
        signal = prob.error_signal

        def corrupted(theta):
            delta = signal(theta).copy()
            delta[1] = value
            return delta
        monkeypatch.setattr(prob, "error_signal", corrupted)
    return inject


def _nan_in_v(prob, st, monkeypatch):
    # The first entry of the last block's v in the packed factor: every
    # block is scanned.  Every block has the same rank.
    b = prob.blocks - 1
    k = st.factor.v.shape[1] // prob.blocks
    v = st.factor.v.copy()
    v[prob.block_slices()[b].start, b * k] = np.nan
    st.factor = replace(st.factor, v=v)


def _nan_accumulator(prob, st, monkeypatch):
    st.r = st.r.copy()
    st.r[prob.block_slices()[0]] = np.nan


def _theta_over_cap(prob, st, monkeypatch):
    st.theta = st.theta.copy()
    st.theta[0] = 4.0 * optimizers.DIVERGENCE_CAP


INJECTIONS = {
    "nan-delta": ([_bad_delta(np.nan)], "delta"),
    "inf-delta": ([_bad_delta(np.inf)], "delta"),
    "nan-v": ([_nan_in_v], "g_tilde"),
    "nan-accumulator": ([_nan_accumulator], "g_hat"),
    "theta-over-cap": ([_theta_over_cap], "theta"),
    "inf-delta+nan-accumulator": ([_nan_accumulator, _bad_delta(np.inf)], "delta"),
    "nan-v+nan-accumulator": ([_nan_accumulator, _nan_in_v], "g_tilde"),
    "nan-accumulator+theta-over-cap": ([_theta_over_cap, _nan_accumulator], "g_hat"),
}

LABEL_PROBLEMS = {
    "quadratic": {"name": "quadratic", "d": 6, "cond": 10.0, "sigma": 0.3},
    "mlp-3-block": {"name": "mlp", "layers": (4, 5, 5, 1), "n": 12},
}


class TestOneDivergenceCheckPerStep:
    """gradlite_step checks only the new theta, yet names what a check of
    delta, g~, g^ and then theta would have named, at the same step."""

    # An inf in delta meets inf - inf on its way to theta; numpy warns of it.
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("rule", [GradLiteConfig, AdamGradLiteConfig],
                             ids=["sgd-rule", "adam-rule"])
    @pytest.mark.parametrize("injection", list(INJECTIONS))
    @pytest.mark.parametrize("problem", list(LABEL_PROBLEMS))
    def test_names_the_first_culprit_in_order(self, problem, injection, rule,
                                              monkeypatch):
        prob = build_problem(LABEL_PROBLEMS[problem], seed=3)
        prob.reset_noise(derive_seed(3, _NOISE_SALT))
        # tau=2: BAD_STEP is no refresh, so an injected factor is the one used.
        cfg = rule(eta=0.01, k=2, tau=2, seed=0)
        st = init_gradlite_state(prob, None, cfg)
        for _ in range(BAD_STEP):
            st, _ = gradlite_step(st, prob, cfg)
        injects, what = INJECTIONS[injection]
        for inject in injects:
            inject(prob, st, monkeypatch)
        with pytest.raises(DivergedError) as err:
            gradlite_step(st, prob, cfg)
        assert (err.value.step, err.value.what) == (BAD_STEP, what)

    def test_a_finite_step_runs_no_finiteness_scan(self, monkeypatch):
        def isfinite(*args, **kwargs):
            raise AssertionError("a finite step scanned for non-finite values")
        # A constant J keeps its factor at a refresh, so no factorization
        # (which checks its input) runs either.
        prob = build_problem(LABEL_PROBLEMS["quadratic"], seed=3)
        cfg = GradLiteConfig(eta=0.01, k=2, tau=2, seed=0)
        st = init_gradlite_state(prob, None, cfg)
        monkeypatch.setattr(optimizers.np, "isfinite", isfinite)
        for _ in range(5):
            st, _ = gradlite_step(st, prob, cfg)


class TestExactStepChecksTheGradient:
    """exact_step refuses a non-finite gradient before any update rule reads
    it: GaLore's SVD of a window holding it would raise LinAlgError."""

    @pytest.mark.parametrize("cfg", [SgdConfig(eta=0.05), AdamConfig(eta=0.05),
                                     GaloreConfig(eta=0.05, k=1, tau=2)],
                             ids=["sgd", "adam", "galore"])
    def test_nan_error_signal_is_named_gradient(self, cfg, monkeypatch):
        prob = make_quadratic(4, 5.0, 0.0, seed=2)
        st = init_state(prob, None, cfg)
        for _ in range(BAD_STEP):
            st, _ = exact_step(st, prob, cfg)
        monkeypatch.setattr(prob, "error_signal", lambda theta: np.full(prob.m, np.nan))
        with pytest.raises(DivergedError) as err:
            exact_step(st, prob, cfg)
        assert (err.value.step, err.value.what) == (BAD_STEP, "gradient")

    def test_galore_svd_of_a_non_finite_window_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.svd(np.column_stack([[np.nan, 1.0, 2.0]]), full_matrices=False)
