import inspect
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from gradlite import harness, optimizers, problems
from gradlite.errors import ConfigError, DivergedError, NonPositiveGapError
from gradlite.harness import (ABLATION_VARIANTS, CSV_HEADER, StepRecord, _final_loss_of,
                              ablation_suite, build_problem,
                              default_check_problems, grad_check_suite,
                              memory_counts, memory_report, rate_check,
                              rate_sweep, run_experiment, validate_optimizer)
from gradlite.optimizers import (AdamConfig, GradLiteConfig, SgdConfig, averaged_iterate,
                                 gradlite_step, init_gradlite_state)
from gradlite.problems import NOISE_BLOCK, make_quadratic
from gradlite.rng import derive_seed


class TestRunExperiment:
    def test_zero_steps_rejected(self):
        with pytest.raises(ConfigError):
            run_experiment({"name": "quadratic"}, {"name": "sgd"}, 0, 0)

    def test_unknown_spec_keys_rejected(self):
        with pytest.raises(ConfigError):
            run_experiment({"name": "quadratic", "rows": 5}, {"name": "sgd"}, 1, 0)
        with pytest.raises(ConfigError):
            run_experiment({"name": "quadratic"}, {"name": "sgd", "mood": 1}, 1, 0)
        with pytest.raises(ConfigError):
            run_experiment({"name": "quadratic", "d": "many"}, {"name": "sgd"}, 1, 0)
        with pytest.raises(ConfigError, match="bad k 2.9"):
            run_experiment({"name": "quadratic", "d": 6},
                           {"name": "gradlite", "k": 2.9}, 2, 0)
        with pytest.raises(ConfigError, match="bad layers"):
            run_experiment({"name": "mlp", "layers": (8, 16.5, 1)}, {"name": "sgd"}, 1, 0)
        with pytest.raises(ConfigError, match="bad tau inf"):
            run_experiment({"name": "quadratic"},
                           {"name": "gradlite", "tau": float("inf")}, 1, 0)

    def test_integral_float_accepted_for_int_parameter(self):
        as_float = run_experiment({"name": "quadratic", "d": 6.0},
                                  {"name": "gradlite", "k": 2.0}, 3, 0)
        as_int = run_experiment({"name": "quadratic", "d": 6},
                                {"name": "gradlite", "k": 2}, 3, 0)
        assert as_float.records == as_int.records

    def test_sgd_contracts_geometrically_at_inverse_smoothness(self):
        spec = {"name": "quadratic", "d": 10, "cond": 2.0, "sigma": 0.0}
        metrics = run_experiment(spec, {"name": "sgd", "eta": 1.0}, 100, 0)
        # last-iterate suboptimality shrinks by max(1 - eta*lam)^2 per step
        assert metrics.records[-1].loss < 1e-6 * metrics.initial_loss
        losses = [r.loss for r in metrics.records[:20]]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_metrics_csv_bytes_identical_across_runs(self, tmp_path):
        spec = {"name": "quadratic", "d": 8, "cond": 10.0, "sigma": 0.3}
        opt = {"name": "gradlite", "eta": 0.05, "k": 3}
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_experiment(spec, opt, 40, 7).write_csv(p1)
        run_experiment(spec, opt, 40, 7).write_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().splitlines()[0] == CSV_HEADER

    def test_gap_column_uses_averaged_iterate_and_stays_nonnegative(self):
        spec = {"name": "quadratic", "d": 6, "cond": 5.0, "sigma": 0.2}
        metrics = run_experiment(spec, {"name": "gradlite", "eta": 0.05, "k": 2},
                                 60, 1)
        for rec in metrics.records:
            assert rec.gap >= -1e-12

    def test_divergence_recorded_not_raised(self):
        spec = {"name": "quadratic", "d": 6, "cond": 5.0, "sigma": 0.5}
        opt = {"name": "gradlite", "eta": 1e8, "k": 2, "ef_mode": "paper"}
        metrics = run_experiment(spec, opt, 500, 0)
        assert metrics.diverged
        assert metrics.diverged_step is not None
        assert len(metrics.records) < 500

    def test_summary_echoes_config(self, tmp_path):
        spec = {"name": "quadratic", "d": 6, "cond": 5.0, "sigma": 0.0}
        metrics = run_experiment(spec, {"name": "sgd", "eta": 0.1}, 5, 3)
        out = tmp_path / "s.json"
        metrics.write_summary(out)
        payload = json.loads(out.read_text())
        assert payload["problem"] == spec
        assert payload["seed"] == 3
        assert payload["diverged"] is False

    def test_baseline_rows_have_nan_lowrank_columns(self):
        spec = {"name": "quadratic", "d": 6, "cond": 5.0, "sigma": 0.0}
        metrics = run_experiment(spec, {"name": "adam", "eta": 0.05}, 3, 0)
        rec = metrics.records[-1]
        assert np.isnan(rec.gtilde_norm) and np.isnan(rec.r_norm)
        assert np.isfinite(rec.g_norm)

    def test_no_feedback_rows_price_and_show_no_residual(self):
        # ef_mode="off" keeps no accumulator and reads no probe.
        spec = {"name": "quadratic", "d": 6, "cond": 5.0, "sigma": 0.0}
        opt = {"name": "gradlite", "k": 2, "ef_mode": "off"}
        for rec in run_experiment(spec, opt, 3, 0).records:
            assert rec.opt_scalars == 0 and np.isfinite(rec.gtilde_norm)
            assert np.isnan(rec.g_norm) and np.isnan(rec.r_norm) and np.isnan(rec.delta_norm)


class TestCsvFormat:
    """A CSV row is one %-format, with the bytes of one format() per value."""

    @given(st.floats())
    @example(float("nan"))
    @example(float("inf"))
    @example(float("-inf"))
    @example(-0.0)
    @example(5e-324)
    @example(-2.2250738585072009e-308)
    def test_percent_g_is_format_g(self, x):
        assert "%.17g" % x == format(x, ".17g")

    @given(st.integers(0, 10**6), st.lists(st.floats(), min_size=8, max_size=8))
    def test_a_row_is_its_fields_formatted_one_by_one(self, step, values):
        record = StepRecord(step, *values)
        want = ",".join([str(step)] + [format(float(v), ".17g") for v in values]) + "\n"
        assert harness._CSV_ROW % tuple(vars(record).values()) == want


class TestMemoryLedger:
    def test_pinned_reference_numbers(self):
        rep = memory_report(1000, 200, 8, 10)
        grad = rep.methods["gradlite"]
        exact = rep.methods["exact-sgd"]
        assert exact.signal == 1000
        assert grad.signal == 8
        assert grad.factor == 960
        assert grad.accumulator == 200
        assert grad.total == 1168
        assert rep.signal_ratio == 0.008
        assert rep.savings_vs_exact() >= 0.40

    def test_full_rank_signal_matches_exact(self):
        rep = memory_report(64, 64, 64, 10)
        assert rep.methods["gradlite"].signal == rep.methods["exact-sgd"].signal

    def test_component_recount(self):
        # independent spreadsheet-style re-addition of each method's parts
        counts = memory_counts(300, 40, k=4, tau=5)
        for name, mm in counts.items():
            assert mm.total == mm.activation + mm.signal + mm.factor \
                + mm.accumulator + mm.optimizer_state
        assert counts["gradlite"].factor == (300 + 40) * 4 / 5
        assert counts["adam"].optimizer_state == 80

    def test_bad_dims(self):
        with pytest.raises(ConfigError):
            memory_counts(0, 5)

    def test_rank_above_min_dim_rejected(self):
        # The rule sits in the ledger, so library callers meet it too.
        with pytest.raises(ConfigError,
                           match=r"^rank 50 exceeds min\(m, d_block\)=5 for block 0$"):
            memory_report(10, 5, 50, 10)
        assert memory_report(10, 5, 5, 10).savings_vs_exact() > 0.0

    def test_text_says_higher_when_gradlite_holds_more(self):
        # m = d = k = tau = 1: gradlite holds 4 scalars to exact-backprop's 2.
        rep = memory_report(1, 1, 1, 1)
        assert rep.savings_vs_exact() == -1.0
        last = rep.to_text().splitlines()[-1]
        assert last == "gradlite total vs exact-backprop: 100.0% higher"
        last = memory_report(1000, 200, 8, 10).to_text().splitlines()[-1]
        assert last == "gradlite total vs exact-backprop: 41.6% lower"


class TestGradCheckSuite:
    def test_clean_build_passes(self):
        report = grad_check_suite(chain_draws=25, fd_draws=2)
        assert report.passed, report.to_text()

    def test_check_count_is_blocks_times_kinds(self):
        problems = default_check_problems()
        report = grad_check_suite(problems, chain_draws=5, fd_draws=1)
        expected = 2 * sum(p.blocks for p in problems)
        assert report.total_checks == expected

    def test_corrupted_gradient_is_caught_and_named(self):
        prob = make_quadratic(6, 4.0, 0.0, seed=5)
        true_grad = prob.exact_gradient
        prob.exact_gradient = lambda theta: true_grad(theta) + 1e-3
        report = grad_check_suite([prob], chain_draws=5, fd_draws=1)
        assert not report.passed
        assert any(r.problem == "quadratic" for r in report.failures())


class TestRateCheck:
    SPEC = {"name": "quadratic", "d": 8, "cond": 10.0, "sigma": 0.3}

    def problem(self):
        return build_problem(self.SPEC, 0)

    def test_requires_four_grid_points(self):
        with pytest.raises(ConfigError):
            rate_check(self.problem(), GradLiteConfig(k=2), (10, 20, 40), (0,), 0.3)

    def test_requires_four_distinct_grid_points(self, monkeypatch):
        def gradlite_step(*args, **kwargs):
            raise AssertionError("a step ran before the T grid was checked")
        monkeypatch.setattr(optimizers, "gradlite_step", gradlite_step)
        with pytest.raises(ConfigError, match="4 distinct values of T"):
            rate_check(self.problem(), GradLiteConfig(k=2), (10, 10, 20, 20, 40), (0,),
                       0.3)

    def test_requires_known_optimum(self):
        with pytest.raises(NonPositiveGapError):
            rate_check(build_problem({"name": "mlp", "layers": (4, 6, 1), "n": 8}, 0),
                       GradLiteConfig(k=2), (10, 20, 40, 80), (0,), 0.3)

    def test_fit_reproducible(self):
        grid, seeds = (25, 50, 100, 200), (0, 1)
        f1 = rate_check(self.problem(), GradLiteConfig(k=8), grid, seeds, 0.3)
        f2 = rate_check(self.problem(), GradLiteConfig(k=8), grid, seeds, 0.3)
        assert abs(f1.slope - f2.slope) < 0.02
        assert f1.mean_gaps == f2.mean_gaps

    def test_reference_trend_shifts_floor_only(self):
        grid, seeds = (25, 50, 100, 200), (0,)
        cfg = GradLiteConfig(k=4, ef_mode="off")
        own = rate_check(self.problem(), cfg, grid, seeds, 0.3)
        ref = rate_check(self.problem(), cfg, grid, seeds, 0.3,
                         reference=(own.slope, own.intercept))
        assert own.slope == ref.slope
        assert own.error_floor == ref.error_floor  # same trend by construction

    @pytest.mark.parametrize("basis_mode", ["svd", "random-projection"])
    @pytest.mark.parametrize("feedback", [{"ef_mode": "off"}, {}],
                             ids=["feedback-off", "feedback-on"])
    def test_one_shared_problem_gives_the_gaps_of_fresh_ones(self, basis_mode, feedback):
        # Fits at two ranks share one problem, and so its step-0 factors,
        # as a sweep's do; every reference run builds its own problem.
        grid, seeds, c = (5, 10, 20, 40), (0, 1), 0.3
        overrides = {"basis_mode": basis_mode, **feedback}
        shared = self.problem()
        for k in (2, 4):
            fit = rate_check(shared, GradLiteConfig(k=k, **overrides), grid, seeds, c)
            expected = []
            for t_steps in grid:
                gaps = []
                for seed in seeds:
                    problem = self.problem()
                    cfg = GradLiteConfig(eta=float(c / np.sqrt(t_steps)), k=k, **overrides)
                    state = harness._drive(problem, cfg, t_steps, seed)
                    gaps.append(problem.loss(averaged_iterate(state)) - problem.loss_star)
                expected.append(float(np.mean(gaps)))
            assert fit.mean_gaps == tuple(expected)

    @pytest.mark.parametrize("grid, c, message", [
        ((0, 25, 50, 100), 0.3, r"values of T must be >= 1, got \[0, 25, 50, 100\]"),
        ((25, 50, 100, 200), -1.0, "c must be finite and > 0, got -1.0"),
        ((25, 50, 100, 200), float("nan"), "c must be finite and > 0, got nan"),
    ], ids=["zero-t", "negative-c", "nan-c"])
    def test_bad_grid_or_c_rejected_before_the_first_step(self, grid, c, message,
                                                          monkeypatch):
        def gradlite_step(*args, **kwargs):
            raise AssertionError("a step ran before the grid and c were checked")
        monkeypatch.setattr(optimizers, "gradlite_step", gradlite_step)
        with pytest.raises(ConfigError, match=message):
            rate_check(self.problem(), GradLiteConfig(k=2), grid, (0,), c)
        with pytest.raises(ConfigError, match=message):
            rate_sweep(k_grid=(2, 4), d=4, t_grid=grid, seeds=(0,), c=c)


class TestRateCheckWithoutARank:
    """SGD and Adam have no rank: the fit's k is None, and a diverged run is
    named by the config's ledger row."""

    SPEC = {"name": "quadratic", "d": 6, "sigma": 0.3}
    GRID, SEEDS, C = (5, 10, 20, 40), (0,), 0.3

    @pytest.mark.parametrize("cfg", [SgdConfig(), AdamConfig()], ids=["sgd", "adam"])
    def test_fit(self, cfg):
        fit = rate_check(build_problem(self.SPEC, 0), cfg, self.GRID, self.SEEDS, self.C)
        assert fit.k is None
        expected = []
        for t_steps in self.GRID:
            problem = build_problem(self.SPEC, 0)
            run_cfg = replace(cfg, eta=float(self.C / np.sqrt(t_steps)))
            state = harness._drive(problem, run_cfg, t_steps, self.SEEDS[0])
            expected.append(problem.loss(averaged_iterate(state)) - problem.loss_star)
        assert fit.mean_gaps == tuple(expected)
        assert np.isfinite(fit.slope)

    @pytest.mark.parametrize("cfg, method", [(SgdConfig(), "exact-sgd"),
                                             (GradLiteConfig(k=2), "rank 2")],
                             ids=["sgd", "gradlite"])
    def test_diverged_run_is_named(self, cfg, method):
        with pytest.raises(DivergedError, match=rf"^{method}, T 5, seed 0: diverged"):
            rate_check(build_problem(self.SPEC, 0), cfg, self.GRID, self.SEEDS, 1e9)


class TestRunSeedSetsTheBasisSeed:
    """`_drive` alone turns the run seed into the basis seed, so random-
    projection configs that differ only in `seed` run bit for bit alike, and
    as a direct run on the derived seed does."""

    SPEC = {"name": "quadratic", "d": 8, "cond": 10.0, "sigma": 0.3}
    CONFIGS = [GradLiteConfig(eta=0.05, k=3, basis_mode="random-projection", seed=s)
               for s in (0, 1, 12345)]

    def direct(self, seed, steps, eta=0.05):
        problem = build_problem(self.SPEC, 0)
        problem.reset_noise(derive_seed(seed, harness._NOISE_SALT))
        cfg = replace(self.CONFIGS[0], eta=eta, seed=derive_seed(seed, harness._OPT_SALT))
        state = init_gradlite_state(problem, None, cfg)
        for _ in range(steps):
            state, _ = gradlite_step(state, problem, cfg)
        return problem, state

    def test_drive(self):
        _, expected = self.direct(7, 20)
        for cfg in self.CONFIGS:
            state = harness._drive(build_problem(self.SPEC, 0), cfg, 20, 7)
            assert np.array_equal(state.theta, expected.theta)
            assert np.array_equal(state.theta_sum, expected.theta_sum)

    def test_final_loss_of(self):
        problem, expected = self.direct(7, 20)
        for cfg in self.CONFIGS:
            assert _final_loss_of(build_problem(self.SPEC, 0), cfg, 20, 7) \
                == (problem.loss(expected.theta), False)

    def test_rate_check(self):
        grid, seeds, c = (5, 10, 20, 40), (0, 1), 0.3
        fits = [rate_check(build_problem(self.SPEC, 0), cfg, grid, seeds, c)
                for cfg in self.CONFIGS]
        assert fits[1] == fits[0] and fits[2] == fits[0]
        expected = []
        for t_steps in grid:
            gaps = []
            for seed in seeds:
                problem, state = self.direct(seed, t_steps, float(c / np.sqrt(t_steps)))
                gaps.append(problem.loss(averaged_iterate(state)) - problem.loss_star)
            expected.append(float(np.mean(gaps)))
        assert fits[0].mean_gaps == tuple(expected)


class TestRateSweep:
    # Fits: full rank d, the other ranks without feedback, the middle rank
    # with it; d need not be on the rank grid.
    @pytest.mark.parametrize("k_grid, d", [((2, 4, 8), 8), ((4, 2), 6)])
    def test_builds_once_and_decomposes_once_for_every_rank(self, k_grid, d, monkeypatch,
                                                           decomposed):
        # The sweep factorizes each rank once, before its first run, from one
        # Gram eigh in all, and every run keeps the factor it is handed.
        built, factorized = [], {harness: [], optimizers: []}
        build = harness.build_problem

        def counting_build(spec, seed):
            built.append(spec)
            return build(spec, seed)
        monkeypatch.setattr(harness, "build_problem", counting_build)
        for module, calls in factorized.items():
            def counting_factorize(j, k, mode, *args, calls=calls, original=module.factorize):
                calls.append((k, mode))
                return original(j, k, mode, *args)
            monkeypatch.setattr(module, "factorize", counting_factorize)
        rate_sweep(k_grid=k_grid, d=d, t_grid=(5, 10, 20, 40), seeds=(0, 1))
        assert len(built) == 1
        assert factorized == {harness: [(k, "svd") for k in sorted({*k_grid, d})],
                              optimizers: []}
        assert len(decomposed) == 1

    def test_one_seed_draws_each_noise_row_once(self, drawn):
        # Five fits of T = 25..200 on one seed: the first fit's T=200 run
        # draws 4 blocks of 64 rows; every other run replays them.
        rate_sweep(t_grid=(25, 50, 100, 200), seeds=(0,), k_grid=(2, 8, 32, 50),
                   d=50)
        assert drawn == [NOISE_BLOCK] * 4

    def test_every_rank_checked_before_the_first_step(self, monkeypatch):
        def gradlite_step(*args, **kwargs):
            raise AssertionError("a step ran before every rank was checked")
        monkeypatch.setattr(optimizers, "gradlite_step", gradlite_step)
        grid, seeds = (200, 400, 800, 1600), (0, 1)
        with pytest.raises(ConfigError, match=r"rank 60 exceeds min\(m, d_block\)=8"):
            rate_sweep(k_grid=(2, 60), d=8, t_grid=grid, seeds=seeds)
        with pytest.raises(ConfigError, match="k must be >= 1, got 0"):
            rate_sweep(k_grid=(2, 0), d=8, t_grid=grid, seeds=seeds)


class TestRepeatedSeeds:
    def test_rejected_before_the_first_step(self, monkeypatch):
        def gradlite_step(*args, **kwargs):
            raise AssertionError("a step ran before the seeds were checked")
        monkeypatch.setattr(optimizers, "gradlite_step", gradlite_step)
        with pytest.raises(ConfigError, match=r"seeds must be distinct, got \[2, 2\]"):
            ablation_suite(seeds=(2, 2), steps=5, k=2, n=16, d=4, eta=0.05)
        spec = {"name": "quadratic", "d": 4, "sigma": 0.5}
        with pytest.raises(ConfigError, match=r"seeds must be distinct, got \[1, 0, 1\]"):
            rate_check(build_problem(spec, 0), GradLiteConfig(k=2), (1, 2, 3, 4),
                       (1, 0, 1), 0.3)
        with pytest.raises(ConfigError, match="seeds must be distinct"):
            rate_sweep(k_grid=(2, 3), d=4, t_grid=(1, 2, 3, 4), seeds=(1, 1))


class TestRepeatedT:
    def test_rejected_before_the_first_step(self, monkeypatch):
        def gradlite_step(*args, **kwargs):
            raise AssertionError("a step ran before the T grid was checked")
        monkeypatch.setattr(optimizers, "gradlite_step", gradlite_step)
        spec = {"name": "quadratic", "d": 4, "sigma": 0.5}
        with pytest.raises(ConfigError,
                           match=r"values of T must be distinct, got \[1, 2, 2, 3, 4\]"):
            rate_check(build_problem(spec, 0), GradLiteConfig(k=2), (2, 1, 2, 3, 4),
                       (0,), 0.3)
        with pytest.raises(ConfigError, match="values of T must be distinct"):
            rate_sweep(k_grid=(2, 3), d=4, t_grid=(25, 50, 50, 100, 200), seeds=(0,))


class TestRepeatedK:
    def test_rejected_before_the_first_step(self, monkeypatch):
        def gradlite_step(*args, **kwargs):
            raise AssertionError("a step ran before the rank grid was checked")
        monkeypatch.setattr(optimizers, "gradlite_step", gradlite_step)
        with pytest.raises(ConfigError,
                           match=r"ranks must be distinct, got \[2, 2, 4\]"):
            rate_sweep(k_grid=(2, 2, 4), d=4, t_grid=(25, 50, 100, 200), seeds=(0,))


class TestAblationMachinery:
    def test_each_seeds_problem_built_once(self, monkeypatch):
        built = []
        original = harness._ablation_problem

        def counting(seed, *args):
            built.append(seed)
            return original(seed, *args)
        monkeypatch.setattr(harness, "_ablation_problem", counting)
        # eta=None: tune_eta runs too, on seed 0's problem
        result = ablation_suite(seeds=(0, 1, 2), steps=10, k=4, tau=5, n=64, d=16,
                                cond=100.0)
        assert sorted(built) == [0, 1, 2]
        assert len(result.rows) == 3 * len(ABLATION_VARIANTS)

    def test_final_loss_draws_the_noise_of_its_run_seed(self):
        # One rule for every caller: the driver resets the noise from the run
        # seed, so on a noisy problem a lean run ends where a recorded one does.
        spec = {"name": "quadratic", "d": 8, "cond": 10.0, "sigma": 0.3}
        recorded = run_experiment(spec, {"name": "gradlite", "eta": 0.05, "k": 3}, 20, 7)
        cfg = GradLiteConfig(eta=0.05, k=3)
        loss, diverged = _final_loss_of(build_problem(spec, 7), cfg, 20, 7)
        assert not diverged
        assert loss == recorded.final_loss

    def test_variant_configs(self):
        def config(variant):
            return GradLiteConfig(eta=0.1, k=4, tau=5, **ABLATION_VARIANTS[variant])
        full = config("full")
        assert full.ef_mode == "ef-standard" and full.basis_mode == "svd"
        noef = config("no-error-feedback")
        assert noef.ef_mode == "off"
        rp = config("random-projection")
        assert rp.basis_mode == "random-projection"

    def test_variants_coincide_at_full_rank_on_square_problem(self):
        # square signal (m == d) makes rank d a true identity for every basis
        spec = {"name": "quadratic", "d": 10, "cond": 50.0, "sigma": 0.2}
        finals = []
        for variant in ("full", "no-error-feedback", "random-projection"):
            problem = build_problem(spec, seed=3)
            cfg = GradLiteConfig(eta=0.05, k=10, tau=10, **ABLATION_VARIANTS[variant])
            loss, diverged = _final_loss_of(problem, cfg, 200, 3)
            assert not diverged
            finals.append(loss)
        assert max(finals) - min(finals) <= 1e-8


# Each family's maker, named here apart from the table build_problem reads.
_MAKERS = {"quadratic": problems.make_quadratic,
           "logistic": problems.make_gaussian_logistic,
           "lowrank-logistic": problems.make_lowrank_logistic,
           "mlp": problems.make_mlp}


@pytest.mark.parametrize("name", list(harness.PROBLEMS))
def test_build_problem_is_the_family_maker_with_the_spec_defaults(name):
    maker, defaults = _MAKERS[name], harness.PROBLEMS[name]
    assert set(inspect.signature(maker).parameters) == {*defaults, "seed"}
    seed = 6
    built = build_problem({"name": name}, seed)
    direct = maker(**defaults, seed=derive_seed(seed, harness._PROBLEM_SALT))
    assert type(built) is type(direct)
    if name == "quadratic":
        pairs = [(built.a, direct.a)]
    else:
        pairs = [(built.data.x, direct.data.x), (built.data.y, direct.data.y)]
    for got, want in pairs:
        assert got.tobytes() == want.tobytes()
    assert built.loss_star == direct.loss_star
    assert built.default_theta0().tobytes() == direct.default_theta0().tobytes()


def test_validate_optimizer_rejects_nonsense():
    with pytest.raises(ConfigError):
        validate_optimizer({"name": "sgd", "eta": -1.0})
    with pytest.raises(ConfigError):
        validate_optimizer({"name": "gradlite", "eta": 0.1, "k": 0})
    with pytest.raises(ConfigError):
        validate_optimizer({"eta": 0.1})


@pytest.mark.parametrize("opt", [{"name": "adam", "beta1": 1.5},
                                 {"name": "galore", "k": 0}])
def test_bad_optimizer_spec_fails_before_the_problem_is_built(opt, monkeypatch):
    def build_problem(spec, seed):
        raise AssertionError("problem built before the optimizer spec was checked")
    monkeypatch.setattr(harness, "build_problem", build_problem)
    with pytest.raises(ConfigError):
        run_experiment({"name": "quadratic"}, opt, 5, 0)
