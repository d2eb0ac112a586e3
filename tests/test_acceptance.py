"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  The rate and ablation criteria drive full-size seeded
experiments and dominate the runtime (several minutes together).
"""

import hashlib
import time
from pathlib import Path

import numpy as np
import pytest

from gradlite.harness import (_NOISE_SALT, ablation_suite, build_problem,
                              grad_check_suite, memory_report, rate_sweep)
from gradlite.linalg import matvec_t
from gradlite.lowrank import LowRankFactor, approx_gradient
from gradlite.optimizers import (GradLiteConfig, SgdConfig, exact_step,
                                 gradlite_step, init_gradlite_state, init_state)
from gradlite.cli import main
from gradlite.rng import SplitMix64, derive_seed


def _report(num, text):
    print(f"\n[criterion {num}] PASS: {text}")


def test_criterion_1_factored_identity():
    """v @ (u.T d) equals the materialized product transpose applied to d."""
    t0 = time.perf_counter()
    stream = SplitMix64(1001)
    shapes = SplitMix64(1002)
    worst = 0.0
    for _ in range(200):
        m = 1 + int(shapes.uniforms(1)[0] * 500)
        d = 1 + int(shapes.uniforms(1)[0] * 100)
        k = 1 + int(shapes.uniforms(1)[0] * min(32, m, d))
        u = stream.normal_matrix(m, k)
        v = stream.normal_matrix(d, k)
        delta = stream.normals(m)
        fac = LowRankFactor(u=u, v=v)
        fast = approx_gradient(fac, delta)
        ref = matvec_t(u @ v.T, delta)
        err = np.linalg.norm(fast - ref) / (1.0 + np.linalg.norm(ref))
        worst = max(worst, err)
        assert err <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(1, f"200 factored-order identities, worst rel err {worst:.2e}, "
               f"{elapsed:.2f}s")


def test_criterion_2_full_rank_reproduces_sgd():
    """Full rank, svd basis, feedback off: same trajectory as plain descent."""
    t0 = time.perf_counter()
    cases = [
        ({"name": "quadratic", "d": 30, "cond": 10.0, "sigma": 0.3}, 0.05, 10),
        ({"name": "logistic", "n": 64, "d": 16}, 0.002, 10),
        # the mlp jacobian moves with theta, so the factor must be current
        ({"name": "mlp", "layers": (6, 12, 1), "n": 8}, 0.05, 1),
    ]
    worst_overall = 0.0
    for spec, eta, tau in cases:
        pa = build_problem(spec, seed=7)
        pb = build_problem(spec, seed=7)
        pa.reset_noise(derive_seed(7, _NOISE_SALT))
        pb.reset_noise(derive_seed(7, _NOISE_SALT))
        k = min(pa.m, min(pa.block_dims))
        cfg = GradLiteConfig(eta=eta, k=k, tau=tau, ef_mode="off", basis_mode="svd",
                             seed=derive_seed(7, 77))
        sa = init_gradlite_state(pa, None, cfg)
        sb = init_state(pb, theta0=sa.theta.copy())
        for _ in range(500):
            sa, _ = gradlite_step(sa, pa, cfg)
            sb, _ = exact_step(sb, pb, SgdConfig(eta=eta))
            dev = np.linalg.norm(sa.theta - sb.theta) \
                / (1.0 + np.linalg.norm(sb.theta))
            assert dev <= 1e-10, f"{spec['name']}: per-step deviation {dev:.3e}"
            worst_overall = max(worst_overall, dev)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(2, f"three families x 500 steps, worst per-step deviation "
               f"{worst_overall:.2e}, {elapsed:.1f}s")


def test_criterion_3_gradient_oracles():
    """Chain-rule contract at 1e-10 and central differences at 1e-5/1e-4."""
    t0 = time.perf_counter()
    report = grad_check_suite(chain_draws=100, fd_draws=3)
    assert report.passed, report.to_text()
    worst_chain = max(r.max_rel_err for r in report.rows
                      if r.check == "chain-rule")
    worst_fd = max(r.max_rel_err for r in report.rows
                   if r.check == "finite-difference")
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(3, f"{report.total_checks} checks; worst chain-rule "
               f"{worst_chain:.2e}, worst finite-difference {worst_fd:.2e}, "
               f"{elapsed:.1f}s")


def test_criterion_4_feedback_telescoping():
    """Applied updates telescope; the additive rule matches its closed form."""
    spec = {"name": "quadratic", "d": 20, "cond": 50.0, "sigma": 0.4}

    prob = build_problem(spec, seed=3)
    prob.reset_noise(derive_seed(3, _NOISE_SALT))
    cfg = GradLiteConfig(eta=0.02, k=4, tau=10, ef_mode="ef-standard", basis_mode="svd",
                         seed=derive_seed(3, 77))
    st = init_gradlite_state(prob, None, cfg)
    sum_ghat = np.zeros(prob.d)
    sum_g = np.zeros(prob.d)
    sum_gnorm = 0.0
    last_delta = None
    for _ in range(1000):
        st, tr = gradlite_step(st, prob, cfg)
        sum_ghat += tr.g_hat
        sum_g += tr.g
        sum_gnorm += np.linalg.norm(tr.g)
        last_delta = tr.big_delta
    resid = np.linalg.norm(sum_ghat - sum_g + last_delta)
    assert resid <= 1e-9 * sum_gnorm

    prob2 = build_problem(spec, seed=3)
    prob2.reset_noise(derive_seed(3, _NOISE_SALT))
    cfg2 = GradLiteConfig(eta=0.005, k=4, tau=10, ef_mode="paper", basis_mode="svd",
                          seed=derive_seed(3, 77))
    st2 = init_gradlite_state(prob2, None, cfg2)
    running = np.zeros(prob2.d)
    for _ in range(1000):
        st2, tr = gradlite_step(st2, prob2, cfg2)
        running = running + tr.big_delta
        assert np.array_equal(running, st2.r)
    _report(4, f"telescoping residual {resid:.2e} <= 1e-9*sum|g| "
               f"({1e-9 * sum_gnorm:.2e}); additive closed form bitwise "
               f"over 1000 steps")


@pytest.mark.slow
def test_criterion_5_rate_and_rank_floors():
    """Averaged-iterate slope near -1/2; bias floor shrinks as rank grows."""
    t0 = time.perf_counter()
    report = rate_sweep(t_grid=(400, 1600, 6400, 25600), seeds=(0, 1, 2, 3, 4),
                        k_grid=(2, 8, 32, 50), c=0.3, d=50, cond=100.0,
                        sigma=0.5)
    slope = report["full_rank_slope"]
    assert -0.65 <= slope <= -0.35, f"slope {slope:.3f} outside -0.5 +/- 0.15"
    floors = [report["error_floors"][str(k)] for k in (2, 8, 32, 50)]
    assert all(a > b for a, b in zip(floors, floors[1:])), \
        f"floors not strictly decreasing in rank: {floors}"
    comp = report["ef_comparison"]
    assert comp["floor_no_feedback"] > comp["floor_ef_standard"], \
        "feedback should shrink the low-rank bias floor"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report(5, f"slope {slope:.3f} in -0.5 +/- 0.15; floors "
               f"{[f'{f:.3g}' for f in floors]} strictly decreasing; "
               f"feedback floor {comp['floor_ef_standard']:.3g} < "
               f"no-feedback floor {comp['floor_no_feedback']:.3g}; "
               f"{elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_6_ablation_direction():
    """Full method beats both ablations on every seed; no-feedback worst."""
    t0 = time.perf_counter()
    result = ablation_suite(seeds=(0, 1, 2), steps=3000, k=8, tau=10,
                            n=512, d=128, cond=1e3)
    table = result.by_seed()
    worst_count = 0
    for seed in (0, 1, 2):
        full = table[seed]["full"].final_loss
        noef = table[seed]["no-error-feedback"].final_loss
        rp = table[seed]["random-projection"].final_loss
        assert full < noef, f"seed {seed}: full {full} !< no-feedback {noef}"
        assert full < rp, f"seed {seed}: full {full} !< random-projection {rp}"
        if noef >= max(full, rp):
            worst_count += 1
    assert worst_count >= 2, \
        f"no-feedback worst on only {worst_count}/3 seeds"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(6, f"eta {result.eta:g}: full < both ablations on 3/3 seeds; "
               f"no-feedback worst on {worst_count}/3; {elapsed:.0f}s")


def test_criterion_7_memory_ledger():
    """Pinned scalar counts and the headline saving for the reference config."""
    t0 = time.perf_counter()
    rep = memory_report(1000, 200, 8, 10)
    grad = rep.methods["gradlite"]
    exact = rep.methods["exact-sgd"]
    assert grad.signal == 8 and exact.signal == 1000
    assert grad.factor == 960
    assert grad.accumulator == 200
    savings = rep.savings_vs_exact()
    assert savings >= 0.40
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(7, f"signal 8 vs 1000, factor 960/step; gradlite total "
               f"{grad.total:g} is {100 * savings:.1f}% below exact "
               f"{exact.total:g}")


def test_criterion_8_byte_identical_reruns(tmp_path, capsys):
    """Every command, rerun with identical flags, hashes identically."""

    def sha(path):
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()

    hashes = {}
    commands = {
        "run": ["run", "--problem", "quadratic", "--dim", "12", "--sigma",
                "0.3", "--opt", "gradlite", "--k", "4", "--eta", "0.05",
                "--steps", "40", "--seed", "5",
                "--out", str(tmp_path / "run.csv"),
                "--summary", str(tmp_path / "run.json")],
        "ablate": ["ablate", "--seeds", "0,1", "--steps", "40", "--k", "4",
                   "--n", "64", "--dim", "16", "--cond", "100",
                   "--eta", "0.05", "--out", str(tmp_path / "abl.csv")],
        "rate-check": ["rate-check", "--t-grid", "25,50,100,200",
                       "--seeds", "0,1", "--k-grid", "2,4,8", "--dim", "8",
                       "--c", "0.3", "--out", str(tmp_path / "rate.json")],
        "mem-report": ["mem-report", "--out", str(tmp_path / "mem.json")],
        "grad-check": ["grad-check"],
    }
    outputs = {
        "run": [tmp_path / "run.csv", tmp_path / "run.json"],
        "ablate": [tmp_path / "abl.csv"],
        "rate-check": [tmp_path / "rate.json"],
        "mem-report": [tmp_path / "mem.json"],
        "grad-check": [],
    }
    for phase in (0, 1):
        for name, argv in commands.items():
            code = main(list(argv))
            assert code == 0, f"{name} exited {code}"
            stdout = capsys.readouterr().out
            digest = [sha(p) for p in outputs[name]]
            digest.append(hashlib.sha256(stdout.encode()).hexdigest())
            if phase == 0:
                hashes[name] = digest
            else:
                assert digest == hashes[name], f"{name} output drifted on rerun"
    _report(8, f"5 commands rerun byte-identically "
               f"({sum(len(v) for v in outputs.values())} files + stdout)")
