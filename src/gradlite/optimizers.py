"""The low-rank error-feedback step plus plain baselines.

Each optimizer is a config, checked once when built, plus `init(problem,
theta0, cfg)` and `step(state, problem, cfg) -> (state, StepTrace | None)`
on a mutable :class:`OptimizerState` owned by a single run.  The per-step
stochastic gradient is always the chain-rule product jacobian.T @
error_signal with one error-signal draw per step, so two optimizers driven
by identically seeded problems see identical noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DivergedError, EmptyRunError
from .feedback import (MODES, PROBES, correct, estimate_delta,
                       update_accumulator)
from .linalg import matvec_t
from .lowrank import BASIS_MODES, LowRankFactor, approx_gradient, factorize
from .problems import Problem

DIVERGENCE_CAP = 1e12

EF_MODES = MODES + ("off",)

# name -> (rule, what the rule requires), one entry per hyperparameter.
_RANGES = {
    "eta": (lambda v: math.isfinite(v) and v > 0.0, "finite and > 0"),
    "k": (lambda v: v >= 1, ">= 1"),
    "tau": (lambda v: v >= 1, ">= 1"),
    "beta1": (lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
    "beta2": (lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
    "eps": (lambda v: v > 0.0, "> 0"),
    "ef_mode": (lambda v: v in EF_MODES, f"one of {EF_MODES}"),
    "probe": (lambda v: v in PROBES, f"one of {PROBES}"),
    "basis_mode": (lambda v: v in BASIS_MODES, f"one of {BASIS_MODES}"),
}


def check_hyperparams(**params):
    """Raise ConfigError for the first hyperparameter outside its range."""
    for name, value in params.items():
        rule, need = _RANGES[name]
        if not rule(value):
            raise ConfigError(f"{name} must be {need}, got {value!r}")


@dataclass(frozen=True)
class SgdConfig:
    """The learning rate, which every other optimizer's config extends."""

    eta: float = 0.05

    def __post_init__(self):
        check_hyperparams(**{k: v for k, v in vars(self).items() if k != "seed"})


@dataclass(frozen=True)
class AdamConfig(SgdConfig):
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


@dataclass(frozen=True)
class GaloreConfig(SgdConfig):
    k: int = 8
    tau: int = 10


@dataclass(frozen=True)
class GradLiteConfig(SgdConfig):
    k: int = 8
    tau: int = 10
    ef_mode: str = "ef-standard"
    probe: str = "exact"
    basis_mode: str = "svd"
    seed: int = 0  # seeds a random-projection basis


@dataclass
class OptimizerState:
    theta: np.ndarray
    step: int = 0
    theta_sum: np.ndarray | None = None
    accumulators: list[np.ndarray] | None = None  # one residual r per block
    factors: list[LowRankFactor] | None = None
    adam_m: np.ndarray | float = 0.0  # Adam's moments start at zero
    adam_v: np.ndarray | float = 0.0
    galore_basis: np.ndarray | None = None
    galore_window: list = field(default_factory=list)
    last_grad: np.ndarray | None = None  # gradlite: the probed gradient, or None

    def __post_init__(self):
        if self.theta_sum is None:
            self.theta_sum = np.zeros_like(self.theta)


@dataclass(frozen=True)
class StepTrace:
    """The gradients of one step, each concatenated across blocks."""

    g_tilde: np.ndarray      # approximate gradient, length d
    g_hat: np.ndarray        # corrected gradient actually applied
    big_delta: np.ndarray    # residual estimate


def _require_finite(vec: np.ndarray, step: int, what: str):
    if not np.isfinite(vec).all():
        raise DivergedError(step, what)


def _check_theta(theta: np.ndarray, step: int):
    # A NaN fails the comparison, so one reduction also catches non-finite.
    if not np.abs(theta).max() <= DIVERGENCE_CAP:
        raise DivergedError(step, "theta")


def _descend(state: OptimizerState, update: np.ndarray, grad: np.ndarray | None):
    theta_new = state.theta - update
    _check_theta(theta_new, state.step)
    state.theta = theta_new
    state.step += 1
    state.theta_sum = state.theta_sum + theta_new
    state.last_grad = grad


def stochastic_gradient(problem: Problem, theta: np.ndarray) -> np.ndarray:
    """Chain-rule gradient for one error-signal draw, all blocks concatenated."""
    delta = problem.error_signal(theta)
    parts = [matvec_t(problem.jacobian(theta, block=b), delta)
             for b in range(problem.blocks)]
    return np.concatenate(parts)


def init_state(problem: Problem, theta0=None, cfg=None) -> OptimizerState:
    """The step-0 state of SGD, Adam and GaLore, which start from theta alone."""
    theta = problem.default_theta0() if theta0 is None else np.array(theta0, dtype=np.float64)
    if theta.shape != (problem.d,):
        raise ConfigError(f"theta0 length {theta.shape} != problem dimension {problem.d}")
    return OptimizerState(theta=theta)


def check_rank(problem: Problem, k: int):
    """Raise ConfigError if rank k exceeds min(m, d_block) for some block."""
    for b, width in enumerate(problem.block_dims):
        cap = min(problem.m, width)
        if k > cap:
            raise ConfigError(f"rank {k} exceeds min(m, d_block)={cap} for block {b}")


def init_gradlite_state(problem: Problem, theta0, cfg: GradLiteConfig) -> OptimizerState:
    """Validate the rank per block and build the step-0 factors."""
    check_rank(problem, cfg.k)
    state = init_state(problem, theta0)
    state.factors = [
        factorize(problem.jacobian(state.theta, block=b), cfg.k, cfg.basis_mode, 0,
                  cfg.seed)
        for b in range(problem.blocks)
    ]
    state.accumulators = [np.zeros(w) for w in problem.block_dims]
    return state


def gradlite_step(state: OptimizerState, problem: Problem,
                  cfg: GradLiteConfig) -> tuple[OptimizerState, StepTrace]:
    """One full update: signal, projection, correction, residual, descent.

    A block's factor is refreshed once `cfg.tau` steps have passed since
    the factor's birth.  If the block's Jacobian is the very array the
    factor was built from (problems return read-only Jacobians, so the same
    array means the same J), the factor is kept and only re-dated;
    otherwise it is rebuilt from the current Jacobian.
    """
    t = state.step
    theta = state.theta
    delta = problem.error_signal(theta)
    _require_finite(delta, t, "delta")

    gt_parts, gh_parts, bd_parts = [], [], []
    for b in range(problem.blocks):
        factor = state.factors[b]
        due = (t - factor.birth_step) >= cfg.tau
        need_j = due or cfg.probe == "exact"
        j_b = problem.jacobian(theta, block=b) if need_j else None
        if due and j_b is factor.source:
            state.factors[b] = replace(factor, birth_step=t)
        elif due:
            state.factors[b] = factorize(j_b, cfg.k, cfg.basis_mode, t, cfg.seed)
        gt = approx_gradient(state.factors[b], delta)
        gh = correct(gt, state.accumulators[b]) if cfg.ef_mode != "off" else gt
        bd = estimate_delta(j_b, delta, gt, cfg.probe)
        if cfg.ef_mode != "off":
            state.accumulators[b] = update_accumulator(state.accumulators[b], bd,
                                                       cfg.ef_mode)
        gt_parts.append(gt)
        gh_parts.append(gh)
        bd_parts.append(bd)

    g_tilde = np.concatenate(gt_parts)
    g_hat = np.concatenate(gh_parts)
    big_delta = np.concatenate(bd_parts)
    _require_finite(g_tilde, t, "g_tilde")
    _require_finite(g_hat, t, "g_hat")
    # g~ + (g - g~) reconstructs the probed gradient to one rounding step.
    g_exact = g_tilde + big_delta if cfg.probe == "exact" else None
    _descend(state, cfg.eta * g_hat, g_exact)
    return state, StepTrace(g_tilde=g_tilde, g_hat=g_hat, big_delta=big_delta)


def sgd_step(state: OptimizerState, problem: Problem,
             cfg: SgdConfig) -> tuple[OptimizerState, None]:
    g = stochastic_gradient(problem, state.theta)
    _require_finite(g, state.step, "gradient")
    _descend(state, cfg.eta * g, g)
    return state, None


def adam_step(state: OptimizerState, problem: Problem,
              cfg: AdamConfig) -> tuple[OptimizerState, None]:
    g = stochastic_gradient(problem, state.theta)
    _require_finite(g, state.step, "gradient")
    t = state.step + 1
    state.adam_m = cfg.beta1 * state.adam_m + (1.0 - cfg.beta1) * g
    state.adam_v = cfg.beta2 * state.adam_v + (1.0 - cfg.beta2) * g * g
    m_hat = state.adam_m / (1.0 - cfg.beta1 ** t)
    v_hat = state.adam_v / (1.0 - cfg.beta2 ** t)
    _descend(state, cfg.eta * m_hat / (np.sqrt(v_hat) + cfg.eps), g)
    return state, None


def galore_like_step(state: OptimizerState, problem: Problem,
                     cfg: GaloreConfig) -> tuple[OptimizerState, None]:
    """Project the exact gradient onto a basis of recent gradients.

    The basis is the top-k left singular subspace of a window of the last
    `tau` gradients, refreshed every `tau` steps; no residual is kept, so
    whatever the projection drops is simply lost.  k >= d short-circuits
    to the identity.
    """
    g = stochastic_gradient(problem, state.theta)
    _require_finite(g, state.step, "gradient")
    state.galore_window.append(g)
    if len(state.galore_window) > cfg.tau:
        state.galore_window.pop(0)
    d = state.theta.shape[0]
    if cfg.k >= d:
        _descend(state, cfg.eta * g, g)
        return state, None
    if state.step % cfg.tau == 0:
        window = np.column_stack(state.galore_window)
        u, _, _ = np.linalg.svd(window, full_matrices=False)
        state.galore_basis = u[:, :min(cfg.k, u.shape[1])]
    basis = state.galore_basis
    pg = basis @ (basis.T @ g)
    _descend(state, cfg.eta * pg, g)
    return state, None


def averaged_iterate(state: OptimizerState) -> np.ndarray:
    """Mean of the post-update iterates seen so far."""
    if state.step == 0:
        raise EmptyRunError("no steps taken yet")
    return state.theta_sum / state.step
