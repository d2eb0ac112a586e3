"""The low-rank error-feedback step plus plain baselines.

Each optimizer is a config, checked once when built, plus `init(problem,
theta0, cfg)` and `step(state, problem, cfg) -> (state, StepTrace)` on a
mutable state owned by a single run; the config's class names its state
class, init and step.  A step reports through its StepTrace alone; the
state holds only what the next step reads.  Each optimizer has its own
state class: :class:`OptimizerState` holds what every run holds plus SGD's
update rule, and :class:`AdamState`, :class:`GaloreState` and
:class:`GradLiteState` add only their own fields.  The update rule is the
state's `update(g, cfg)`, so SGD, Adam and GaLore share one step,
`exact_step`, and `gradlite_step` descends by the same rule.  The per-step
stochastic gradient is always the chain-rule product J^T d with one
error-signal draw d per step, so two optimizers driven by identically
seeded problems see identical noise.  Both steps take it from the one
exact probe, `problem.probe(theta, d)`, which needs the activation cache
and the m-vector signal, not a materialized J: the MLP answers it by one
reverse pass, and the quadratic and logistic families walk their constant
J.  A GradLite step reads J itself only to refresh its factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import ConfigError, DivergedError, EmptyRunError
from .feedback import EF_MODES, correct, estimate_delta, update_accumulator
from .lowrank import BASIS_MODES, LowRankFactor, approx_gradient, factorize
from .problems import Problem

DIVERGENCE_CAP = 1e12
# theta . theta at or below this bounds every entry by about CAP/2; see _check_theta.
_FAST_THETA_BOUND = DIVERGENCE_CAP**2 / 4

# name -> (rule, what the rule requires), one entry per hyperparameter.
_RANGES = {
    "eta": (lambda v: math.isfinite(v) and v > 0.0, "finite and > 0"),
    "k": (lambda v: v >= 1, ">= 1"),
    "tau": (lambda v: v >= 1, ">= 1"),
    "beta1": (lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
    "beta2": (lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
    "eps": (lambda v: v > 0.0, "> 0"),
    "ef_mode": (lambda v: isinstance(v, str) and v in EF_MODES, f"one of {tuple(EF_MODES)}"),
    "basis_mode": (lambda v: v in BASIS_MODES, f"one of {BASIS_MODES}"),
}


def check_hyperparams(**params):
    """Raise ConfigError for the first hyperparameter outside its range."""
    for name, value in params.items():
        rule, need = _RANGES[name]
        if not rule(value):
            raise ConfigError(f"{name} must be {need}, got {value!r}")


@dataclass
class OptimizerState:
    """What every run holds, and SGD's update rule.

    A subclass adds only the fields its optimizer reads, and its own
    `update` where the rule differs; a state class may inherit from two
    others to pair one's gradient estimator with the other's rule.
    """

    theta: np.ndarray
    step: int = 0
    theta_sum: np.ndarray | None = None  # the state's own; steps add to it in place

    def __post_init__(self):
        if self.theta_sum is None:
            self.theta_sum = np.zeros_like(self.theta)

    def update(self, g: np.ndarray, cfg: SgdConfig) -> np.ndarray:
        """What the step subtracts from theta, given the gradient estimate g."""
        return cfg.eta * g


@dataclass
class AdamState(OptimizerState):
    m: np.ndarray | None = None  # the moments start at zero
    v: np.ndarray | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.m is None:
            self.m = np.zeros_like(self.theta)
        if self.v is None:
            self.v = np.zeros_like(self.theta)

    def update(self, g: np.ndarray, cfg: AdamConfig) -> np.ndarray:
        """Adam's step from its bias-corrected moments, updated by g."""
        t = self.step + 1
        self.m = cfg.beta1 * self.m + (1.0 - cfg.beta1) * g
        self.v = cfg.beta2 * self.v + (1.0 - cfg.beta2) * g * g
        m_hat = self.m / (1.0 - cfg.beta1 ** t)
        v_hat = self.v / (1.0 - cfg.beta2 ** t)
        return cfg.eta * m_hat / (np.sqrt(v_hat) + cfg.eps)


@dataclass
class GaloreState(OptimizerState):
    window: list = field(default_factory=list)  # the last tau gradients
    basis: np.ndarray | None = None

    def update(self, g: np.ndarray, cfg: GaloreConfig) -> np.ndarray:
        """SGD on g projected onto a basis of recent gradients.

        The basis is the top-k left singular subspace of a window of the
        last `tau` gradients, refreshed every `tau` steps; no residual is
        kept, so whatever the projection drops is simply lost.  k >= d
        short-circuits to the identity.
        """
        self.window.append(g)
        if len(self.window) > cfg.tau:
            self.window.pop(0)
        if cfg.k < self.theta.shape[0]:
            if self.step % cfg.tau == 0:
                u, _, _ = np.linalg.svd(np.column_stack(self.window),
                                        full_matrices=False)
                self.basis = u[:, :min(cfg.k, u.shape[1])]
            g = self.basis @ (self.basis.T @ g)
        return super().update(g, cfg)


@dataclass
class GradLiteState(OptimizerState):
    factor: LowRankFactor | None = None  # every block's, packed (`lowrank.factorize`)
    r: np.ndarray | None = None  # the accumulator, length d; None under a mode without a rule


@dataclass(frozen=True)
class SgdConfig:
    """The learning rate, which every other optimizer's config extends.

    The ClassVars say how a run goes: its state class, its `init` and `step`
    by name (looked up in this module as each run starts, so that a wrapper
    installed here is called) and its `memory_counts` row.
    """

    state: ClassVar[type] = OptimizerState
    init: ClassVar[str] = "init_state"
    step: ClassVar[str] = "exact_step"
    ledger: ClassVar[str] = "exact-sgd"
    eta: float = 0.05

    def __post_init__(self):
        check_hyperparams(**{k: v for k, v in vars(self).items() if k != "seed"})

    @classmethod
    def defaults(cls) -> dict:
        """Every field's default but the seed, which the run seed sets."""
        return {f.name: f.default for f in fields(cls) if f.name != "seed"}


@dataclass(frozen=True)
class AdamConfig(SgdConfig):
    state: ClassVar[type] = AdamState
    ledger: ClassVar[str] = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


@dataclass(frozen=True)
class GaloreConfig(SgdConfig):
    state: ClassVar[type] = GaloreState
    ledger: ClassVar[str] = "galore"
    k: int = 8
    tau: int = 10


@dataclass(frozen=True)
class GradLiteConfig(SgdConfig):
    state: ClassVar[type] = GradLiteState
    init: ClassVar[str] = "init_gradlite_state"
    step: ClassVar[str] = "gradlite_step"
    ledger: ClassVar[str] = "gradlite"
    k: int = 8
    tau: int = 10
    ef_mode: str = "ef-standard"
    basis_mode: str = "svd"
    seed: int = 0  # seeds a random-projection basis


class StepTrace(NamedTuple):
    """What one step read and applied, each vector of length d."""

    g_tilde: np.ndarray | None  # approximate gradient, length d; None if exact
    g_hat: np.ndarray        # gradient the update rule read; g~ without a feedback rule
    big_delta: np.ndarray | None = None  # exact residual g - g~; None without a rule
    r: np.ndarray | None = None  # accumulator after the step; None under a mode without a rule

    @property
    def g(self) -> np.ndarray | None:
        """The gradient the step read: g_hat for an exact step, the probed
        gradient g~ + D under a feedback rule, None without one."""
        if self.g_tilde is None:
            return self.g_hat
        return None if self.big_delta is None else self.g_tilde + self.big_delta


def _check_theta(theta: np.ndarray, step: int):
    """Raise DivergedError unless every entry of theta is within DIVERGENCE_CAP.

    The computed sum of squares is at least about max theta_i**2 (1 - d u),
    so passing the one-dot test bounds every entry near CAP/2 and the
    exact test would pass too.  NaN, an infinity or an overflowing square
    fails it and falls through to the exact max-abs test, in which a NaN
    propagates through the max and fails the comparison.  `np.vdot`, unlike
    `ndarray.dot`, reads no floating-point flags, so it never warns.
    """
    if np.vdot(theta, theta) <= _FAST_THETA_BOUND:
        return
    if not np.maximum.reduce(np.absolute(theta)) <= DIVERGENCE_CAP:
        raise DivergedError(step, "theta")


def _descend(state: OptimizerState, update: np.ndarray):
    """theta - update, checked, becomes the new iterate.

    theta is a new array at every step, because callers and problem caches
    may hold the old one; theta_sum belongs to the state, so it is added to
    in place.
    """
    theta_new = state.theta - update
    _check_theta(theta_new, state.step)
    state.theta = theta_new
    state.step += 1
    state.theta_sum += theta_new


def init_state(problem: Problem, theta0=None, cfg=None) -> OptimizerState:
    """The step-0 state of cfg's state class (SGD's for no cfg)."""
    theta = problem.default_theta0() if theta0 is None else np.array(theta0, dtype=np.float64)
    if theta.shape != (problem.d,):
        raise ConfigError(f"theta0 length {theta.shape} != problem dimension {problem.d}")
    return (OptimizerState if cfg is None else cfg.state)(theta=theta)


def check_rank(m: int, block_dims, k: int):
    """Raise ConfigError if rank k exceeds min(m, d_block) for some block.

    It takes a problem's shape, not the problem, so a spec is checked before
    its problem is built; a dimension below 1 is left to the maker's check.
    """
    for b, width in enumerate(block_dims):
        cap = min(m, width)
        if 1 <= cap < k:
            raise ConfigError(f"rank {k} exceeds min(m, d_block)={cap} for block {b}")


def _factor(problem: Problem, theta: np.ndarray, cfg: GradLiteConfig,
            held: LowRankFactor | None) -> LowRankFactor:
    """The factor of the J at theta: `held` if it was built from that very
    read-only array (held weakly) at cfg's width (k per block), else a new
    factorization of it.  The caller vouches for a held factor's basis."""
    j = problem.jacobian(theta)
    if held is not None and j is held.source() and not j.flags.writeable \
            and held.u.shape[1] == cfg.k * problem.blocks:
        return held
    return factorize(j, cfg.k, cfg.basis_mode, cfg.seed, problem.block_dims)


def init_gradlite_state(problem: Problem, theta0, cfg: GradLiteConfig,
                        factor: LowRankFactor | None = None) -> GradLiteState:
    """Validate the rank per block and build the step-0 factor.

    A handed `factor` of the very Jacobian at theta0 is kept (`_factor`),
    so runs on one constant J can share one factor (`harness.rate_sweep`).
    """
    check_rank(problem.m, problem.block_dims, cfg.k)
    state = init_state(problem, theta0, cfg)
    state.factor = _factor(problem, state.theta, cfg, factor)
    if EF_MODES[cfg.ef_mode] is not None:
        state.r = np.zeros(problem.d)
    return state


def gradlite_step(state: GradLiteState, problem: Problem,
                  cfg: GradLiteConfig) -> tuple[GradLiteState, StepTrace]:
    """One full update: signal, projection, correction, residual, descent.

    The factor is refreshed at steps tau, 2 tau, ... from the whole J,
    unless J is the very read-only array it was built from; J is read at
    those steps only, in every ef_mode.  The rest works on whole vectors,
    with one exact probe `problem.probe(theta, delta)` per step when the
    state keeps an accumulator r (a mode without a rule reads none).  The
    descent applies the state's update rule to g_hat (g~ without r).

    The one divergence check is on the new theta: a non-finite entry of
    delta, g~ or g^ reaches it through every update rule.  When it fails,
    the DivergedError names the first non-finite one of "delta",
    "g_tilde" and "g_hat", in that order, or else "theta".
    """
    t = state.step
    theta = state.theta
    delta = problem.error_signal(theta)

    if t > 0 and t % cfg.tau == 0:
        state.factor = _factor(problem, theta, cfg, state.factor)
    g_tilde = approx_gradient(state.factor, delta)
    if state.r is None:
        trace = StepTrace(g_tilde, g_tilde)
    else:
        g_hat = correct(g_tilde, state.r)
        big_delta = estimate_delta(problem, theta, delta, g_tilde)
        state.r = update_accumulator(state.r, big_delta, cfg.ef_mode)
        trace = StepTrace(g_tilde, g_hat, big_delta, state.r)
    try:
        _descend(state, state.update(trace.g_hat, cfg))
    except DivergedError:
        named = (("delta", delta), ("g_tilde", g_tilde), ("g_hat", trace.g_hat))
        what = next((w for w, vec in named if not np.isfinite(vec).all()), "theta")
        raise DivergedError(t, what) from None
    return state, trace


def exact_step(state: OptimizerState, problem: Problem,
               cfg: SgdConfig) -> tuple[OptimizerState, StepTrace]:
    """SGD, Adam or GaLore: descend by the state's rule on the exact gradient
    J^T d, the problem's probe; the step itself reads no J."""
    delta = problem.error_signal(state.theta)
    g = problem.probe(state.theta, delta)
    # Checked before the rule reads it: GaLore's SVD raises on a non-finite g.
    if not np.isfinite(g).all():
        raise DivergedError(state.step, "gradient")
    _descend(state, state.update(g, cfg))
    return state, StepTrace(None, g)


def averaged_iterate(state: OptimizerState) -> np.ndarray:
    """Mean of the post-update iterates seen so far."""
    if state.step == 0:
        raise EmptyRunError("no steps taken yet")
    return state.theta_sum / state.step
