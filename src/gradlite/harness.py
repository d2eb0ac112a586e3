"""Seeded experiments, scalar-count memory ledger, rate fits, ablation.

Everything here is deterministic in (specs, seed): problems, noise, and
random bases are derived from the run seed through fixed salts, and
output files are written with pinned float formatting so reruns are
byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from . import optimizers
from .errors import ConfigError, DivergedError, NonPositiveGapError
from .optimizers import (AdamConfig, GaloreConfig, GradLiteConfig, SgdConfig,
                         averaged_iterate, check_hyperparams, check_rank)
from .problems import (Problem, _mlp_block_dims, finite_difference_gradient,
                       make_gaussian_logistic, make_lowrank_logistic,
                       make_mlp, make_quadratic)
from .linalg import matvec_t
from .lowrank import factorize
from .rng import SplitMix64, derive_seed

_PROBLEM_SALT = 0x4A12_0001
_NOISE_SALT = 0x4A12_0002
_OPT_SALT = 0x4A12_0003
_ABLATION_SALT = 0x4A12_0004
_CHECK_SALT = 0x4A12_0005
_CHECK_SPREAD = 0.5  # scale of a gradient check's normal offset from theta0

ETA_GRID = (1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0)
# variant -> what it changes in the full method's GradLiteConfig
ABLATION_VARIANTS = {
    "full": {},
    "no-error-feedback": {"ef_mode": "off"},
    "random-projection": {"basis_mode": "random-projection"},
}


def write_json(path, payload: dict):
    """Write `payload` as key-sorted, indented JSON ending in a newline."""
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _distinct_seeds(seeds, what: str) -> list:
    """The seeds as sorted ints; ConfigError if there are none or one repeats.

    Sorting makes a result independent of the order the seeds were given in.
    """
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ConfigError(f"{what} needs at least one seed")
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"{what} seeds must be distinct, got {seeds}")
    return sorted(seeds)


# -- spec registries -------------------------------------------------------

PROBLEMS = {
    "quadratic": {"d": 50, "cond": 100.0, "sigma": 0.0},
    "logistic": {"n": 200, "d": 50},
    "lowrank-logistic": {"n": 512, "d": 128, "cond": 1e3},
    "mlp": {"layers": (8, 16, 1), "n": 32},
}


# name -> config class, which says how its runs go; its defaults are the CLI's
OPTIMIZERS = {"gradlite": GradLiteConfig, "sgd": SgdConfig, "adam": AdamConfig,
              "galore": GaloreConfig}


def _as_int(val) -> int:
    """int(val), refusing to truncate a non-integral float."""
    out = int(val)
    if isinstance(val, (float, np.floating)) and out != val:
        raise ValueError(f"{val!r} is not an integer")
    return out


def _resolve(spec: dict, table: dict, kind: str) -> tuple[str, dict]:
    """The spec's name and all its parameters, each cast to its default's type."""
    if "name" not in spec:
        raise ConfigError(f"{kind} spec needs a 'name' key")
    name = spec["name"]
    if name not in table:
        raise ConfigError(f"unknown {kind} {name!r}; choose from {sorted(table)}")
    params = dict(table[name])
    for key, val in spec.items():
        if key == "name":
            continue
        if key not in params:
            raise ConfigError(f"unknown key {key!r} for {kind} {name!r}")
        cast = type(params[key])
        try:
            if cast is tuple:
                params[key] = tuple(_as_int(w) for w in val)
            elif cast is int:
                params[key] = _as_int(val)
            else:
                params[key] = cast(val)
        except (TypeError, ValueError, OverflowError) as err:
            raise ConfigError(f"{kind} {name!r}: bad {key} {val!r}") from err
    return name, params


def _problem_shape(spec: dict) -> tuple[int, tuple]:
    """m and the block widths of the problem `build_problem(spec, ...)` builds."""
    name, p = _resolve(spec, PROBLEMS, "problem")
    if name == "mlp":
        return p["n"], _mlp_block_dims(p["layers"])
    return p.get("n", p["d"]), (p["d"],)


def build_problem(spec: dict, seed: int) -> Problem:
    """Instantiate the named problem; its data derives from the run seed."""
    name, params = _resolve(spec, PROBLEMS, "problem")
    # Looked up at each call, so a patched `harness.make_*` is the one called.
    maker = {"quadratic": make_quadratic, "logistic": make_gaussian_logistic,
             "lowrank-logistic": make_lowrank_logistic, "mlp": make_mlp}[name]
    return maker(**params, seed=derive_seed(seed, _PROBLEM_SALT))


def validate_optimizer(spec: dict) -> tuple[str, SgdConfig]:
    """The spec's name and config."""
    name, p = _resolve(spec, {n: c.defaults() for n, c in OPTIMIZERS.items()},
                       "optimizer")
    return name, OPTIMIZERS[name](**p)


def _drive(problem: Problem, cfg: SgdConfig, steps: int, seed: int, record=None,
           factor=None):
    """The one loop that advances an optimizer: seed the run, init, step.

    The run seed sets the problem's noise and, in place of `cfg.seed`, a
    GradLite basis seed.  A `factor` goes to the GradLite init, which keeps
    it if it fits (`optimizers.init_gradlite_state`).  `record(state,
    trace)` takes each step's new state and StepTrace; a DivergedError
    reaches the caller.  The steps run with numpy's overflow and
    invalid-value warnings off: an overflow inside a run is data, which the
    divergence check reports.
    """
    if isinstance(cfg, GradLiteConfig):
        cfg = replace(cfg, seed=derive_seed(seed, _OPT_SALT))
    problem.reset_noise(derive_seed(seed, _NOISE_SALT))
    init = getattr(optimizers, cfg.init)
    state = init(problem, None, cfg) if factor is None else init(problem, None, cfg, factor)
    step = getattr(optimizers, cfg.step)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            state, trace = step(state, problem, cfg)
            if record is not None:
                record(state, trace)
    return state


# -- per-step metrics -------------------------------------------------------

@dataclass(frozen=True)
class StepRecord:
    step: int
    loss: float
    gap: float
    g_norm: float
    gtilde_norm: float
    r_norm: float
    delta_norm: float
    bwd_scalars: float
    opt_scalars: float


CSV_HEADER = ",".join(f.name for f in fields(StepRecord))
# One CSV row: the step, then each other field as "%.17g", which writes a
# float exactly as format(x, ".17g") does (`test_percent_g_is_format_g`).
_CSV_ROW = "%d" + ",%.17g" * (len(fields(StepRecord)) - 1) + "\n"


@dataclass
class RunMetrics:
    problem_spec: dict
    optimizer_spec: dict
    steps: int
    seed: int
    initial_loss: float
    records: list[StepRecord] = field(default_factory=list)
    diverged: bool = False
    diverged_step: int | None = None
    # None when no reference optimum is known; every gap is then NaN.
    loss_star: float | None = None

    @property
    def final_loss(self) -> float:
        return self.records[-1].loss if self.records else self.initial_loss

    @property
    def final_gap(self) -> float:
        return self.records[-1].gap if self.records else float("nan")

    def write_csv(self, path):
        with open(path, "w", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            fh.writelines(_CSV_ROW % tuple(vars(r).values()) for r in self.records)

    def summary_dict(self) -> dict:
        return {
            "problem": dict(self.problem_spec),
            "optimizer": dict(self.optimizer_spec),
            "steps": self.steps,
            "seed": self.seed,
            "initial_loss": self.initial_loss,
            "final_loss": self.final_loss,
            "final_gap": self.final_gap,
            "completed_steps": len(self.records),
            "diverged": self.diverged,
            "diverged_step": self.diverged_step,
        }

    def write_summary(self, path):
        write_json(path, self.summary_dict())


def _norm(vec) -> float:
    """||vec|| of a 1-d float64 vector, as np.linalg.norm computes it."""
    return math.sqrt(vec.dot(vec)) if vec is not None else float("nan")


def run_experiment(problem_spec: dict, optimizer_spec: dict, steps: int,
                   seed: int) -> RunMetrics:
    """Drive one seeded run, recording the full per-step time series.

    Divergence is data: the series is truncated at the diverging step and
    flagged, never raised past this function.
    """
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    opt_name, cfg = validate_optimizer(optimizer_spec)
    if isinstance(cfg, GradLiteConfig):  # checked before the problem is built
        check_rank(*_problem_shape(problem_spec), cfg.k)
    problem = build_problem(problem_spec, seed)

    mem = memory_counts(problem.m, problem.d, k=getattr(cfg, "k", None),
                        tau=getattr(cfg, "tau", None))[cfg.ledger]
    bwd = mem.activation + mem.signal + mem.factor

    # The optimizer as run: every config field, defaults included, but the seed.
    resolved = {k: v for k, v in vars(cfg).items() if k != "seed"}
    metrics = RunMetrics(problem_spec=dict(problem_spec),
                         optimizer_spec={"name": opt_name, **resolved}, steps=steps,
                         seed=seed, initial_loss=problem.loss(problem.default_theta0()),
                         loss_star=problem.loss_star)

    def record(state, trace):
        # The new iterate's loss last: the next step's signal reads the same
        # iterate, and a problem caches its latest evaluation.
        if problem.loss_star is not None:
            gap = problem.loss(averaged_iterate(state)) - problem.loss_star
        else:
            gap = float("nan")
        loss = problem.loss(state.theta)
        metrics.records.append(StepRecord(
            step=state.step, loss=loss, gap=gap, g_norm=_norm(trace.g),
            gtilde_norm=_norm(trace.g_tilde), r_norm=_norm(trace.r),
            delta_norm=_norm(trace.big_delta), bwd_scalars=bwd,
            opt_scalars=(0 if trace.r is None else mem.accumulator) + mem.optimizer_state))

    try:
        _drive(problem, cfg, steps, seed, record)
    except DivergedError as err:
        metrics.diverged = True
        metrics.diverged_step = err.step
    return metrics


# -- scalar-count memory ledger ---------------------------------------------

class MethodMemory(NamedTuple):
    """Float64 slots a method must retain per optimization step.

    Parameters themselves are excluded (common to every method); transient
    per-element streams are not counted.  The exact-backprop baseline holds
    the forward activation cache (m) plus the backward error signal (m);
    the low-rank method holds only the k-dim compressed signal, the factor
    pair amortized over its refresh period, and the residual accumulator.
    The row does not price the exact probe, though a feedback rule (the
    default) reads `J^T d` at every step (`Problem.probe`) and so holds the
    activation cache and the m-vector signal, not J; ROADMAP item 1 asks
    the ledger to charge it.  Nor does it price the J that the init and
    each refresh materialize.  `run` prices the accumulator only on a step
    whose trace carries an `r`; a mode without a rule keeps none.
    """

    activation: float
    signal: float
    factor: float
    accumulator: float
    optimizer_state: float

    @property
    def total(self) -> float:
        return sum(self)


def memory_counts(m: int, d: int, k: int | None = None,
                  tau: int | None = None) -> dict[str, MethodMemory]:
    if m < 1 or d < 1:
        raise ConfigError(f"dims m={m}, d={d} must be >= 1")
    try:
        out = {
            "exact-sgd": MethodMemory(m, m, 0, 0, 0),
            "adam": MethodMemory(m, m, 0, 0, 2 * d),
        }
        if k is not None and tau is not None:
            check_hyperparams(k=k, tau=tau)
            out["galore"] = MethodMemory(m, m, d * k, 0, d * tau)
            out["gradlite"] = MethodMemory(0, k, (m + d) * k / tau, d, 0)
        finite = all(math.isfinite(mm.total) for mm in out.values())
    except OverflowError:  # an integer count too large for a float
        finite = False
    if not finite:
        raise ConfigError(f"m={m}, d={d}, k={k}, tau={tau}: a ledger total "
                          "is not a finite float")
    return out


@dataclass(frozen=True)
class MemoryReport:
    m: int
    d: int
    k: int
    tau: int
    methods: dict

    @property
    def signal_ratio(self) -> float:
        return self.methods["gradlite"].signal / self.methods["exact-sgd"].signal

    def savings_vs_exact(self) -> float:
        return 1.0 - self.methods["gradlite"].total / self.methods["exact-sgd"].total

    def to_dict(self) -> dict:
        return {
            "m": self.m, "d": self.d, "k": self.k, "tau": self.tau,
            "methods": {name: {**mm._asdict(), "total": mm.total}
                        for name, mm in self.methods.items()},
            "signal_ratio": self.signal_ratio,
            "gradlite_savings_vs_exact": self.savings_vs_exact(),
        }

    def to_text(self) -> str:
        lines = [f"scalar counts per step (m={self.m}, d={self.d}, "
                 f"k={self.k}, tau={self.tau}); parameters excluded",
                 f"{'method':<12}{'activation':>11}{'signal':>9}{'factor':>9}"
                 f"{'accum':>7}{'opt':>7}{'total':>10}"]
        for name, mm in self.methods.items():
            lines.append(f"{name:<12}{mm.activation:>11g}{mm.signal:>9g}"
                         f"{mm.factor:>9g}{mm.accumulator:>7g}"
                         f"{mm.optimizer_state:>7g}{mm.total:>10g}")
        lines.append(f"signal ratio gradlite/exact: {self.signal_ratio:g}")
        saving = self.savings_vs_exact()
        lines.append(f"gradlite total vs exact-backprop: {100.0 * abs(saving):.1f}% "
                     f"{'lower' if saving >= 0.0 else 'higher'}")
        return "\n".join(lines) + "\n"


def memory_report(m: int, d: int, k: int, tau: int) -> MemoryReport:
    methods = memory_counts(m, d, k=k, tau=tau)
    check_rank(m, (d,), k)
    return MemoryReport(m=m, d=d, k=k, tau=tau, methods=methods)


# -- convergence-rate fit ----------------------------------------------------

@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    error_floor: float
    r_squared: float
    t_grid: tuple
    mean_gaps: tuple
    c: float
    k: int | None  # the config's rank; None for one without a rank (SGD, Adam)


def _rate_grid(t_grid, seeds, c: float) -> tuple[list, list]:
    """The T grid and seeds, sorted; ConfigError unless they and c fit a rate fit."""
    t_grid = sorted(int(t) for t in t_grid)
    if len(set(t_grid)) < 4:
        raise ConfigError("rate fit needs at least 4 distinct values of T")
    if len(set(t_grid)) < len(t_grid):
        raise ConfigError(f"rate fit values of T must be distinct, got {t_grid}")
    if t_grid[0] < 1:
        raise ConfigError(f"rate fit values of T must be >= 1, got {t_grid}")
    if not (np.isfinite(c) and c > 0.0):
        raise ConfigError(f"c must be finite and > 0, got {c!r}")
    return t_grid, _distinct_seeds(seeds, "rate fit")


def rate_check(problem: Problem, cfg: SgdConfig, t_grid, seeds, c: float,
               reference: tuple | None = None, factor=None) -> RateFit:
    """Fit the log-log slope of cfg's averaged-iterate gap over a T grid.

    Every run drives the one given problem, built with `build_problem(spec,
    0)`: it holds no run state but its noise stream, which each run resets
    from its seed.  So runs differ only in their noise and, for a
    random-projection basis, in the basis seed `_drive` derives from it.
    cfg runs at the learning rate c / sqrt(T) at each grid point; gaps are
    averaged over the seeds.  The error floor is the excess of the
    largest-T gap over a fitted trend: by default this config's own fit,
    or, when `reference` = (slope, intercept) is given, an external trend
    (the exact method's fit), which measures the bias plateau directly
    even when this config's own curve is flat.  A `factor` is handed to
    every run's init (`_drive`).  A diverging run raises a DivergedError
    that names the rank (or, for a config without one, its ledger row), T
    and seed.
    """
    t_grid, seeds = _rate_grid(t_grid, seeds, c)
    if problem.loss_star is None:
        raise NonPositiveGapError(f"problem {problem.name!r} has no known optimal loss")
    k = getattr(cfg, "k", None)
    method = cfg.ledger if k is None else f"rank {k}"
    mean_gaps = []
    for t_steps in t_grid:
        run_cfg = replace(cfg, eta=float(c / np.sqrt(t_steps)))
        gaps = []
        for seed in seeds:
            try:
                state = _drive(problem, run_cfg, t_steps, seed, factor=factor)
            except DivergedError as err:
                raise DivergedError(err.step, err.what,
                                    run=f"{method}, T {t_steps}, seed {seed}") from err
            gaps.append(problem.loss(averaged_iterate(state)) - problem.loss_star)
        mean_gaps.append(float(np.mean(gaps)))
    xs = np.log10(np.asarray(t_grid, dtype=np.float64))
    ys = np.log10(np.maximum(np.asarray(mean_gaps), 1e-300))
    slope, intercept = np.polyfit(xs, ys, 1)
    fit = intercept + slope * xs
    ss_res = float(np.sum((ys - fit) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    ref_slope, ref_intercept = reference if reference is not None \
        else (float(slope), float(intercept))
    floor = mean_gaps[-1] - 10.0 ** (ref_intercept + ref_slope * xs[-1])
    return RateFit(slope=float(slope), intercept=float(intercept),
                   error_floor=float(floor), r_squared=r_squared,
                   t_grid=tuple(t_grid), mean_gaps=tuple(mean_gaps),
                   c=float(c), k=k)


def rate_sweep(t_grid=(400, 1600, 6400, 25600), seeds=(0, 1, 2, 3, 4),
               k_grid=(2, 8, 32, 50), c: float = 0.3, d: int = 50,
               cond: float = 100.0, sigma: float = 0.5) -> dict:
    """Rate fits and bias floors for a rank sweep on the noisy quadratic.

    The slope comes from the full-rank fit, where the residual is zero
    and the feedback loop is inert.  The per-rank floors come from runs
    with the feedback disabled (where the factor's bias is permanent, the
    regime in which the plateau is observable at all) measured against
    the full-rank trend; with feedback on, the floors collapse toward
    zero, which the ef-standard comparison entry documents.

    One quadratic serves every fit.  Its Jacobian is one constant
    read-only array, so before the first run the sweep builds each rank's
    svd factor of it, all through one memo of its Gram eigenvectors (one
    eigh for the sweep; the square J's rows are its short side, so a rank
    costs one product J^T U and no QR), and hands it to every run of that
    rank, which keeps it (`optimizers.init_gradlite_state`).  Its
    optimum is zero, so each step's signal skips the subtraction of it
    (`QuadraticProblem`).  A factor is the exact top-k SVD of the
    Jacobian, so a floor prices the rank-k truncation bias alone.  The
    configs, each rank against the d x d Jacobian, and the seeds, T grid
    and c are all checked before the quadratic is built.
    """
    if not k_grid:
        raise ConfigError("rate sweep needs at least one rank")
    ranks = [int(k) for k in k_grid]
    if len(set(ranks)) < len(ranks):
        raise ConfigError(f"rate sweep ranks must be distinct, got {ranks}")
    t_grid, seeds = _rate_grid(t_grid, seeds, c)
    no_feedback = {k: GradLiteConfig(k=k, ef_mode="off") for k in ranks}
    for k in ranks:
        check_rank(d, (d,), k)
    spec = {"name": "quadratic", "d": d, "cond": cond, "sigma": sigma}
    problem = build_problem(spec, seed=0)
    # Built once the quadratic's maker has refused a bad d, and before the
    # first step, so a tracer books them to set-up, not to a refresh.
    j, gram_vecs = problem.jacobian(problem.default_theta0()), [None]
    factors = {k: factorize(j, k, "svd", 0, problem.block_dims, gram_vecs)
               for k in sorted({*ranks, d})}
    full = rate_check(problem, GradLiteConfig(k=d, ef_mode="off"), t_grid, seeds, c,
                      factor=factors[d])
    ref = (full.slope, full.intercept)
    fits = {k: full if k == d else rate_check(problem, cfg, t_grid, seeds, c,
                                              reference=ref, factor=factors[k])
            for k, cfg in no_feedback.items()}
    mid_k = sorted(ranks)[1] if len(ranks) > 1 else ranks[0]
    # GradLiteConfig's default: ef-standard feedback, which reads the exact probe.
    with_feedback = rate_check(problem, GradLiteConfig(k=mid_k), t_grid, seeds, c,
                               reference=ref, factor=factors[mid_k])
    return {
        "problem": spec, "c": c, "t_grid": list(full.t_grid), "seeds": seeds,
        "fits": {str(k): asdict(f) for k, f in fits.items()},
        "full_rank_slope": full.slope,
        "error_floors": {str(k): fits[k].error_floor for k in ranks},
        "ef_comparison": {"k": mid_k,
                          "floor_no_feedback": fits[mid_k].error_floor,
                          "floor_ef_standard": with_feedback.error_floor},
    }


# -- ablation ---------------------------------------------------------------

@dataclass(frozen=True)
class AblationRow:
    variant: str
    seed: int
    final_loss: float
    final_gap: float
    diverged: bool


@dataclass(frozen=True)
class AblationResult:
    rows: tuple
    eta: float

    def write_csv(self, path):
        with open(path, "w", newline="\n") as fh:
            fh.write("variant,seed,final_loss,final_gap\n")
            fh.writelines("%s,%d,%.17g,%.17g\n" % (r.variant, r.seed, r.final_loss, r.final_gap)
                          for r in self.rows)

    def by_seed(self) -> dict:
        out: dict[int, dict[str, AblationRow]] = {}
        for r in self.rows:
            out.setdefault(r.seed, {})[r.variant] = r
        return out


def _final_loss_of(problem: Problem, cfg: SgdConfig, steps: int, seed: int):
    try:
        state = _drive(problem, cfg, steps, seed)
    except DivergedError:
        return float("inf"), True
    return problem.loss(state.theta), False


def _ablation_problem(seed: int, n: int, d: int, cond: float) -> Problem:
    return make_lowrank_logistic(n, d, cond,
                                 seed=derive_seed(seed, _ABLATION_SALT))


def tune_eta(problem: Problem, cfg: SgdConfig, seed: int, steps: int) -> float:
    """The ETA_GRID learning rate at which cfg's run of `steps` steps on
    seed `seed` ends at the lowest loss."""
    best_eta, best_loss = None, float("inf")
    for eta in ETA_GRID:
        loss, _ = _final_loss_of(problem, replace(cfg, eta=eta), steps, seed)
        if loss < best_loss:
            best_eta, best_loss = float(eta), loss
    if best_eta is None:
        raise ConfigError("every learning rate on the tuning grid diverged")
    return best_eta


def ablation_suite(seeds=(0, 1, 2), steps: int = 3000, k: int = 8,
                   tau: int = 10, n: int = 512, d: int = 128,
                   cond: float = 1e3, eta: float | None = None) -> AblationResult:
    """Full method vs no-feedback vs static random basis, paired by seed."""
    seeds = _distinct_seeds(seeds, "ablation")
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    # The full method's config and the rank, against the n x d Jacobian,
    # are checked before the first problem and its optimum are built.
    full = GradLiteConfig(k=k, tau=tau, **({} if eta is None else {"eta": eta}))
    check_rank(n, (d,), k)
    # One problem per seed serves the tuning and every variant: it holds no
    # state but its noise stream, which _final_loss_of resets for each run.
    problems = {seed: _ablation_problem(seed, n, d, cond) for seed in seeds}
    if eta is None:
        full = replace(full, eta=tune_eta(problems[seeds[0]], full, seeds[0], steps))
    rows = []
    for variant, overrides in ABLATION_VARIANTS.items():
        cfg = replace(full, **overrides)
        for seed in seeds:
            problem = problems[seed]
            loss, diverged = _final_loss_of(problem, cfg, steps, seed)
            gap = loss - problem.loss_star if problem.loss_star is not None \
                else float("nan")
            rows.append(AblationRow(variant=variant, seed=seed,
                                    final_loss=loss, final_gap=gap,
                                    diverged=diverged))
    return AblationResult(rows=tuple(rows), eta=full.eta)


# -- gradient checks ----------------------------------------------------------

@dataclass(frozen=True)
class CheckRow:
    problem: str
    block: int
    check: str
    max_rel_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol


@dataclass(frozen=True)
class GradCheckReport:
    rows: tuple

    @property
    def total_checks(self) -> int:
        return len(self.rows)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def failures(self) -> list:
        return [r for r in self.rows if not r.passed]

    def to_text(self) -> str:
        lines = []
        for r in self.rows:
            mark = "ok  " if r.passed else "FAIL"
            lines.append(f"{mark} {r.problem} block {r.block} {r.check}: "
                         f"max rel err {r.max_rel_err:.3e} (tol {r.tol:g})")
        lines.append(f"{self.total_checks} checks, "
                     f"{len(self.failures())} failures")
        return "\n".join(lines) + "\n"


def default_check_problems() -> list:
    return [
        make_quadratic(12, 10.0, 0.0, seed=101),
        make_gaussian_logistic(40, 12, seed=102),
        make_mlp([6, 10, 1], 12, seed=103),
        make_mlp([8, 1], 20, seed=104),  # linear net, the least-squares case
    ]


def _check_thetas(problem: Problem, count: int):
    stream = SplitMix64(derive_seed(problem.seed, _CHECK_SALT))
    base = problem.default_theta0()
    return [base + _CHECK_SPREAD * stream.normals(problem.d) for _ in range(count)]


def grad_check_suite(problems=None, chain_draws: int = 100,
                     fd_draws: int = 3) -> GradCheckReport:
    """Chain-rule and finite-difference checks over every problem family."""
    if problems is None:
        problems = default_check_problems()
    rows = []
    for problem in problems:
        fd_tol = 1e-4 if problem.name == "mlp" else 1e-5
        worst = [[0.0] * problem.blocks for _ in range(2)]  # chain rule, then fd
        for i, theta in enumerate(_check_thetas(problem, chain_draws)):
            g = problem.exact_gradient(theta)
            norm_g = float(np.linalg.norm(g))
            # sigma=0 instances: the signal is noiseless.
            diffs = [(matvec_t(problem.jacobian(theta), problem.error_signal(theta)) - g,
                      1.0 + norm_g)]
            if i < fd_draws:
                diffs.append((finite_difference_gradient(problem, theta) - g, max(norm_g, 1e-12)))
            for errs, (diff, scale) in zip(worst, diffs):
                for b, sl in enumerate(problem.block_slices()):
                    errs[b] = max(errs[b], float(np.linalg.norm(diff[sl])) / scale)
        for check, errs, tol in zip(("chain-rule", "finite-difference"), worst, (1e-10, fd_tol)):
            rows.extend(CheckRow(problem=problem.name, block=b, check=check,
                                 max_rel_err=err, tol=tol) for b, err in enumerate(errs))
    return GradCheckReport(rows=tuple(rows))
