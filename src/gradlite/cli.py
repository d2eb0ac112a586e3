"""Command-line harness: run, ablate, rate-check, grad-check, mem-report.

Exit codes are a stable contract: 0 success, 1 a `run` diverged (metrics
still written), 2 usage error, 3 bad configuration, 4 gradient-check
failure, 5 I/O error.  A flat key=value file given via --config supplies
defaults; explicit flags always win.  All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import ConfigError, GradLiteError
from .feedback import PROBES
from .harness import (OPTIMIZERS, PROBLEMS, ablation_suite, grad_check_suite,
                      memory_report, rate_sweep, run_experiment)
from .lowrank import BASIS_MODES
from .optimizers import EF_MODES

# run flags named apart from the spec keys they set
_FLAG_DEST = {"d": "dim", "basis_mode": "basis"}


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints: {text!r}") from err


def _per_problem(key: str) -> str:
    return ", ".join(f"{name} {defaults[key]:g}" for name, defaults in PROBLEMS.items()
                     if key in defaults)


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="gradlite",
        description="Low-rank error-feedback optimizer harness.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    commands = {}

    def add_config(p):
        p.add_argument("--config", default=None, metavar="FILE",
                       help="flat key=value file supplying defaults; "
                            "flags override (default: none)")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for all randomness (default: 0)")

    run = sub.add_parser("run", help="one seeded optimization run with CSV metrics")
    add_config(run)
    run.add_argument("--problem", default="quadratic", choices=list(PROBLEMS),
                     help="objective family (default: %(default)s)")
    run.add_argument("--dim", type=int, default=None,
                     help=f"parameter dimension (default: per problem; {_per_problem('d')})")
    run.add_argument("--n", type=int, default=None,
                     help="sample count for data problems "
                          f"(default: per problem; {_per_problem('n')})")
    run.add_argument("--cond", type=float, default=None,
                     help=f"condition number (default: {_per_problem('cond')})")
    run.add_argument("--sigma", type=float, default=None,
                     help="error-signal noise scale, quadratic only "
                          f"(default: {PROBLEMS['quadratic']['sigma']:g})")
    run.add_argument("--layers", type=_int_list, default=None,
                     help="mlp widths as comma list "
                          f"(default: {','.join(map(str, PROBLEMS['mlp']['layers']))})")
    gradlite, adam = OPTIMIZERS["gradlite"].defaults, OPTIMIZERS["adam"].defaults
    run.add_argument("--opt", default="gradlite", choices=list(OPTIMIZERS),
                     help="optimizer (default: %(default)s)")
    run.add_argument("--eta", type=float, default=gradlite["eta"],
                     help="learning rate (default: %(default)s)")
    run.add_argument("--k", type=int, default=gradlite["k"],
                     help="rank for gradlite/galore (default: %(default)s)")
    run.add_argument("--tau", type=int, default=gradlite["tau"],
                     help="factor refresh period (default: %(default)s)")
    run.add_argument("--ef-mode", default=gradlite["ef_mode"], choices=EF_MODES,
                     help="feedback accumulator rule (default: %(default)s)")
    run.add_argument("--probe", default=gradlite["probe"], choices=PROBES,
                     help="residual estimator (default: %(default)s)")
    run.add_argument("--basis", default=gradlite["basis_mode"], choices=BASIS_MODES,
                     help="factor basis mode (default: %(default)s)")
    run.add_argument("--beta1", type=float, default=adam["beta1"],
                     help="adam first-moment decay (default: %(default)s)")
    run.add_argument("--beta2", type=float, default=adam["beta2"],
                     help="adam second-moment decay (default: %(default)s)")
    run.add_argument("--eps", type=float, default=adam["eps"],
                     help="adam denominator floor (default: %(default)s)")
    run.add_argument("--steps", type=int, default=1000,
                     help="number of optimization steps (default: 1000)")
    run.add_argument("--out", required=True, metavar="CSV",
                     help="metrics CSV path (required)")
    run.add_argument("--summary", default=None, metavar="JSON",
                     help="also write a JSON run summary (default: none)")
    commands["run"] = run

    abl = sub.add_parser("ablate", help="full vs no-feedback vs random basis")
    add_config(abl)
    abl.add_argument("--seeds", type=_int_list, default=[0, 1, 2],
                     help="comma list of seeds (default: 0,1,2)")
    abl.add_argument("--steps", type=int, default=3000,
                     help="steps per run (default: 3000)")
    abl.add_argument("--k", type=int, default=8, help="rank (default: 8)")
    abl.add_argument("--tau", type=int, default=10,
                     help="refresh period (default: 10)")
    abl.add_argument("--n", type=int, default=512,
                     help="benchmark sample count (default: 512)")
    abl.add_argument("--dim", type=int, default=128,
                     help="benchmark dimension (default: 128)")
    abl.add_argument("--cond", type=float, default=1e3,
                     help="benchmark condition number (default: 1000)")
    abl.add_argument("--eta", type=float, default=None,
                     help="learning rate; omit to tune on the full variant "
                          "(default: auto-tune)")
    abl.add_argument("--out", required=True, metavar="CSV",
                     help="ablation table path (required)")
    commands["ablate"] = abl

    rate = sub.add_parser("rate-check", help="log-log rate fit over a T grid")
    add_config(rate)
    rate.add_argument("--t-grid", type=_int_list, default=[400, 1600, 6400, 25600],
                      help="comma list of step counts "
                           "(default: 400,1600,6400,25600)")
    rate.add_argument("--seeds", type=_int_list, default=[0, 1, 2, 3, 4],
                      help="comma list of seeds (default: 0,1,2,3,4)")
    rate.add_argument("--k-grid", type=_int_list, default=[2, 8, 32, 50],
                      help="ranks to sweep (default: 2,8,32,50)")
    rate.add_argument("--c", type=float, default=0.3,
                      help="learning-rate constant, eta = c/sqrt(T) "
                           "(default: 0.3)")
    rate.add_argument("--dim", type=int, default=50,
                      help="quadratic dimension (default: 50)")
    rate.add_argument("--cond", type=float, default=100.0,
                      help="quadratic condition number (default: 100)")
    rate.add_argument("--sigma", type=float, default=0.5,
                      help="error-signal noise scale (default: 0.5)")
    rate.add_argument("--out", required=True, metavar="JSON",
                      help="rate-fit report path (required)")
    commands["rate-check"] = rate

    chk = sub.add_parser("grad-check",
                         help="chain-rule and finite-difference oracles")
    add_config(chk)
    commands["grad-check"] = chk

    mem = sub.add_parser("mem-report", help="exact scalar-count memory ledger")
    add_config(mem)
    mem.add_argument("--m", type=int, default=1000,
                     help="error-signal dimension (default: 1000)")
    mem.add_argument("--d", type=int, default=200,
                     help="parameter dimension (default: 200)")
    mem.add_argument("--k", type=int, default=8, help="rank (default: 8)")
    mem.add_argument("--tau", type=int, default=10,
                     help="refresh period (default: 10)")
    mem.add_argument("--out", default=None, metavar="JSON",
                     help="write the ledger as JSON instead of text "
                          "(default: print to stdout)")
    commands["mem-report"] = mem
    return parser, commands


def load_config_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def _apply_config(command: str, path: str, argv: list) -> argparse.Namespace:
    overrides = load_config_file(path)
    parser, commands = build_parser()
    sub = commands[command]
    actions = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
    mapped = {}
    for key, raw in overrides.items():
        dest = key.replace("-", "_")
        if dest not in actions:
            raise ConfigError(f"{path}: unknown key {key!r} for {command!r}")
        action = actions[dest]
        try:
            value = action.type(raw) if action.type is not None else raw
        except (ValueError, argparse.ArgumentTypeError) as err:
            raise ConfigError(f"{path}: {key}={raw!r}: {err}") from err
        if action.choices is not None and value not in action.choices:
            raise ConfigError(f"{path}: {key}={raw!r} not in {sorted(action.choices)}")
        mapped[dest] = value
    sub.set_defaults(**mapped)
    return parser.parse_args(argv)


def _spec(ns: argparse.Namespace, name: str, keys) -> dict:
    """The spec for `name` from the run flags that set `keys`."""
    picks = {key: getattr(ns, _FLAG_DEST.get(key, key)) for key in keys}
    return {"name": name, **{k: v for k, v in picks.items() if v is not None}}


def _write_json(path: str, payload: dict):
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_writable(path: str):
    """Raise the OSError that writing `path` would, and leave no new file behind."""
    existed = os.path.lexists(path)
    with open(path, "a"):
        pass
    if not existed:
        os.remove(path)


def dispatch(ns: argparse.Namespace) -> int:
    # Every output path is checked before the work, so a bad one costs no run.
    for path in (getattr(ns, "out", None), getattr(ns, "summary", None)):
        if path:
            _check_writable(path)

    if ns.command == "run":
        metrics = run_experiment(_spec(ns, ns.problem, PROBLEMS[ns.problem]),
                                 _spec(ns, ns.opt, OPTIMIZERS[ns.opt].defaults),
                                 ns.steps, ns.seed)
        metrics.write_csv(ns.out)
        if ns.summary:
            metrics.write_summary(ns.summary)
        if metrics.loss_star is None:
            print(f"gap: nan, no reference optimum is known for problem {ns.problem!r}")
        status = "diverged" if metrics.diverged else "done"
        print(f"{status}: {len(metrics.records)}/{ns.steps} steps, "
              f"final loss {metrics.final_loss:.6g} -> {ns.out}")
        return 1 if metrics.diverged else 0

    if ns.command == "ablate":
        result = ablation_suite(seeds=ns.seeds, steps=ns.steps, k=ns.k,
                                tau=ns.tau, n=ns.n, d=ns.dim, cond=ns.cond,
                                eta=ns.eta)
        result.write_csv(ns.out)
        print(f"eta {result.eta:g}; rows -> {ns.out}")
        for row in result.rows:
            print(f"  {row.variant:<20} seed {row.seed}: "
                  f"loss {row.final_loss:.6g} gap {row.final_gap:.6g}")
        return 0

    if ns.command == "rate-check":
        report = rate_sweep(t_grid=ns.t_grid, seeds=ns.seeds, k_grid=ns.k_grid,
                            c=ns.c, d=ns.dim, cond=ns.cond, sigma=ns.sigma)
        _write_json(ns.out, report)
        print(f"full-rank slope {report['full_rank_slope']:.3f}; "
              f"floors {report['error_floors']} -> {ns.out}")
        return 0

    if ns.command == "grad-check":
        report = grad_check_suite()
        sys.stdout.write(report.to_text())
        return 0 if report.passed else 4

    report = memory_report(ns.m, ns.d, ns.k, ns.tau)
    if ns.out:
        _write_json(ns.out, report.to_dict())
        print(f"ledger -> {ns.out}")
    else:
        sys.stdout.write(report.to_text())
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        parser, _ = build_parser()
        ns = parser.parse_args(argv)
        if getattr(ns, "config", None):
            ns = _apply_config(ns.command, ns.config, argv)
        return dispatch(ns)
    except OSError as err:
        target = getattr(err, "filename", None) or ""
        print(f"io error: {target}: {err}", file=sys.stderr)
        return 5
    except GradLiteError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
