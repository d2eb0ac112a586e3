"""Command-line harness: run, ablate, rate-check, grad-check, mem-report.

Exit codes are a stable contract: 0 success, 1 a run diverged (`run` still
writes its truncated metrics, `rate-check` writes no report), 2 usage
error, 3 bad configuration (one the process runs out of memory on
included), 4 gradient-check failure, 5 I/O error.  A command takes only
the flags it reads, unabbreviated.  A flat key=value file given via
--config supplies defaults for all but --out; explicit flags always win.
A `run` flag or key that the chosen problem or optimizer does not take
exits 3.  Only `run` takes --seed.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .errors import ConfigError, DivergedError, GradLiteError
from .feedback import EF_MODES
from .harness import (OPTIMIZERS, PROBLEMS, ablation_suite, grad_check_suite,
                      memory_report, rate_sweep, run_experiment, write_json)
from .lowrank import BASIS_MODES

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

    def add_command(name: str, summary: str, config: bool = True):
        p = commands[name] = sub.add_parser(name, help=summary, allow_abbrev=False)
        if config:
            p.add_argument("--config", default=None, metavar="FILE",
                           help="flat key=value file supplying defaults; "
                                "flags override (default: none)")
        return p

    run = add_command("run", "one seeded optimization run with CSV metrics")
    run.add_argument("--seed", type=int, default=0,
                     help="seed for all randomness (default: 0)")
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
    gradlite, adam = OPTIMIZERS["gradlite"].defaults(), OPTIMIZERS["adam"].defaults()
    run.add_argument("--opt", default="gradlite", choices=list(OPTIMIZERS),
                     help="optimizer (default: %(default)s)")
    # No default here: the optimizer's config applies its own.
    run.add_argument("--eta", type=float,
                     help=f"learning rate (default: {gradlite['eta']})")
    run.add_argument("--k", type=int,
                     help=f"rank for gradlite/galore (default: {gradlite['k']})")
    run.add_argument("--tau", type=int,
                     help=f"factor refresh period (default: {gradlite['tau']})")
    run.add_argument("--ef-mode", choices=EF_MODES,
                     help=f"feedback accumulator rule (default: {gradlite['ef_mode']})")
    run.add_argument("--probe", choices=("exact", "none"),
                     help="exact with a feedback rule, none with off (default: --ef-mode's)")
    run.add_argument("--basis", choices=BASIS_MODES,
                     help=f"factor basis mode (default: {gradlite['basis_mode']})")
    run.add_argument("--beta1", type=float,
                     help=f"adam first-moment decay (default: {adam['beta1']})")
    run.add_argument("--beta2", type=float,
                     help=f"adam second-moment decay (default: {adam['beta2']})")
    run.add_argument("--eps", type=float,
                     help=f"adam denominator floor (default: {adam['eps']})")
    run.add_argument("--steps", type=int, default=1000,
                     help="number of optimization steps (default: 1000)")
    run.add_argument("--out", required=True, metavar="CSV",
                     help="metrics CSV path (required)")
    run.add_argument("--summary", default=None, metavar="JSON",
                     help="also write a JSON run summary (default: none)")

    abl = add_command("ablate", "full vs no-feedback vs random basis")
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

    rate = add_command("rate-check", "log-log rate fit over a T grid")
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

    add_command("grad-check", "chain-rule and finite-difference oracles", config=False)

    mem = add_command("mem-report", "exact scalar-count memory ledger")
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
    return parser, commands


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, never changed: `_apply_config` builds its own."""
    return build_parser()[0]


def load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text ({err.reason} at byte {err.start})") from err
    out = {}
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def _apply_config(ns: argparse.Namespace, argv: list) -> argparse.Namespace:
    """Parse `argv` again, on a parser built for this call, with the
    --config file's keys as its command's defaults."""
    parser, commands = build_parser()
    path, sub = ns.config, commands[ns.command]
    actions = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
    for key, raw in load_config_file(path).items():
        dest = key.replace("-", "_")
        if dest not in actions:
            raise ConfigError(f"{path}: unknown key {key!r} for {ns.command!r}")
        action = actions[dest]
        if action.required:
            raise ConfigError(f"{path}: {key} must be given as a flag")
        try:
            value = action.type(raw) if action.type is not None else raw
        except (ValueError, argparse.ArgumentTypeError) as err:
            raise ConfigError(f"{path}: {key}={raw!r}: {err}") from err
        if action.choices is not None and value not in action.choices:
            raise ConfigError(f"{path}: {key}={raw!r} not in {sorted(action.choices)}")
        action.default = value
    return parser.parse_args(argv)


def _spec(ns: argparse.Namespace, name: str, tables) -> dict:
    """`name` and every run flag given that sets a key in `tables`, so that
    `_resolve` refuses a flag that `name` does not take."""
    keys = dict.fromkeys(key for table in tables for key in table)
    picks = {key: getattr(ns, _FLAG_DEST.get(key, key)) for key in keys}
    return {"name": name, **{k: v for k, v in picks.items() if v is not None}}


def _check_probe(ns: argparse.Namespace):
    """Refuse a --probe other than the one --ef-mode runs; it sets nothing."""
    if ns.probe is not None and ns.opt != "gradlite":
        raise ConfigError(f"unknown key 'probe' for optimizer {ns.opt!r}")
    ef_mode = ns.ef_mode or OPTIMIZERS["gradlite"].ef_mode
    if ns.probe not in (None, "none" if EF_MODES[ef_mode] is None else "exact"):
        raise ConfigError(f"probe {ns.probe!r} disagrees with ef_mode {ef_mode!r}")


def _check_writable(path: str):
    """Raise the OSError that writing `path` would, and leave no new file behind."""
    existed = os.path.lexists(path)
    with open(path, "a"):
        pass
    if not existed:
        os.remove(path)


def dispatch(ns: argparse.Namespace) -> int:
    # Every output path is checked before the work, so a bad one costs no run.
    out, summary = getattr(ns, "out", None), getattr(ns, "summary", None)
    if summary and os.path.realpath(summary) == os.path.realpath(out):
        raise ConfigError(f"--summary {summary} and --out {out} name the same file")
    for path in (out, summary):
        if path:
            _check_writable(path)

    if ns.command == "run":
        _check_probe(ns)
        metrics = run_experiment(
            _spec(ns, ns.problem, PROBLEMS.values()),
            _spec(ns, ns.opt, [opt.defaults() for opt in OPTIMIZERS.values()]),
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
        try:
            report = rate_sweep(t_grid=ns.t_grid, seeds=ns.seeds, k_grid=ns.k_grid,
                                c=ns.c, d=ns.dim, cond=ns.cond, sigma=ns.sigma)
        except DivergedError as err:
            print(f"diverged: {err.run}, step {err.step}: non-finite or oversized "
                  f"{err.what}; no report written")
            return 1
        write_json(ns.out, report)
        print(f"full-rank slope {report['full_rank_slope']:.3f}; "
              f"floors {report['error_floors']} -> {ns.out}")
        return 0

    if ns.command == "grad-check":
        report = grad_check_suite()
        sys.stdout.write(report.to_text())
        return 0 if report.passed else 4

    report = memory_report(ns.m, ns.d, ns.k, ns.tau)
    if ns.out:
        write_json(ns.out, report.to_dict())
        print(f"ledger -> {ns.out}")
    else:
        sys.stdout.write(report.to_text())
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        ns = _parser().parse_args(argv)
        if getattr(ns, "config", None):
            ns = _apply_config(ns, argv)
        return dispatch(ns)
    except OSError as err:
        target = getattr(err, "filename", None) or ""
        print(f"io error: {target}: {err}", file=sys.stderr)
        return 5
    except GradLiteError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except MemoryError as err:
        # A spec inside every size cap can still need more memory than the
        # process may take: a configuration this machine cannot run.
        print(f"error: out of memory: {str(err) or 'allocation failed'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
