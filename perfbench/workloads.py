"""The three benchmark workloads: command lines, set-up calls and output checks.

Every workload runs the CLI's default optimizer configuration, spelled out
so that a later change of a default cannot silently change the workload:
``--opt gradlite --k 8 --tau 10 --ef-mode ef-standard --probe exact
--basis svd --eta 0.05``.  See ``perfbench/README.md`` for why each one was
chosen and which layer it exercises or bypasses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

GRADLITE = ["--opt", "gradlite", "--k", "8", "--tau", "10", "--ef-mode", "ef-standard",
            "--probe", "exact", "--basis", "svd", "--eta", "0.05"]

LOGISTIC_STEPS = 300
MLP_STEPS = 300
RATE_T_GRID = (25, 50, 100, 200)
RATE_K_GRID = (2, 8, 32, 50)
RATE_DIM = 50


@dataclass(frozen=True)
class Outcome:
    """What one invocation produced, read back from its output files."""

    steps: int
    final_loss: float
    problems: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Seeds one run cycles through; final_loss is their mean.  Several seeds
    # per run keep the run-to-run spread of final_loss small, because the
    # data, and so the loss, differ from seed to seed.
    seeds_per_run: int
    argv: Callable[[int, Path], list]
    outputs: tuple[str, ...]
    check: Callable[[dict], Outcome]
    setup: Callable[[object, int], object]

    def sub_seeds(self, seed: int) -> list[int]:
        return [seed * self.seeds_per_run + i for i in range(self.seeds_per_run)]


def _check_run(files: dict, steps: int) -> Outcome:
    problems = []
    lines = files["run.csv"].decode().splitlines()
    header = lines[0].split(",") if lines else []
    if header[:2] != ["step", "loss"]:
        problems.append(f"csv header {header[:2]} != ['step', 'loss']")
    if len(lines) - 1 != steps:
        problems.append(f"csv has {len(lines) - 1} rows, expected {steps}")
    for i, line in enumerate(lines[1:], 1):
        fields = line.split(",")
        if len(fields) != len(header) or fields[0] != str(i):
            problems.append(f"csv row {i} malformed: {line[:60]!r}")
            break
    summary = json.loads(files["summary.json"])
    if summary.get("diverged") is not False:
        problems.append(f"summary diverged={summary.get('diverged')!r}")
    if summary.get("completed_steps") != steps:
        problems.append(f"summary completed_steps={summary.get('completed_steps')!r}")
    final_loss = summary.get("final_loss")
    if not isinstance(final_loss, float) or not math.isfinite(final_loss):
        problems.append(f"summary final_loss={final_loss!r}")
        final_loss = math.nan
    return Outcome(steps=summary.get("completed_steps") or 0, final_loss=final_loss,
                   problems=tuple(problems))


def _check_rate(files: dict) -> Outcome:
    problems = []
    report = json.loads(files["rate.json"])
    floors = report["error_floors"]
    ranks = sorted(floors, key=int)
    if [int(k) for k in ranks] != list(RATE_K_GRID):
        problems.append(f"floors for ranks {ranks}, expected {list(RATE_K_GRID)}")
    values = [floors[k] for k in ranks]
    if not all(a > b for a, b in zip(values, values[1:])):
        problems.append(f"floors do not strictly decrease with rank: {floors}")
    ef = report["ef_comparison"]
    if not ef["floor_ef_standard"] < ef["floor_no_feedback"]:
        problems.append(f"ef floor {ef['floor_ef_standard']} not below "
                        f"no-feedback floor {ef['floor_no_feedback']}")
    # rate_sweep makes one rate fit per rank (full rank among them, since
    # the rank grid holds the dimension) plus one with feedback on; each
    # fit runs every T of the grid for every seed.
    fits = len(report["fits"]) + 1
    steps = fits * sum(report["t_grid"]) * len(report["seeds"])
    final_loss = report["fits"][str(RATE_DIM)]["mean_gaps"][-1]
    return Outcome(steps=steps, final_loss=final_loss, problems=tuple(problems))


def _run_argv(problem: list, steps: int) -> Callable[[int, Path], list]:
    def argv(seed: int, work: Path) -> list:
        return (["run", *problem, *GRADLITE, "--steps", str(steps), "--seed", str(seed),
                 "--out", str(work / "run.csv"), "--summary", str(work / "summary.json")])
    return argv


def _rate_argv(seed: int, work: Path) -> list:
    return ["rate-check", "--t-grid", ",".join(map(str, RATE_T_GRID)),
            "--seeds", str(seed),
            "--k-grid", ",".join(map(str, RATE_K_GRID)), "--c", "0.3",
            "--dim", str(RATE_DIM), "--cond", "100", "--sigma", "0.5",
            "--out", str(work / "rate.json")]


def _setup(spec: dict, fixed_seed: int | None = None):
    """Build the problem and its step-0 state as the command does."""
    def setup(gl, seed: int):
        seed = seed if fixed_seed is None else fixed_seed
        problem = gl.harness.build_problem(spec, seed)
        cfg = gl.optimizers.GradLiteConfig(eta=0.05, k=8, tau=10, seed=seed)
        return gl.optimizers.init_gradlite_state(problem, None, cfg)
    return setup


WORKLOADS = {w.name: w for w in (
    Workload(
        name="logistic-run",
        why="tall constant J: the 512-row matvec_t walk (projection and exact probe) "
            "dominates each step; same problem and config as acceptance criterion 6",
        seeds_per_run=4,
        argv=_run_argv(["--problem", "lowrank-logistic", "--n", "512", "--dim", "128",
                        "--cond", "1000"], LOGISTIC_STEPS),
        outputs=("run.csv", "summary.json"),
        check=lambda files: _check_run(files, LOGISTIC_STEPS),
        setup=_setup({"name": "lowrank-logistic", "n": 512, "d": 128, "cond": 1000.0}),
    ),
    Workload(
        name="mlp-run",
        why="three blocks whose J moves every step: per-block refresh and repeated "
            "forward passes dominate, kernels walk 32 rows; the only real set-up cost",
        seeds_per_run=48,
        argv=_run_argv(["--problem", "mlp", "--layers", "8,16,16,1", "--n", "32"],
                       MLP_STEPS),
        outputs=("run.csv", "summary.json"),
        check=lambda files: _check_run(files, MLP_STEPS),
        setup=_setup({"name": "mlp", "layers": (8, 16, 16, 1), "n": 32}),
    ),
    Workload(
        name="rate-sweep",
        why="criterion 5 at reduced size: many short lean runs, full-rank refresh of a "
            "constant J and one noise draw per step, no per-step recording",
        seeds_per_run=2,
        argv=_rate_argv,
        outputs=("rate.json",),
        check=_check_rate,
        # rate_check builds every problem with seed 0 and varies only the
        # noise and sketch seeds.
        setup=_setup({"name": "quadratic", "d": RATE_DIM, "cond": 100.0, "sigma": 0.5},
                     fixed_seed=0),
    ),
)}
