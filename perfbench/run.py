"""gradlite benchmark: run one workload in-process through ``gradlite.cli.main``.

    python3 perfbench/run.py --workload logistic-run --seed 0 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` next to this directory and never from an installed copy.

Load model: a closed loop.  One process runs one CLI command at a time and
starts the next only when the previous one returned.  The BLAS thread count
is pinned in this process's environment before numpy loads.

``--trace 0`` measures the end-to-end metrics: one untimed warm-up
invocation, then invocations back to back for ``--seconds`` seconds,
cycling through the run's CLI seeds, with set-up timed in batches before
invocations and every time scaled by the speed probe (see `SpeedProbe`).
``--trace 1`` alternates untraced and traced invocations of the run's first
CLI seed for ``--seconds`` seconds and reports per-layer metrics from the
traced ones (see ``tracer.py`` and ``layers.py``).  Every invocation's
outputs are checked, and its output bytes must equal those of the first
invocation with the same CLI seed, traced or not.

Human-readable lines go to standard output first; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full report, and in a traced run every span, go to
``.perfbench_work/<workload>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402  (needs HERE on sys.path)

NPROC = len(os.sched_getaffinity(0))
# One BLAS thread, set before anything loads numpy: the matrices here are
# small, and on a small shared box a second OpenBLAS thread that waits for
# a busy core made set-up 10x slower and steps 2-3x slower and far noisier.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# Set-up is timed in batches of at least SETUP_BATCH_S before invocations,
# until SETUP_BUDGET_S of set-up has been timed (at least SETUP_MIN_REPS).
SETUP_BATCH_S = 0.02
SETUP_BUDGET_S = 1.5
SETUP_MIN_REPS = 5

# Reference duration of one SpeedProbe reading: end-to-end times are reported
# at the machine speed at which the probe takes this long (about the median
# on the 2-vCPU Xeon box the benchmark was tuned on).
PROBE_REF_S = 0.004
PROBE_SEGMENTS = 5


class SourceMissing(RuntimeError):
    pass


def import_gradlite():
    """Import the package from ROOT/src, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "gradlite" / "__init__.py").is_file():
        raise SourceMissing(f"no gradlite sources under {src}")
    sys.path.insert(0, str(src))
    import gradlite
    import gradlite.cli  # noqa: F401  (not imported by the package itself)
    if Path(gradlite.__file__).resolve().parent != src / "gradlite":
        raise SourceMissing(f"imported gradlite from {gradlite.__file__}, not {src}")
    return gradlite


def machine_block() -> dict:
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": NPROC, "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS}


class Runner:
    """Invokes the CLI and checks every output against the first of its seed."""

    def __init__(self, gl, workload, seed: int, work: Path):
        self.gl = gl
        self.workload = workload
        self.work = work
        self.seeds = workload.sub_seeds(seed)
        self.reference: dict[int, dict] = {}
        self.final_loss: dict[int, float] = {}
        self.attempted = 0
        self.failures: list[str] = []   # one entry per failed invocation
        self.run_problems: list[str] = []  # checks over the whole run

    def invoke(self, seed: int):
        """One CLI call; returns (wall seconds, steps) or None if it failed."""
        self.attempted += 1
        for name in self.workload.outputs:
            (self.work / name).unlink(missing_ok=True)
        argv = self.workload.argv(seed, self.work)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.gl.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed invocation, not a crash
            code = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        problems = []
        if code != 0:
            problems.append(f"exit {code!r}: {err.getvalue().strip()[:200]}")
        else:
            try:
                files = {name: (self.work / name).read_bytes() for name in self.workload.outputs}
                outcome = self.workload.check(files)
                problems.extend(outcome.problems)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
            else:
                first = self.reference.setdefault(seed, files)
                self.final_loss.setdefault(seed, outcome.final_loss)
                changed = [n for n in files if files[n] != first[n]]
                if changed:
                    problems.append(f"output bytes differ from the first run: {changed}")
        if problems:
            self.failures.append(f"seed {seed}: " + "; ".join(problems))
            return None
        return wall, outcome.steps


class SpeedProbe:
    """Times a fixed mix of interpreter, small-array numpy and LAPACK work
    that shares no code with gradlite.

    The machine this benchmark was tuned on is shared: its speed drifts by
    up to 1.6x over tens of seconds, which moved the median wall time of
    whole 30-second runs by 18% between runs.  Timing this probe on both
    sides of every invocation and scaling by PROBE_REF_S / probe removes
    most of that drift, while any change in gradlite's own speed passes
    through unscaled.
    """

    def __init__(self):
        import numpy as np
        self.np = np
        self.a = np.linspace(-1.0, 1.0, 256 * 64).reshape(256, 64)
        self.y = np.linspace(0.0, 1.0, 256)
        self.b = np.linspace(0.5, 2.0, 64 * 16).reshape(64, 16) + np.eye(64, 16)

    def _segment(self) -> float:
        np, a, y = self.np, self.a, self.y
        start = time.perf_counter()
        for _ in range(4):
            out = np.zeros(64)
            for i in range(256):
                out += a[i] * y[i]
            total = 0
            for i in range(2000):
                total += i * i
            np.linalg.qr(self.b)
        return time.perf_counter() - start

    def __call__(self) -> float:
        """Median of PROBE_SEGMENTS short segments, so one preempted segment
        does not count."""
        return statistics.median(self._segment() for _ in range(PROBE_SEGMENTS))


def run_untraced(gl, runner: Runner, seconds: float, report: dict) -> dict:
    workload = runner.workload
    runner.invoke(runner.seeds[0])  # warm-up: lazy imports, caches, reference bytes
    workload.setup(gl, runner.seeds[0])
    speed_probe = SpeedProbe()
    probe = speed_probe()
    setups, walls, rates, raw_walls, probes = [], [], [], [], [probe]
    setup_spent = 0.0
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i < len(runner.seeds):
        seed = runner.seeds[i % len(runner.seeds)]
        i += 1
        batch = []
        if setup_spent < SETUP_BUDGET_S or len(setups) < SETUP_MIN_REPS:
            while not batch or sum(batch) < SETUP_BATCH_S:
                start = time.perf_counter()
                workload.setup(gl, seed)
                batch.append(time.perf_counter() - start)
            setup_spent += sum(batch)
        res = runner.invoke(seed)
        if res is None:
            break
        after = speed_probe()
        probes.append(after)
        scale = PROBE_REF_S / ((probe + after) / 2.0)
        probe = after
        setups.extend(t * scale for t in batch)
        raw_walls.append(res[0])
        walls.append(res[0] * scale)
        rates.append(res[1] / walls[-1])
    if runner.failures:
        return {}
    losses = [runner.final_loss[s] for s in runner.seeds]
    report.update(setup_samples=len(setups), samples=len(walls), walls_s=walls,
                  raw_walls_s=raw_walls, probes_s=probes, final_losses=losses,
                  raw_wall_median_s=statistics.median(raw_walls))
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "steps_per_s": (statistics.median(rates), "1/s"),
        "final_loss": (statistics.fmean(losses), "loss"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run_traced(gl, runner: Runner, seconds: float, report: dict) -> dict:
    from tracer import Tracer
    from layers import layer_metrics
    runner.invoke(runner.seeds[0])  # warm-up, untraced
    tracer = Tracer()
    plain, traced, traced_steps = [], [], 0
    deadline = time.perf_counter() + seconds
    i = 0
    # One CLI seed throughout: per-step counts depend on the seed (a logistic
    # seed whose optimum solve fails skips the gap evaluation), so repeating
    # one command keeps every count exactly repeatable.
    seed = runner.seeds[0]
    while time.perf_counter() < deadline or i == 0:
        i += 1
        res = runner.invoke(seed)
        if res is None:
            break
        plain.append(res[0])
        tracer.install()
        try:
            tracer.start_invocation()
            res = runner.invoke(seed)
        finally:
            tracer.remove()
        if res is None:
            break
        traced.append(res[0])
        traced_steps += res[1]
    if runner.failures:
        return {}
    tracer.write_spans(runner.work / "spans.tsv.gz")
    metrics, notes = layer_metrics(tracer, traced, plain, traced_steps)
    report.update(samples=len(traced), traced_walls_s=traced, plain_walls_s=plain, notes=notes)
    runner.run_problems.extend(notes.pop("failures"))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        gl = import_gradlite()
    except (SourceMissing, ImportError) as exc:
        print(f"perfbench: cannot import gradlite: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / workload.name
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(gl, workload, args.seed, work)
    machine = machine_block()
    report = {"workload": workload.name, "seed": args.seed, "seeds": runner.seeds,
              "trace": args.trace, "seconds": args.seconds, "machine": machine,
              "argv": workload.argv(runner.seeds[0], Path("<work>"))}
    run = run_traced if args.trace else run_untraced
    metrics = run(gl, runner, args.seconds, report)
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report.update(failures=runner.failures, run_problems=runner.run_problems, metrics=reported)
    (work / f"report-trace{args.trace}.json").write_text(json.dumps(report, indent=2) + "\n")

    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"workload {workload.name} seed {args.seed} "
          f"(cli seeds {runner.seeds[0]}..{runner.seeds[-1]}), "
          f"trace {args.trace}, {report.get('samples', 0)} timed invocations")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    failed = len(runner.failures)
    print(f"  {'error_rate':<44} {failed / runner.attempted:>14.6g} "
          f"({failed} failed of {runner.attempted} invocations)")
    for failure in runner.failures[:10] + runner.run_problems:
        print(f"  FAILED {failure}")
    correct = failed == 0 and not runner.run_problems and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": failed,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
