"""Per-layer metrics computed from a tracer's spans.

Each unit names its base: ``/step`` divides in-loop totals by the optimizer
steps traced, ``/call`` and ``/invocation`` divide every call's total.  A
metric of a function that a workload never calls reads 0.  ``mflop`` is
computed from the argument shapes (2 * rows * cols per matrix-vector call),
not counted by hardware.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

import numpy as np

BLOCKS = 3
PER_BLOCK = (("problems.jacobian", "self"), ("lowrank.factorize", "incl"),
             ("lowrank.projected_signal", "incl"), ("feedback.estimate_delta", "incl"))


class _Agg:
    __slots__ = ("calls", "incl", "self", "work")

    def __init__(self):
        self.calls = self.incl = self.self = self.work = 0


def layer_metrics(tracer, traced_walls: list, plain_walls: list, steps: int):
    """Return ({name: (value, unit)}, notes) for one traced run.

    traced_walls[i] and plain_walls[i] time the same command back to back.
    """
    everywhere = defaultdict(_Agg)   # every call
    in_loop = defaultdict(_Agg)      # calls inside the step loop only
    by_block = defaultdict(_Agg)     # in-loop, keyed (name, block)
    self_total = 0
    for _id, sid, start, end, _parent, _inv, _step, block, self_ns, loop, work in tracer.spans():
        name = tracer.names[sid]
        self_total += self_ns
        targets = [everywhere[name]]
        if loop:
            targets += [in_loop[name], by_block[(name, block)]]
        for agg in targets:
            agg.calls += 1
            agg.incl += end - start
            agg.self += self_ns
            agg.work += work

    step_calls = everywhere["optimizers.gradlite_step"].calls
    invocations = len(traced_walls)
    notes = {"traced_steps": step_calls, "traced_invocations": invocations,
             "refreshes": tracer.refreshes, "failures": []}
    if step_calls != steps:
        notes["failures"].append(
            f"traced {step_calls} gradlite_step calls, outputs imply {steps}")
    per_step = 1.0 / max(step_calls, 1)

    def loop_us(name, field="incl"):
        return getattr(in_loop[name], field) * per_step / 1e3

    # Counts go through exact fractions, so that runs with different
    # numbers of identical invocations report bit-identical ratios.
    def ratio(count, base):
        return float(Fraction(count, base)) if base else 0.0

    def loop_calls(name):
        return ratio(in_loop[name].calls, step_calls)

    def per_call_ms(name):
        agg = everywhere[name]
        return agg.incl / agg.calls / 1e6 if agg.calls else 0.0

    m = {}
    m["cli.main.self_ms"] = (everywhere["cli.main"].self / invocations / 1e6, "ms/invocation")
    m["harness.run_experiment.self_us"] = (
        everywhere["harness.run_experiment"].self * per_step / 1e3, "us/step")
    m["harness.rate_check.self_us"] = (everywhere["harness.rate_check"].self * per_step / 1e3,
                                       "us/step")
    m["harness.build_problem.ms"] = (per_call_ms("harness.build_problem"), "ms/call")
    m["harness.write.ms"] = (everywhere["harness.write"].incl / invocations / 1e6,
                          "ms/invocation")

    lat = np.asarray(tracer.step_latency_ns, dtype=np.float64) / 1e3
    m["optimizers.gradlite_step.self_us"] = (loop_us("optimizers.gradlite_step", "self"),
                                             "us/step")
    m["optimizers.gradlite_step.p50_us"] = (float(np.percentile(lat, 50)), "us")
    m["optimizers.gradlite_step.p99_us"] = (float(np.percentile(lat, 99)), "us")
    m["optimizers.init_gradlite_state.ms"] = (per_call_ms("optimizers.init_gradlite_state"),
                                              "ms/call")

    m["lowrank.factorize.calls"] = (loop_calls("lowrank.factorize"), "calls/step")
    m["lowrank.factorize.incl_us"] = (loop_us("lowrank.factorize"), "us/step")
    m["lowrank.factorize.same_input_ratio"] = (
        ratio(tracer.same_input_refreshes, tracer.refreshes), "ratio")
    m["lowrank.factorize.refreshes"] = (ratio(tracer.refreshes, invocations), "count/invocation")
    m["lowrank.projected_signal.incl_us"] = (loop_us("lowrank.projected_signal"), "us/step")
    m["lowrank.approx_gradient.incl_us"] = (loop_us("lowrank.approx_gradient"), "us/step")

    m["feedback.estimate_delta.incl_us"] = (loop_us("feedback.estimate_delta"), "us/step")
    m["feedback.accumulate.self_us"] = (
        loop_us("feedback.correct", "self") + loop_us("feedback.update_accumulator", "self"),
        "us/step")
    m["feedback.update_accumulator.calls"] = (loop_calls("feedback.update_accumulator"),
                                              "calls/step")

    for kernel in ("linalg.matvec_t", "linalg.matvec"):
        agg = in_loop[kernel]
        m[f"{kernel}.calls"] = (loop_calls(kernel), "calls/step")
        m[f"{kernel}.self_us"] = (loop_us(kernel, "self"), "us/step")
        m[f"{kernel}.mflop"] = (ratio(agg.work, step_calls * 10**6), "Mflop/step")
        m[f"{kernel}.gflops"] = (agg.work / agg.self if agg.self else 0.0, "Gflop/s")
    m["linalg.truncated_svd.calls"] = (loop_calls("linalg.truncated_svd"), "calls/step")
    m["linalg.truncated_svd.self_us"] = (loop_us("linalg.truncated_svd", "self"), "us/step")

    evals = ("problems.loss", "problems.error_signal", "problems.jacobian")
    m["problems.evals"] = (ratio(sum(in_loop[name].calls for name in evals), step_calls),
                           "evals/step")
    for name in evals:
        m[f"{name}.calls"] = (loop_calls(name), "calls/step")
        m[f"{name}.self_us"] = (loop_us(name, "self"), "us/step")
    m["problems.solve_optimum.ms"] = (per_call_ms("problems.solve_optimum"), "ms/call")

    m["rng.normals.calls"] = (loop_calls("rng.normals"), "calls/step")
    m["rng.normals.self_us"] = (loop_us("rng.normals", "self"), "us/step")

    for name, field in PER_BLOCK:
        for b in range(BLOCKS):
            value = getattr(by_block[(name, b)], field) * per_step / 1e3
            m[f"{name}.{field}_us.b{b}"] = (value, "us/step")

    wall_ns = sum(traced_walls) * 1e9
    # Paired, so a drift in machine speed between pairs cancels.
    ratio = np.median(np.asarray(traced_walls) / np.asarray(plain_walls))
    m["trace.overhead_pct"] = (100.0 * (float(ratio) - 1.0), "%")
    m["trace.bookkeeping_pct"] = (100.0 * tracer.bookkeeping_ns / wall_ns, "%")
    # Self times plus the tracer's own bookkeeping account for the whole
    # root span; what is left of the traced wall time was spent outside
    # cli.main.  A negative remainder would mean time counted twice.
    unattributed = wall_ns - self_total - tracer.bookkeeping_ns
    m["trace.unattributed_pct"] = (100.0 * unattributed / wall_ns, "%")
    if not -0.01 <= m["trace.unattributed_pct"][0] <= 1.0:
        notes["failures"].append(
            f"self times do not add up: unattributed {m['trace.unattributed_pct'][0]:.4f}%")
    notes["p99_samples_beyond"] = int(len(lat) * 0.01)
    return m, notes
