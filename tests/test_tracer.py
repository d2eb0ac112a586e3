"""The benchmark's tracer still finds every function it wraps.

`perfbench/tracer.py` wraps package functions by module and name; a rename
in the package would break traced benchmark runs, and this test catches it.
"""

import importlib.util
from pathlib import Path

import gradlite.cli  # noqa: F401  (loads every module the tracer wraps)
from gradlite import harness, linalg, lowrank, optimizers
from gradlite.harness import build_problem

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_removes_cleanly():
    originals = (linalg.truncated_svd, lowrank.factorize)
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
        assert linalg.truncated_svd is not originals[0]
        assert lowrank.truncated_svd is linalg.truncated_svd
    finally:
        tracer.remove()
    assert (linalg.truncated_svd, lowrank.factorize) == originals


def test_traced_step_times_each_block_jacobian_on_its_block():
    # The tracer reads the block from the `block` keyword (or the fourth
    # positional argument); a step that passed it positionally after theta
    # would book every block's Jacobian time to block 0.
    module = load_tracer()
    problem = build_problem({"name": "mlp", "layers": [4, 8, 8, 1], "n": 16}, 0)
    cfg = optimizers.GradLiteConfig(eta=0.05, k=2, seed=0)
    tracer = module.Tracer()
    try:
        tracer.install()
        state = optimizers.init_gradlite_state(problem, None, cfg)
        optimizers.gradlite_step(state, problem, cfg)
    finally:
        tracer.remove()
    field = {name: i for i, name in enumerate(module.SPAN_FIELDS)}
    jacobian = tracer.names.index("problems.jacobian")
    blocks = {span[field["block"]] for span in tracer.spans()
              if span[field["name_id"]] == jacobian and span[field["step"]] == 0}
    assert blocks == {0, 1, 2}


def traced_span_counts(run):
    """How many step and init spans a traced `run()` records."""
    module = load_tracer()
    tracer = module.Tracer()
    try:
        tracer.install()
        tracer.start_invocation()
        run()
    finally:
        tracer.remove()
    field = {name: i for i, name in enumerate(module.SPAN_FIELDS)}
    names = [tracer.names[span[field["name_id"]]] for span in tracer.spans()]
    return (names.count("optimizers.gradlite_step"),
            names.count("optimizers.init_gradlite_state"))


def test_traced_run_experiment_records_one_span_per_step_and_run():
    # The tracer wraps module attributes only; a driver that held the step
    # in a registry would call the unwrapped original and record nothing.
    spec = {"name": "mlp", "layers": [4, 8, 8, 1], "n": 16}
    counts = traced_span_counts(lambda: harness.run_experiment(
        spec, {"name": "gradlite", "k": 2}, 5, 0))
    assert counts == (5, 1)


def test_traced_rate_check_records_one_span_per_step_and_run():
    spec = {"name": "quadratic", "d": 4, "sigma": 0.5}
    t_grid, seeds = (2, 3, 4, 5), (0, 1)
    counts = traced_span_counts(lambda: harness.rate_check(spec, 2, t_grid, seeds, 0.3))
    assert counts == (sum(t_grid) * len(seeds), len(t_grid) * len(seeds))
