"""The benchmark's tracer still finds every function it wraps.

`perfbench/tracer.py` wraps package functions by module and name; a rename
in the package would break traced benchmark runs, and this test catches it.
"""

import importlib.util
from pathlib import Path

import gradlite.cli  # noqa: F401  (loads every module the tracer wraps)
from gradlite import harness, linalg, lowrank, optimizers
from gradlite.harness import build_problem
from gradlite.optimizers import GradLiteConfig

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


def traced_spans(run):
    """(name, parent's name or None) of each span a traced `run()` records."""
    module = load_tracer()
    tracer = module.Tracer()
    try:
        tracer.install()
        tracer.start_invocation()
        run()
    finally:
        tracer.remove()
    field = {name: i for i, name in enumerate(module.SPAN_FIELDS)}
    spans = list(tracer.spans())
    names = {span[field["span"]]: tracer.names[span[field["name_id"]]] for span in spans}
    return [(names[span[field["span"]]], names.get(span[field["parent"]]))
            for span in spans]


def traced_span_counts(run):
    """How many step and init spans a traced `run()` records."""
    names = [name for name, _ in traced_spans(run)]
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
    counts = traced_span_counts(
        lambda: harness.rate_check(build_problem(spec, 0), GradLiteConfig(k=2), t_grid,
                                   seeds, 0.3))
    assert counts == (sum(t_grid) * len(seeds), len(t_grid) * len(seeds))


def test_traced_rate_sweep_records_one_span_per_step_and_run():
    # Runs that reuse a step-0 factor still pass through the wrapped init,
    # and every run-step through the wrapped step.
    t_grid, seeds = (2, 3, 4, 5), (0, 1)
    counts = traced_span_counts(lambda: harness.rate_sweep(
        t_grid=t_grid, seeds=seeds, k_grid=(2, 4), d=4))
    fits = 3  # full rank 4, rank 2 without feedback, rank 4 with it
    assert counts == (fits * sum(t_grid) * len(seeds), fits * len(t_grid) * len(seeds))


def test_traced_kernels_book_each_call_once():
    # The projection and the exact probe are matvec_t calls, the lift a
    # matvec call.  Were one kernel to call the other through the module,
    # the tracer would book its calls under both names.
    steps = 7
    spans = traced_spans(lambda: harness.run_experiment(
        {"name": "lowrank-logistic", "n": 64, "d": 16}, {"name": "gradlite", "k": 4},
        steps, 0))
    kernels = ("linalg.matvec_t", "linalg.matvec")
    names = [name for name, _ in spans]
    assert [names.count(kernel) for kernel in kernels] == [2 * steps, steps]
    assert not [parent for name, parent in spans if name in kernels and parent in kernels]


def traced_mlp_run(steps):
    """The field index of each SPAN_FIELDS name, and the tracer after a
    traced `steps`-step run of the default method on a 3-block MLP."""
    module = load_tracer()
    tracer = module.Tracer()
    try:
        tracer.install()
        tracer.start_invocation()
        harness.run_experiment({"name": "mlp", "layers": [4, 8, 8, 1], "n": 16},
                               {"name": "gradlite", "k": 2}, steps, 0)
    finally:
        tracer.remove()
    return {name: i for i, name in enumerate(module.SPAN_FIELDS)}, tracer


def test_traced_mlp_step_books_each_kernel_on_its_block():
    # Per step and block, the default method projects and probes through
    # matvec_t, lifts through matvec and reads the block's Jacobian once;
    # the per-block layer metrics read these spans, so a fused kernel or
    # a Jacobian read for all blocks at once would empty them.
    steps = 12  # past the refresh at step 10
    field, tracer = traced_mlp_run(steps)
    names = ("linalg.matvec_t", "linalg.matvec", "problems.jacobian")
    per_step = {}
    for span in tracer.spans():
        name = tracer.names[span[field["name_id"]]]
        if name in names and span[field["in_loop"]]:
            key = (span[field["step"]], name)
            per_step.setdefault(key, []).append(span[field["block"]])
    for step in range(steps):
        for name, per_block in zip(names, (2, 1, 1)):
            blocks = sorted(per_step.get((step, name), []))
            assert blocks == sorted([0, 1, 2] * per_block), (step, name)


def test_traced_mlp_refresh_books_one_svd_inside_each_factorize():
    # The per-layer `linalg.truncated_svd` and `lowrank.factorize.*.b<i>`
    # metrics read these spans: a refresh that reached the SVD other than
    # through the wrapped `truncated_svd`, or called it twice, would empty
    # or double them.
    field, tracer = traced_mlp_run(12)  # one in-loop refresh, at step 10
    spans = list(tracer.spans())
    name = tracer.names.index
    refreshes = [span for span in spans if span[field["in_loop"]]
                 and span[field["name_id"]] == name("lowrank.factorize")]
    assert sorted(span[field["block"]] for span in refreshes) == [0, 1, 2]
    svds = [span for span in spans if span[field["name_id"]] == name("linalg.truncated_svd")]
    for refresh in refreshes:
        inside = [svd for svd in svds if svd[field["parent"]] == refresh[field["span"]]]
        assert [svd[field["block"]] for svd in inside] == [refresh[field["block"]]]
    # Besides them, only the three step-0 factors of set-up run an SVD, and
    # every SVD sits inside a factorize.
    assert len(svds) == 3 + len(refreshes)
    assert {svd[field["parent"]] for svd in svds} <= {
        span[field["span"]] for span in spans
        if span[field["name_id"]] == name("lowrank.factorize")}
