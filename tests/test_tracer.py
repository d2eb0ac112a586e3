"""The benchmark's tracer still finds every function it wraps.

`perfbench/tracer.py` wraps package functions by module and name; a rename
in the package would break traced benchmark runs, and this test catches it.
"""

import ast
import importlib.util
from pathlib import Path

import gradlite
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
        assert harness.factorize is optimizers.factorize is lowrank.factorize \
            is not originals[1]
    finally:
        tracer.remove()
    assert (linalg.truncated_svd, lowrank.factorize) == originals
    assert harness.factorize is optimizers.factorize is originals[1]


def test_traced_step_books_each_jacobian_read_to_block_0():
    # The init and each refresh read the whole J once, which the tracer
    # books to block 0; a step between refreshes probes without J.
    module = load_tracer()
    problem = build_problem({"name": "mlp", "layers": [4, 8, 8, 1], "n": 16}, 0)
    cfg = optimizers.GradLiteConfig(eta=0.05, k=2, tau=2, seed=0)  # refresh at step 2
    tracer = module.Tracer()
    try:
        tracer.install()
        state = optimizers.init_gradlite_state(problem, None, cfg)
        for _ in range(3):
            state, _ = optimizers.gradlite_step(state, problem, cfg)
    finally:
        tracer.remove()
    field = {name: i for i, name in enumerate(module.SPAN_FIELDS)}
    jacobian = tracer.names.index("problems.jacobian")
    blocks = {}
    for span in tracer.spans():
        if span[field["name_id"]] == jacobian:
            blocks.setdefault(span[field["step"]], []).append(span[field["block"]])
    assert blocks == {-1: [0], 2: [0]}  # the init's read, then step 2's


def test_package_jacobian_calls_pass_theta_alone():
    # The tracer books a Jacobian read to `int(kwargs.get("block", 0))`,
    # which a call of theta alone books to block 0.
    calls = 0
    for path in sorted(Path(gradlite.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "jacobian"):
                continue
            calls += 1
            where = f"{path.name}:{node.lineno}"
            assert len(node.args) == 1 and not isinstance(node.args[0], ast.Starred), where
            assert node.keywords == [], where
    assert calls > 0


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
    # Runs handed a step-0 factor still pass through the wrapped init, and
    # every run-step through the wrapped step.
    t_grid, seeds = (2, 3, 4, 5), (0, 1)
    counts = traced_span_counts(lambda: harness.rate_sweep(
        t_grid=t_grid, seeds=seeds, k_grid=(2, 4), d=4))
    fits = 3  # full rank 4, rank 2 without feedback, rank 4 with it
    assert counts == (fits * sum(t_grid) * len(seeds), fits * len(t_grid) * len(seeds))


def test_traced_rate_sweep_books_its_factors_to_set_up():
    # The sweep factorizes each rank before the first step, so no factorize
    # call counts as a refresh, and every run keeps the factor it is handed.
    module = load_tracer()
    tracer = module.Tracer()
    try:
        tracer.install()
        tracer.start_invocation()
        harness.rate_sweep(t_grid=(2, 3, 4, 5), seeds=(0, 1), k_grid=(2, 4), d=4)
    finally:
        tracer.remove()
    field = {name: i for i, name in enumerate(module.SPAN_FIELDS)}
    factorize = tracer.names.index("lowrank.factorize")
    in_loop = [span[field["in_loop"]] for span in tracer.spans()
               if span[field["name_id"]] == factorize]
    assert in_loop == [0, 0] and tracer.refreshes == 0


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
    # Each step projects through one matvec_t call and lifts through one
    # matvec call, on whole vectors, booked to block 0; the probe is the
    # MLP's reverse pass, no kernel call.  J is read at init and at the
    # refresh at step 10 only, which is one factorize of the whole J,
    # booked to block 0 too.
    steps = 12  # past the refresh at step 10
    field, tracer = traced_mlp_run(steps)
    names = ("linalg.matvec_t", "linalg.matvec", "lowrank.factorize", "problems.jacobian")
    per_step = {}
    for span in tracer.spans():
        name = tracer.names[span[field["name_id"]]]
        if name in names:
            key = (span[field["step"]], name)
            per_step.setdefault(key, []).append(span[field["block"]])
    assert per_step[(-1, "problems.jacobian")] == [0]  # the init's read
    for step in range(steps):
        refreshes = [0] if step == 10 else []
        for name, blocks in zip(names, ([0], [0], refreshes, refreshes)):
            assert per_step.get((step, name), []) == blocks, (step, name)


def test_traced_mlp_refresh_books_one_svd_inside_each_factorize():
    # The per-layer `lowrank.factorize` metrics read these spans.  A refresh
    # is one factorize of the whole J, which runs every block's SVD inside
    # it through linalg's shared core, not through `truncated_svd`: the SVD
    # work is the factorize span's own, whatever the number of blocks.
    field, tracer = traced_mlp_run(12)  # one in-loop refresh, at step 10
    spans = list(tracer.spans())
    name = tracer.names.index
    factorizes = [(span[field["step"]], span[field["block"]], span[field["in_loop"]])
                  for span in spans if span[field["name_id"]] == name("lowrank.factorize")]
    assert factorizes == [(-1, 0, 0), (10, 0, 1)]  # set-up's step-0 factor, then the refresh
    assert "linalg.truncated_svd" not in {tracer.names[span[field["name_id"]]] for span in spans}
