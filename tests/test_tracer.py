"""The benchmark's tracer still finds every function it wraps.

`perfbench/tracer.py` wraps package functions by module and name; a rename
in the package would break traced benchmark runs, and this test catches it.
"""

import importlib.util
from pathlib import Path

import gradlite.cli  # noqa: F401  (loads every module the tracer wraps)
from gradlite import linalg, lowrank

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
