"""Every benchmark workload still sets up, runs and passes its own check.

`perfbench/workloads.py` holds each workload's set-up call, command line
and output check.  A package change that breaks one of them fails here,
once per workload at its first seed, rather than only in a benchmark run.
"""

import contextlib
import functools
import importlib.util
import io
import sys
from pathlib import Path

import pytest

import gradlite
import gradlite.cli

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@functools.cache
def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up by name
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name", ["logistic-run", "mlp-run", "rate-sweep"])
def test_workload_sets_up_runs_and_passes_its_check(name, tmp_path):
    workload = load_workloads()[name]
    seed = workload.sub_seeds(0)[0]
    workload.setup(gradlite, seed)
    with contextlib.redirect_stdout(io.StringIO()):
        assert gradlite.cli.main(workload.argv(seed, tmp_path)) == 0
    files = {out: (tmp_path / out).read_bytes() for out in workload.outputs}
    assert workload.check(files).problems == ()
