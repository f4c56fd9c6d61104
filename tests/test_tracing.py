"""The benchmark's tracer (perfbench/spans.py) wraps rydchain functions by
module and name, its work model (perfbench/workloads.py) counts the pulses
of rydchain's plans, and its output checks hold each pass to stored results;
a rename, a changed plan or a moved output must fail here rather than when a
benchmark run starts."""

import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

from rydchain.protocols import execute

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it runs
    spec.loader.exec_module(module)
    return module


def traced_layers() -> dict:
    return perfbench_module("spans").LAYERS


def test_every_traced_function_resolves():
    missing = [
        f"{metric}: rydchain.{mod_name}.{func_name}"
        for metric, funcs in traced_layers().items()
        for mod_name, func_name in funcs
        if not callable(getattr(importlib.import_module(f"rydchain.{mod_name}"), func_name, None))
    ]
    assert not missing


def test_execute_takes_the_plan_first():
    # the tracer's execute hook reads the plan from args[0]
    assert next(iter(inspect.signature(execute).parameters)) == "plan"


@pytest.mark.parametrize("name", ["disorder-table", "large-chain", "cli-pipeline"])
def test_work_counts_match_the_stored_ones(name, tmp_path):
    # perfbench/child.py marks a run incorrect when these differ
    workloads = perfbench_module("workloads")
    stored = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))["counts"]
    assert workloads.WORKLOADS[name](workloads.DEFAULT_SEED, tmp_path).counts() == stored[name]


@pytest.mark.parametrize("name", ["disorder-table", "large-chain", "cli-pipeline"])
def test_default_seed_pass_meets_the_stored_outputs(name, tmp_path):
    # perfbench/child.py marks a run's operations failed on these checks,
    # among them each stored mean to within 1e-12
    workloads = perfbench_module("workloads")
    expected = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))
    workload = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, tmp_path)
    assert workload.check(workload.run_pass(), expected) == {}
