"""The benchmark's tracer (perfbench/spans.py) wraps rydchain functions by
module and name; a rename must fail here rather than when a traced run starts."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from rydchain.protocols import execute

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


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
