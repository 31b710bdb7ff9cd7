"""The toolkit functions that the benchmark in perfbench/ times or imports
must exist.

The benchmark binds to them by name from outside the package, so deleting or
renaming one would crash a benchmark run; these tests fail first.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _resolve(module_name: str, name: str):
    """`from module_name import name`: an attribute or a submodule."""
    module = importlib.import_module(module_name)
    if hasattr(module, name):
        return getattr(module, name)
    return importlib.import_module(f"{module_name}.{name}")


def test_timed_functions_exist():
    tracer = _load_tracer()
    for module_name, functions in tracer.TIMED.items():
        module = importlib.import_module(f"wattsplit.{module_name}")
        owner = module.SeededRng if module_name == "rng" else module
        for name in functions:
            assert callable(getattr(owner, name, None)), f"{module_name}.{name}"
    command_module, command = tracer.COMMAND.split(".")
    assert callable(_resolve(f"wattsplit.{command_module}", command))
    assert callable(_resolve("wattsplit.rng", "SeededRng").next_u64)


def test_benchmark_imports_resolve():
    imported = set()
    for path in sorted(PERFBENCH.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "wattsplit":
                for alias in node.names:
                    assert _resolve(node.module, alias.name) is not None, \
                        f"{path.name}: from {node.module} import {alias.name}"
                    imported.add(alias.name)
    assert {"checkpoint_save", "checkpoint_load", "ModelConfig", "params_from_dict",
            "predict_batches"} <= imported
